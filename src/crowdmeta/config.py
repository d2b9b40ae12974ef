"""Flat ``key = value`` run configuration.

Unknown keys are hard errors so typos cannot silently fall back to
defaults.  Lists are comma-separated, and a blank list is empty.  Any
other blank value means "unset", which only the keys without a default
(``csv_path``, ``val_dist``) may be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .annotators import AnnotatorDistribution
from .em import PriorHyperparams
from .encoder import EncoderConfig
from .metatrain import MetaConfig
from .episodes import DataError, LabeledDataset, generate_synthetic, load_csv, split_classes
from .seeding import stream


class ConfigError(ValueError):
    """Bad run configuration: unknown key, unparsable value..."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(parse_item: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        text = text.strip()
        return tuple(parse_item(part) for part in text.split(",")) if text else ()
    return parse


_parse_int_list = _parse_list(int)
_parse_float_list = _parse_list(float)


def _parse_positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # NaN fails this too
        raise ValueError(f"must be a finite number > 0, got {text.strip()!r}")
    return value


def _parse_finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return value


# key -> (parser, default); None defaults mean "optional, unset"
SCHEMA: dict[str, tuple[Callable[[str], object], object]] = {
    # data
    "synthetic_classes": (int, 50),
    "feature_dim": (int, 8),
    "cluster_spread": (_parse_finite_float, 1.0),
    "examples_per_class": (int, 40),
    "csv_path": (str, None),
    "label_column": (str, "label"),
    "split_fractions": (_parse_float_list, (0.8, 0.1, 0.1)),
    # episode shape
    "ways": (int, 4),
    "shots": (int, 1),
    "query_per_class": (int, 10),
    "annotators": (int, 5),
    # encoder
    "hidden_dims": (_parse_int_list, (32,)),
    "embed_dim": (int, 8),
    # priors
    "tau": (_parse_positive_float, 1.0),
    "class_prior_strength": (_parse_positive_float, 1.0),
    "confusion_strength": (_parse_positive_float, 1.0),
    "em_steps": (int, 2),
    # training
    "learning_rate": (_parse_positive_float, 1e-3),
    "max_iterations": (int, 2000),
    "validation_interval": (int, 200),
    "patience": (int, 5),
    "val_episodes_per_task": (int, 10),
    "meta_batch": (int, 1),
    "pseudo_annotation": (_parse_bool, True),
    "pseudo_dist": (_parse_float_list, (0.1, 0.7, 0.2)),
    "val_dist": (_parse_float_list, None),
    "seed": (int, 0),
    # evaluation
    "eval_tasks": (int, 50),
    "eval_dist": (_parse_float_list, (0.1, 0.7, 0.2)),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse the flat format, apply defaults, reject unknown keys."""
    values: dict[str, object] = {key: default for key, (_, default) in SCHEMA.items()}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{line_no}: unknown config key {key!r}")
        parser, default = SCHEMA[key]
        value = value.strip()
        if value == "" and default is None:
            values[key] = None
            continue
        if value == "" and not isinstance(default, tuple):  # a blank list is the empty list
            raise ConfigError(f"{source}:{line_no}: {key} needs a value")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: bad value for {key}: {exc}") from None
    return values


def load_config(path: str) -> dict[str, object]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read(), source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _distribution(weights: tuple[float, ...], key: str) -> AnnotatorDistribution:
    if len(weights) != 3:
        raise ConfigError(f"{key} needs three weights (expert, hammer, spammer)")
    try:
        return AnnotatorDistribution.expert_hammer_spammer(*weights)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass
class RunSetup:
    """Config resolved into the objects a command consumes."""

    values: dict[str, object]
    train_data: LabeledDataset
    val_data: LabeledDataset
    test_data: LabeledDataset
    meta: MetaConfig
    eval_tasks: int
    eval_dist: AnnotatorDistribution


def build_run_setup(values: dict[str, object]) -> RunSetup:
    seed = int(values["seed"])
    eval_tasks = int(values["eval_tasks"])
    if eval_tasks < 1:
        raise ConfigError(f"eval_tasks must be >= 1 (got {eval_tasks})")
    if values["csv_path"]:
        dataset = load_csv(str(values["csv_path"]), str(values["label_column"]))
    else:
        dataset = generate_synthetic(
            num_classes=int(values["synthetic_classes"]),
            dim=int(values["feature_dim"]),
            cluster_spread=float(values["cluster_spread"]),
            examples_per_class=int(values["examples_per_class"]),
            seed=int(stream(seed, "dataset").integers(2**63)),
        )
    fractions = values["split_fractions"]
    if len(fractions) != 3:
        raise ConfigError("split_fractions needs three values")
    try:
        train, val, test = split_classes(
            dataset, tuple(fractions), int(stream(seed, "class-split").integers(2**63))
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    ways = int(values["ways"])
    for name, split in (("train", train), ("validation", val), ("test", test)):
        if len(split.class_ids) < ways:
            raise ConfigError(
                f"{name} split has {len(split.class_ids)} of {len(dataset.class_ids)} "
                f"classes, fewer than ways = {ways}; add classes or change split_fractions"
            )

    hyper = PriorHyperparams(
        tau=float(values["tau"]),
        b=float(values["class_prior_strength"]),
        c=float(values["confusion_strength"]),
        em_steps=int(values["em_steps"]),
    )
    encoder = EncoderConfig(
        input_dim=dataset.dim,
        hidden_dims=tuple(values["hidden_dims"]),
        output_dim=int(values["embed_dim"]),
        init_seed=int(stream(seed, "encoder-init").integers(2**31)),
    )
    val_dist = values["val_dist"]
    meta = MetaConfig(
        ways=ways,
        shots=int(values["shots"]),
        query_per_class=int(values["query_per_class"]),
        num_annotators=int(values["annotators"]),
        pseudo_dist=_distribution(tuple(values["pseudo_dist"]), "pseudo_dist"),
        hyper=hyper,
        encoder=encoder,
        learning_rate=float(values["learning_rate"]),
        max_iterations=int(values["max_iterations"]),
        validation_interval=int(values["validation_interval"]),
        patience=int(values["patience"]),
        val_episodes_per_task=int(values["val_episodes_per_task"]),
        meta_batch=int(values["meta_batch"]),
        pseudo_annotation=bool(values["pseudo_annotation"]),
        val_dist=_distribution(tuple(val_dist), "val_dist") if val_dist else None,
        master_seed=seed,
    )
    return RunSetup(
        values=values,
        train_data=train,
        val_data=val,
        test_data=test,
        meta=meta,
        eval_tasks=eval_tasks,
        eval_dist=_distribution(tuple(values["eval_dist"]), "eval_dist"),
    )
