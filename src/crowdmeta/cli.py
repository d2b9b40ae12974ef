"""Command-line entry point: meta-train, evaluate, baseline, verify."""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import baselines, em
from . import metatrain as mt
from .annotators import AnnotatorDistribution, pseudo_annotate
from .config import ConfigError, RunSetup, build_run_setup, load_config
from .encoder import EncoderParams, forward, load_checkpoint, save_checkpoint
from .episodes import DataError, Episode, sample_episode
from .seeding import stream
from .verify import SUITES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

log = logging.getLogger("crowdmeta")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _dump_metrics(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _run_id(command: str, values: dict) -> str:
    blob = json.dumps({"command": command, "config": values}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _config_echo(values: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in values.items()}


def _parse_dist_flag(text: str) -> AnnotatorDistribution:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--dist expects e:h:s, got {text!r}")
    try:
        return AnnotatorDistribution.expert_hammer_spammer(*(float(p) for p in parts))
    except ValueError as exc:
        raise UsageError(f"--dist: {exc}") from None


def _annotator_stream(shots: int, r: int, dist: AnnotatorDistribution) -> str:
    """Label of the streams a grid cell's target-task annotators are drawn from."""
    key = "-".join(f"{kind.value[0]}{weight:g}" for kind, weight in dist.weights)
    return f"eval-annotators-s{shots}-r{r}-{key}"


def _list_flag(text: str, flag: str, parse=int) -> list:
    try:
        return [parse(p) for p in text.split(",") if p.strip()]
    except ValueError:
        what = "integers" if parse is int else "numbers"
        raise UsageError(f"{flag} expects comma-separated {what}, got {text!r}") from None


def _eval_grid(args, setup: RunSetup) -> tuple[list[int], list[int], list[AnnotatorDistribution]]:
    shots_list = _list_flag(args.shots, "--shots") if args.shots else [setup.meta.shots]
    r_list = (
        _list_flag(args.annotators, "--annotators")
        if args.annotators
        else [setup.meta.num_annotators]
    )
    if args.dist and args.spammer_ratio:
        raise UsageError("--dist and --spammer-ratio are mutually exclusive")
    if args.dist:
        dists = [_parse_dist_flag(args.dist)]
    elif args.spammer_ratio:
        dists = []
        for ratio in _list_flag(args.spammer_ratio, "--spammer-ratio", float):
            if not 0.0 <= ratio <= 0.9:
                raise UsageError(f"--spammer-ratio must lie in [0, 0.9], got {ratio}")
            dists.append(
                AnnotatorDistribution.expert_hammer_spammer(0.1, 0.9 - ratio, ratio)
            )
    else:
        dists = [setup.eval_dist]
    return shots_list, r_list, dists


def _test_episodes(setup: RunSetup, shots: int, seed: int) -> list[Episode]:
    return [
        sample_episode(
            setup.test_data,
            setup.meta.ways,
            shots,
            setup.meta.query_per_class,
            stream(seed, "test-episode", shots, i),
        )
        for i in range(setup.eval_tasks)
    ]


def cmd_meta_train(args) -> int:
    values = load_config(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    ablation = args.ablation == "no-pseudo-annotation"
    setup = build_run_setup(values, ablation_no_pseudo=ablation)
    os.makedirs(args.out, exist_ok=True)

    log.info("meta-training for up to %d iterations", setup.meta.max_iterations)
    result = mt.meta_train([setup.train_data], [setup.val_data], setup.meta)

    checkpoint_path = os.path.join(args.out, "checkpoint.bin")
    save_checkpoint(checkpoint_path, setup.meta.encoder, result.params)
    log_path = os.path.join(args.out, "training_log.tsv")
    with open(log_path, "w", encoding="utf-8") as fh:
        for row in result.log:
            fh.write(f"{row.iteration}\t{row.loss:.17g}\t{row.wall_ms:.3f}\t"
                     f"{row.pseudo_digest}\n")

    metrics = {
        "command": "meta-train",
        "run_id": _run_id("meta-train", _config_echo(values)),
        "config": _config_echo(values),
        "ablation": "no-pseudo-annotation" if ablation else None,
        "pseudo_annotation": setup.meta.pseudo_annotation,
        "iterations_run": result.iterations_run,
        "stopped_early": result.stopped_early,
        "best_iteration": result.best_iteration,
        "best_val_accuracy": result.best_val_accuracy,
        "val_history": [[it, acc] for it, acc in result.val_history],
        "artifacts": {"checkpoint": "checkpoint.bin", "training_log": "training_log.tsv"},
    }
    _dump_metrics(os.path.join(args.out, "metrics.json"), metrics)
    log.info("best validation accuracy %.4f at iteration %d",
             result.best_val_accuracy, result.best_iteration)
    return EXIT_OK


def _evaluate_cell(setup: RunSetup, params: EncoderParams, shots: int, r: int,
                   dist: AnnotatorDistribution, seed: int) -> dict:
    episodes = _test_episodes(setup, shots, seed)
    result = mt.evaluate(
        params,
        episodes,
        dist,
        setup.meta.hyper,
        r,
        seed,
        stream_label=_annotator_stream(shots, r, dist),
    )
    return {
        "shots": shots,
        "annotators": r,
        "dist": dist.to_dict(),
        "mean_acc": result.mean,
        "stderr": result.stderr,
        "n_tasks": len(episodes),
        "annotator_audit": [
            [p.to_dict() for p in profiles] for profiles in result.annotator_profiles
        ],
    }


def _load_checkpoint(path: str, setup: RunSetup) -> EncoderParams:
    encoder_config, params = load_checkpoint(path)
    if encoder_config.input_dim != setup.train_data.dim:
        raise ConfigError(
            f"checkpoint input dim {encoder_config.input_dim} does not match "
            f"data dim {setup.train_data.dim}"
        )
    return params


def cmd_evaluate(args) -> int:
    values = load_config(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    setup = build_run_setup(values)
    params = _load_checkpoint(args.checkpoint, setup)
    shots_list, r_list, dists = _eval_grid(args, setup)
    seed = int(values["seed"])
    cells_spec = [
        (shots, r, dist) for shots in shots_list for r in r_list for dist in dists
    ]
    # grid order: shots, then annotators, then the requested distributions
    cells = [_evaluate_cell(setup, params, *c, seed) for c in cells_spec]

    os.makedirs(args.out, exist_ok=True)
    metrics = {
        "command": "evaluate",
        "run_id": _run_id("evaluate", _config_echo(values)),
        "config": _config_echo(values),
        "checkpoint": os.path.basename(args.checkpoint),
        "cells": cells,
    }
    _dump_metrics(os.path.join(args.out, "metrics.json"), metrics)
    for cell in cells:
        log.info("shots=%d R=%d: acc %.4f +- %.4f",
                 cell["shots"], cell["annotators"], cell["mean_acc"], cell["stderr"])
    return EXIT_OK


def _baseline_cell(setup: RunSetup, params: EncoderParams | None, method: str,
                   shots: int, r: int, dist: AnnotatorDistribution, seed: int) -> dict:
    episodes = _test_episodes(setup, shots, seed)
    hyper = setup.meta.hyper
    recovery = np.empty(len(episodes))
    accuracy = np.empty(len(episodes))
    label = _annotator_stream(shots, r, dist)
    for i, episode in enumerate(episodes):
        k = episode.num_classes
        annotations, _ = pseudo_annotate(episode.support_y, r, dist, k, stream(seed, label, i))
        if method.endswith("ds"):
            weights, _, _ = baselines.dawid_skene(annotations, k, hyper, num_annotators=r)
            estimated = np.argmax(weights, axis=1)
        else:
            estimated, weights = baselines.majority_vote(annotations, k)
            weights = baselines.onehot(estimated, k)
        recovery[i] = float(np.mean(estimated == episode.support_y))
        support_u = forward(episode.support_x, params) if params is not None else episode.support_x
        query_u = forward(episode.query_x, params) if params is not None else episode.query_x
        fit = baselines.prototype_from_labels(support_u, weights, hyper.tau, hyper.b)
        predicted = em.predict_labels(query_u, fit.classifier)
        accuracy[i] = float(np.mean(predicted == episode.query_y))
    mean, stderr = mt.mean_and_stderr(accuracy)
    return {
        "method": method,
        "shots": shots,
        "annotators": r,
        "dist": dist.to_dict(),
        "mean_acc": mean,
        "stderr": stderr,
        "label_recovery_acc": float(np.mean(recovery)),
        "n_tasks": len(episodes),
    }


def cmd_baseline(args) -> int:
    if args.method not in ("mv", "ds", "proto-mv", "proto-ds"):
        raise UsageError(f"unknown baseline method {args.method!r}")
    values = load_config(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    setup = build_run_setup(values)
    if args.method.startswith("proto-") and not args.checkpoint:
        raise UsageError(f"method {args.method} requires --checkpoint")
    params = _load_checkpoint(args.checkpoint, setup) if args.checkpoint else None
    shots_list, r_list, dists = _eval_grid(args, setup)
    seed = int(values["seed"])
    cells = [
        _baseline_cell(setup, params, args.method, shots, r, dist, seed)
        for shots in shots_list
        for r in r_list
        for dist in dists
    ]
    os.makedirs(args.out, exist_ok=True)
    metrics = {
        "command": "baseline",
        "run_id": _run_id(f"baseline-{args.method}", _config_echo(values)),
        "config": _config_echo(values),
        "method": args.method,
        "cells": cells,
    }
    _dump_metrics(os.path.join(args.out, "metrics.json"), metrics)
    for cell in cells:
        log.info("%s shots=%d R=%d: acc %.4f, label recovery %.4f",
                 args.method, cell["shots"], cell["annotators"],
                 cell["mean_acc"], cell["label_recovery_acc"])
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown verify suite {name!r}")
    failed = False
    for name in names:
        report = SUITES[name]()
        print(report.line())
        failed = failed or not report.passed
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crowdmeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("meta-train", help="meta-train an encoder")
    train.add_argument("--config", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--ablation", choices=["no-pseudo-annotation"], default=None)
    train.set_defaults(func=cmd_meta_train)

    def add_grid_flags(p):
        p.add_argument("--shots", default=None, help="comma list, e.g. 1,3,5")
        p.add_argument("--annotators", default=None, help="comma list, e.g. 3,5,7")
        p.add_argument("--dist", default=None, help="expert:hammer:spammer weights")
        p.add_argument("--spammer-ratio", default=None,
                       help="comma list of spammer ratios; expert weight stays 0.1")

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on target tasks")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--config", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--seed", type=int, default=None)
    add_grid_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    base = sub.add_parser("baseline", help="run mv/ds/proto-mv/proto-ds baselines")
    base.add_argument("--method", required=True)
    base.add_argument("--config", required=True)
    base.add_argument("--out", required=True)
    base.add_argument("--checkpoint", default=None)
    base.add_argument("--seed", type=int, default=None)
    add_grid_flags(base)
    base.set_defaults(func=cmd_baseline)

    ver = sub.add_parser("verify", help="run a built-in verification suite")
    ver.add_argument("--suite", required=True,
                     help="one of: " + ", ".join(SUITES) + ", all")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CROWDMETA_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
