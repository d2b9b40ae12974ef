"""Command-line entry point: meta-train, evaluate, baseline, verify."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import os
import sys
from typing import Iterator

import numpy as np

from . import baselines
from . import metatrain as mt
from .annotators import KINDS, AnnotatorDistribution
from .config import ConfigError, RunSetup, build_run_setup, load_config
from .encoder import EncoderParams, load_checkpoint, save_checkpoint
from .episodes import DataError, Episode
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
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _run_values(args) -> dict:
    """The run's config values with the command line's settings written in.

    Every setting of a run is one of these values, so ``run_id`` and the
    config echo in ``metrics.json`` cover it.
    """
    values = load_config(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    if getattr(args, "ablation", None) == "no-pseudo-annotation":
        values["pseudo_annotation"] = False
    return values


def _write_metrics(args, values: dict, fields: dict) -> None:
    """Write ``metrics.json`` in ``--out``: the run's header, then ``fields``.

    The header is the command, the config values and ``run_id``, a hash of
    the two; a baseline's run_id also hashes its method.  The file is strict
    JSON: a NaN or infinity raises ValueError before the file is opened.
    """
    run = f"baseline-{args.method}" if args.command == "baseline" else args.command
    blob = json.dumps({"command": run, "config": values}, sort_keys=True, default=str)
    header = {"command": args.command, "run_id": hashlib.sha256(blob.encode()).hexdigest()[:12],
              "config": values}
    text = json.dumps(header | fields, sort_keys=True, indent=2, allow_nan=False)
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
    what = "integers" if parse is int else "numbers"
    try:
        values = [parse(p) for p in text.split(",") if p.strip()]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"{flag} expects comma-separated {what}, got {text!r}")
    return values


def _count_flag(text: str, flag: str) -> list[int]:
    counts = _list_flag(text, flag)
    if min(counts) < 1:
        raise UsageError(f"{flag} expects integers >= 1, got {text!r}")
    return counts


def _eval_grid(args, setup: RunSetup) -> list[tuple[int, int, AnnotatorDistribution]]:
    """The grid cells in order: shots, then annotators, then the requested distributions."""
    shots_list = _count_flag(args.shots, "--shots") if args.shots else [setup.meta.shots]
    r_list = (
        _count_flag(args.annotators, "--annotators")
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
    return [(shots, r, dist) for shots in shots_list for r in r_list for dist in dists]


def _test_episodes(setup: RunSetup, params: EncoderParams | None, shots: int,
                   seed: int) -> list[Episode]:
    """A shots value's test episodes as stacked chunks, embedded by ``params`` unless it is None.

    They are drawn, stacked and embedded one chunk at a time
    (:func:`~crowdmeta.metatrain.episode_chunks`), so that raw copies of one
    chunk at most are alive beside the embedded episodes.
    """
    chunks = mt.episode_chunks(setup.test_data, [(shots, i) for i in range(setup.eval_tasks)],
                               setup.meta.ways, shots, setup.meta.query_per_class, seed,
                               "test-episode")
    return [chunk if params is None else mt.embed_episodes(params, chunk) for chunk in chunks]


def cmd_meta_train(args) -> int:
    setup = build_run_setup(_run_values(args))
    log.info("meta-training for up to %d iterations", setup.meta.max_iterations)
    result = mt.meta_train([setup.train_data], [setup.val_data], setup.meta)

    os.makedirs(args.out, exist_ok=True)  # after training: a failed run leaves no directory
    checkpoint_path = os.path.join(args.out, "checkpoint.bin")
    save_checkpoint(checkpoint_path, setup.meta.encoder, result.params)
    log_path = os.path.join(args.out, "training_log.tsv")
    with open(log_path, "w", encoding="utf-8") as fh:
        for row in result.log:
            fh.write(f"{row.iteration}\t{row.loss:.17g}\t{row.wall_ms:.3f}\t"
                     f"{row.pseudo_digest}\n")

    _write_metrics(args, setup.values, {
        "ablation": args.ablation,
        "pseudo_annotation": setup.meta.pseudo_annotation,
        "iterations_run": result.iterations_run,
        "stopped_early": result.stopped_early,
        "best_iteration": result.best_iteration,
        # NaN when no validation ran, which strict JSON has no literal for
        "best_val_accuracy": result.best_val_accuracy if result.val_history else None,
        "val_history": [[it, acc] for it, acc in result.val_history],
        "artifacts": {"checkpoint": "checkpoint.bin", "training_log": "training_log.tsv"},
    })
    log.info("best validation accuracy %.4f at iteration %d",
             result.best_val_accuracy, result.best_iteration)
    return EXIT_OK


def _grid_cell(setup: RunSetup, chunks: list[Episode], shots: int, r: int,
               dist: AnnotatorDistribution, seed: int, fit: mt.Fit) -> tuple[dict, mt.EvalResult]:
    """A grid cell's metrics and its evaluation: ``fit`` scored on its shots value's tasks."""
    result = mt.evaluate(chunks, dist, setup.meta.hyper, r, seed,
                         stream_label=_annotator_stream(shots, r, dist), fit=fit)
    return {"shots": shots, "annotators": r, "dist": dist.to_dict(), "mean_acc": result.mean,
            "stderr": result.stderr, "label_recovery_acc": float(np.mean(result.recovery)),
            "n_tasks": len(result.accuracies)}, result


def _load_checkpoint(path: str, setup: RunSetup) -> EncoderParams:
    encoder_config, params = load_checkpoint(path)
    if encoder_config.input_dim != setup.train_data.dim:
        raise ConfigError(
            f"checkpoint input dim {encoder_config.input_dim} does not match "
            f"data dim {setup.train_data.dim}"
        )
    return params


def _run_grid(args, fit: mt.Fit) -> tuple[dict, Iterator[tuple[dict, mt.EvalResult]]]:
    """The run's config values, and its grid cells' metrics and evaluations in grid order.

    The cells are scored as they are iterated.  Each shots value's test
    episodes are drawn and embedded once (:func:`_test_episodes`); every
    (annotators, dist) cell of that shots value is scored on them, and they
    are freed before the next shots value is drawn.  Without
    ``--checkpoint`` the raw features are scored; the ``mv`` and ``ds``
    baselines score raw features only.
    """
    values = _run_values(args)
    setup = build_run_setup(values)
    grid = _eval_grid(args, setup)  # usage errors before any file
    if (args.command == "baseline" and args.method in ("mv", "ds")
            and args.checkpoint is not None):
        raise UsageError(f"method {args.method} scores raw features; "
                         f"use proto-{args.method} with --checkpoint")
    params = None if args.checkpoint is None else _load_checkpoint(args.checkpoint, setup)
    seed = int(values["seed"])

    def cells():
        for shots, specs in itertools.groupby(grid, key=lambda spec: spec[0]):
            chunks = _test_episodes(setup, params, shots, seed)
            for _, r, dist in specs:
                yield _grid_cell(setup, chunks, shots, r, dist, seed, fit)
            del chunks  # peak memory: one shots value's episodes at a time

    return values, cells()


def cmd_evaluate(args) -> int:
    values, scored = _run_grid(args, mt.fit_em)
    cells, audit = [], []
    kind_prefixes = ['{"kind":' + json.dumps(kind.value) for kind in KINDS]
    for cell, result in scored:
        cells.append(cell)
        # each line is the compact, key-sorted json.dumps of the task's dict,
        # written by hand: the cell's part is encoded once, q is repr(q) as
        # json writes floats, and a spammer's NaN q has no key; strings also
        # hold the grid's audit in less memory than dicts would
        head = json.dumps({k: cell[k] for k in ("annotators", "dist")},
                          sort_keys=True, separators=(",", ":"))[:-1] + ',"profiles":['
        tail = f'],"shots":{cell["shots"]:d},"task":'
        for i, (codes, accuracies) in enumerate(zip(result.annotator_kinds.tolist(),
                                                    result.annotator_q.tolist())):
            profiles = ",".join([kind_prefixes[c] + ("}" if math.isnan(q) else f',"q":{q!r}}}')
                                 for c, q in zip(codes, accuracies)])
            audit.append(f"{head}{profiles}{tail}{i}}}")
        del result  # free these arrays before the next cell draws its own: peak memory

    os.makedirs(args.out, exist_ok=True)
    _write_metrics(args, values,
                   {"checkpoint": os.path.basename(args.checkpoint), "cells": cells})
    with open(os.path.join(args.out, "annotator_audit.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in audit)
    for cell in cells:
        log.info("shots=%d R=%d: acc %.4f +- %.4f",
                 cell["shots"], cell["annotators"], cell["mean_acc"], cell["stderr"])
    return EXIT_OK


def cmd_baseline(args) -> int:
    if args.method not in ("mv", "ds", "proto-mv", "proto-ds"):
        raise UsageError(f"unknown baseline method {args.method!r}")
    if args.method.startswith("proto-") and not args.checkpoint:
        raise UsageError(f"method {args.method} requires --checkpoint")
    fit = baselines.fit_dawid_skene if args.method.endswith("ds") else baselines.fit_majority_vote
    values, scored = _run_grid(args, fit)
    cells = [{"method": args.method} | cell for cell, _ in scored]
    os.makedirs(args.out, exist_ok=True)
    _write_metrics(args, values, {"method": args.method, "cells": cells})
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


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")  # CROWDMETA_LOG's values


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CROWDMETA_LOG") or "INFO"
    if level.upper() not in LOG_LEVELS:
        print(f"error: CROWDMETA_LOG must be one of {', '.join(LOG_LEVELS)} (got {level!r})",
              file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
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
