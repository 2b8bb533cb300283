"""Command-line front end.

Every subcommand is driven by a JSON config file (see the ``configs/``
directory in the repository for a worked example of each schema). ``--out``
overrides the config's output prefix in the commands that write files (all
but ``metric``), and ``--seed`` its seed in the three that draw random numbers
(``gen``, ``corrupt``, ``experiment``); a command refuses either where unused.

Exit codes: 0 on success, 1 for configuration problems and for inputs an
estimator, recovery routine or metric cannot handle, 2 for I/O problems.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import corruption, estimators, metrics
from .data import json_document, load_dataset_csv, read_dense_csv, save_dataset_csv
from .datagen import draw_latents, make_structure, synthesize
from .errors import (
    ConfigError,
    EstimatorFailure,
    MetricFailure,
    boolean,
    known_keys,
    number,
    numbers,
    whole_number,
)
from .experiment import (
    ingest_csv,
    load_config,
    load_json,
    parse_config,
    parse_estimator_spec,
    parse_recovery_spec,
    parse_synthetic_data,
    run_experiment,
    write_results,
)
from .recovery import RecoveryStatus
from .structure import load_structure_csv, save_structure_csv


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _out_prefix(cfg: dict, args) -> str:
    prefix = args.out if args.out is not None else cfg.get("out")
    if not prefix:
        raise ConfigError("no output prefix: set 'out' in the config or pass --out")
    return prefix


def _seed(cfg: dict, args, default=0) -> int:
    seed = args.seed if args.seed is not None else whole_number("seed", cfg.get("seed", default))
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


def cmd_gen(args) -> int:
    cfg = load_json(args.config)
    known_keys("gen", cfg, ("seed", "n_samples", "structure", "latent", "out"))
    seed = _seed(cfg, args)
    data = parse_synthetic_data(cfg, seed)
    a = make_structure(data.structure)
    ds = synthesize(a, draw_latents(data.latent, data.n_samples, np.random.default_rng(seed)))
    prefix = _out_prefix(cfg, args)
    save_dataset_csv(ds, f"{prefix}.data.csv")
    save_structure_csv(a, f"{prefix}.structure.csv")
    print(f"wrote {prefix}.data.csv ({ds.n_samples}x{ds.dim}) and {prefix}.structure.csv")
    return 0


def cmd_corrupt(args) -> int:
    cfg = load_json(args.config)
    known_keys(
        "corrupt", cfg, ("seed", "data_csv", "adversary", "budget", "structure_csv", "shift", "out")
    )
    seed = _seed(cfg, args)
    ds = load_dataset_csv(_need(cfg, "data_csv"))
    adversary = _need(cfg, "adversary")
    budget = number("budget", _need(cfg, "budget"))
    a = load_structure_csv(cfg["structure_csv"]) if cfg.get("structure_csv") else None
    rng = np.random.default_rng(seed)
    shift = number("shift", cfg.get("shift", corruption.DEFAULT_SHIFT))
    plan = corruption.make_plan(adversary, ds, budget, rng, shift=shift, structure=a)
    prefix = _out_prefix(cfg, args)
    corruption.save_plan_csv(plan, f"{prefix}.plan.csv")
    save_dataset_csv(corruption.apply_plan(ds, plan), f"{prefix}.corrupted.csv")
    print(f"wrote {prefix}.corrupted.csv and {prefix}.plan.csv ({len(plan)} edits)")
    return 0


def cmd_recover(args) -> int:
    cfg = load_json(args.config)
    ds = load_dataset_csv(_need(cfg, "data_csv"))
    prefix = _out_prefix(cfg, args)
    files = ("data_csv", "structure_csv", "out")  # every other key is the recovery spec's
    spec = parse_recovery_spec({k: v for k, v in cfg.items() if k not in files})
    a = load_structure_csv(cfg["structure_csv"]) if cfg.get("structure_csv") else None
    report = estimators.recover(ds, spec, a)
    save_dataset_csv(report.completed, f"{prefix}.recovered.csv")
    Path(f"{prefix}.report.json").write_text(json_document(report.to_dict()))
    counts = np.bincount(report.status, minlength=len(RecoveryStatus))
    print(
        f"wrote {prefix}.recovered.csv and {prefix}.report.json ({counts[RecoveryStatus.RECOVERED]}"
        f" recovered, {counts[RecoveryStatus.UNRECOVERABLE]} discarded)"
    )
    return 0


def cmd_estimate(args) -> int:
    cfg = load_json(args.config)
    known_keys("estimate", cfg, ("data_csv", "standardize", "estimator", "structure_csv", "out"))
    standardize = boolean("standardize", cfg.get("standardize", False))
    a = load_structure_csv(cfg["structure_csv"]) if cfg.get("structure_csv") else None
    ds, a = ingest_csv(_need(cfg, "data_csv"), standardize, a)
    spec = parse_estimator_spec(_need(cfg, "estimator"))
    vec = estimators.estimate(ds, spec, a)
    text = json_document({"estimator": spec.label, "estimate": [float(v) for v in vec]})
    if args.out is not None or cfg.get("out"):
        prefix = _out_prefix(cfg, args)
        Path(f"{prefix}.estimate.json").write_text(text)
        print(f"wrote {prefix}.estimate.json")
    else:
        print(text, end="")
    return 0


def cmd_metric(args) -> int:
    cfg = load_json(args.config)
    known_keys(
        "metric", cfg, ("kind", "left_csv", "right_csv", "estimate", "reference", "covariance_csv")
    )
    kind = _need(cfg, "kind")
    if kind in ("tv", "entrywise_avg", "entrywise_max"):
        left = metrics.load_distribution_csv(_need(cfg, "left_csv"))
        right = metrics.load_distribution_csv(_need(cfg, "right_csv"))
        if kind == "tv":
            value = metrics.tv_distance(left, right)
        elif kind == "entrywise_avg":
            value = metrics.entrywise_distance_avg(left, right)
        else:
            value = metrics.entrywise_distance_max(left, right)
    elif kind in ("l2", "mahalanobis"):
        est = numbers("estimate", _need(cfg, "estimate"))
        ref = numbers("reference", _need(cfg, "reference"))
        if kind == "l2":
            value = metrics.l2_error(est, ref)
        else:
            sigma = read_dense_csv(_need(cfg, "covariance_csv"))
            value = metrics.mahalanobis_error(est, ref, sigma)
    else:
        raise ConfigError(f"unknown metric kind {kind!r}")
    print(json.dumps({"kind": kind, "value": value}))
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["seed"] = args.seed
        cfg = parse_config(raw)
    prefix = _out_prefix(cfg.raw, args)
    result = run_experiment(cfg, threads=args.threads)
    csv_path, json_path = write_results(result, prefix)
    print(f"wrote {csv_path} and {json_path} ({len(result.rows)} rows)")
    return 0


_COMMANDS = {
    "gen": "generate a synthetic dataset and its structure matrix",
    "corrupt": "plan and apply corruption to a dataset CSV",
    "recover": "repair hidden entries of a dataset CSV",
    "estimate": "run one estimator on a dataset CSV",
    "metric": "evaluate a distance or error metric",
    "experiment": "run a full benchmark sweep",
}
_SEEDED = ("gen", "corrupt", "experiment")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``--seed`` only where a seed
    is used, and ``--out`` only where files are written."""
    parser = argparse.ArgumentParser(
        prog="entrymean",
        description="Structured mean estimation under cell-level corruption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        if name in _SEEDED:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name != "metric":
            p.add_argument("--out", default=None, help="override the output prefix")
        if name == "experiment":
            p.add_argument(
                "--threads", type=int, default=1, help="for compatibility; trials run serially"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]  # looked up per call, so it can be replaced
    try:
        return handler(args)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (EstimatorFailure, MetricFailure) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
