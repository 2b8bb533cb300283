"""Benchmark harness: sweep corruption budgets, score estimators, emit tables.

A run is fully described by an :class:`ExperimentConfig`. Its result is one
array of scores on the config's (method, budget, trial, metric) axes, in the
config's order; a cell whose method or metric fails on the corrupted data
keeps NaN, which the CSV writer renders as ``NA``. Reruns with the same config
are byte-identical: per-trial randomness derives from ``seed + trial``, and
the CSV lists the cells in the array's (C) order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .corruption import ADVERSARIES, DEFAULT_SHIFT, apply_plan, make_plan
from .data import Dataset, _reduce_visible_columns, json_document, load_dataset_csv
from .datagen import (
    LatentSpec,
    StructureSpec,
    draw_latents,
    make_structure,
    population_covariance,
    population_mean,
    synthesize,
)
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
from .estimators import EstimatorSpec, RecoverySpec, empirical_mean, estimate
from .metrics import METRICS, evaluate
from .structure import StructureMatrix, load_structure_csv

METRIC_KINDS = tuple(kind for kind, (_, takes) in METRICS.items() if "estimate" in takes)
NA = "NA"


@dataclass(frozen=True, eq=False)
class DataConfig:
    kind: str  # "synthetic" or "csv"
    structure: StructureSpec | None = None
    latent: LatentSpec | None = None
    n_samples: int = 0
    path: str | None = None
    standardize: bool = False
    structure_path: str | None = None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    seed: int
    trials: int
    adversary: str
    budgets: tuple[float, ...]
    data: DataConfig
    methods: tuple[EstimatorSpec, ...]
    metrics: tuple[str, ...] = ("l2",)
    shift: float = DEFAULT_SHIFT
    raw: dict | None = None


@dataclass(frozen=True)
class ResultRow:
    """One line of a results CSV (:func:`read_result_rows`)."""

    method: str
    budget: float
    trial: int
    metric: str
    value: float  # NaN encodes a failed evaluation


@dataclass
class ExperimentResult:
    """``values[i, j, t, k]``: method i's metric k at budget j in trial t, in the
    config's order; NaN where the estimate or the metric failed."""

    config: ExperimentConfig
    values: np.ndarray

    def summary(self) -> list[dict]:
        """Mean and standard deviation over the trials that produced a value."""
        cfg, out = self.config, []
        for spec, per_method in zip(cfg.methods, self.values):
            for budget, per_budget in zip(cfg.budgets, per_method):
                for metric, trials in zip(cfg.metrics, per_budget.T):
                    vals = trials[~np.isnan(trials)]
                    out.append(
                        {
                            "method": spec.label,
                            "budget": budget,
                            "metric": metric,
                            "mean": float(np.mean(vals)) if vals.size else None,
                            "sd": float(np.std(vals)) if vals.size else None,
                            "n": vals.size,
                        }
                    )
        return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def parse_recovery_spec(obj: dict) -> RecoverySpec:
    """A :class:`RecoverySpec` from ``method`` and the optional ``rank``; a retired
    or unknown key is refused, so no config runs quietly on a value it did not ask for."""
    _require(isinstance(obj, dict) and "method" in obj, "recovery needs a 'method'")
    for key in ("exponent", "max_iter", "tol"):
        _require(key not in obj, f"{key} is no longer a recovery option")
    known_keys("recovery", obj, ("method", "rank"))
    try:
        return RecoverySpec(obj["method"], obj.get("rank"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def parse_estimator_spec(obj: dict) -> EstimatorSpec:
    _require(isinstance(obj, dict), "each method must be an object")
    _require("kind" in obj, "method needs a 'kind'")
    known_keys("estimator", obj, ("kind", "recovery", "inner", "name"))
    _require(obj["kind"] == "two_step" or "inner" not in obj, "inner is for two_step only")
    rec = obj.get("recovery")
    recovery = None if rec is None else parse_recovery_spec(rec)
    try:
        return EstimatorSpec(
            kind=obj["kind"],
            recovery=recovery,
            inner=obj.get("inner", "empirical_mean"),
            name=obj.get("name"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def parse_structure_spec(obj: dict, default_seed: int) -> StructureSpec:
    """The structure spec ``obj``; ``default_seed`` seeds it when it names no seed."""
    _require(isinstance(obj, dict) and "kind" in obj, "structure needs a 'kind'")
    known_keys("structure", obj, ("kind", "n", "r", "blocks", "entries", "seed"))
    try:
        return StructureSpec(
            kind=obj["kind"],
            n=whole_number("n", obj["n"]),
            r=whole_number("r", obj["r"]),
            blocks=tuple(tuple(b) for b in obj["blocks"]) if obj.get("blocks") else None,
            entries=numbers("entries", obj["entries"]) if "entries" in obj else None,
            seed=whole_number("seed", obj["seed"]) if obj.get("seed") is not None else default_seed,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad structure spec: {exc}") from None


def parse_latent_spec(obj: dict) -> LatentSpec:
    _require(isinstance(obj, dict) and "kind" in obj, "latent needs a 'kind'")
    known_keys("latent", obj, ("kind", "dim", "mean", "scale"))
    try:
        return LatentSpec(
            kind=obj["kind"],
            dim=whole_number("dim", obj["dim"]),
            mean=numbers("mean", obj.get("mean", 0.0)),
            scale=numbers("scale", obj.get("scale", 1.0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad latent spec: {exc}") from None


def parse_synthetic_data(obj: dict, seed: int) -> DataConfig:
    """Synthetic data from ``structure``, ``latent`` and ``n_samples``; ``seed``
    seeds a structure that names no seed of its own."""
    _require("structure" in obj, "synthetic data needs a structure spec")
    _require("latent" in obj, "synthetic data needs a latent spec")
    n_samples = whole_number("n_samples", obj.get("n_samples", 0))
    _require(n_samples >= 1, "n_samples must be at least 1")
    data = DataConfig(
        kind="synthetic",
        structure=parse_structure_spec(obj["structure"], default_seed=seed),
        latent=parse_latent_spec(obj["latent"]),
        n_samples=n_samples,
    )
    _require(data.structure.r == data.latent.dim, "latent dimension must match the structure's r")
    return data


def parse_config(obj: dict) -> ExperimentConfig:
    _require(isinstance(obj, dict), "config must be a JSON object")
    known_keys(
        "experiment",
        obj,
        ("seed", "trials", "adversary", "budgets", "data", "methods", "metrics", "shift", "out"),
    )
    seed = whole_number("seed", obj.get("seed", 0))
    _require(seed >= 0, "seed must be nonnegative")
    trials = whole_number("trials", obj.get("trials", 1))
    _require(trials >= 1, "trials must be at least 1")
    adversary = obj.get("adversary")
    _require(adversary in ADVERSARIES, f"adversary must be one of {ADVERSARIES}")
    budgets = tuple(number("budgets", b) for b in obj.get("budgets", ()))
    _require(len(budgets) >= 1, "at least one budget is required")
    _require(all(0.0 <= b <= 1.0 for b in budgets), "budgets must lie in [0, 1]")
    _require(
        all(b1 < b2 for b1, b2 in zip(budgets, budgets[1:])),
        "budgets must be strictly increasing",
    )
    data_obj = obj.get("data")
    _require(isinstance(data_obj, dict) and "kind" in data_obj, "data needs a 'kind'")
    if data_obj["kind"] == "synthetic":
        known_keys("data", data_obj, ("kind", "structure", "latent", "n_samples"))
        data = parse_synthetic_data(data_obj, seed)
    elif data_obj["kind"] == "csv":
        known_keys("data", data_obj, ("kind", "path", "standardize", "structure_path"))
        _require("path" in data_obj, "csv data needs a 'path'")
        data = DataConfig(
            kind="csv",
            path=str(data_obj["path"]),
            standardize=boolean("standardize", data_obj.get("standardize", False)),
            structure_path=data_obj.get("structure_path"),
        )
    else:
        raise ConfigError("data kind must be 'synthetic' or 'csv'")
    methods_obj = obj.get("methods")
    _require(isinstance(methods_obj, list) and methods_obj, "at least one method is required")
    methods = tuple(parse_estimator_spec(m) for m in methods_obj)
    labels = [m.label for m in methods]
    _require(len(set(labels)) == len(labels), "method labels must be unique")
    metrics = tuple(obj.get("metrics", ["l2"]))
    _require(
        metrics and all(m in METRIC_KINDS for m in metrics),
        f"metrics must be a nonempty subset of {METRIC_KINDS}",
    )
    return ExperimentConfig(
        seed=seed,
        trials=trials,
        adversary=adversary,
        budgets=budgets,
        data=data,
        methods=methods,
        metrics=metrics,
        shift=number("shift", obj.get("shift", DEFAULT_SHIFT)),
        raw=obj,
    )


def load_json(path) -> dict:
    """Read a JSON config file; malformed JSON or a non-object raises :class:`ConfigError`."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


def load_config(path) -> ExperimentConfig:
    return parse_config(load_json(path))


def ingest_csv(
    path, standardize: bool = False, structure: StructureMatrix | None = None
) -> tuple[Dataset, StructureMatrix | None]:
    """Load a decimal CSV table; optionally standardize each coordinate, and the
    structure with it.

    Standardization centers each coordinate and divides it by the spread of its
    visible entries (by 1 where that is zero). Without a structure the center is
    their mean. With a structure A the table is centered at A z, z the
    least-squares fit of A's rows to those means over the coordinates with a
    visible entry, and A's rows are divided by the same spreads: rows x = A w
    become (A / sd)(w - z), which the returned structure still holds.
    Coordinates with no visible entry are left as they are.
    """
    ds = load_dataset_csv(path)
    if not standardize:
        return ds, structure
    seen = np.flatnonzero(~ds.mask.all(axis=0))
    values, mask = ds.values[:, seen], ds.mask[:, seen]
    center = _reduce_visible_columns(values, mask, np.mean)
    spread = _reduce_visible_columns(values, mask, np.std)
    spread[spread == 0] = 1.0
    if structure is not None:
        if structure.n != ds.dim:
            raise ValueError(f"sample length {ds.dim} does not match n={structure.n}")
        rows = structure.entries[seen]
        center = rows @ np.linalg.lstsq(rows, center, rcond=None)[0]
        entries = structure.entries.copy()
        entries[seen] /= spread[:, None]
        structure = StructureMatrix(entries)
    out = ds.values  # read here, so this call owns it
    out[:, seen] = (values - center) / spread
    return Dataset(out, ds.mask), structure


@dataclass
class _RunInputs:
    """What every trial of a run shares; ``ds`` is None for synthetic data."""

    ds: Dataset | None
    structure: StructureMatrix | None
    reference: np.ndarray
    covariance: np.ndarray | None


def _prepare_run(cfg: ExperimentConfig) -> _RunInputs:
    if cfg.data.kind == "synthetic":
        structure = make_structure(cfg.data.structure)
        reference = population_mean(structure, cfg.data.latent)
        covariance = population_covariance(structure, cfg.data.latent)
        return _RunInputs(None, structure, reference, covariance)
    structure = load_structure_csv(cfg.data.structure_path) if cfg.data.structure_path else None
    ds, structure = ingest_csv(cfg.data.path, cfg.data.standardize, structure)
    clean = ds.values[~ds.mask.any(axis=1)]
    covariance = np.cov(clean, rowvar=False) if clean.shape[0] > 1 else None
    return _RunInputs(ds, structure, empirical_mean(ds), covariance)


def _run_trial(cfg: ExperimentConfig, inputs: _RunInputs, trial: int, out: np.ndarray) -> None:
    """Score trial ``trial`` into ``out[method, budget, metric]``; a failure leaves its NaN."""
    ds = inputs.ds
    if ds is None:
        rng = np.random.default_rng(cfg.seed + trial)
        ds = synthesize(inputs.structure, draw_latents(cfg.data.latent, cfg.data.n_samples, rng))
    scores = {"reference": inputs.reference, "covariance": inputs.covariance}
    for budget_idx, budget in enumerate(cfg.budgets):
        # Seed sequences keyed by position make reruns reproducible cell by cell.
        plan_rng = np.random.default_rng((cfg.seed, trial, budget_idx))
        plan = make_plan(
            cfg.adversary, ds, budget, plan_rng, shift=cfg.shift, structure=inputs.structure
        )
        corrupted = apply_plan(ds, plan)
        for method_idx, spec in enumerate(cfg.methods):
            try:
                scores["estimate"] = estimate(corrupted, spec, inputs.structure)
            except EstimatorFailure:
                continue
            for metric_idx, metric in enumerate(cfg.metrics):
                try:
                    out[method_idx, budget_idx, metric_idx] = evaluate(metric, scores)
                except MetricFailure:
                    pass


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute all trials one after another into one NaN-filled array of scores.

    ``threads`` is accepted for compatibility and must be at least 1; trials
    always run serially, because a thread pool measured no gain on the
    criterion-7 and hiding sweeps and ran the shift sweep at half speed. The
    structure, reference, covariance and (for CSV data) the ingested table
    are built once and shared by the trials, so the structure's cached rank
    and removal margin are computed at most once per run.
    """
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    inputs = _prepare_run(cfg)
    shape = (len(cfg.methods), len(cfg.budgets), cfg.trials, len(cfg.metrics))
    values = np.full(shape, np.nan)
    for t in range(cfg.trials):
        _run_trial(cfg, inputs, t, values[:, :, t])
    return ExperimentResult(cfg, values)


def write_results(result: ExperimentResult, prefix: str) -> tuple[str, str]:
    """Write ``<prefix>.csv``, one row per cell of ``result.values`` in C order,
    and ``<prefix>.summary.json``."""
    cfg = result.config
    csv_path, json_path = f"{prefix}.csv", f"{prefix}.summary.json"
    labels, budgets = [m.label for m in cfg.methods], [format(b, ".17g") for b in cfg.budgets]
    keys = product(labels, budgets, range(cfg.trials), cfg.metrics)
    with open(csv_path, "w", newline="") as fh:
        fh.write("method,budget,trial,metric,value\n")
        for (method, budget, trial, metric), value in zip(keys, result.values.ravel().tolist()):
            text = NA if np.isnan(value) else format(value, ".17g")
            fh.write(f"{method},{budget},{trial},{metric},{text}\n")
    with open(json_path, "w") as fh:
        fh.write(json_document({"config": cfg.raw, "summary": result.summary()}))
    return csv_path, json_path


def read_result_rows(csv_path) -> list[ResultRow]:
    """Parse a results CSV back into rows (inverse of :func:`write_results`)."""
    rows = []
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "method,budget,trial,metric,value":
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            method, budget, trial, metric, value = line.rstrip("\n").split(",")
            value = float("nan") if value == NA else float(value)
            rows.append(ResultRow(method, float(budget), int(trial), metric, value))
    return rows
