"""Benchmark harness: sweep corruption budgets, score estimators, emit tables.

A run is fully described by an :class:`ExperimentConfig`. Rows are produced
for every (method, budget, trial, metric) combination; when a method or
metric fails on the corrupted data the row is kept with a NaN value, which
the CSV writer renders as ``NA``. Reruns with the same config are
byte-identical: per-trial randomness derives from ``seed + trial`` and rows
are sorted into a canonical order before writing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

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
from .metrics import l2_error, mahalanobis_error
from .structure import StructureMatrix, load_structure_csv

METRIC_KINDS = ("l2", "mahalanobis")
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
    method: str
    budget: float
    trial: int
    metric: str
    value: float  # NaN encodes a failed evaluation


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]

    def summary(self) -> list[dict]:
        """Mean and standard deviation over the trials that produced a value."""
        groups: dict[tuple[str, float, str], list[float]] = {}
        for r in self.rows:
            if not np.isnan(r.value):
                groups.setdefault((r.method, r.budget, r.metric), []).append(r.value)
        out = []
        for spec in self.config.methods:
            for budget in self.config.budgets:
                for metric in self.config.metrics:
                    vals = groups.get((spec.label, budget, metric), [])
                    out.append(
                        {
                            "method": spec.label,
                            "budget": budget,
                            "metric": metric,
                            "mean": float(np.mean(vals)) if vals else None,
                            "sd": float(np.std(vals)) if vals else None,
                            "n": len(vals),
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


def _run_trial(cfg: ExperimentConfig, inputs: _RunInputs, trial: int) -> list[ResultRow]:
    ds = inputs.ds
    if ds is None:
        rng = np.random.default_rng(cfg.seed + trial)
        ds = synthesize(inputs.structure, draw_latents(cfg.data.latent, cfg.data.n_samples, rng))
    rows = []
    for budget_idx, budget in enumerate(cfg.budgets):
        # Seed sequences keyed by position make reruns reproducible cell by cell.
        plan_rng = np.random.default_rng((cfg.seed, trial, budget_idx))
        plan = make_plan(
            cfg.adversary, ds, budget, plan_rng, shift=cfg.shift, structure=inputs.structure
        )
        corrupted = apply_plan(ds, plan)
        for spec in cfg.methods:
            try:
                value_vec = estimate(corrupted, spec, inputs.structure)
            except EstimatorFailure:
                value_vec = None
            for metric in cfg.metrics:
                if value_vec is None:
                    rows.append(ResultRow(spec.label, budget, trial, metric, float("nan")))
                    continue
                try:
                    if metric == "l2":
                        value = l2_error(value_vec, inputs.reference)
                    else:
                        if inputs.covariance is None:
                            raise MetricFailure("no covariance available")
                        value = mahalanobis_error(value_vec, inputs.reference, inputs.covariance)
                except MetricFailure:
                    value = float("nan")
                rows.append(ResultRow(spec.label, budget, trial, metric, value))
    return rows


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute all trials one after another and sort the rows into canonical order.

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
    rows = [row for t in range(cfg.trials) for row in _run_trial(cfg, inputs, t)]
    method_order = {m.label: i for i, m in enumerate(cfg.methods)}
    metric_order = {m: i for i, m in enumerate(cfg.metrics)}
    rows.sort(
        key=lambda r: (method_order[r.method], r.budget, r.trial, metric_order[r.metric])
    )
    return ExperimentResult(cfg, rows)


def format_value(value: float) -> str:
    return NA if np.isnan(value) else format(value, ".17g")


def write_results(result: ExperimentResult, prefix: str) -> tuple[str, str]:
    """Write ``<prefix>.csv`` with all rows and ``<prefix>.summary.json``."""
    csv_path, json_path = f"{prefix}.csv", f"{prefix}.summary.json"
    with open(csv_path, "w", newline="") as fh:
        fh.write("method,budget,trial,metric,value\n")
        for r in result.rows:
            fh.write(
                f"{r.method},{format(r.budget, '.17g')},{r.trial},{r.metric},{format_value(r.value)}\n"
            )
    with open(json_path, "w") as fh:
        fh.write(json_document({"config": result.config.raw, "summary": result.summary()}))
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
            rows.append(
                ResultRow(
                    method,
                    float(budget),
                    int(trial),
                    metric,
                    float("nan") if value == NA else float(value),
                )
            )
    return rows
