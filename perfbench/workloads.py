"""The four benchmark workloads.

A workload prepares its inputs from the seed, then runs closed-loop passes:
one ``run_experiment`` call (the sweeps) or one full CLI chain
(``cli_pipeline``), each starting after the previous one returned. The
package is driven only through ``experiment.run_experiment`` /
``experiment.write_results`` and ``cli.main``, looked up on the module at
call time so a tracer's wrappers are seen. Every pass returns a digest of
each output file; the runner compares them across passes.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from entrymean import cli, corruption, data, datagen, experiment, metrics

CRITERION_7_SEED = 20240501  # the acceptance test's structure seed, kept fixed

# The criterion-7 sweep at one trial per pass: a run's median then spans
# about 25 short passes instead of 5 long ones.
TAIL_SWEEP = {
    "trials": 1,
    "adversary": "tail_hiding",
    "budgets": [0.05, 0.10, 0.15, 0.20],
    "data": {
        "kind": "synthetic",
        "structure": {
            "kind": "block_diagonal",
            "n": 16,
            "r": 8,
            "blocks": [[8, 4], [8, 4]],
            "seed": CRITERION_7_SEED,
        },
        "latent": {"kind": "gaussian", "dim": 8},
        "n_samples": 1000,
    },
    "methods": [
        {"kind": "empirical_mean"},
        {"kind": "two_step", "recovery": {"method": "known_structure"}},
        {"kind": "two_step", "recovery": {"method": "iterative_svd", "rank": 8}},
    ],
    "metrics": ["l2"],
}
SHIFT_METHODS = [
    {"kind": "empirical_mean"},
    {"kind": "coordinate_median"},
    {"kind": "two_step", "recovery": {"method": "replacement"}},
]
WARM_UP_SAMPLES = 64
CLI_SAMPLES = 4_000
METRIC_ATOMS = 100  # 100 x 100 atoms is the coupling LP's cell cap
METRIC_SHIFT_FRACTION = 0.1


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


class Sweep:
    """One ``run_experiment`` call per pass, results written and digested."""

    def __init__(self, name: str, build, threads: int):
        self.name = name
        self.build = build  # (repo_root, seed) -> experiment config dict
        self.threads = threads

    def prepare(self, root: Path, seed: int, workdir: Path):
        raw = self.build(root, seed)
        cfg = experiment.parse_config(raw)
        warm = copy.deepcopy(raw)
        warm["trials"] = 1
        warm["data"]["n_samples"] = WARM_UP_SAMPLES
        experiment.run_experiment(experiment.parse_config(warm), threads=self.threads)
        return cfg, str(workdir / self.name)

    def run(self, state, threads: int) -> dict[str, str]:
        cfg, prefix = state
        result = experiment.run_experiment(cfg, threads=threads)
        paths = experiment.write_results(result, prefix)
        return {Path(p).name: _digest(p) for p in paths}

    def quality(self, state) -> dict:
        """Checks and figures of the written results; deterministic per seed."""
        cfg, prefix = state
        rows = experiment.read_result_rows(f"{prefix}.csv")
        expected = len(cfg.methods) * len(cfg.budgets) * cfg.trials * len(cfg.metrics)
        two_step = {m.label for m in cfg.methods if m.kind == "two_step"}
        errors = [
            r.value
            for r in rows
            if r.method in two_step and r.metric == "l2" and not math.isnan(r.value)
        ]
        failures = []
        if len(rows) != expected:
            failures.append(f"{len(rows)} result rows, expected {expected}")
        if not errors:
            failures.append("no two-step l2 value")
        return {
            "two_step_l2": float(np.mean(errors)) if errors else float("nan"),
            "na_rate": sum(math.isnan(r.value) for r in rows) / max(len(rows), 1),
            "failures": failures,
        }


def _tail_sweep(root: Path, seed: int) -> dict:
    return dict(copy.deepcopy(TAIL_SWEEP), seed=seed)


def _shipped_sweep(root: Path, seed: int, **changes) -> dict:
    raw = json.loads((root / "configs" / "experiment.json").read_text())
    raw.pop("out", None)
    raw.update(seed=seed, **changes)
    return raw


def _hiding_sweep(root: Path, seed: int) -> dict:
    return _shipped_sweep(root, seed, adversary="unrecoverable_hiding")


def _shift_sweep(root: Path, seed: int) -> dict:
    return _shipped_sweep(
        root, seed, adversary="sample_shift", trials=4, methods=copy.deepcopy(SHIFT_METHODS)
    )


class CliPipeline:
    """gen -> corrupt -> recover -> estimate, then two coupling metrics.

    Uses the shipped configs with ``n_samples`` raised and every path moved
    into the run's work directory. The metric inputs, clean rows against the
    same rows after a sample shift, are made during preparation.
    """

    name = "cli_pipeline"
    threads = 1
    STEPS = ("gen", "corrupt", "recover", "estimate")

    def _configs(self, root: Path, workdir: Path, tag: str, n_samples: int | None = None) -> dict:
        shipped = {
            step: json.loads((root / "configs" / f"{step}.json").read_text())
            for step in self.STEPS
        }
        prefix = str(workdir / tag)
        gen = dict(shipped["gen"], out=prefix)
        if n_samples is not None:
            gen["n_samples"] = n_samples
        corrupt = dict(shipped["corrupt"], data_csv=f"{prefix}.data.csv", out=prefix)
        recover = dict(
            shipped["recover"],
            data_csv=f"{prefix}.corrupted.csv",
            structure_csv=f"{prefix}.structure.csv",
            out=prefix,
        )
        estimate = dict(
            shipped["estimate"],
            data_csv=f"{prefix}.corrupted.csv",
            structure_csv=f"{prefix}.structure.csv",
            out=prefix,
        )
        paths = {
            step: _write_json(workdir / f"{tag}.{step}.config.json", cfg)
            for step, cfg in zip(self.STEPS, (gen, corrupt, recover, estimate))
        }
        return {"prefix": prefix, "gen": gen, "paths": paths}

    def _metric_inputs(self, gen: dict, seed: int, workdir: Path) -> tuple[str, str]:
        spec = experiment.parse_structure_spec(gen["structure"], default_seed=seed)
        latent = experiment.parse_latent_spec(gen["latent"])
        clean = datagen.synthesize(
            datagen.make_structure(spec),
            datagen.draw_latents(latent, METRIC_ATOMS, np.random.default_rng(seed)),
        )
        plan = corruption.plan_sample_shift(clean, METRIC_SHIFT_FRACTION)
        shifted = corruption.apply_plan(clean, plan)
        probs = np.full(METRIC_ATOMS, 1.0 / METRIC_ATOMS)
        paths = []
        for label, ds in (("clean", clean), ("shifted", shifted)):
            path = workdir / f"metric.{label}.csv"
            metrics.save_distribution_csv(metrics.DiscreteDistribution(ds.values, probs), path)
            paths.append(str(path))
        return paths[0], paths[1]

    def _commands(self, chain: dict, seed: int, metric_configs: list[str]) -> list[list[str]]:
        paths = chain["paths"]
        commands = [["gen", "--config", paths["gen"], "--seed", str(seed)]]
        commands += [[step, "--config", paths[step]] for step in self.STEPS[1:]]
        commands += [["metric", "--config", path] for path in metric_configs]
        return commands

    def prepare(self, root: Path, seed: int, workdir: Path):
        chain = self._configs(root, workdir, "chain", CLI_SAMPLES)
        left, right = self._metric_inputs(chain["gen"], seed, workdir)
        metric_configs = [
            _write_json(
                workdir / f"metric.{kind}.config.json",
                {"kind": kind, "left_csv": left, "right_csv": right},
            )
            for kind in ("entrywise_avg", "entrywise_max")
        ]
        # Warm-up: the shipped chain at its own size.
        warm = self._configs(root, workdir, "warm")
        self._chain(self._commands(warm, seed, metric_configs))
        return {
            "seed": seed,
            "chain": chain,
            "commands": self._commands(chain, seed, metric_configs),
        }

    @staticmethod
    def _chain(commands: list[list[str]]) -> tuple[list[int], str]:
        codes = []
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            for argv in commands:
                codes.append(cli.main(list(argv)))
        return codes, captured.getvalue()

    def run(self, state, threads: int) -> dict[str, str]:
        codes, stdout = self._chain(state["commands"])
        prefix = state["chain"]["prefix"]
        digests = {
            Path(p).name: _digest(p)
            for p in (
                f"{prefix}.data.csv",
                f"{prefix}.structure.csv",
                f"{prefix}.corrupted.csv",
                f"{prefix}.plan.csv",
                f"{prefix}.recovered.csv",
                f"{prefix}.report.json",
                f"{prefix}.estimate.json",
            )
        }
        digests["exit_codes"] = ",".join(map(str, codes))
        digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        state["last"] = (codes, stdout)
        return digests

    def quality(self, state) -> dict:
        """Check the chain's outputs against the clean table and known values."""
        codes, stdout = state["last"]
        prefix = state["chain"]["prefix"]
        failures = [f"command {i} exited {c}" for i, c in enumerate(codes) if c != 0]
        figures = {"two_step_l2": float("nan"), "na_rate": sum(c != 0 for c in codes) / len(codes)}
        if failures:
            return dict(figures, failures=failures)
        clean = data.load_dataset_csv(f"{prefix}.data.csv")
        recovered = data.load_dataset_csv(f"{prefix}.recovered.csv")
        report = json.loads(Path(f"{prefix}.report.json").read_text())
        kept = np.setdiff1d(np.arange(clean.n_samples), report["discarded_indices"])
        if recovered.n_samples != kept.size or not np.allclose(
            recovered.values, clean.values[kept], rtol=1e-6, atol=1e-8
        ):
            failures.append("recovered rows differ from the clean rows")
        estimate = np.array(json.loads(Path(f"{prefix}.estimate.json").read_text())["estimate"])
        if not np.allclose(estimate, recovered.values.mean(axis=0), rtol=1e-9, atol=1e-12):
            failures.append("two-step estimate differs from the mean of the recovered rows")
        # Shifted atoms differ from every clean atom in every coordinate, so
        # both entry-wise distances equal the shifted mass.
        expected = math.floor(METRIC_SHIFT_FRACTION * METRIC_ATOMS) / METRIC_ATOMS
        values = [json.loads(line)["value"] for line in stdout.splitlines() if line.startswith('{"kind"')]
        if len(values) != 2 or any(abs(v - expected) > 1e-9 for v in values):
            failures.append(f"coupling distances {values}, expected {expected} twice")
        gen = state["chain"]["gen"]
        spec = experiment.parse_structure_spec(gen["structure"], default_seed=state["seed"])
        reference = datagen.population_mean(
            datagen.make_structure(spec), experiment.parse_latent_spec(gen["latent"])
        )
        figures["two_step_l2"] = metrics.l2_error(estimate, reference)
        return dict(figures, failures=failures)


def workloads(nproc: int) -> dict:
    return {
        "tail_sweep": Sweep("tail_sweep", _tail_sweep, threads=1),
        "hiding_sweep": Sweep("hiding_sweep", _hiding_sweep, threads=1),
        "shift_sweep": Sweep("shift_sweep", _shift_sweep, threads=nproc),
        "cli_pipeline": CliPipeline(),
    }
