"""Per-module metrics computed from the spans of one traced pass.

Names are ``<module>.<quantity>``. Times are seconds per pass, counts are
per pass, and a ratio whose denominator is zero (the module is not reached on
that workload) reads 0. NOTES.md maps each metric to the end-to-end metric
and workload it should move.
"""
from __future__ import annotations

import os
from collections import defaultdict

from tracing import Span, self_times


def _path_arg(args, kwargs, position: int):
    return args[position] if len(args) > position else kwargs["path"]


# Counts are read from return values, recorded on the span by the tracer.
NOTES = {
    "recovery.iterative_svd_complete": lambda a, k, r: (r.iterations, r.converged),
    "recovery.impute_from_structure": lambda a, k, r: r.status.value,
    "corruption.plan_sample_shift": lambda a, k, r: len(r),
    "corruption.plan_tail_hiding": lambda a, k, r: len(r),
    "corruption.plan_concentrated_hiding": lambda a, k, r: len(r),
    "corruption.plan_unrecoverable_hiding": lambda a, k, r: len(r),
    "data.load_dataset_csv": lambda a, k, r: os.path.getsize(_path_arg(a, k, 0)),
    "data.save_dataset_csv": lambda a, k, r: os.path.getsize(_path_arg(a, k, 1)),
}

PLANNERS = tuple(name for name in NOTES if name.startswith("corruption.plan_"))
COUPLING = (
    "metrics.tv_distance",
    "metrics.optimal_entrywise_coupling",
    "metrics.entrywise_distance_avg",
    "metrics.entrywise_distance_max",
)
ERRORS = ("metrics.l2_error", "metrics.mahalanobis_error")
REPLACEMENT = "recovery.recover_replacement_randomized"  # the two-step decoder

# (name, unit, better); the order is the order of the output.
LAYER_METRICS = (
    ("recovery.svd_s", "s", "lower"),
    ("recovery.svd_iterations", "count", "lower"),
    ("recovery.svd_converged_ratio", "ratio", "higher"),
    ("recovery.impute_calls", "count", "lower"),
    ("recovery.impute_s", "s", "lower"),
    ("recovery.unrecoverable_ratio", "ratio", "lower"),
    ("recovery.replace_calls", "count", "lower"),
    ("recovery.replace_s", "s", "lower"),
    ("structure.draws", "count", "lower"),
    ("structure.draw_s", "s", "lower"),
    ("structure.rank_calls", "count", "lower"),
    ("structure.rank_s", "s", "lower"),
    ("structure.margin_calls", "count", "lower"),
    ("structure.margin_s", "s", "lower"),
    ("corruption.plan_s", "s", "lower"),
    ("corruption.apply_s", "s", "lower"),
    ("corruption.edits", "count", "lower"),
    ("corruption.plan_io_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.save_s", "s", "lower"),
    ("data.bytes_read", "bytes", "lower"),
    ("data.bytes_written", "bytes", "lower"),
    ("metrics.coupling_s", "s", "lower"),
    ("metrics.error_s", "s", "lower"),
    ("metrics.failures", "count", "lower"),
    ("estimators.self_s", "s", "lower"),
    ("estimators.failures", "count", "lower"),
    ("datagen.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("experiment.write_s", "s", "lower"),
    ("experiment.parallel_speedup", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

# Exact counts: they must repeat across traced passes and runs of one seed.
COUNTS = tuple(name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Every span-derived metric of one traced pass (all but the last two)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    module_of = {}
    for s in spans:
        by_name[s.name].append(s)
        module_of[s.id] = s.name.split(".", 1)[0]

    def named(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def calls(*names):
        return len(named(*names))

    def total(*names):
        return sum(s.end - s.start for s in named(*names))

    def own_time(*names):
        return sum(own[s.id] for s in named(*names))

    def module_self(module):
        return sum(own[s.id] for s in spans if module_of[s.id] == module)

    def boundary_failures(module):
        # A failure counts once, at the outermost span of the module it left.
        return sum(
            1
            for s in spans
            if s.error and module_of[s.id] == module and module_of.get(s.parent) != module
        )

    svd = named("recovery.iterative_svd_complete")
    impute = named("recovery.impute_from_structure")
    return {
        "recovery.svd_s": total("recovery.iterative_svd_complete"),
        "recovery.svd_iterations": sum(s.note[0] for s in svd if s.note),
        "recovery.svd_converged_ratio": _ratio(sum(1 for s in svd if s.note and s.note[1]), len(svd)),
        "recovery.impute_calls": len(impute),
        "recovery.impute_s": total("recovery.impute_from_structure"),
        "recovery.unrecoverable_ratio": _ratio(
            sum(1 for s in impute if s.note == "unrecoverable"), len(impute)
        ),
        "recovery.replace_calls": calls(REPLACEMENT),
        "recovery.replace_s": total(REPLACEMENT),
        "structure.draws": calls("structure.sample_independent_rows"),
        "structure.draw_s": total("structure.sample_independent_rows"),
        "structure.rank_calls": calls("structure.numerical_rank"),
        "structure.rank_s": total("structure.numerical_rank"),
        "structure.margin_calls": calls("structure.min_rows_to_drop_rank"),
        "structure.margin_s": total("structure.min_rows_to_drop_rank"),
        "corruption.plan_s": total(*PLANNERS),
        "corruption.apply_s": total("corruption.apply_plan"),
        "corruption.edits": sum(s.note for s in named(*PLANNERS) if s.note is not None),
        "corruption.plan_io_s": total("corruption.save_plan_csv", "corruption.load_plan_csv"),
        "data.load_s": total("data.load_dataset_csv"),
        "data.save_s": total("data.save_dataset_csv"),
        "data.bytes_read": sum(s.note or 0 for s in named("data.load_dataset_csv")),
        "data.bytes_written": sum(s.note or 0 for s in named("data.save_dataset_csv")),
        "metrics.coupling_s": own_time(*COUPLING),
        "metrics.error_s": own_time(*ERRORS),
        "metrics.failures": boundary_failures("metrics"),
        "estimators.self_s": module_self("estimators"),
        "estimators.failures": boundary_failures("estimators"),
        "datagen.s": module_self("datagen"),
        "cli.self_s": module_self("cli"),
        "experiment.self_s": module_self("experiment"),
        "experiment.write_s": total("experiment.write_results"),
    }
