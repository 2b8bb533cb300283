"""Release gate: ten numbered end-to-end criteria.

Each test prints one summary line (also echoed by the conftest terminal
hook) and enforces the stated tolerance and runtime budget. These are the
checks a release must pass; the unit suites cover the same code at finer
grain.
"""
import itertools
import math
import time

import numpy as np
import pytest

from entrymean.corruption import (
    AdversaryKind,
    Budget,
    apply_plan,
    can_simulate,
    plan_budget,
    plan_concentrated_hiding,
    plan_sample_shift,
    plan_tail_hiding,
    plan_unrecoverable_hiding,
)
from entrymean.data import Dataset
from entrymean.errors import AllSamplesDiscardedError
from entrymean.experiment import parse_config, run_experiment
from entrymean.metrics import (
    DiscreteDistribution,
    entrywise_distance_avg,
    entrywise_distance_max,
    max_sign_quadratic,
    tv_distance,
)
from entrymean.recovery import (
    RecoveryStatus,
    recover_by_sparse_decoding,
    recover_replacement_exhaustive,
    recover_replacement_randomized,
    recover_table,
    replacement_candidates,
)
from entrymean.structure import StructureMatrix, min_rows_to_drop_rank, null_space_basis

from test_recovery import one_row
from test_structure import random_general_position


def test_criterion_01_missing_value_breakpoint():
    start = time.perf_counter()
    a = random_general_position(8, 4, seed=101)
    assert min_rows_to_drop_rank(a) == 5
    z = np.random.default_rng(102).standard_normal(4)
    x = a.entries @ z
    worst = 0.0
    for k in range(0, 5):
        for hidden in itertools.combinations(range(8), k):
            masked = x.copy()
            masked[list(hidden)] = np.nan
            report = recover_table(one_row(masked), a)
            assert report.status[0] != RecoveryStatus.UNRECOVERABLE
            worst = max(worst, np.abs(report.completed.values[0] - x).max())
    assert worst <= 1e-8
    for k in range(5, 9):
        for hidden in itertools.combinations(range(8), k):
            masked = x.copy()
            masked[list(hidden)] = np.nan
            with pytest.raises(AllSamplesDiscardedError):  # the one row is unrecoverable
                recover_table(one_row(masked), a)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst recovery error {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_02_replacement_breakpoint():
    start = time.perf_counter()
    offsets = (math.pi, -math.e, 2.75, -1.4142)
    for n in range(3, 7):
        for r in range(1, n):
            a = random_general_position(n, r, seed=200 + 10 * n + r)
            margin = n - r + 1
            assert min_rows_to_drop_rank(a) == margin
            z = np.random.default_rng(210 + n + r).standard_normal(r)
            x = a.entries @ z
            for delta in range(1, (margin + 1) // 2):
                for support in itertools.combinations(range(n), delta):
                    corrupted = x.copy()
                    for slot, coord in enumerate(support):
                        corrupted[coord] += offsets[slot % len(offsets)]
                    outcome = recover_replacement_exhaustive(a, corrupted)
                    assert outcome.residual_hamming == delta
                    np.testing.assert_allclose(outcome.sample, x, atol=1e-8)
            # Breakdown at delta = ceil(margin / 2): move that many entries
            # toward another point of range(A) that differs in exactly
            # `margin` coordinates.
            delta = (margin + 1) // 2
            if r == 1:
                w = np.ones(1)
            else:
                w = null_space_basis(a.entries[: r - 1])[0]
            gap = a.entries @ w
            support = np.flatnonzero(np.abs(gap) > 1e-9)
            assert len(support) == margin
            w = w / np.abs(gap[support]).min()
            x_other = a.entries @ (z + w)
            corrupted = x.copy()
            corrupted[support[:delta]] = x_other[support[:delta]]
            candidates, residuals = replacement_candidates(a, corrupted)
            best = int(residuals.min())
            if margin % 2 == 0:
                assert best == delta
                optima = np.unique(np.round(candidates[residuals == best], 6), axis=0)
                assert len(optima) >= 2  # tie: the minimizer is not unique
            else:
                assert best == margin - delta < delta
                outcome = recover_replacement_exhaustive(a, corrupted)
                assert not np.allclose(outcome.sample, x, atol=1e-6)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: breakpoints verified for n <= 6, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_03_randomized_replacement_quality():
    start = time.perf_counter()
    a = random_general_position(16, 4, seed=303)
    exact = 0
    for trial in range(200):
        rng = np.random.default_rng(3000 + trial)
        z = rng.standard_normal(4)
        x = a.entries @ z
        corrupted = x.copy()
        corrupted[rng.integers(16)] += 7.5 + (trial % 3)
        brute = recover_replacement_exhaustive(a, corrupted)
        randomized = recover_replacement_randomized(a, corrupted, rng=rng)
        assert randomized.residual_hamming >= brute.residual_hamming
        if np.allclose(randomized.sample, x, atol=1e-8):
            exact += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 3: {exact}/200 exact, {elapsed:.1f}s")
    assert exact >= 190
    assert elapsed < 60.0


def test_criterion_04_coupling_distance_goldens():
    corners = DiscreteDistribution([(0, 0), (0, 1), (1, 0), (1, 1)], [0.25] * 4)
    point = DiscreteDistribution([(1, 0)], [1.0])
    grid = DiscreteDistribution(
        [(i, j) for i in range(4) for j in range(2)], [0.125] * 8
    )
    collapsed = DiscreteDistribution([(3, 0), (3, 1)], [0.5, 0.5])
    got_half = entrywise_distance_avg(corners, point)
    got_three_eighths = entrywise_distance_avg(grid, collapsed)
    assert abs(got_half - 0.5) <= 1e-9
    assert abs(got_three_eighths - 0.375) <= 1e-9
    assert abs(tv_distance(corners, point) - 0.75) <= 1e-9
    assert abs(tv_distance(grid, collapsed) - 0.75) <= 1e-9
    print(
        f"criterion 4: avg distances {got_half:.12f}, {got_three_eighths:.12f}; tv 0.75 both"
    )


def random_range_distribution(a, rng, max_atoms=4):
    latents = rng.integers(-2, 3, size=(max_atoms, a.r)).astype(float)
    latents = np.unique(latents, axis=0)
    atoms = latents @ a.entries.T
    probs = rng.random(len(atoms)) + 0.1
    return DiscreteDistribution(atoms, probs / probs.sum())


def test_criterion_05_metric_sandwich():
    rng = np.random.default_rng(505)
    worst_slack = 0.0
    for case in range(500):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(3, n) + 1))
        a = random_general_position(n, r, seed=int(rng.integers(1 << 30)))
        m = n - r + 1
        p = random_range_distribution(a, rng)
        q = random_range_distribution(a, rng)
        tv = tv_distance(p, q)
        avg = entrywise_distance_avg(p, q)
        mx = entrywise_distance_max(p, q)
        assert (m / n) * tv <= avg + 1e-9
        assert avg <= mx + 1e-9
        assert mx <= tv + 1e-9
        worst_slack = max(worst_slack, (m / n) * tv - avg, avg - mx, mx - tv)
    print(f"criterion 5: 500 sandwich cases, worst violation {worst_slack:.2e}")


def test_criterion_06_sign_quadratic_bounds():
    for n in range(1, 11):
        assert abs(max_sign_quadratic(np.eye(n)) - math.sqrt(n)) <= 1e-12
        assert abs(max_sign_quadratic(np.ones((n, n))) - n) <= 1e-12
    rng = np.random.default_rng(606)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        b = rng.standard_normal((n, k))
        matrix = b @ b.T + 1e-6 * np.eye(n)
        value = max_sign_quadratic(matrix)
        assert math.sqrt(n) - 1e-9 <= value <= n + 1e-9
    print("criterion 6: exact ends for n <= 10, 1000 fuzz cases in bounds")


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = parse_config(
        {
            "seed": 20240501,
            "trials": 5,
            "adversary": "tail_hiding",
            "budgets": [0.05, 0.10, 0.15, 0.20],
            "data": {
                "kind": "synthetic",
                "structure": {
                    "kind": "block_diagonal",
                    "n": 16,
                    "r": 8,
                    "blocks": [[8, 4], [8, 4]],
                    "seed": 20240501,
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
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    means = {(e["method"], e["budget"]): e["mean"] for e in result.summary()}
    return cfg, means, elapsed


def test_criterion_07_structured_recovery_beats_empirical_mean(benchmark_run):
    cfg, means, elapsed = benchmark_run
    ratios = []
    for budget in cfg.budgets:
        empirical = means[("empirical_mean", budget)]
        two_step = means[("two_step+known_structure+empirical_mean", budget)]
        ratios.append(two_step / empirical)
        assert two_step <= 0.5 * empirical
    print(
        "criterion 7: error ratios "
        + ", ".join(f"{b:g}:{r:.3f}" for b, r in zip(cfg.budgets, ratios))
        + f"; {elapsed:.1f}s"
    )
    assert elapsed < 300.0


def test_criterion_08_completion_matches_known_structure(benchmark_run):
    _, means, _ = benchmark_run
    known = means[("two_step+known_structure+empirical_mean", 0.05)]
    completed = means[("two_step+iterative_svd+empirical_mean", 0.05)]
    gap = abs(completed - known)
    print(f"criterion 8: mean error gap {gap:.2e} at budget 0.05")
    assert gap <= 1e-3


def test_criterion_09_plan_accounting_fuzz():
    rng = np.random.default_rng(909)
    kinds = list(AdversaryKind)
    for case in range(1000):
        n_samples = int(rng.integers(4, 25))
        dim = int(rng.integers(2, 8))
        ds = Dataset(rng.standard_normal((n_samples, dim)))
        style = case % 4
        if style == 0:
            pledged = Budget(AdversaryKind.SAMPLE_FRACTION, float(rng.random()))
            plan = plan_sample_shift(ds, pledged.value, shift=5.0)
        elif style == 1:
            pledged = Budget(AdversaryKind.PER_COORDINATE_FRACTION, float(rng.random()))
            plan = plan_tail_hiding(ds, pledged.value)
            assert plan_budget(plan, AdversaryKind.CELL_FRACTION, n_samples, dim) <= pledged.value + 1e-12
        elif style == 2:
            pledged = Budget(AdversaryKind.CELL_FRACTION, float(rng.random()))
            plan = plan_concentrated_hiding(ds, pledged.value)
        else:
            pledged = Budget(AdversaryKind.CELL_FRACTION, float(rng.random()))
            a = random_general_position(dim, 1 + (case % (dim - 1) if dim > 2 else 0), seed=case)
            plan = plan_unrecoverable_hiding(ds, pledged.value, min_rows_to_drop_rank(a), rng)
        assert plan_budget(plan, pledged.kind, n_samples, dim) <= pledged.value + 1e-12
        # untouched cells are bit-identical
        touched = np.zeros((n_samples, dim), dtype=bool)
        touched[plan.sample, plan.coord] = True
        after = apply_plan(ds, plan)
        assert np.array_equal(after.values[~touched], ds.values[~touched])
        # any budget that can simulate the pledged one covers this plan
        for a_kind in kinds:
            for a_value in (rng.random(), min(1.0, pledged.value * dim), pledged.value):
                stronger = Budget(a_kind, float(a_value))
                if can_simulate(stronger, pledged, dim):
                    assert (
                        plan_budget(plan, a_kind, n_samples, dim) <= stronger.value + 1e-12
                    )
    print("criterion 9: 1000 plans within pledged budgets; dominance holds")


def test_criterion_10_sparse_decoding_success_rate():
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        a = StructureMatrix(rng.standard_normal((16, 4)))
        z = rng.standard_normal(4)
        x = a.entries @ z
        corrupted = x.copy()
        corrupted[rng.integers(16)] += 6.0
        outcome = recover_by_sparse_decoding(a, corrupted, sparsity=1, n_parity_rows=12, rng=rng)
        if outcome.status is RecoveryStatus.RECOVERED and np.allclose(
            outcome.sample, x, atol=1e-6
        ):
            successes += 1
    print(f"criterion 10: {successes}/100 exact sparse decodings")
    assert successes >= 95
