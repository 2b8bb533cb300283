import numpy as np
import pytest

from entrymean.corruption import (
    AdversaryKind,
    Budget,
    CorruptionPlan,
    apply_plan,
    can_simulate,
    load_plan_csv,
    plan_budget,
    plan_concentrated_hiding,
    plan_sample_shift,
    plan_tail_hiding,
    plan_unrecoverable_hiding,
    save_plan_csv,
)
from entrymean.corruption import _smallest_first
from entrymean.data import Dataset
import oracles
from oracles import plan_budgets_direct, smallest_first_direct, tail_hiding_direct

SAMPLE = AdversaryKind.SAMPLE_FRACTION
COORD = AdversaryKind.PER_COORDINATE_FRACTION
CELL = AdversaryKind.CELL_FRACTION


def small_dataset():
    values = np.array(
        [
            [0.0, 10.0, 5.0],
            [1.0, 9.0, 4.0],
            [2.0, 8.0, 3.0],
            [3.0, 7.0, 2.0],
            [4.0, 6.0, 1.0],
        ]
    )
    return Dataset(values)


def every_planner(ds, budget, rng):
    """One plan from each of the four planners."""
    return [
        plan_sample_shift(ds, budget, shift=[1.5, -2.0, 1e-17, 3.0][: ds.dim]),
        plan_tail_hiding(ds, budget),
        plan_concentrated_hiding(ds, budget),
        plan_unrecoverable_hiding(ds, budget, 2, rng),
    ]


def test_cell_edit_validation(tmp_path):
    with pytest.raises(ValueError, match="no value"):
        CorruptionPlan([0], [0], [True], [1.0])
    with pytest.raises(ValueError, match="finite"):
        CorruptionPlan([0], [0], [False], [np.nan])
    with pytest.raises(ValueError, match="finite"):
        CorruptionPlan([0], [0], [False], [np.inf])
    with pytest.raises(ValueError, match="equal length"):
        CorruptionPlan([0, 1], [0], [True], [np.nan])
    path = tmp_path / "plan.csv"
    path.write_text("sample,coord,action,value\n0,0,scramble,\n")
    with pytest.raises(ValueError, match="scramble"):
        load_plan_csv(path)


def test_plan_rejects_duplicate_cells():
    with pytest.raises(ValueError):
        CorruptionPlan.hiding([0, 0], [0, 0])
    assert len(CorruptionPlan.hiding([0, 1], [1, 0])) == 2  # same numbers, distinct cells
    # Cell ids sample * (max coord + 1) + coord would pass 2**63 here.
    assert len(CorruptionPlan.hiding([0, 2**62], [3, 3])) == 2
    assert len(CorruptionPlan.hiding([0, 1], [2**63 - 1, 2**63 - 1])) == 2
    for sample, coord in [([2**62, 5, 2**62], [3, 0, 3]), ([0, 0], [2**63 - 1, 2**63 - 1])]:
        with pytest.raises(ValueError, match="plan touches some cell twice"):
            CorruptionPlan.hiding(sample, coord)


def test_apply_plan_hide_and_replace():
    ds = small_dataset()
    plan = CorruptionPlan([0, 2], [1, 0], [True, False], [np.nan, -5.0])
    out = apply_plan(ds, plan)
    assert np.isnan(out.values[0, 1]) and out.mask[0, 1]
    assert out.values[2, 0] == -5.0 and not out.mask[2, 0]
    # The input must be untouched.
    assert ds.values[2, 0] == 2.0 and not ds.mask.any()


def test_apply_plan_bounds_check():
    ds = small_dataset()  # 5 x 3
    for sample, coord in [(9, 0), (5, 0), (-1, 0), (0, -1), (0, 3)]:
        with pytest.raises(ValueError):
            apply_plan(ds, CorruptionPlan.hiding([0, sample], [1, coord]))


def test_sample_shift_targets_largest_first_coordinate():
    ds = small_dataset()
    plan = plan_sample_shift(ds, epsilon=0.4, shift=10.0)
    touched = sorted(set(plan.sample.tolist()))
    assert touched == [3, 4]  # the two largest first coordinates
    assert len(plan) == 2 * ds.dim
    out = apply_plan(ds, plan)
    np.testing.assert_allclose(out.values[4], ds.values[4] + 10.0)


def test_sample_shift_floor_budget():
    ds = small_dataset()
    assert len(plan_sample_shift(ds, 0.39)) == 1 * ds.dim  # floor(1.95) = 1
    assert len(plan_sample_shift(ds, 0.0)) == 0


def test_sample_shift_vector_shift_and_ties():
    values = np.zeros((4, 2))
    values[:, 1] = [1.0, 2.0, 3.0, 4.0]
    ds = Dataset(values)
    plan = plan_sample_shift(ds, 0.5, shift=[1.0, -2.0])
    # All first coordinates tie at zero; lower indices win.
    assert sorted(set(plan.sample.tolist())) == [0, 1]
    out = apply_plan(ds, plan)
    np.testing.assert_allclose(out.values[0], [1.0, -1.0])


def test_tail_hiding_hides_smallest_per_coordinate():
    ds = small_dataset()
    plan = plan_tail_hiding(ds, rho=0.4)  # floor(2) per coordinate
    out = apply_plan(ds, plan)
    # Coordinate 0 ascends with index, coordinate 1 descends, coordinate 2 descends.
    assert out.mask[:, 0].tolist() == [True, True, False, False, False]
    assert out.mask[:, 1].tolist() == [False, False, False, True, True]
    assert out.mask[:, 2].tolist() == [False, False, False, True, True]
    for j in range(ds.dim):
        assert out.mask[:, j].sum() == 2
    # Edit order against a per-coordinate loop, with ties and pre-hidden cells.
    rng = np.random.default_rng(12)
    for _ in range(200):
        n, dim = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        values = rng.integers(-2, 3, size=(n, dim)).astype(float)
        mask = rng.random((n, dim)) < 0.3
        rho = float(rng.random())
        plan = plan_tail_hiding(Dataset(values, mask), rho)
        expected = tail_hiding_direct(values.tolist(), mask.tolist(), int(np.floor(rho * n)))
        assert list(zip(plan.sample.tolist(), plan.coord.tolist())) == expected
    # The largest finite value is visible data and sorts before a hidden cell.
    values = np.array([[np.nan], [np.finfo(float).max], [1.0]])
    mask = np.isnan(values)
    plan = plan_tail_hiding(Dataset(values, mask), 1.0)
    expected = tail_hiding_direct(values.tolist(), mask.tolist(), 3)
    assert list(zip(plan.sample.tolist(), plan.coord.tolist())) == expected == [(2, 0), (1, 0)]


def test_tail_hiding_zero_budget_is_empty():
    assert len(plan_tail_hiding(small_dataset(), 0.0)) == 0


def test_concentrated_hiding_picks_highest_variance_coordinate():
    rng = np.random.default_rng(0)
    values = np.column_stack(
        [rng.normal(0, 0.1, 50), rng.normal(0, 5.0, 50), rng.normal(0, 1.0, 50)]
    )
    ds = Dataset(values)
    plan = plan_concentrated_hiding(ds, alpha=0.1)
    assert set(plan.coord.tolist()) == {1}
    assert len(plan) == int(0.1 * 50 * 3)  # all budget in one coordinate
    hidden = sorted(plan.sample.tolist())
    smallest = np.argsort(values[:, 1], kind="stable")[: len(plan)]
    assert hidden == sorted(int(i) for i in smallest)


@pytest.mark.parametrize("n_rows", [5, 9000])
def test_concentrated_hiding_targets_like_a_column_loop(n_rows):
    # Columns that hold one multiset in different orders differ in their
    # variances only by rounding, so the target depends on each bit.
    rng = np.random.default_rng(n_rows)
    base = rng.standard_normal(n_rows) * 1e3 + 7.0
    values = np.column_stack([rng.permutation(base) for _ in range(6)] + [base])
    for seed in range(20):
        mask = np.random.default_rng(seed).random(values.shape) < 0.2 * (seed % 3)
        mask[:, seed % 7] = seed % 2 == 0  # every other table hides one whole column
        plan = plan_concentrated_hiding(Dataset(values, mask), alpha=0.05)
        assert set(plan.coord.tolist()) == {oracles.concentrated_target_direct(values, mask)}


def test_concentrated_hiding_caps_at_column_height():
    ds = small_dataset()
    plan = plan_concentrated_hiding(ds, alpha=1.0)
    assert len(plan) == ds.n_samples  # cannot hide more cells than one column has


def test_unrecoverable_hiding_budget_and_shape():
    rng = np.random.default_rng(1)
    ds = Dataset(np.random.default_rng(2).normal(size=(40, 6)))
    margin = 3
    alpha = 0.2
    plan = plan_unrecoverable_hiding(ds, alpha, margin, rng)
    assert plan.hide.all()
    per_sample = {}
    for sample, coord in zip(plan.sample.tolist(), plan.coord.tolist()):
        per_sample.setdefault(sample, set()).add(coord)
    assert all(len(coords) == margin for coords in per_sample.values())
    assert len(per_sample) == int(np.floor(alpha * 6 * 40 / margin))
    assert len(plan) <= alpha * 6 * 40


def order_fuzz_tables(seed):
    """Small tables with integer ties or signed zeros and 0-100% hidden columns,
    each with the per-coordinate counts 0, 1, N - 1, N and N + 3."""
    rng = np.random.default_rng(seed)
    for case in range(300):
        n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        if case % 2:
            values = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            values = rng.choice([-0.0, 0.0, 1.0], size=(n, dim))
        mask = rng.random((n, dim)) < rng.choice([0.0, 0.4, 1.0], size=dim)
        for count in sorted({0, 1, max(n - 1, 0), n, n + 3}):
            yield values, mask, count


def visible_keys(values, mask, j, sign=1.0):
    return [sign * v if not h else float("inf") for v, h in zip(values[:, j].tolist(), mask[:, j])]


def planned_order(family, values, mask, count):
    """The planner's order for ``count`` and the direct one, as two lists."""
    n, dim = values.shape
    ds = Dataset(values, mask)
    if family == "tail_hiding":
        plan = plan_tail_hiding(ds, min((count + 0.5) / n, 1.0))
        expected = [
            (i, j)
            for j in range(dim)
            for i in smallest_first_direct(visible_keys(values, mask, j), count, mask[:, j])
        ]
        return list(zip(plan.sample.tolist(), plan.coord.tolist())), expected
    if family == "concentrated_hiding":
        plan = plan_concentrated_hiding(ds, min((count + 0.5) / (n * dim), 1.0))
        variances = [
            float(np.var(values[~mask[:, j], j])) if (~mask[:, j]).any() else -np.inf
            for j in range(dim)
        ]
        target = variances.index(max(variances))
        hidden = smallest_first_direct(visible_keys(values, mask, target), count, mask[:, target])
        return list(zip(plan.sample.tolist(), plan.coord.tolist())), [(i, target) for i in hidden]
    # Victims: the largest visible first coordinates, ties to the lower index.
    expected = smallest_first_direct(visible_keys(values, mask, 0, sign=-1.0), count)
    if family == "sample_shift":
        if mask[expected].any():
            with pytest.raises(ValueError, match="hidden entries"):
                plan_sample_shift(ds, min((count + 0.5) / n, 1.0))
            return expected, expected
        plan = plan_sample_shift(ds, min((count + 0.5) / n, 1.0))
        return plan.sample[::dim].tolist(), expected
    margin = int(np.random.default_rng(count).integers(1, dim + 1))
    alpha = min((count + 0.5) * margin / (dim * n), 1.0)
    plan = plan_unrecoverable_hiding(ds, alpha, margin, np.random.default_rng(0))
    return plan.sample[::margin].tolist(), expected


@pytest.mark.parametrize(
    "family", ["tail_hiding", "concentrated_hiding", "sample_shift", "unrecoverable_hiding"]
)
def test_planner_order_matches_direct_sort(family):
    for values, mask, count in order_fuzz_tables(seed=21):
        got, expected = planned_order(family, values, mask, count)
        assert got == expected, (family, values.tolist(), mask.tolist(), count)


def test_smallest_first_matches_direct_sort():
    for values, mask, count in order_fuzz_tables(seed=22):
        key = np.where(mask, np.inf, values).T
        expected = [smallest_first_direct(row, count) for row in key.tolist()]
        assert _smallest_first(key, count).tolist() == expected


@pytest.mark.parametrize(
    "planner,budget_kind",
    [
        (lambda ds, b, rng: plan_sample_shift(ds, b), SAMPLE),
        (lambda ds, b, rng: plan_tail_hiding(ds, b), COORD),
        (lambda ds, b, rng: plan_concentrated_hiding(ds, b), CELL),
        (lambda ds, b, rng: plan_unrecoverable_hiding(ds, b, 2, rng), CELL),
    ],
)
@pytest.mark.parametrize("budget", [0.0, 0.07, 0.25, 0.5])
def test_planners_respect_their_budget(planner, budget_kind, budget):
    rng = np.random.default_rng(3)
    ds = Dataset(np.random.default_rng(4).normal(size=(23, 5)))
    plan = planner(ds, budget, rng)
    used = plan_budget(plan, budget_kind, ds.n_samples, ds.dim)
    assert used <= budget + 1e-12


def test_plan_budget_matches_direct_recount():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.normal(size=(17, 4)))
    for budget in (0.0, 0.3):
        for plan in every_planner(ds, budget, rng):
            expected = plan_budgets_direct(
                list(zip(plan.sample.tolist(), plan.coord.tolist())), ds.n_samples, ds.dim
            )
            assert plan_budget(plan, SAMPLE, 17, 4) == pytest.approx(expected["sample_fraction"])
            assert plan_budget(plan, COORD, 17, 4) == pytest.approx(
                expected["per_coordinate_fraction"]
            )
            assert plan_budget(plan, CELL, 17, 4) == pytest.approx(expected["cell_fraction"])
    for sample, coord in [(17, 0), (0, 4)]:
        with pytest.raises(ValueError, match="does not fit"):
            plan_budget(CorruptionPlan.hiding([sample], [coord]), COORD, 17, 4)


def test_can_simulate_same_kind_is_monotone():
    for kind in AdversaryKind:
        assert can_simulate(Budget(kind, 0.3), Budget(kind, 0.3), dim=8)
        assert can_simulate(Budget(kind, 0.3), Budget(kind, 0.2), dim=8)
        assert not can_simulate(Budget(kind, 0.2), Budget(kind, 0.3), dim=8)


def test_can_simulate_cross_kind_thresholds():
    n = 10
    # A whole-sample budget covers entry-level budgets up to epsilon / n.
    assert can_simulate(Budget(SAMPLE, 0.5), Budget(COORD, 0.05), n)
    assert not can_simulate(Budget(SAMPLE, 0.5), Budget(COORD, 0.051), n)
    assert can_simulate(Budget(SAMPLE, 0.5), Budget(CELL, 0.05), n)
    assert not can_simulate(Budget(SAMPLE, 0.5), Budget(CELL, 0.051), n)
    assert can_simulate(Budget(COORD, 0.5), Budget(CELL, 0.05), n)
    assert not can_simulate(Budget(COORD, 0.5), Budget(CELL, 0.051), n)
    # Entry-level budgets at or above epsilon afford whole samples.
    assert can_simulate(Budget(COORD, 0.2), Budget(SAMPLE, 0.2), n)
    assert not can_simulate(Budget(COORD, 0.19), Budget(SAMPLE, 0.2), n)
    assert can_simulate(Budget(CELL, 0.2), Budget(SAMPLE, 0.2), n)
    assert not can_simulate(Budget(CELL, 0.19), Budget(SAMPLE, 0.2), n)
    assert can_simulate(Budget(CELL, 0.2), Budget(COORD, 0.2), n)
    assert not can_simulate(Budget(CELL, 0.19), Budget(COORD, 0.2), n)


def test_plan_csv_round_trip(tmp_path):
    mixed = CorruptionPlan([0, 2, 4], [1, 0, 2], [True, False, False], [np.nan, -5.25, 1e-17])
    plans = [mixed] + every_planner(small_dataset(), 0.4, np.random.default_rng(8))
    for plan in plans:
        path, again = tmp_path / "plan.csv", tmp_path / "again.csv"
        save_plan_csv(plan, path)
        back = load_plan_csv(path)
        for column in ("sample", "coord", "hide", "value"):
            np.testing.assert_array_equal(getattr(back, column), getattr(plan, column))
        save_plan_csv(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_plan_csv_bytes_match_csv_module(tmp_path):
    rng = np.random.default_rng(9)
    n = 3000
    hide = rng.random(n) < 0.5
    value = np.where(hide, np.nan, rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n))
    value[~hide & (rng.random(n) < 0.05)] = -0.0
    # Indices at and beyond 2**53 are no longer exact doubles.
    sample = np.r_[rng.permutation(n - 4), 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1]
    coord = rng.integers(0, 10**6, n)
    coord[:4] = [0, 1, 10, 100]
    plans = [
        CorruptionPlan(sample, coord, hide, value),
        CorruptionPlan([], [], [], []),
        *every_planner(small_dataset(), 0.4, np.random.default_rng(8)),
    ]
    for plan in plans:
        fast, direct = tmp_path / "fast.csv", tmp_path / "direct.csv"
        save_plan_csv(plan, fast)
        oracles.save_plan_csv_direct(plan.sample, plan.coord, plan.hide, plan.value, direct)
        assert fast.read_bytes() == direct.read_bytes()


def test_plan_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("a,b,c,d\n")
    with pytest.raises(ValueError):
        load_plan_csv(path)
