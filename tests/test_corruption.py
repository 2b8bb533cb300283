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
from entrymean.data import Dataset
from oracles import plan_budgets_direct, tail_hiding_direct

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


def test_plan_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("a,b,c,d\n")
    with pytest.raises(ValueError):
        load_plan_csv(path)
