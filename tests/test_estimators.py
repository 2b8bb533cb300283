import numpy as np
import pytest

from entrymean.corruption import CorruptionPlan, apply_plan, plan_tail_hiding
from entrymean.data import Dataset
from entrymean.errors import (
    AllSamplesDiscardedError,
    CapExceededError,
    CompletionNotConvergedError,
    FullyHiddenCoordinateError,
    NoCleanSamplesError,
)
from entrymean.estimators import (
    EstimatorSpec,
    RecoverySpec,
    complete_case_mean,
    coordinate_median,
    empirical_mean,
    estimate,
    tukey_median,
    two_step_estimate,
)
from entrymean.estimators import _halfplane_depth
from entrymean.datagen import LatentSpec, StructureSpec, draw_latents, make_structure, synthesize

from oracles import halfplane_depth_direct
from test_recovery import scale_spread_table
from test_structure import random_general_position


def masked(values, mask):
    values = np.array(values, dtype=float)
    mask = np.array(mask, dtype=bool)
    return Dataset(np.where(mask, np.nan, values), mask)


def test_empirical_mean_uses_visible_entries_only():
    ds = masked([[1.0, 10.0], [3.0, 20.0], [5.0, 30.0]], [[False, True], [False, False], [False, False]])
    np.testing.assert_allclose(empirical_mean(ds), [3.0, 25.0])


def test_empirical_mean_fully_hidden_coordinate_fails():
    ds = masked([[1.0, 0.0], [2.0, 0.0]], [[False, True], [False, True]])
    with pytest.raises(FullyHiddenCoordinateError):
        empirical_mean(ds)


def test_coordinate_median_midpoint_convention():
    ds = Dataset(np.array([[1.0], [2.0], [7.0], [10.0]]))
    np.testing.assert_allclose(coordinate_median(ds), [4.5])
    ds_odd = Dataset(np.array([[1.0], [9.0], [2.0]]))
    np.testing.assert_allclose(coordinate_median(ds_odd), [2.0])


def test_coordinate_median_ignores_hidden():
    ds = masked([[1.0], [2.0], [100.0]], [[False], [False], [True]])
    np.testing.assert_allclose(coordinate_median(ds), [1.5])


def test_complete_case_mean():
    ds = masked(
        [[1.0, 1.0], [3.0, 3.0], [100.0, 5.0]],
        [[False, False], [False, False], [True, False]],
    )
    np.testing.assert_allclose(complete_case_mean(ds), [2.0, 2.0])
    all_touched = masked([[1.0, 2.0]], [[True, False]])
    with pytest.raises(NoCleanSamplesError):
        complete_case_mean(all_touched)


def test_tukey_median_one_dimension_matches_median():
    ds = Dataset(np.array([[3.0], [1.0], [4.0], [1.5]]))
    np.testing.assert_allclose(tukey_median(ds), coordinate_median(ds))


def test_tukey_median_single_point_and_validation():
    single = Dataset(np.array([[2.0, 5.0]]))
    np.testing.assert_allclose(tukey_median(single), [2.0, 5.0])
    with pytest.raises(CapExceededError):
        tukey_median(Dataset(np.zeros((3, 3)) + np.eye(3)))
    with pytest.raises(ValueError):
        tukey_median(masked([[1.0, 2.0]], [[True, False]]))


def test_tukey_median_square_center():
    corners = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(tukey_median(corners), [0.5, 0.5])


def test_tukey_median_is_deep():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((11, 2))
    ds = Dataset(points)
    med = tukey_median(ds)
    depth = halfplane_depth_direct(points, med)
    # A Tukey median always has depth at least N / 3 in the plane.
    assert depth >= np.ceil(11 / 3)
    # No sample point may be deeper than the reported median.
    for p in points:
        assert halfplane_depth_direct(points, p) <= depth


@pytest.mark.parametrize("seed", range(6))
def test_halfplane_depth_matches_direct_sweep(seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((9, 2))
    for candidate in [points[0], points.mean(axis=0), rng.standard_normal(2)]:
        assert _halfplane_depth(points, candidate) == halfplane_depth_direct(points, candidate)


def test_halfplane_depth_with_coincident_points():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert _halfplane_depth(points, np.array([0.0, 0.0])) == 2
    assert _halfplane_depth(points, np.array([5.0, 5.0])) == 0


def test_translation_equivariance_of_location_estimators():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((12, 2))
    mask = rng.random((12, 2)) < 0.2
    mask[:, 1] &= ~mask[:, 0]  # keep at least something visible
    ds = masked(values, mask)
    offset = np.array([10.0, -3.0])
    shifted = masked(values + offset, mask)
    np.testing.assert_allclose(
        empirical_mean(shifted), empirical_mean(ds) + offset, atol=1e-12
    )
    np.testing.assert_allclose(
        coordinate_median(shifted), coordinate_median(ds) + offset, atol=1e-12
    )
    clean = Dataset(values)
    clean_shifted = Dataset(values + offset)
    np.testing.assert_allclose(
        tukey_median(clean_shifted), tukey_median(clean) + offset, atol=1e-9
    )


def test_permutation_invariance_of_means():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((10, 3))
    ds = Dataset(values)
    perm = rng.permutation(10)
    np.testing.assert_allclose(
        empirical_mean(Dataset(values[perm])), empirical_mean(ds), atol=1e-12
    )
    np.testing.assert_allclose(
        coordinate_median(Dataset(values[perm])), coordinate_median(ds), atol=1e-12
    )


def structured_dataset(seed, n_samples=40):
    a = random_general_position(6, 2, seed=seed)
    z = draw_latents(LatentSpec("gaussian", dim=2, mean=[1.0, -1.0]), n_samples, np.random.default_rng(seed))
    return a, synthesize(a, z)


def test_two_step_known_structure_repairs_tail_hiding():
    a, ds = structured_dataset(seed=3)
    corrupted = apply_plan(ds, plan_tail_hiding(ds, 0.2))
    spec = EstimatorSpec("two_step", RecoverySpec("known_structure"), inner="empirical_mean")
    repaired_mean = estimate(corrupted, spec, structure=a)
    clean_mean = empirical_mean(ds)
    # Hiding is fully reversible here, so the repaired mean matches the clean one.
    np.testing.assert_allclose(repaired_mean, clean_mean, atol=1e-8)


def test_two_step_on_clean_data_equals_inner():
    a, ds = structured_dataset(seed=4)
    spec = EstimatorSpec("two_step", RecoverySpec("known_structure"), inner="coordinate_median")
    np.testing.assert_array_equal(estimate(ds, spec, structure=a), coordinate_median(ds))


def test_two_step_discards_unrecoverable_samples():
    a, ds = structured_dataset(seed=5, n_samples=6)
    # Hide all entries of sample 2: rank collapses, the sample is dropped.
    corrupted = apply_plan(ds, CorruptionPlan.hiding([2] * ds.dim, range(ds.dim)))
    spec = EstimatorSpec("two_step", RecoverySpec("known_structure"))
    got = estimate(corrupted, spec, structure=a)
    expected = ds.values[[0, 1, 3, 4, 5]].mean(axis=0)
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_two_step_all_discarded_raises():
    a, ds = structured_dataset(seed=6, n_samples=2)
    cells = [(i, j) for i in range(2) for j in range(ds.dim)]
    corrupted = apply_plan(ds, CorruptionPlan.hiding(*zip(*cells)))
    spec = EstimatorSpec("two_step", RecoverySpec("known_structure"))
    with pytest.raises(AllSamplesDiscardedError):
        estimate(corrupted, spec, structure=a)


def test_two_step_iterative_svd_route():
    # Scattered single-cell hiding keeps every sample far from the
    # information edge, so the rank-truncated completion converges to the
    # unique fill-in and the structure-free route matches the known-structure
    # route almost exactly.
    a = random_general_position(8, 4, seed=21)
    z = draw_latents(LatentSpec("gaussian", dim=4), 80, np.random.default_rng(9))
    ds = synthesize(a, z)
    rng = np.random.default_rng(33)
    victims = rng.choice(80, size=12, replace=False)
    coords = [int(rng.integers(8)) for _ in victims]
    corrupted = apply_plan(ds, CorruptionPlan.hiding(victims, coords))
    spec = EstimatorSpec("two_step", RecoverySpec("iterative_svd", rank=4))
    got = estimate(corrupted, spec)
    known = estimate(
        corrupted,
        EstimatorSpec("two_step", RecoverySpec("known_structure")),
        structure=a,
    )
    np.testing.assert_allclose(got, known, atol=1e-8)
    np.testing.assert_allclose(got, ds.values.mean(axis=0), atol=1e-8)


def test_two_step_refuses_unconverged_completion():
    # Every row hides a cell, so the completion takes the median start, and
    # its 500 sweeps stop at max_iter on this table.
    ds = scale_spread_table(every_row_hidden=True)
    spec = EstimatorSpec("two_step", RecoverySpec("iterative_svd", rank=2))
    with pytest.raises(CompletionNotConvergedError, match="did not converge in 500 sweeps"):
        estimate(ds, spec)


def test_two_step_replacement_route():
    rng = np.random.default_rng(10)
    a = random_general_position(8, 2, seed=11)
    z = draw_latents(LatentSpec("gaussian", dim=2), 30, np.random.default_rng(12))
    ds = synthesize(a, z)
    values = ds.values.copy()
    values[5, 3] += 9.0  # one replaced cell
    corrupted = Dataset(values)
    spec = EstimatorSpec("two_step", RecoverySpec("replacement", exponent=2.0))
    got = estimate(corrupted, spec, structure=a, rng=rng)
    np.testing.assert_allclose(got, empirical_mean(ds), atol=1e-6)


def test_estimator_spec_validation_and_labels():
    with pytest.raises(ValueError):
        EstimatorSpec("two_step")
    with pytest.raises(ValueError):
        EstimatorSpec("empirical_mean", recovery=RecoverySpec("known_structure"))
    with pytest.raises(ValueError):
        EstimatorSpec("two_step", RecoverySpec("iterative_svd"))  # rank missing
    for options in ({"max_iter": 0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")}):
        with pytest.raises(ValueError, match="max_iter|tol"):
            RecoverySpec("iterative_svd", rank=2, **options)
    spec = EstimatorSpec("two_step", RecoverySpec("known_structure"), inner="coordinate_median")
    assert spec.label == "two_step+known_structure+coordinate_median"
    named = EstimatorSpec("empirical_mean", name="baseline")
    assert named.label == "baseline"
