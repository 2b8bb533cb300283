import numpy as np
import pytest
from scipy.optimize import linprog

from entrymean import metrics as metrics_module
from entrymean.errors import CapExceededError, MetricFailure
from entrymean.metrics import (
    Coupling,
    DiscreteDistribution,
    cov_to_corr,
    entrywise_distance_avg,
    entrywise_distance_max,
    l2_error,
    load_distribution_csv,
    mahalanobis_error,
    max_sign_quadratic,
    optimal_entrywise_coupling,
    save_distribution_csv,
    tv_distance,
)
from oracles import (
    hamming_cost_matrix,
    max_sign_quadratic_direct,
    transport_minimum,
    tv_direct,
)


def corners_uniform():
    # Uniform on the four corners of the unit square.
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return DiscreteDistribution(support, np.full(4, 0.25))


def point_mass_10():
    return DiscreteDistribution(np.array([[1.0, 0.0]]), np.array([1.0]))


def grid_uniform():
    # Uniform on {0, 1, 2, 3} x {0, 1}.
    support = np.array([[x, b] for x in range(4) for b in range(2)], dtype=float)
    return DiscreteDistribution(support, np.full(8, 0.125))


def grid_collapsed():
    # The grid distribution after pushing first coordinates 0, 1, 2 onto 3.
    support = np.array([[3.0, 0.0], [3.0, 1.0]])
    return DiscreteDistribution(support, np.array([0.5, 0.5]))


def random_distribution(rng, dim, n_atoms):
    # Distinct atoms by construction: sample cells of a {0..5}^dim grid.
    flat = rng.choice(6**dim, size=n_atoms, replace=False)
    support = np.array(
        [[(cell // 6**k) % 6 for k in range(dim)] for cell in flat], dtype=float
    )
    probs = rng.random(n_atoms)
    probs /= probs.sum()
    return DiscreteDistribution(support, probs)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([-0.1, 1.1]))


def test_tv_golden_values():
    assert tv_distance(corners_uniform(), point_mass_10()) == pytest.approx(0.75, abs=1e-12)
    assert tv_distance(grid_uniform(), grid_collapsed()) == pytest.approx(0.75, abs=1e-12)


def test_tv_identical_and_disjoint():
    p = corners_uniform()
    assert tv_distance(p, p) == 0.0
    q = DiscreteDistribution(np.array([[5.0, 5.0]]), np.array([1.0]))
    assert tv_distance(p, q) == 1.0


def test_entrywise_avg_golden_values():
    # Collapsing one of two coordinates costs half a coordinate per moved atom.
    assert entrywise_distance_avg(corners_uniform(), point_mass_10()) == pytest.approx(
        0.5, abs=1e-9
    )
    assert entrywise_distance_avg(grid_uniform(), grid_collapsed()) == pytest.approx(
        0.375, abs=1e-9
    )


def test_entrywise_max_forced_coupling():
    # Against a point mass the coupling is forced, so the max distance is the
    # largest per-coordinate disagreement mass of that coupling.
    assert entrywise_distance_max(corners_uniform(), point_mass_10()) == pytest.approx(
        0.5, abs=1e-9
    )
    # Every unit of mass moved to first coordinate 3 disagrees there, and
    # 3/4 of the mass has to move.
    assert entrywise_distance_max(grid_uniform(), grid_collapsed()) == pytest.approx(
        0.75, abs=1e-9
    )


@pytest.mark.parametrize("seed", range(8))
def test_entrywise_avg_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    p = random_distribution(rng, dim, int(rng.integers(1, 5)))
    q = random_distribution(rng, dim, int(rng.integers(1, 5)))
    expected = transport_minimum(
        p.probs, q.probs, hamming_cost_matrix(p.support, q.support)
    )
    assert entrywise_distance_avg(p, q) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_distance_ordering_and_witnesses(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(1, 4))
    p = random_distribution(rng, dim, int(rng.integers(1, 6)))
    q = random_distribution(rng, dim, int(rng.integers(1, 6)))
    tv = tv_distance(p, q)
    assert tv == pytest.approx(tv_direct(p.support, p.probs, q.support, q.probs), abs=1e-12)
    avg_value, avg_coupling = optimal_entrywise_coupling(p, q, "avg")
    max_value, max_coupling = optimal_entrywise_coupling(p, q, "max")
    assert avg_value <= max_value + 1e-9
    assert max_value <= tv + 1e-9
    # The witnesses must actually achieve the reported objectives.
    assert avg_coupling.coordinate_disagreement().mean() == pytest.approx(avg_value, abs=1e-8)
    assert max_coupling.coordinate_disagreement().max() == pytest.approx(max_value, abs=1e-8)


def tied_uniform(rng, dim, n_atoms):
    # Atoms of {0, 1}^dim: many pairs share a Hamming cost.
    flat = rng.choice(2**dim, size=n_atoms, replace=False)
    support = np.array([[(cell >> k) & 1 for k in range(dim)] for cell in flat], dtype=float)
    return DiscreteDistribution(support, np.full(n_atoms, 1.0 / n_atoms))


def transport_lp(p, q, cost):
    m, k = cost.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(k)), np.kron(np.ones(m), np.eye(k))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([p.probs, q.probs]), method="highs")
    assert res.success
    return res.fun


@pytest.mark.parametrize("seed", range(12))
def test_entrywise_avg_assignment_matches_lp_and_oracle(seed, monkeypatch):
    solved = []
    real = metrics_module.linear_sum_assignment

    def counted(cost):
        solved.append(cost.shape)
        return real(cost)

    monkeypatch.setattr(metrics_module, "linear_sum_assignment", counted)
    rng = np.random.default_rng(300 + seed)
    dim = int(rng.integers(1, 5))
    n_atoms = int(rng.integers(1, min(4, 2**dim) + 1))
    p, q = tied_uniform(rng, dim, n_atoms), tied_uniform(rng, dim, n_atoms)
    cost = hamming_cost_matrix(p.support, q.support)
    value, coupling = optimal_entrywise_coupling(p, q, "avg")
    assert solved == [(n_atoms, n_atoms)]
    assert value == pytest.approx(transport_minimum(p.probs, q.probs, cost), abs=1e-12)
    assert value == pytest.approx(transport_lp(p, q, cost), abs=1e-12)
    np.testing.assert_allclose(coupling.weights.sum(axis=1), p.probs, rtol=0, atol=1e-15)
    np.testing.assert_allclose(coupling.weights.sum(axis=0), q.probs, rtol=0, atol=1e-15)
    assert coupling.coordinate_disagreement().mean() == pytest.approx(value, abs=1e-12)


def test_entrywise_assignment_only_for_uniform_equal_sizes(monkeypatch):
    def refuse(cost):
        raise AssertionError("assignment path taken")

    monkeypatch.setattr(metrics_module, "linear_sum_assignment", refuse)
    rng = np.random.default_rng(7)
    three, four = tied_uniform(rng, 3, 3), tied_uniform(rng, 3, 4)
    skewed = DiscreteDistribution(three.support, np.array([0.5, 0.25, 0.25]))
    for p, q in ((three, four), (three, skewed), (skewed, three)):
        value, coupling = optimal_entrywise_coupling(p, q, "avg")
        cost = hamming_cost_matrix(p.support, q.support)
        assert value == pytest.approx(transport_minimum(p.probs, q.probs, cost), abs=1e-9)
        assert coupling.coordinate_disagreement().mean() == pytest.approx(value, abs=1e-8)
    value, _ = optimal_entrywise_coupling(four, four, "max")
    assert value == pytest.approx(0.0, abs=1e-9)


def test_entrywise_assignment_keeps_the_cell_cap():
    atoms = DiscreteDistribution(np.arange(101.0)[:, None], np.full(101, 1 / 101))
    with pytest.raises(CapExceededError):
        entrywise_distance_avg(atoms, atoms)
    atoms = DiscreteDistribution(np.arange(100.0)[:, None], np.full(100, 1 / 100))
    assert entrywise_distance_avg(atoms, atoms) == 0.0


def test_coupling_marginal_validation():
    p = corners_uniform()
    q = point_mass_10()
    with pytest.raises(ValueError):
        Coupling(p, q, np.full((4, 1), 0.1))
    good = Coupling(p, q, np.full((4, 1), 0.25))
    assert good.coordinate_disagreement().shape == (2,)


def test_entrywise_distance_caps():
    rng = np.random.default_rng(0)
    support = np.arange(200, dtype=float)[:, None]
    big = DiscreteDistribution(support, np.full(200, 1 / 200))
    with pytest.raises(CapExceededError):
        entrywise_distance_avg(big, big)


def test_entrywise_zero_on_equal_distributions():
    p = grid_uniform()
    assert entrywise_distance_avg(p, p) == pytest.approx(0.0, abs=1e-9)
    assert entrywise_distance_max(p, p) == pytest.approx(0.0, abs=1e-9)


def test_cov_to_corr():
    m = np.array([[4.0, 2.0], [2.0, 9.0]])
    s = cov_to_corr(m)
    np.testing.assert_allclose(np.diag(s), [1.0, 1.0])
    assert s[0, 1] == pytest.approx(2.0 / 6.0)
    with pytest.raises(ValueError):
        cov_to_corr(np.array([[0.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_sign_quadratic_identity_and_ones(n):
    assert max_sign_quadratic(np.eye(n)) == pytest.approx(np.sqrt(n), abs=1e-12)
    ones = np.ones((n, n))
    assert max_sign_quadratic(ones) == pytest.approx(float(n), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_sign_quadratic_matches_plain_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    b = rng.standard_normal((n, n + 2))
    m = b @ b.T + 0.5 * np.eye(n)
    assert max_sign_quadratic(m) == pytest.approx(max_sign_quadratic_direct(m), abs=1e-10)


def test_sign_quadratic_bounds_and_errors():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        b = rng.standard_normal((n, n))
        m = b @ b.T + 1e-6 * np.eye(n)
        value = max_sign_quadratic(m)
        assert np.sqrt(n) - 1e-9 <= value <= n + 1e-9
    with pytest.raises(CapExceededError):
        max_sign_quadratic(np.eye(25))
    with pytest.raises(ValueError):
        # Negative definite once rescaled: every sign vector goes negative.
        max_sign_quadratic(np.array([[1.0, -3.0], [-3.0, 1.0]]) * -1.0)


def test_l2_error():
    assert l2_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert l2_error([0.0, 3.0], [4.0, 0.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        l2_error([1.0], [1.0, 2.0])


def test_mahalanobis_full_rank():
    sigma = np.diag([4.0, 1.0])
    assert mahalanobis_error([2.0, 0.0], [0.0, 0.0], sigma) == pytest.approx(1.0)
    assert mahalanobis_error([0.0, 2.0], [0.0, 0.0], sigma) == pytest.approx(2.0)


def test_mahalanobis_rank_deficient():
    a = np.array([[1.0], [2.0]])
    sigma = a @ a.T  # rank one, range spanned by (1, 2)
    inside = mahalanobis_error([1.0, 2.0], [0.0, 0.0], sigma)
    assert inside == pytest.approx(1.0)
    with pytest.raises(MetricFailure):
        mahalanobis_error([2.0, -1.0], [0.0, 0.0], sigma)


def test_distribution_csv_round_trip(tmp_path):
    p = grid_uniform()
    path = tmp_path / "dist.csv"
    save_distribution_csv(p, path)
    back = load_distribution_csv(path)
    np.testing.assert_array_equal(back.support, p.support)
    np.testing.assert_array_equal(back.probs, p.probs)
