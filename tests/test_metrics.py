import csv

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
import oracles
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
    for probs in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            DiscreteDistribution(np.array([[0.0], [1.0]]), np.array(probs))


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
    # Shared atoms stay in place; the assignment sees only the others.
    moved = n_atoms - len({tuple(a) for a in p.support} & {tuple(a) for a in q.support})
    assert solved == ([(moved, moved)] if moved else [])
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
    # All 101 atoms are shared, but the caps apply to the input sizes.
    atoms = DiscreteDistribution(np.arange(101.0)[:, None], np.full(101, 1 / 101))
    for norm in ("avg", "max"):
        with pytest.raises(CapExceededError):
            optimal_entrywise_coupling(atoms, atoms, norm)
    atoms = DiscreteDistribution(np.arange(100.0)[:, None], np.full(100, 1 / 100))
    assert entrywise_distance_avg(atoms, atoms) == 0.0


def sharing_pair(rng, dim, n_p, n_q, n_shared):
    # Non-uniform p and q on the {0..5}^dim grid with n_shared atoms in common,
    # listed in a different order on each side.
    flat = rng.choice(6**dim, size=n_p + n_q - n_shared, replace=False)
    atoms = np.array([[(cell // 6**k) % 6 for k in range(dim)] for cell in flat], dtype=float)
    left, right = atoms[:n_p], rng.permutation(atoms[n_p - n_shared :])
    probs = [rng.random(n) + 0.05 for n in (n_p, n_q)]
    return (
        DiscreteDistribution(left, probs[0] / probs[0].sum()),
        DiscreteDistribution(right, probs[1] / probs[1].sum()),
    )


def entrywise_max_lp(p, q):
    # The full m*k "max" program, built directly: minimize a bound t on every
    # coordinate's disagreement mass.
    m, k, dim = p.n_atoms, q.n_atoms, p.dim
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(k)), np.kron(np.ones(m), np.eye(k))])
    diff = [[[float(x[c] != y[c]) for y in q.support] for x in p.support] for c in range(dim)]
    a_ub = np.hstack([np.array(diff).reshape(dim, m * k), -np.ones((dim, 1))])
    c = np.zeros(m * k + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(dim), A_eq=np.hstack([a_eq, np.zeros((m + k, 1))]),
                  b_eq=np.concatenate([p.probs, q.probs]), method="highs")
    assert res.success
    return res.fun


@pytest.mark.parametrize("share", ["some", "all", "none"])
@pytest.mark.parametrize("seed", range(8))
def test_shared_mass_reduction_matches_unreduced_programs(seed, share):
    rng = np.random.default_rng(500 + seed)
    dim = int(rng.integers(2, 4))  # 36 or more grid cells for up to 8 atoms
    n_p, n_q = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    if share == "all":
        n_q = n_shared = n_p
    else:  # "some" leaves each side at least one atom of its own
        n_shared = int(rng.integers(1, min(n_p, n_q))) if share == "some" else 0
    p, q = sharing_pair(rng, dim, n_p, n_q, n_shared)
    cost = hamming_cost_matrix(p.support, q.support)
    for norm in ("avg", "max"):
        value, coupling = optimal_entrywise_coupling(p, q, norm)
        if norm == "avg":
            assert value == pytest.approx(transport_minimum(p.probs, q.probs, cost), abs=1e-12)
            assert value == pytest.approx(transport_lp(p, q, cost), abs=1e-12)
        else:
            assert value == pytest.approx(entrywise_max_lp(p, q), abs=1e-12)
        np.testing.assert_allclose(coupling.weights.sum(axis=1), p.probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(coupling.weights.sum(axis=0), q.probs, rtol=0, atol=1e-12)
        realized = coupling.coordinate_disagreement()
        assert (realized.mean() if norm == "avg" else realized.max()) == pytest.approx(
            value, abs=1e-12
        )


def test_equal_distributions_keep_all_mass_in_place(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solver called with nothing left to move")

    monkeypatch.setattr(metrics_module, "linprog", refuse)
    monkeypatch.setattr(metrics_module, "linear_sum_assignment", refuse)
    p, _ = sharing_pair(np.random.default_rng(9), 3, 6, 6, 6)
    for norm in ("avg", "max"):
        value, coupling = optimal_entrywise_coupling(p, p, norm)
        assert value == 0.0
        np.testing.assert_array_equal(coupling.weights, np.diag(p.probs))


def test_negative_zero_atom_is_shared():
    p = DiscreteDistribution(np.array([[-0.0, 1.0], [2.0, 3.0]]), np.array([0.5, 0.5]))
    q = DiscreteDistribution(np.array([[2.0, 3.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
    assert tv_distance(p, q) == 0.0
    for norm in ("avg", "max"):
        value, coupling = optimal_entrywise_coupling(p, q, norm)
        assert value == 0.0
        np.testing.assert_array_equal(coupling.weights, [[0.0, 0.5], [0.5, 0.0]])


def test_only_residual_atoms_reach_the_solver(monkeypatch):
    # 100 uniform atoms against the same atoms with 10 moved off the grid in
    # every coordinate: both distances are the moved mass, 0.1.
    seen = []
    real_lsa, real_lp = metrics_module.linear_sum_assignment, metrics_module.linprog

    def lsa(cost):
        seen.append(("assignment", cost.shape))
        return real_lsa(cost)

    def lp(c, **kwargs):
        seen.append(("lp", c.size))
        return real_lp(c, **kwargs)

    monkeypatch.setattr(metrics_module, "linear_sum_assignment", lsa)
    monkeypatch.setattr(metrics_module, "linprog", lp)
    rng = np.random.default_rng(11)
    clean = rng.standard_normal((100, 16))
    shifted = clean.copy()
    shifted[rng.choice(100, size=10, replace=False)] += 10.0
    p = DiscreteDistribution(clean, np.full(100, 0.01))
    q = DiscreteDistribution(shifted, np.full(100, 0.01))
    assert entrywise_distance_avg(p, q) == pytest.approx(0.1, abs=1e-12)
    assert entrywise_distance_max(p, q) == pytest.approx(0.1, abs=1e-12)
    assert seen == [("assignment", (10, 10)), ("lp", 10 * 10 + 1)]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_errors_refuse_non_finite_inputs(bad):
    sigma = np.diag([4.0, 1.0])
    with pytest.raises(ValueError, match="estimate must be finite"):
        l2_error([bad, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="reference must be finite"):
        l2_error([0.0, 0.0], [0.0, bad])
    with pytest.raises(ValueError, match="estimate must be finite"):
        mahalanobis_error([bad, 0.0], [0.0, 0.0], sigma)
    with pytest.raises(ValueError, match="reference must be finite"):
        mahalanobis_error([0.0, 0.0], [bad, 0.0], sigma)
    with pytest.raises(ValueError, match="covariance must be finite"):
        mahalanobis_error([1.0, 0.0], [0.0, 0.0], np.array([[4.0, 0.0], [0.0, bad]]))
    with pytest.raises(MetricFailure, match="estimate must be finite"):  # NA in an experiment
        l2_error([bad, 0.0], [0.0, 0.0])


def test_distribution_csv_round_trip(tmp_path):
    p = grid_uniform()
    path = tmp_path / "dist.csv"
    save_distribution_csv(p, path)
    back = load_distribution_csv(path)
    np.testing.assert_array_equal(back.support, p.support)
    np.testing.assert_array_equal(back.probs, p.probs)


@pytest.mark.parametrize("dim", [1, 3, 16])
def test_distribution_csv_bytes_match_csv_module(tmp_path, dim):
    rng = np.random.default_rng(dim)
    atoms = 2000
    support = rng.standard_normal((atoms, dim)) * 10.0 ** rng.integers(-8, 20, (atoms, 1))
    zero = rng.random(support.shape) < 0.05
    zero[:, 0] = False  # keeps the atoms distinct
    support[zero] = 0.0
    support[0] = -0.0 if dim > 1 else 1e-320
    probs = rng.random(atoms)
    probs[:3] = 0.0
    p = DiscreteDistribution(support, probs / probs.sum())
    fast, direct = tmp_path / "fast.csv", tmp_path / "direct.csv"
    save_distribution_csv(p, fast)
    oracles.save_distribution_csv_direct(p.support, p.probs, direct)
    assert fast.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("dim", [1, 16])
def test_distribution_csv_reads_every_cell_like_float(tmp_path, dim):
    rng = np.random.default_rng(dim + 100)
    support = rng.standard_normal((500, dim)) * 10.0 ** rng.integers(-8, 20, (500, 1))
    support[0, 0] = -0.0
    probs = rng.random(500)
    path = tmp_path / "dist.csv"
    save_distribution_csv(DiscreteDistribution(support, probs / probs.sum()), path)
    with open(path, newline="") as fh:
        cells = np.array([[float(c) for c in row] for row in csv.reader(fh)])
    back = load_distribution_csv(path)
    table = np.column_stack([back.support, back.probs])
    assert np.array_equal(table, cells)
    assert np.array_equal(np.signbit(table), np.signbit(cells))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,0.5\n3,0.5\n", "row 1 has 2 fields, expected 3"),
        ("1,2,0.5\n3,x,0.5\n", "row 1, column 1: 'x' is not a number"),
        ("0.5\n", "row 0 needs at least one coordinate and a probability"),
        ("1,,0.5\n3,4,0.5\n", "row 0, column 1: '' is not a number"),
    ],
    ids=["ragged", "bad_cell", "short", "empty_cell"],
)
def test_distribution_csv_errors_name_the_cell(tmp_path, text, message):
    path = tmp_path / "dist.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_distribution_csv(path)
    assert str(info.value) == message
