"""Distances between discrete distributions and error norms for estimates.

The headline quantities are two coupling-based distances that count
disagreement per coordinate rather than per whole vector. For a coupling
gamma of distributions P and Q over R^dim, collect the per-coordinate
disagreement masses m_k = Pr[(x, y) ~ gamma : x_k != y_k]. Minimizing the
mean of m over couplings gives :func:`entrywise_distance_avg`; minimizing the
max gives :func:`entrywise_distance_max`. Both are bounded above by the total
variation distance, which charges a full unit whenever vectors differ at all.

Atoms are compared coordinate by coordinate with exact float equality (-0.0
equals 0.0); the intended use is distributions whose supports are
constructed, not measured.

Both distances are linear programs, except when a coordinate separates the
moved atoms, and are solved only on the mass that moves: an atom held by
both distributions keeps the smaller of its two masses in place, which some
optimal coupling always does, and the program is built over the atoms left
with residual mass. A coordinate separates them when every residual atom of
one side differs there from every residual atom of the other; then "max" is
the residual mass, and so is "avg" when every coordinate separates them.
Sample-level replacement, which moves every coordinate of its victims,
leaves such residuals. Between two uniform residuals with the same number
of atoms (two empirical tables of equal length), the "avg" program is an
assignment problem: by Birkhoff-von Neumann a permutation is an optimal
vertex, so it is solved by ``linear_sum_assignment`` instead.
Total variation uses the same atom matching.

``scipy.optimize`` is imported on the first program that needs a solver,
not with this module: it costs about half a second and 40-50 MB per
process, and only the coupling programs use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import read_dense_csv, write_csv_rows
from .errors import CapExceededError, MetricFailure, NonFiniteMetricInputError
from .structure import RANK_TOL

COUPLING_CELL_CAP = 10_000
SUPPORT_CAP = 100
SIGN_ENUMERATION_CAP = 20


class _LazySolver:
    """The ``scipy.optimize`` function ``name``, imported on the first call.

    Only a coupling program left over after the shared-mass reduction and the
    separated-coordinate closed form calls one, so a process whose couplings
    all move coordinate-separated atoms never imports ``scipy.optimize``.

    An instance, not a function, so that span tracers which wrap the package's
    own functions (``perfbench/tracing.py``) still see scipy's solver time as
    part of the caller, as they did when the names were imported directly.
    """

    def __init__(self, name: str):
        self.name = name

    def __call__(self, *args, **kwargs):
        from scipy import optimize

        return getattr(optimize, self.name)(*args, **kwargs)


linprog = _LazySolver("linprog")
linear_sum_assignment = _LazySolver("linear_sum_assignment")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finitely supported distribution on R^dim.

    ``support`` holds one atom per row; ``probs`` are the matching masses.
    Atoms must be pairwise distinct under exact equality (-0.0 equals 0.0),
    and the masses finite, nonnegative and summing to one within 1e-9.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.atleast_2d(np.array(self.support, dtype=float))
        probs = np.array(self.probs, dtype=float).ravel()
        if support.shape[0] != probs.shape[0]:
            raise ValueError("one probability per atom required")
        if support.shape[0] < 1:
            raise ValueError("support must hold at least one atom")
        if not np.all(np.isfinite(support)):
            raise ValueError("atoms must be finite")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if np.unique(support + 0.0, axis=0, return_index=True)[1].size != support.shape[0]:
            raise ValueError("atoms must be pairwise distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def n_atoms(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint distribution with prescribed marginals ``left`` and ``right``."""

    left: DiscreteDistribution
    right: DiscreteDistribution
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.left.n_atoms, self.right.n_atoms):
            raise ValueError("weights shape must be (left atoms, right atoms)")
        if np.any(weights < -1e-12):
            raise ValueError("coupling weights must be nonnegative")
        weights = np.clip(weights, 0.0, None)
        if np.max(np.abs(weights.sum(axis=1) - self.left.probs), initial=0) > 1e-8:
            raise ValueError("row sums do not match the left marginal")
        if np.max(np.abs(weights.sum(axis=0) - self.right.probs), initial=0) > 1e-8:
            raise ValueError("column sums do not match the right marginal")
        object.__setattr__(self, "weights", weights)

    def coordinate_disagreement(self) -> np.ndarray:
        """Mass placed on pairs that differ, coordinate by coordinate."""
        diff = _disagreement_tensor(self.left.support, self.right.support)
        return np.einsum("ij,ijk->k", self.weights, diff)


def _check_same_dim(p: DiscreteDistribution, q: DiscreteDistribution) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def _disagreement_tensor(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # (i, j, k) -> 1.0 where atom i of left and atom j of right differ in coordinate k.
    return (left[:, None, :] != right[None, :, :]).astype(float)


def _atom_groups(p: DiscreteDistribution, q: DiscreteDistribution) -> np.ndarray:
    """One group index per atom of p, then per atom of q; equal atoms share one.

    ``+ 0.0`` turns -0.0 into 0.0, so atoms equal under ``==`` also have equal bits.
    """
    stacked = np.concatenate([p.support, q.support]) + 0.0
    # reshape: the shape of the inverse for axis=0 varies across numpy 2.x releases.
    return np.unique(stacked, axis=0, return_inverse=True)[1].reshape(-1)


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, matching atoms by exact equality."""
    _check_same_dim(p, q)
    group = _atom_groups(p, q)
    m, n_groups = p.n_atoms, group.max() + 1
    diff = np.bincount(group[:m], p.probs, n_groups) - np.bincount(group[m:], q.probs, n_groups)
    return 0.5 * float(np.abs(diff).sum())


def _marginal_constraints(p_mass: np.ndarray, q_mass: np.ndarray, extra_cols: int):
    m, k = p_mass.size, q_mass.size
    n_vars = m * k + extra_cols
    a_eq = np.zeros((m + k, n_vars))
    for i in range(m):
        a_eq[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        a_eq[m + j, j : m * k : k] = 1.0
    b_eq = np.concatenate([p_mass, q_mass])
    return a_eq, b_eq


def _solve_lp(c, a_eq, b_eq, a_ub=None, b_ub=None):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise MetricFailure(f"coupling LP failed: {res.message}")
    return res


def _solve_coupling(diff: np.ndarray, p_mass, q_mass, norm: str) -> tuple[float, np.ndarray]:
    # The "avg" or "max" program for masses p_mass, q_mass and disagreements diff.
    m, k, dim = diff.shape
    if norm == "avg":
        cost = diff.mean(axis=2)
        mass = p_mass[0]
        if m == k and np.all(p_mass == mass) and np.all(q_mass == mass):
            rows, cols = linear_sum_assignment(cost)
            weights = np.zeros((m, k))
            weights[rows, cols] = mass
            return float(mass * cost[rows, cols].sum()), weights
        a_eq, b_eq = _marginal_constraints(p_mass, q_mass, extra_cols=0)
        res = _solve_lp(cost.ravel(), a_eq, b_eq)
        return float(res.fun), res.x.reshape(m, k)
    a_eq, b_eq = _marginal_constraints(p_mass, q_mass, extra_cols=1)
    a_ub = np.hstack([diff.reshape(m * k, dim).T, -np.ones((dim, 1))])
    objective = np.zeros(m * k + 1)
    objective[-1] = 1.0
    res = _solve_lp(objective, a_eq, b_eq, a_ub=a_ub, b_ub=np.zeros(dim))
    return float(res.x[-1]), res.x[:-1].reshape(m, k)


def optimal_entrywise_coupling(
    p: DiscreteDistribution, q: DiscreteDistribution, norm: str = "avg"
) -> tuple[float, Coupling]:
    """Minimize mean ("avg") or max ("max") coordinate disagreement mass.

    Returns the optimal value together with a witnessing coupling. The "avg"
    case is a transportation problem with normalized Hamming costs; the "max"
    case adds a bound variable shared by all coordinates. Both are solved
    exactly as linear programs, except that "avg" between two distributions
    with equal atom counts and one common mass on every atom is solved as an
    assignment problem, whose optimal permutation is a vertex of the same
    program; its value is that mass times the summed cost of the permutation.

    Shared mass is matched before any program is built: an atom a held by
    both distributions stays in place with mass min(p_a, q_a), and the
    program runs only on the atoms left with residual mass; if none is left,
    the value is 0. This is exact for both norms. Take an optimal coupling
    that moves mass a -> b and c -> a (b, c != a), and reroute some eps of it
    as a -> a and c -> b. Coordinate k's disagreement mass changes by
    eps * ([c_k != b_k] - [a_k != b_k] - [c_k != a_k]) <= 0, by the triangle
    inequality of the 0/1 metric on coordinate k, so neither the mean nor the
    max over k rises. Repeating until a sends nothing away or receives
    nothing from elsewhere leaves min(p_a, q_a) on (a, a). A uniform,
    equal-size pair leaves a uniform, equal-size residual, so it still takes
    the assignment.

    No program is solved when a coordinate k separates the residual atoms,
    that is, when every residual atom of p differs in k from every residual
    atom of q. Every coupling of the residuals then puts all of their mass R
    on pairs that differ in k, and no coordinate can carry more than R. So
    the "max" value is R, and the "avg" value is R when every coordinate
    separates them; any coupling of the residuals is a witness, and the
    product coupling scaled to mass R is used.

    The cell and support caps apply to the input sizes, before the reduction.
    """
    _check_same_dim(p, q)
    m, k = p.n_atoms, q.n_atoms
    if m * k > COUPLING_CELL_CAP:
        raise CapExceededError(f"{m}x{k} coupling exceeds the {COUPLING_CELL_CAP}-cell cap")
    if norm == "max" and (m > SUPPORT_CAP or k > SUPPORT_CAP):
        raise CapExceededError(f"supports exceed the {SUPPORT_CAP}-atom cap")
    if norm not in ("avg", "max"):
        raise ValueError(f"norm must be 'avg' or 'max', got {norm!r}")
    group = _atom_groups(p, q)
    left_of_group = np.full(m + k, -1)
    left_of_group[group[:m]] = np.arange(m)
    left_of_right = left_of_group[group[m:]]
    shared_q = np.flatnonzero(left_of_right >= 0)
    shared_p = left_of_right[shared_q]
    kept = np.minimum(p.probs[shared_p], q.probs[shared_q])
    weights = np.zeros((m, k))
    weights[shared_p, shared_q] = kept
    p_rest, q_rest = p.probs.copy(), q.probs.copy()
    p_rest[shared_p] -= kept
    q_rest[shared_q] -= kept
    rows, cols = np.flatnonzero(p_rest > 0), np.flatnonzero(q_rest > 0)
    if rows.size == 0 or cols.size == 0:
        # Whatever is left on one side is rounding, within the 1e-9 mass check.
        return 0.0, Coupling(p, q, weights)
    diff = _disagreement_tensor(p.support[rows], q.support[cols])
    p_mass, q_mass = p_rest[rows], q_rest[cols]
    separated = diff.all(axis=(0, 1))
    if separated.all() if norm == "avg" else separated.any():
        value, block = float(p_mass.sum()), np.outer(p_mass, q_mass) / q_mass.sum()
    else:
        value, block = _solve_coupling(diff, p_mass, q_mass, norm)
    weights[np.ix_(rows, cols)] += block
    return value, Coupling(p, q, weights)


def entrywise_distance_avg(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Minimum over couplings of the mean per-coordinate disagreement mass."""
    return optimal_entrywise_coupling(p, q, "avg")[0]


def entrywise_distance_max(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Minimum over couplings of the largest per-coordinate disagreement mass."""
    return optimal_entrywise_coupling(p, q, "max")[0]


def cov_to_corr(matrix) -> np.ndarray:
    """Rescale a covariance-like matrix to unit diagonal."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    diag = np.diag(m)
    if np.any(diag <= 0):
        raise ValueError("diagonal entries must be positive")
    inv = 1.0 / np.sqrt(diag)
    return m * np.outer(inv, inv)


def max_sign_quadratic(matrix) -> float:
    """Largest sqrt(x' S x) over sign vectors x, with S the unit-diagonal rescaling.

    For positive semidefinite input the result lies between sqrt(dim) and dim;
    the identity matrix attains the lower end and the all-ones matrix the
    upper end. Enumerates all sign vectors (up to global sign), hence the cap
    of ``SIGN_ENUMERATION_CAP`` dimensions.
    """
    s = cov_to_corr(matrix)
    dim = s.shape[0]
    if dim > SIGN_ENUMERATION_CAP:
        raise CapExceededError(f"dim={dim} exceeds the enumeration cap {SIGN_ENUMERATION_CAP}")
    best = -np.inf
    total = 1 << (dim - 1)  # fix the first sign: x and -x agree in value
    chunk = 1 << 14
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = (codes[:, None] >> np.arange(dim - 1, dtype=np.uint64)[None, :]) & 1
        signs = np.hstack([np.ones((codes.size, 1)), 1.0 - 2.0 * bits.astype(float)])
        vals = np.einsum("bi,ij,bj->b", signs, s, signs)
        best = max(best, float(vals.max()))
    if best < 0:
        raise ValueError("quadratic form is negative on every sign vector; input is not PSD")
    return float(np.sqrt(best))


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; :class:`NonFiniteMetricInputError` naming ``name``
    unless every entry is finite."""
    array = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise NonFiniteMetricInputError(f"{name} must be finite")
    return array


def l2_error(estimate, reference) -> float:
    """Euclidean norm of the estimation error; both vectors must be finite."""
    est = _finite("estimate", estimate).ravel()
    ref = _finite("reference", reference).ravel()
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    return float(np.linalg.norm(est - ref))


def mahalanobis_error(estimate, reference, covariance) -> float:
    """sqrt of d' pinv(Sigma) d for d the estimation error.

    For rank-deficient covariance the error must lie in the range of Sigma
    (projection residual within 1e-6 relative), otherwise the quantity is
    infinite in spirit and a MetricFailure is raised. A non-finite input
    raises :class:`NonFiniteMetricInputError`.
    """
    d = _finite("estimate", estimate).ravel() - _finite("reference", reference).ravel()
    sigma = np.atleast_2d(_finite("covariance", covariance))
    if sigma.shape != (d.size, d.size):
        raise ValueError("covariance shape does not match the vectors")
    eigvals, eigvecs = np.linalg.eigh(sigma)
    cutoff = RANK_TOL * max(eigvals.max(initial=0.0), 0.0)
    keep = eigvals > cutoff
    if not np.any(keep):
        raise MetricFailure("covariance has numerical rank zero")
    coords = eigvecs[:, keep].T @ d
    residual = d - eigvecs[:, keep] @ coords
    if np.linalg.norm(residual) > 1e-6 * max(1.0, np.linalg.norm(d)):
        raise MetricFailure("error vector lies outside the range of the covariance")
    return float(np.sqrt(np.sum(coords**2 / eigvals[keep])))


def load_distribution_csv(path) -> DiscreteDistribution:
    """Read atoms from CSV: each row is the atom's coordinates then its mass.

    Read by :func:`entrymean.data.read_dense_csv`, which names the row of a
    ragged record, and the row and column of a cell that does not parse as a
    number or is empty.
    """
    table = read_dense_csv(path)
    if table.shape[1] < 2:
        raise ValueError("row 0 needs at least one coordinate and a probability")
    return DiscreteDistribution(table[:, :-1], table[:, -1])


def save_distribution_csv(dist: DiscreteDistribution, path) -> None:
    """Write one row per atom, its coordinates then its mass, each as ``'%.17g'``."""
    write_csv_rows(path, np.column_stack([dist.support, dist.probs]))
