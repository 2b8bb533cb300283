"""Independent reference implementations used to pin down expected values.

Everything here favors obviousness over speed: exhaustive enumeration,
plain loops, no shared code with the package internals.
"""
from __future__ import annotations

import csv
from itertools import combinations, product

import numpy as np


def transport_minimum(p_masses, q_masses, cost):
    """Exact transportation optimum by enumerating basic feasible solutions.

    Vertices of the transportation polytope correspond to edge subsets of the
    complete bipartite graph that form spanning trees. For each candidate
    subset the flows are solved from the marginal equations; feasible
    (nonnegative, consistent) solutions are scored and the minimum returned.
    Only sensible for supports of a handful of atoms.
    """
    p_masses = np.asarray(p_masses, dtype=float)
    q_masses = np.asarray(q_masses, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, k = cost.shape
    edges = [(i, j) for i in range(m) for j in range(k)]
    n_nodes = m + k
    best = np.inf
    for subset in combinations(edges, n_nodes - 1):
        # Spanning tree check via union-find.
        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in subset:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic or len({find(v) for v in range(n_nodes)}) != 1:
            continue
        rows = np.zeros((n_nodes, len(subset)))
        for e, (i, j) in enumerate(subset):
            rows[i, e] = 1.0
            rows[m + j, e] = 1.0
        rhs = np.concatenate([p_masses, q_masses])
        flow, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        if np.linalg.norm(rows @ flow - rhs) > 1e-9:
            continue
        if np.any(flow < -1e-10):
            continue
        value = sum(cost[i, j] * f for (i, j), f in zip(subset, flow))
        best = min(best, value)
    return best


def hamming_cost_matrix(support_p, support_q):
    """cost[i, j] = fraction of coordinates where atom i and atom j differ."""
    support_p = np.asarray(support_p, dtype=float)
    support_q = np.asarray(support_q, dtype=float)
    dim = support_p.shape[1]
    cost = np.zeros((support_p.shape[0], support_q.shape[0]))
    for i, x in enumerate(support_p):
        for j, y in enumerate(support_q):
            cost[i, j] = sum(1.0 for a, b in zip(x, y) if a != b) / dim
    return cost


def tv_direct(support_p, probs_p, support_q, probs_q):
    masses = {}
    for atom, w in zip(support_p, probs_p):
        masses[tuple(atom)] = masses.get(tuple(atom), 0.0) + w
    for atom, w in zip(support_q, probs_q):
        masses[tuple(atom)] = masses.get(tuple(atom), 0.0) - w
    return 0.5 * sum(abs(v) for v in masses.values())


def min_rows_to_drop_rank_direct(entries):
    """Row-removal search using numpy's own default rank tolerance."""
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    base = np.linalg.matrix_rank(entries)
    for k in range(1, n + 1):
        for dropped in combinations(range(n), k):
            kept = [i for i in range(n) if i not in dropped]
            reduced_rank = np.linalg.matrix_rank(entries[kept]) if kept else 0
            if reduced_rank < base:
                return k
    raise AssertionError("unreachable for nonzero input")


def decode_within_radius_direct(entries, x, radius):
    """Undo at most ``radius`` replaced coordinates of ``x`` by trying every support.

    Supports T go smallest first, then in lexicographic order. The first T whose
    other coordinates fit, entries[~T] z = x[~T] by least squares with a
    residual at most 1e-6 times |x|, gives entries @ z. None if no T fits.
    """
    entries = np.asarray(entries, dtype=float)
    x = np.asarray(x, dtype=float)
    n = entries.shape[0]
    for k in range(radius + 1):
        for support in combinations(range(n), k):
            kept = [i for i in range(n) if i not in support]
            z, *_ = np.linalg.lstsq(entries[kept], x[kept], rcond=None)
            if np.linalg.norm(entries[kept] @ z - x[kept]) <= 1e-6 * np.linalg.norm(x):
                return entries @ z
    return None


def randomized_replacement_direct(entries, x, exponent, rng):
    """Minimum-Hamming reconstruction of ``x`` over ceil(r**exponent) random r-row draws.

    Returns ``(status, sample, residual)``. ``("unchanged", x, 0)`` when the
    least-squares fit entries @ z = x leaves a residual at most 1e-6 |x|.
    Otherwise each draw repeats ``np.sort(rng.choice(n, r, replace=False))``
    until the picked rows have r singular values above 1e-10 times the largest,
    solves that square system, and counts the coordinates where entries @ z
    misses ``x`` by more than 1e-8 max(1, max |x|). The first draw of least
    count wins: ``("recovered", entries @ z, count)`` when removing any
    2 * count or fewer rows of ``entries`` keeps its rank (by the same
    singular-value rule), else ``("unrecoverable", None, count)``.
    """
    entries = np.asarray(entries, dtype=float)
    x = np.asarray(x, dtype=float)
    n, r = entries.shape

    def rank(rows):
        if len(rows) == 0:
            return 0
        s = np.linalg.svd(entries[rows], compute_uv=False)
        return sum(1 for v in s if v > 1e-10 * s[0])

    z, *_ = np.linalg.lstsq(entries, x, rcond=None)
    if np.linalg.norm(entries @ z - x) <= 1e-6 * np.linalg.norm(x):
        return "unchanged", x.copy(), 0
    tol = 1e-8 * max(1.0, max(abs(v) for v in x))
    best_sample, best_count = None, None
    for _ in range(int(np.ceil(r**exponent))):
        for _ in range(1000):
            rows = np.sort(rng.choice(n, size=r, replace=False))
            if rank(rows) == r:
                break
        else:
            raise AssertionError("no independent draw in 1000 tries")
        sample = entries @ np.linalg.solve(entries[rows], x[rows])
        count = sum(1 for got, want in zip(sample, x) if abs(got - want) > tol)
        if best_count is None or count < best_count:
            best_sample, best_count = sample, count
    # A removal loses rank whenever a smaller one inside it does, so removals of
    # exactly min(2 * count, n) rows cover every smaller one.
    full = rank(list(range(n)))
    for dropped in combinations(range(n), min(2 * best_count, n)):
        if rank([i for i in range(n) if i not in dropped]) < full:
            return "unrecoverable", None, best_count
    return "recovered", best_sample, best_count


def max_sign_quadratic_direct(matrix):
    """Sign enumeration with plain Python loops over itertools.product."""
    m = np.asarray(matrix, dtype=float)
    dim = m.shape[0]
    scale = np.diag(1.0 / np.sqrt(np.diag(m)))
    s = scale @ m @ scale
    best = -np.inf
    for signs in product((-1.0, 1.0), repeat=dim):
        x = np.array(signs)
        best = max(best, float(x @ s @ x))
    return float(np.sqrt(best))


def plan_budgets_direct(edits, n_samples, dim):
    """Recount all three budget figures from the raw edit list."""
    samples = set()
    per_coord = {}
    for sample, coord in edits:
        samples.add(sample)
        per_coord[coord] = per_coord.get(coord, 0) + 1
    return {
        "sample_fraction": len(samples) / n_samples,
        "per_coordinate_fraction": max(per_coord.values(), default=0) / n_samples,
        "cell_fraction": len(edits) / (n_samples * dim),
    }


def tail_hiding_direct(values, mask, per_coord):
    """Cells hidden by tail hiding, as (sample, coord) pairs in edit order.

    Coordinate by coordinate, the visible entries sorted by (value, sample
    index) and the first ``per_coord`` of them taken.
    """
    cells = []
    n_samples, dim = len(values), len(values[0])
    for j in range(dim):
        visible = [(values[i][j], i) for i in range(n_samples) if not mask[i][j]]
        cells += [(i, j) for _, i in sorted(visible)[:per_coord]]
    return cells


def concentrated_target_direct(values, mask):
    """The coordinate whose visible entries have the largest ``np.var``, one
    1-d column at a time; a coordinate with no visible entry counts as -inf."""
    variances = [
        np.var(values[~mask[:, j], j]) if (~mask[:, j]).any() else -np.inf
        for j in range(values.shape[1])
    ]
    return int(np.argmax(variances))


def standardize_direct(values, mask):
    """Each coordinate's visible entries minus their mean and, where their std is
    positive, divided by it, one 1-d column at a time; a coordinate with no
    visible entry is left as it is."""
    out = np.array(values, dtype=float)
    for j in range(out.shape[1]):
        col = out[~mask[:, j], j]
        if col.size:
            centered = col - col.mean()
            spread = col.std()
            out[~mask[:, j], j] = centered / spread if spread > 0 else centered
    return out


def smallest_first_direct(keys, count, hidden=None):
    """Indices of the ``count`` smallest keys, smallest first, ties to the lower index.

    Plain ``sorted`` of (key, index) pairs; the list stops before the first
    index whose ``hidden`` flag is set.
    """
    picked = []
    for _, i in sorted((key, i) for i, key in enumerate(keys))[:count]:
        if hidden is not None and hidden[i]:
            break
        picked.append(i)
    return picked


def impute_rows_direct(entries, values, rank_tol):
    """Per-row least-squares imputation; NaN marks a hidden entry.

    Returns one ``(status, sample)`` pair per row: ``("unrecoverable", None)``
    when the visible rows of ``entries`` lose rank or ``lstsq`` leaves a
    residual above 1e-6 of the visible entries, else ``("unchanged", row)``
    when nothing is hidden and ``("recovered", entries @ z)`` when something is.
    """
    entries = np.asarray(entries, dtype=float)

    def rank(matrix):
        if matrix.size == 0:
            return 0
        s = np.linalg.svd(matrix, compute_uv=False)
        return sum(1 for v in s if v > rank_tol * s[0])

    full_rank = rank(entries)
    out = []
    for x in np.asarray(values, dtype=float):
        visible = [j for j in range(x.size) if not np.isnan(x[j])]
        rows = entries[visible]
        if rank(rows) < full_rank:
            out.append(("unrecoverable", None))
            continue
        z, *_ = np.linalg.lstsq(rows, x[visible], rcond=None)
        residual = np.linalg.norm(rows @ z - x[visible])
        if residual > 1e-6 * np.linalg.norm(x[visible]):
            out.append(("unrecoverable", None))
        elif len(visible) == x.size:
            out.append(("unchanged", x.copy()))
        else:
            out.append(("recovered", entries @ z))
    return out


def _hard_impute_sweeps(table, hidden, rank, max_iter, tol):
    """Replace hidden cells by the best rank-``rank`` fit, full SVD per sweep."""
    for iteration in range(1, max_iter + 1):
        u, s, vt = np.linalg.svd(table, full_matrices=False)
        best = u[:, :rank] @ np.diag(s[:rank]) @ vt[:rank]
        delta = np.max(np.abs(best[hidden] - table[hidden]))
        table[hidden] = best[hidden]
        if delta <= tol:
            return table, iteration, True
    return table, max_iter, False


def hard_impute_direct(values, mask, rank, max_iter, tol):
    """Hard-impute completion with a full SVD of the table in every sweep.

    Rows with fewer than ``rank`` visible entries are dropped; hidden cells
    start at their column's visible median. Each sweep replaces the hidden
    cells by those of the best rank-``rank`` approximation, stopping once the
    largest change is at most ``tol``. Returns ``(table, iterations,
    converged)`` for the retained rows.
    """
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    keep = [i for i in range(values.shape[0]) if (~mask[i]).sum() >= rank]
    table = values[keep].copy()
    hidden = mask[keep]
    if not hidden.any():
        return table, 0, True
    for j in range(table.shape[1]):
        if hidden[:, j].any():
            table[hidden[:, j], j] = np.median(table[~hidden[:, j], j])
    return _hard_impute_sweeps(table, hidden, rank, max_iter, tol)


def warm_complete_direct(values, mask, rank, max_iter, tol, rank_tol=1e-10):
    """Hard-impute started from the subspace of the fully visible rows.

    The top ``rank`` right singular vectors of the rows with nothing hidden
    form a basis B. Each row with a hidden entry is fitted by ``lstsq`` of
    its visible entries against the same rows of B, and dropped when those
    rows of B have rank below ``rank`` (singular values above ``rank_tol``
    times the largest); rows with fewer than ``rank`` visible entries are
    dropped first. Then full-SVD sweeps as in :func:`hard_impute_direct`.
    Returns ``(table, dropped, iterations, converged)``, ``dropped`` being
    the sorted indices of the dropped rows.
    """
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)

    def rank_of(matrix):
        s = np.linalg.svd(matrix, compute_uv=False)
        return sum(1 for v in s if v > rank_tol * s[0])

    complete = values[~mask.any(axis=1)]
    if complete.shape[0] < rank or rank_of(complete) < rank:
        raise ValueError("the fully visible rows do not reach the target rank")
    basis = np.linalg.svd(complete, full_matrices=False)[2][:rank].T
    kept, dropped = [], []
    table = values.copy()
    for i in range(values.shape[0]):
        visible = [j for j in range(values.shape[1]) if not mask[i, j]]
        if len(visible) == values.shape[1]:
            kept.append(i)
            continue
        if len(visible) < rank or rank_of(basis[visible]) < rank:
            dropped.append(i)
            continue
        z, *_ = np.linalg.lstsq(basis[visible], values[i, visible], rcond=None)
        table[i, mask[i]] = (basis @ z)[mask[i]]
        kept.append(i)
    table = table[kept]
    hidden = mask[kept]
    if not hidden.any():
        return table, dropped, 0, True
    table, iterations, converged = _hard_impute_sweeps(table, hidden, rank, max_iter, tol)
    return table, dropped, iterations, converged


def save_dataset_csv_direct(values, mask, path):
    """Write a table through ``csv.writer``, one cell at a time.

    Visible cells are ``format(v, ".17g")``; hidden cells are empty strings.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, hidden in zip(values, mask):
            writer.writerow(["" if h else format(float(v), ".17g") for v, h in zip(row, hidden)])


def save_plan_csv_direct(sample, coord, hide, value, path):
    """Write a corruption plan through ``csv.writer``, one edit per row.

    Header ``sample,coord,action,value``; indices as Python integers, the
    action ``hide`` with an empty value or ``replace`` with ``format(v, ".17g")``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "coord", "action", "value"])
        for s, c, h, v in zip(sample, coord, hide, value):
            if h:
                writer.writerow([int(s), int(c), "hide", ""])
            else:
                writer.writerow([int(s), int(c), "replace", format(float(v), ".17g")])


def save_distribution_csv_direct(support, probs, path):
    """Write atoms through ``csv.writer``: coordinates then mass, as ``format(v, ".17g")``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for atom, p in zip(support, probs):
            writer.writerow([format(float(v), ".17g") for v in atom] + [format(float(p), ".17g")])


def load_dataset_csv_direct(path):
    """Read a table through ``csv.reader``, one cell at a time.

    Returns ``(values, mask)``: a cell that is empty after ``str.strip`` is
    hidden (NaN), every other cell goes through ``float``. Raises ValueError
    naming the row, and the column, of a ragged row or a cell that does not
    parse, and for a file with no rows.
    """
    rows = []
    mask_rows = []
    width = None
    with open(path, newline="") as fh:
        for i, record in enumerate(csv.reader(fh)):
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise ValueError(f"row {i} has {len(record)} fields, expected {width}")
            vals = []
            hidden = []
            for j, cell in enumerate(record):
                cell = cell.strip()
                if cell == "":
                    vals.append(np.nan)
                    hidden.append(True)
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ValueError(f"row {i}, column {j}: {cell!r} is not a number") from None
                hidden.append(False)
            rows.append(vals)
            mask_rows.append(hidden)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows), np.array(mask_rows)
