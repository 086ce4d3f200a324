"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is written set-wise and formula-by-formula, with no
bitmask dynamic programming, no tableau, and no shared code with the
package internals.  Two references are the exception on purpose: the
slack-variable tie-break LP is solved with the package's simplex, so a
comparison checks how the LP is stated rather than how it is solved, and
the row-loop pivot is the loop form of the simplex's vectorised pivot.
"""

import itertools
import math

import numpy as np

from revalloc import simplex


# ----------------------------------------------------------- coalition game

def bounds_in_coalition(E, coalition, j):
    """(upper, lower) received appraisal of member j; lone member scores 1."""
    others = [d for d in coalition if d != j]
    if not others:
        return 1.0, 1.0
    scores = [E[d][j] for d in others]
    return max(scores), min(scores)


def coalition_worth(E, coalition):
    return sum(bounds_in_coalition(E, coalition, j)[0] for j in coalition)


def coalition_lower_total(E, coalition):
    return sum(bounds_in_coalition(E, coalition, j)[1] for j in coalition)


def shapley_triple(E, include_empty=False):
    """Per-player (lower, central, upper) shares by plain subset enumeration."""
    n = len(E)
    phi = np.zeros(n)
    up = np.zeros(n)
    lo = np.zeros(n)
    players = range(n)
    for i in players:
        others = [p for p in players if p != i]
        for size in range(0, n):
            weight = math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n)
            for combo in itertools.combinations(others, size):
                S = set(combo)
                if not S:
                    if include_empty:
                        phi[i] += weight
                        up[i] += weight
                        lo[i] += weight
                    continue
                T = S | {i}
                num_hi, num_lo = bounds_in_coalition(E, T, i)
                sum_up_T = sum(bounds_in_coalition(E, T, j)[0] for j in S)
                sum_lo_T = sum(bounds_in_coalition(E, T, j)[1] for j in S)
                sum_up_S = coalition_worth(E, S)
                sum_lo_S = coalition_lower_total(E, S)
                s = len(S)
                phi[i] += weight * num_hi / (s + sum_up_T - sum_up_S)
                up[i] += weight * num_hi / (s + sum_lo_T - sum_up_S)
                lo[i] += weight * num_lo / (s + sum_up_T - sum_lo_S)
    return lo, phi, up


# -------------------------------------------------------------- linear programs

def vertex_enumeration_solve(objective, sense, constraints, upper_box):
    """Solve a small LP by enumerating candidate vertices.

    ``constraints`` is a list of (coeffs, relation, rhs) over x >= 0;
    ``upper_box`` adds x_i <= upper_box so the region is bounded.  Returns
    (status, objective) with status "optimal" or "infeasible".
    """
    objective = np.asarray(objective, float)
    n = objective.size
    rows = [(np.asarray(c, float), rel, float(b)) for c, rel, b in constraints]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, "<=", float(upper_box)))
        rows.append((e, ">=", 0.0))
    A = np.array([r[0] for r in rows])
    b = np.array([r[2] for r in rows])
    rels = [r[1] for r in rows]

    combos = np.array(list(itertools.combinations(range(len(rows)), n)))
    mats = A[combos]
    rhs = b[combos]
    dets = np.linalg.det(mats)
    solvable = np.abs(dets) > 1e-10
    if not solvable.any():
        return "infeasible", None
    points = np.linalg.solve(mats[solvable], rhs[solvable][..., None])[..., 0]

    lhs = points @ A.T
    feasible = np.ones(len(points), dtype=bool)
    for k, rel in enumerate(rels):
        if rel == "<=":
            feasible &= lhs[:, k] <= b[k] + 1e-7
        elif rel == ">=":
            feasible &= lhs[:, k] >= b[k] - 1e-7
        else:
            feasible &= np.abs(lhs[:, k] - b[k]) <= 1e-7
    if not feasible.any():
        return "infeasible", None
    values = points[feasible] @ objective
    best = values.max() if sense == "max" else values.min()
    return "optimal", float(best)


def row_loop_pivot(T, row, col):
    """Gauss-Jordan pivot on T[row, col], one row at a time (modifies T)."""
    T[row] /= T[row, col]
    piv = T[row]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > simplex.PIVOT_TOL:
            T[i] -= T[i, col] * piv


def slack_tie_break(X, Y, d, allies, theta_d):
    """Evaluator d's tie-break LP with one slack variable per other DMU.

    Variables are u (s), v (m) and s_j = X_j v - Y_j u for every j != d,
    each held by an equality row; the objective sums the allies' slacks
    minus the adversaries'.  The self-score and scale rows pin Y_d u to
    theta_d X_d v and X_d v to 1.  Returns (objective, u, v).
    """
    n, m = X.shape
    s = Y.shape[1]
    others = [j for j in range(n) if j != d]
    nvar = s + m + len(others)
    obj = np.zeros(nvar)
    for k, j in enumerate(others):
        obj[s + m + k] = 1.0 if allies[j] else -1.0
    lp = simplex.LinearProgram(objective=obj, sense="min")
    for k, j in enumerate(others):
        row = np.zeros(nvar)
        row[:s] = Y[j]
        row[s:s + m] = -X[j]
        row[s + m + k] = 1.0
        lp.add_constraint(row, "=", 0.0)
    row = np.zeros(nvar)
    row[:s] = Y[d]
    row[s:s + m] = -theta_d * X[d]
    lp.add_constraint(row, "=", 0.0)
    row = np.zeros(nvar)
    row[s:s + m] = X[d]
    lp.add_constraint(row, "=", 1.0)
    sol = simplex.solve(lp)
    assert sol.status == simplex.OPTIMAL, sol.status
    return sol.objective, sol.x[:s], sol.x[s:s + m]


# ------------------------------------------------------------------ clustering

def average_linkage_labels(points, H):
    """Agglomerate by freshly recomputed mean pairwise distance each step.

    Ties broken toward the lexicographically smallest pair of cluster
    minima; labels numbered 1..H by smallest member.
    """
    points = np.asarray(points, float)
    clusters = [[i] for i in range(len(points))]
    while len(clusters) > H:
        best = None
        best_key = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                dsum = 0.0
                for ia in clusters[a]:
                    for ib in clusters[b]:
                        dsum += float(np.linalg.norm(points[ia] - points[ib]))
                d = dsum / (len(clusters[a]) * len(clusters[b]))
                key = (min(clusters[a]), min(clusters[b]))
                if best is None or d < best or (d == best and key < best_key):
                    best = d
                    best_key = key
                    pair = (a, b)
        a, b = pair
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    clusters.sort(key=min)
    labels = np.zeros(len(points), dtype=int)
    for gid, members in enumerate(clusters, start=1):
        labels[members] = gid
    return labels


def lance_williams_labels(points, H):
    """Agglomerate by the Lance-Williams average-linkage update, pair by pair.

    Each pair of clusters keeps one distance; merging b into a sets the
    distance to every other cluster c to (n_a d_ac + n_b d_bc) / (n_a + n_b).
    Pairs are scanned in lexicographic order of their lowest members and
    only a strictly smaller distance replaces the best, so exact ties go to
    the lowest pair.  Tied averages come out of this update bit for bit as
    they come out of the package's; the fresh means of
    ``average_linkage_labels`` can round one of two tied averages an ulp
    lower and so pick another pair on data full of ties.
    """
    points = np.asarray(points, float)
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    base = np.sqrt((diff * diff).sum(axis=2))
    clusters = {i: [i] for i in range(n)}
    dist = {(i, j): float(base[i, j]) for i in range(n) for j in range(i + 1, n)}
    while len(clusters) > H:
        best = None
        for pair in sorted(dist):
            if best is None or dist[pair] < dist[best]:
                best = pair
        a, b = best
        na, nb = len(clusters[a]), len(clusters[b])
        for c in clusters:
            if c not in (a, b):
                ac, bc = (min(a, c), max(a, c)), (min(b, c), max(b, c))
                dist[ac] = (na * dist[ac] + nb * dist.pop(bc)) / (na + nb)
        del dist[best]
        clusters[a] += clusters.pop(b)
    labels = np.zeros(n, dtype=int)
    for gid, root in enumerate(sorted(clusters), start=1):
        labels[clusters[root]] = gid
    return labels
