"""CCR self-efficiencies, ally grouping, and the unique cross-efficiency matrix.

The evaluated DMU's ratio model is linearized the standard way (virtual
input pinned to 1) and solved on the simplex tableau built straight from
the normalized input and output arrays.  The tie-break that selects among
the evaluator's alternative optimal weights minimizes allies' slacks minus
adversaries' slacks over the optimal face of that same tableau (the
secondary-goal model of Sexton, Silkman & Hogan 1986 and Doyle & Green
1994): the columns that would lower the self-score are barred, and the
tie-break runs as one more phase 2 from the self-score's final basis.

Every evaluator's LP has the same shape, so one driver, ``_scores``,
solves the self-score LPs of any list of evaluators as one
``simplex.Stack`` and, given ally groups, their tie-breaks on its optimal
faces.  ``ccr_all`` and ``cross_efficiency_matrix`` pass it all n
evaluators, ``ccr_efficiency`` and ``secondary_goal_weights`` one; none of
them takes or returns a stack.  Every LP of a stack carries one shared
set of DMU rows, ``_frontier_rows``: a DMU that another beats after
scaling (Barr & Durchholz 1997; Dulá & Thrall 2001) has a row that never
binds, and it is left out with no change to any pivot or bit.  Scores are
fixed-order sums with no BLAS, so each evaluator's bits are the same in
any batch and on any CPU.
A failure names the first evaluator in DMU order: its self-score LP, then
its tie-break LP, then a DMU its weights give zero virtual input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .dataset import CrossEfficiencyMatrix, Dataset, GroupAssignment, ValidationError, is_integer

_DUST = 1e-12  # the <= rows keep every score <= 1; above 1 by this much is rounding
_MARGIN = 1e-6  # a DMU's row goes only if another beats it, scaled, by this factor


class SolverFailure(RuntimeError):
    """An internal LP came back infeasible/unbounded or a ratio degenerated."""


@dataclass(eq=False)
class CcrResult:
    """Per-DMU optimal efficiency and the multiplier weights achieving it."""

    theta: np.ndarray      # n
    weights_u: np.ndarray  # n x s, output multipliers
    weights_v: np.ndarray  # n x m, input multipliers


def _scores(data: Dataset, evaluators, groups: GroupAssignment | None = None):
    """Solve the evaluators' self-score LPs as one stack and, given ``groups``,
    their tie-breaks on that stack restricted to its optimal faces; returns
    (theta, x, self-score statuses, tie-break statuses).

    Variables are u_1..u_s, v_1..v_m; evaluator d's rows are
    Y_j u - X_j v <= 0 for every DMU j of ``_frontier_rows`` and X_d v = 1.
    Row l of x holds (u, v) of ``evaluators[l]``: its tie-break weights
    given ``groups``, else its self-score weights.  theta and x mean nothing
    for an LP whose status is not optimal.  The tie-break statuses are the
    stack's own, so a failed self-score LP keeps its status there too, and
    with no ``groups`` they are the self-score statuses.  ``groups`` is
    taken as checked.
    """
    X, Y = data.norm_inputs, data.norm_outputs
    rows = _frontier_rows(data)
    A = np.zeros((len(evaluators), rows.size + 1, data.s + data.m))
    A[:, :-1] = np.hstack([Y[rows], -X[rows]])
    A[:, -1, data.s:] = X[evaluators]
    b = np.zeros(rows.size + 1)
    b[-1] = 1.0
    stack = simplex.phase_one(A, b, ["<="] * rows.size + ["="])
    self_score = stack.optimize(np.hstack([-Y[evaluators],
                                           np.zeros((len(evaluators), data.m))])).copy()
    x = stack.point()
    theta = _products(Y[evaluators], x[:, :data.s])
    theta[(theta > 1.0) & (theta <= 1.0 + _DUST)] = 1.0
    if groups is not None:
        stack.optimal_face()
        stack.optimize(_tie_break_costs(data, evaluators, groups))
        x = stack.point()
    return theta, x, self_score, stack.status


def _check_groups(data: Dataset, groups) -> None:
    """ValidationError unless ``groups`` is a GroupAssignment of ``data``'s DMUs."""
    if not isinstance(groups, GroupAssignment):
        raise ValidationError(f"groups must be a GroupAssignment, got {type(groups).__name__}")
    if groups.groups.size != data.n:
        raise ValidationError("group assignment does not match dataset size")


def _frontier_rows(data: Dataset) -> np.ndarray:
    """The DMUs whose row Y_j u - X_j v <= 0 every evaluator LP keeps, in DMU order.

    DMU j's row goes when X_j > 0 and some other DMU k, with
    c = max_i X_ki / X_ji > 0, has Y_k >= (1 + _MARGIN) c Y_j.  Wherever
    row k holds, Y_j u <= Y_k u / ((1 + _MARGIN) c) <= X_k v / ((1 + _MARGIN) c)
    <= X_j v / (1 + _MARGIN), and X_d v = 1 with v >= 0 makes X_j v > 0.  So
    row j's slack is positive at every feasible point of every self-score
    and tie-break LP: it never wins a ratio test and stays basic, so
    Bland's rule takes the same pivots, with the same bits, as on all n
    rows.  A row with a zero input stays, and so does every DMU with
    theta = 1.  Elementwise divides, maxima and compares, one input or
    output at a time: no BLAS and no n x n x (m + s) array.
    """
    X, Y = data.norm_inputs, data.norm_outputs
    screened = np.flatnonzero((X > 0).all(axis=1))
    c = np.zeros((data.n, screened.size))  # c[k, l] = max_i X_ki / X_ji for j = screened[l]
    for i in range(data.m):
        np.maximum(c, X[:, i, None] / X[screened, i], out=c)
    beaten = c > 0
    c *= 1.0 + _MARGIN
    for r in range(data.s):
        beaten &= Y[:, r, None] >= c * Y[screened, r]
    beaten[screened, np.arange(screened.size)] = False  # k is another DMU
    keep = np.ones(data.n, dtype=bool)
    keep[screened] = ~beaten.any(axis=0)
    return np.flatnonzero(keep)


def _tie_break_costs(data: Dataset, evaluators, groups: GroupAssignment) -> np.ndarray:
    """Each evaluator's ally slacks minus adversary slacks, as a cost over (u, v).

    The slack of DMU j, X_j v - Y_j u, is no variable of the LP.  Each sum
    runs over the other DMUs in DMU order, as one evaluator's sum would.
    """
    X, Y = data.norm_inputs, data.norm_outputs
    d = np.asarray(evaluators)[:, None]
    others = np.arange(data.n - 1) + (np.arange(data.n - 1) >= d)
    sign = np.where(groups.groups[others] == groups.groups[d], 1.0, -1.0)[:, :, None]
    return np.hstack([-(sign * Y[others]).sum(axis=1), (sign * X[others]).sum(axis=1)])


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] * b[..., k] in k order, no BLAS: the same bits in any batch, on any CPU."""
    acc = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for k in range(a.shape[-1]):
        acc += a[..., k] * b[..., k]
    return acc


def _check(data: Dataset, evaluators, self_score, tie_break=simplex.OPTIMAL, den=None) -> None:
    """Raise SolverFailure for the first evaluator with a failed LP or a zero virtual input.

    For that evaluator a failed self-score LP comes first, then a failed
    tie-break LP, then a DMU given zero virtual input (``den[l]`` holds the
    virtual inputs of evaluator l).
    """
    failed = np.vstack(np.broadcast_arrays(self_score != simplex.OPTIMAL,
                                           tie_break != simplex.OPTIMAL,
                                           False if den is None else (den <= 0).any(axis=1)))
    lp = int(failed.any(axis=0).argmax())
    name = data.names[evaluators[lp]]
    if failed[0, lp]:
        raise SolverFailure(f"self-efficiency LP for DMU {name!r}: {self_score[lp]}")
    if failed[1, lp]:
        raise SolverFailure(f"tie-break LP for evaluator {name!r} is unbounded on its optimal "
                            "self-score weights; check for zero input cells")
    if failed[2, lp]:
        j = data.names[int(np.argmin(den[lp]))]
        raise SolverFailure(f"evaluator {name!r} gives DMU {j!r} zero virtual input")


def _one(data: Dataset, d: int, groups: GroupAssignment | None = None):
    """DMU d's (theta, u, v): its self-score weights, or given ``groups`` its
    tie-break weights."""
    if not is_integer(d):
        raise ValidationError(f"DMU index must be an integer, got {d!r}")
    if not 0 <= d < data.n:
        raise IndexError(f"DMU index {d} out of range")
    theta, x, self_score, tie_break = _scores(data, [d], groups)
    _check(data, [d], self_score, tie_break)
    return float(theta[0]), x[0, :data.s], x[0, data.s:]


def ccr_efficiency(data: Dataset, d: int):
    """Solve DMU d's ratio model; returns (theta, u, v)."""
    return _one(data, d)


def ccr_all(data: Dataset) -> CcrResult:
    """Self-efficiencies for every DMU, in DMU order."""
    theta, x, self_score, _ = _scores(data, np.arange(data.n))
    _check(data, np.arange(data.n), self_score)
    return CcrResult(theta=theta, weights_u=x[:, :data.s], weights_v=x[:, data.s:])


def secondary_goal_weights(data: Dataset, d: int, groups: GroupAssignment):
    """Weights for evaluator d that favor allies and penalize adversaries.

    Minimizes sum of ally slacks minus sum of adversary slacks over the
    evaluator's optimal self-score weights; returns (u, v).  ``groups`` is
    required: ``cross_efficiency_matrix`` alone reads None as one group.
    """
    _check_groups(data, groups)
    return _one(data, d, groups)[1:]


def cross_efficiency_rows(data: Dataset, evaluators, u: np.ndarray, v: np.ndarray,
                          self_score=simplex.OPTIMAL, tie_break=simplex.OPTIMAL) -> np.ndarray:
    """Row l scores every DMU with u[l], v[l], the weights of ``evaluators[l]``.

    SolverFailure names the first evaluator whose LPs failed (given their
    statuses) or whose weights give some DMU zero virtual input.
    """
    den = _products(data.norm_inputs, v[:, None])
    _check(data, evaluators, self_score, tie_break, den)
    return _products(data.norm_outputs, u[:, None]) / den


def cross_efficiency_matrix(data: Dataset,
                            groups: GroupAssignment | None = None) -> CrossEfficiencyMatrix:
    """Full peer-appraisal matrix; diagonal entries are the CCR scores.

    With no ``groups`` every DMU is in one ally group; this is the one place
    that reads None so.
    """
    if groups is None:
        groups = GroupAssignment.single_group(data.n)
    _check_groups(data, groups)
    evaluators = np.arange(data.n)
    theta, x, self_score, tie_break = _scores(data, evaluators, groups)
    E = cross_efficiency_rows(data, evaluators, x[:, :data.s], x[:, data.s:],
                              self_score, tie_break)
    E[evaluators, evaluators] = theta  # the self-score itself, as ccr_all gives it
    E[(E > 1.0) & (E <= 1.0 + _DUST)] = 1.0
    return CrossEfficiencyMatrix(names=list(data.names), values=E)


def cluster_groups(data: Dataset, H: int) -> GroupAssignment:
    """Agglomerative average-linkage clustering into exactly H ally groups.

    Features are the normalized inputs and outputs; distances are Euclidean,
    in one n x n matrix indexed by each cluster's lowest member, with inf on
    the diagonal and for retired clusters.  A merge of b into a writes the
    Lance-Williams update ``(n_a d_a + n_b d_b) / (n_a + n_b)`` to row and
    column a together and retires b, so the matrix stays exactly symmetric
    (``f_i - f_j`` negates ``f_j - f_i`` exactly).  Its row-major argmin is
    then the lower index a of a closest pair and a's lowest such partner b:
    exact ties merge the lowest DMU indices.  Group ids follow lowest members.
    """
    n = data.n
    if not is_integer(H):
        raise ValidationError(f"cluster count must be an integer, got {H!r}")
    if not 1 <= H <= n:
        raise ValidationError(f"cluster count {H} out of range 1..{n}")
    feats = data.features()
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    size = np.ones(n)
    root = np.arange(n)
    for _ in range(n - H):
        a, b = divmod(int(np.argmin(dist)), n)
        merged = (size[a] * dist[a] + size[b] * dist[b]) / (size[a] + size[b])
        dist[a] = dist[:, a] = merged
        dist[b] = dist[:, b] = np.inf
        size[a] += size[b]
        root[root == b] = a
    labels = np.unique(root, return_inverse=True)[1] + 1
    return GroupAssignment(groups=labels, H=H)

