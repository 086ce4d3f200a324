"""CCR self-efficiencies, ally grouping, and the unique cross-efficiency matrix.

The evaluated DMU's ratio model is linearized the standard way (virtual
input pinned to 1) and solved on the simplex tableau built straight from
the normalized input and output arrays.  The tie-break that selects among
the evaluator's alternative optimal weights minimizes allies' slacks minus
adversaries' slacks over the optimal face of that same tableau: every
nonbasic column with a positive reduced cost is barred, which holds the
self-score at its optimum without pinning theta as a number, and the
tie-break objective runs as one more phase 2 from the self-score's final
basis (the secondary-goal model of Sexton, Silkman & Hogan 1986 and Doyle
& Green 1994).

Every evaluator's LP has the same shape and differs from the others in one
row, so ``ccr_all`` and ``cross_efficiency_matrix`` solve all n self-score
LPs as one ``simplex.Stack``, and the matrix then runs all n tie-breaks on
that stack's optimal faces.  ``ccr_efficiency`` and
``secondary_goal_weights`` are the same path for one evaluator (a stack
of one), and give the same bits.  A failure names the evaluator the
DMU-by-DMU order reaches first: the lowest index, its self-score before
its tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .dataset import CrossEfficiencyMatrix, Dataset, GroupAssignment, ValidationError

_DUST = 1e-12  # the <= rows keep every score <= 1; above 1 by this much is rounding


class SolverFailure(RuntimeError):
    """An internal LP came back infeasible/unbounded or a ratio degenerated."""


@dataclass(eq=False)
class CcrResult:
    """Per-DMU optimal efficiency and the multiplier weights achieving it."""

    theta: np.ndarray      # n
    weights_u: np.ndarray  # n x s, output multipliers
    weights_v: np.ndarray  # n x m, input multipliers


def _self_scores(data: Dataset, evaluators):
    """Solve the evaluators' ratio models as one stack; returns (theta, x, stack).

    Variables are u_1..u_s, v_1..v_m; evaluator d's rows are
    Y_j u - X_j v <= 0 for every DMU j and X_d v = 1.  Row l of x holds
    (u, v) of ``evaluators[l]``; theta and x mean nothing for an LP whose
    status in the stack is not optimal.
    """
    X, Y = data.norm_inputs, data.norm_outputs
    A = np.zeros((len(evaluators), data.n + 1, data.s + data.m))
    A[:, :-1] = np.hstack([Y, -X])
    A[:, -1, data.s:] = X[evaluators]
    b = np.zeros(data.n + 1)
    b[-1] = 1.0
    stack = simplex.phase_one(A, b, ["<="] * data.n + ["="])
    stack.optimize(np.hstack([-Y[evaluators], np.zeros((len(evaluators), data.m))]))
    x = stack.point()
    theta = np.array([float(Y[d] @ x[lp, :data.s]) for lp, d in enumerate(evaluators)])
    theta[(theta > 1.0) & (theta <= 1.0 + _DUST)] = 1.0
    return theta, x, stack


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


def _check(data: Dataset, d: int, self_score: str, tie_break: str = simplex.OPTIMAL) -> None:
    """Raise SolverFailure for evaluator d unless both of its LPs are optimal."""
    if self_score != simplex.OPTIMAL:
        raise SolverFailure(f"self-efficiency LP for DMU {data.names[d]!r}: {self_score}")
    if tie_break != simplex.OPTIMAL:
        raise SolverFailure(
            f"tie-break LP for evaluator {data.names[d]!r} is unbounded on its optimal "
            "self-score weights; check for zero input cells"
        )


def ccr_efficiency(data: Dataset, d: int):
    """Solve DMU d's ratio model; returns (theta, u, v, stack of one LP at the optimum)."""
    if not 0 <= d < data.n:
        raise IndexError(f"DMU index {d} out of range")
    theta, x, stack = _self_scores(data, [d])
    _check(data, d, stack.status[0])
    return float(theta[0]), x[0, :data.s], x[0, data.s:], stack


def ccr_all(data: Dataset) -> CcrResult:
    """Self-efficiencies for every DMU, in DMU order."""
    theta, x, stack = _self_scores(data, np.arange(data.n))
    for d in range(data.n):
        _check(data, d, stack.status[d])
    return CcrResult(theta=theta, weights_u=x[:, :data.s], weights_v=x[:, data.s:])


def secondary_goal_weights(data: Dataset, d: int, groups: GroupAssignment, tableau):
    """Weights for evaluator d that favor allies and penalize adversaries.

    Minimizes sum of ally slacks minus sum of adversary slacks over the
    evaluator's optimal self-score weights; returns (u, v).  The objective
    runs on the optimal face of ``tableau``, the one-LP stack
    ``ccr_efficiency`` returned for d, which is left as it was.
    """
    face = tableau.optimal_face()
    _check(data, d, simplex.OPTIMAL, face.optimize(_tie_break_costs(data, [d], groups))[0])
    x = face.point()[0]
    return x[:data.s], x[data.s:]


def cross_efficiency_row(data: Dataset, d: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Score every DMU with evaluator d's weights."""
    num = data.norm_outputs @ u
    den = data.norm_inputs @ v
    if (den <= 0).any():
        j = int(np.argmin(den))
        raise SolverFailure(
            f"evaluator {data.names[d]!r} gives DMU {data.names[j]!r} zero virtual input"
        )
    return num / den


def cross_efficiency_matrix(
    data: Dataset,
    groups: GroupAssignment | None = None,
) -> CrossEfficiencyMatrix:
    """Full peer-appraisal matrix; diagonal entries are the CCR scores."""
    if groups is None:
        groups = GroupAssignment.single_group(data.n)
    if groups.groups.size != data.n:
        raise ValidationError("group assignment does not match dataset size")

    theta, _, stack = _self_scores(data, np.arange(data.n))
    face = stack.optimal_face()
    face.optimize(_tie_break_costs(data, np.arange(data.n), groups))
    x = face.point()
    E = np.empty((data.n, data.n))
    for d in range(data.n):
        _check(data, d, stack.status[d], face.status[d])
        E[d] = cross_efficiency_row(data, d, x[d, :data.s], x[d, data.s:])
        E[d, d] = theta[d]  # the self-score itself, as ccr_all gives it
    E[(E > 1.0) & (E <= 1.0 + _DUST)] = 1.0
    return CrossEfficiencyMatrix(names=list(data.names), values=E)


def cluster_groups(data: Dataset, H: int) -> GroupAssignment:
    """Agglomerative average-linkage clustering into exactly H ally groups.

    Feature vectors are the concatenated normalized inputs and outputs;
    distances are Euclidean.  The cluster distances live in one n x n
    matrix indexed by each cluster's lowest member; a merge of b into a
    applies the Lance-Williams average-linkage update
    ``(n_a d_a + n_b d_b) / (n_a + n_b)`` to row and column a and retires
    b.  The pair to merge is the row-major argmin of the upper triangle, so
    exact ties go to the pair with the lowest DMU indices; group ids are
    numbered by lowest member.
    """
    n = data.n
    if not 1 <= H <= n:
        raise ValidationError(f"cluster count {H} out of range 1..{n}")
    feats = data.features()
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    below = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), 0.0, np.inf)
    size = np.ones(n)
    root = np.arange(n)
    for _ in range(n - H):
        a, b = divmod(int(np.argmin(dist + below)), n)
        merged = (size[a] * dist[a] + size[b] * dist[b]) / (size[a] + size[b])
        dist[a] = dist[:, a] = merged
        dist[b] = dist[:, b] = np.inf
        size[a] += size[b]
        root[root == b] = a
    labels = np.unique(root, return_inverse=True)[1] + 1
    return GroupAssignment(groups=labels, H=H)

