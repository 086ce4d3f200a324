"""CCR self-efficiencies, ally grouping, and the unique cross-efficiency matrix.

The evaluated DMU's ratio model is linearized the standard way (virtual
input pinned to 1) and solved on one simplex tableau per DMU, built
straight from the normalized input and output arrays.  The tie-break that
selects among the evaluator's alternative optimal weights minimizes allies'
slacks minus adversaries' slacks over the optimal face of that same
tableau: every nonbasic column with a positive reduced cost is dropped,
which holds the self-score at its optimum without pinning theta as a
number, and the tie-break objective runs as one more phase 2 from the
self-score's final basis (the secondary-goal model of Sexton, Silkman &
Hogan 1986 and Doyle & Green 1994).

``ccr_efficiency`` is the one self-score solve: ``ccr_all`` and
``cross_efficiency_matrix`` both call it, and the matrix hands the tableau
it returns to ``secondary_goal_weights``.
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


def ccr_efficiency(data: Dataset, d: int):
    """Solve DMU d's ratio model; returns (theta, u, v, tableau at the optimum).

    Variables are u_1..u_s, v_1..v_m; the rows are Y_j u - X_j v <= 0 for
    every DMU j and X_d v = 1.
    """
    if not 0 <= d < data.n:
        raise IndexError(f"DMU index {d} out of range")
    X, Y = data.norm_inputs, data.norm_outputs
    A = np.vstack([np.hstack([Y, -X]), np.concatenate([np.zeros(data.s), X[d]])])
    b = np.zeros(data.n + 1)
    b[-1] = 1.0
    tab = simplex.phase_one(A, b, ["<="] * data.n + ["="])
    cost = np.concatenate([-Y[d], np.zeros(data.m)])
    status = simplex.INFEASIBLE if tab is None else tab.optimize(cost)
    if status != simplex.OPTIMAL:
        raise SolverFailure(f"self-efficiency LP for DMU {data.names[d]!r}: {status}")
    x = tab.point()
    u, v = x[:data.s], x[data.s:]
    theta = float(Y[d] @ u)
    return (1.0 if 1.0 < theta <= 1.0 + _DUST else theta), u, v, tab


def ccr_all(data: Dataset) -> CcrResult:
    """Self-efficiencies for every DMU, in DMU order."""
    theta, u, v, _ = zip(*(ccr_efficiency(data, d) for d in range(data.n)))
    return CcrResult(theta=np.array(theta), weights_u=np.vstack(u), weights_v=np.vstack(v))


def secondary_goal_weights(data: Dataset, d: int, groups: GroupAssignment, tableau):
    """Weights for evaluator d that favor allies and penalize adversaries.

    Minimizes sum of ally slacks minus sum of adversary slacks over the
    evaluator's optimal self-score weights; returns (u, v).  The slack of
    DMU j, X_j v - Y_j u, is no variable of the LP: the objective is written
    in (u, v) and runs on the optimal face of ``tableau``, the self-score
    tableau ``ccr_efficiency`` returned for d, which is left as it was.
    """
    X, Y = data.norm_inputs, data.norm_outputs
    others = np.arange(data.n) != d
    sign = np.where(groups.allies(d), 1.0, -1.0)[others, None]
    cost = np.concatenate([-(sign * Y[others]).sum(axis=0), (sign * X[others]).sum(axis=0)])
    face = tableau.optimal_face()
    if face.optimize(cost) != simplex.OPTIMAL:
        raise SolverFailure(
            f"tie-break LP for evaluator {data.names[d]!r} is unbounded on its optimal "
            "self-score weights; check for zero input cells"
        )
    x = face.point()
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

    E = np.empty((data.n, data.n))
    for d in range(data.n):
        theta, _, _, tab = ccr_efficiency(data, d)
        E[d] = cross_efficiency_row(data, d, *secondary_goal_weights(data, d, groups, tab))
        E[d, d] = theta  # the self-score itself, as ccr_all gives it
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

