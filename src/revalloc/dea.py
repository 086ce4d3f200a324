"""CCR self-efficiencies, ally grouping, and the unique cross-efficiency matrix.

The evaluated DMU's ratio model is linearized the standard way (virtual
input pinned to 1) and solved on the simplex tableau built straight from
the normalized input and output arrays.  The tie-break that selects among
the evaluator's alternative optimal weights minimizes allies' slacks minus
adversaries' slacks over the optimal face of that same tableau (the
secondary-goal model of Sexton, Silkman & Hogan 1986 and Doyle & Green
1994): the columns that would lower the self-score are barred, and the
tie-break runs as one more phase 2 from the self-score's final basis.

Every evaluator's LP has the same shape, so ``ccr_all`` and
``cross_efficiency_matrix`` solve all n self-score LPs as one
``simplex.Stack`` and then all n tie-breaks on its optimal faces;
``ccr_efficiency`` and ``secondary_goal_weights`` are a stack of one.
Scores are fixed-order sums with no BLAS, so each evaluator's bits are the
same in any batch and on any CPU.  A failure names the first evaluator in
DMU order: its self-score LP, then its tie-break LP, then a DMU its
weights give zero virtual input.
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
    theta = _products(Y[evaluators], x[:, :data.s])
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


def ccr_efficiency(data: Dataset, d: int):
    """Solve DMU d's ratio model; returns (theta, u, v, stack of one LP at the optimum)."""
    if not 0 <= d < data.n:
        raise IndexError(f"DMU index {d} out of range")
    theta, x, stack = _self_scores(data, [d])
    _check(data, [d], stack.status)
    return float(theta[0]), x[0, :data.s], x[0, data.s:], stack


def ccr_all(data: Dataset) -> CcrResult:
    """Self-efficiencies for every DMU, in DMU order."""
    theta, x, stack = _self_scores(data, np.arange(data.n))
    _check(data, np.arange(data.n), stack.status)
    return CcrResult(theta=theta, weights_u=x[:, :data.s], weights_v=x[:, data.s:])


def secondary_goal_weights(data: Dataset, d: int, groups: GroupAssignment, tableau):
    """Weights for evaluator d that favor allies and penalize adversaries.

    Minimizes sum of ally slacks minus sum of adversary slacks over the
    evaluator's optimal self-score weights; returns (u, v).  The objective
    runs on the optimal face of ``tableau``, the one-LP stack
    ``ccr_efficiency`` returned for d, which is left as it was.
    """
    face = tableau.optimal_face()
    _check(data, [d], tableau.status, face.optimize(_tie_break_costs(data, [d], groups)))
    x = face.point()[0]
    return x[:data.s], x[data.s:]


def cross_efficiency_rows(data: Dataset, evaluators, u: np.ndarray, v: np.ndarray,
                          self_score=simplex.OPTIMAL, tie_break=simplex.OPTIMAL) -> np.ndarray:
    """Row l scores every DMU with u[l], v[l], the weights of ``evaluators[l]``.

    SolverFailure names the first evaluator whose LPs failed (given their
    statuses) or whose weights give some DMU zero virtual input.
    """
    den = _products(data.norm_inputs, v[:, None])
    _check(data, evaluators, self_score, tie_break, den)
    return _products(data.norm_outputs, u[:, None]) / den


def cross_efficiency_matrix(
    data: Dataset,
    groups: GroupAssignment | None = None,
) -> CrossEfficiencyMatrix:
    """Full peer-appraisal matrix; diagonal entries are the CCR scores."""
    if groups is None:
        groups = GroupAssignment.single_group(data.n)
    if groups.groups.size != data.n:
        raise ValidationError("group assignment does not match dataset size")

    evaluators = np.arange(data.n)
    theta, _, stack = _self_scores(data, evaluators)
    face = stack.optimal_face()
    face.optimize(_tie_break_costs(data, evaluators, groups))
    x = face.point()
    E = cross_efficiency_rows(data, evaluators, x[:, :data.s], x[:, data.s:],
                              stack.status, face.status)
    E[evaluators, evaluators] = theta  # the self-score itself, as ccr_all gives it
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

