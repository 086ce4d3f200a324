"""CCR self-efficiencies, ally grouping, and the unique cross-efficiency matrix.

The evaluated DMU's ratio model is linearized the standard way (virtual
input pinned to 1).  The tie-break model that selects among the evaluator's
alternative optimal weights minimizes allies' slacks minus adversaries'
slacks at fixed self-efficiency; the same virtual-input normalization is
added there because the raw formulation is scale-unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .dataset import CrossEfficiencyMatrix, Dataset, GroupAssignment, ValidationError

THETA_TOL = 1e-7


class SolverFailure(RuntimeError):
    """An internal LP came back infeasible/unbounded or a ratio degenerated."""


@dataclass(eq=False)
class CcrResult:
    """Per-DMU optimal efficiency and the multiplier weights achieving it."""

    theta: np.ndarray      # n
    weights_u: np.ndarray  # n x s, output multipliers
    weights_v: np.ndarray  # n x m, input multipliers


def ccr_efficiency(data: Dataset, d: int):
    """Solve the evaluated DMU's ratio model; returns (theta, (u, v))."""
    if not 0 <= d < data.n:
        raise IndexError(f"DMU index {d} out of range")
    X, Y = data.norm_inputs, data.norm_outputs
    m, s = data.m, data.s
    # variables: u_1..u_s, v_1..v_m
    c = np.concatenate([Y[d], np.zeros(m)])
    lp = simplex.LinearProgram(objective=c, sense="max")
    lp.add_constraint(np.concatenate([np.zeros(s), X[d]]), "=", 1.0)
    for j in range(data.n):
        lp.add_constraint(np.concatenate([Y[j], -X[j]]), "<=", 0.0)
    sol = simplex.solve(lp)
    if sol.status != simplex.OPTIMAL:
        raise SolverFailure(f"self-efficiency LP for DMU {data.names[d]!r}: {sol.status}")
    u, v = sol.x[:s], sol.x[s:]
    return float(sol.objective), (u, v)


def ccr_all(data: Dataset) -> CcrResult:
    """Self-efficiencies for every DMU, in DMU order."""
    results = [ccr_efficiency(data, d) for d in range(data.n)]
    theta = np.array([r[0] for r in results])
    u = np.vstack([r[1][0] for r in results])
    v = np.vstack([r[1][1] for r in results])
    return CcrResult(theta=theta, weights_u=u, weights_v=v)


def secondary_goal_weights(data: Dataset, d: int, groups: GroupAssignment, theta_d: float):
    """Weights for evaluator d that favor allies and penalize adversaries.

    Minimizes sum of ally slacks minus sum of adversary slacks subject to
    the evaluator keeping its own optimal score; returns (u, v).  The slack
    of DMU j, X_j v - Y_j u, is no variable of the LP: each other DMU gets
    the row Y_j u - X_j v <= 0 and the objective is written in (u, v).
    """
    X, Y = data.norm_inputs, data.norm_outputs
    others = np.arange(data.n) != d
    sign = np.where(groups.allies(d), 1.0, -1.0)[others, None]
    # variables: u (s), v (m)
    obj = np.concatenate([-(sign * Y[others]).sum(axis=0), (sign * X[others]).sum(axis=0)])
    lp = simplex.LinearProgram(objective=obj, sense="min")
    for j in np.flatnonzero(others):
        lp.add_constraint(np.concatenate([Y[j], -X[j]]), "<=", 0.0)
    lp.add_constraint(np.concatenate([Y[d], -theta_d * X[d]]), "=", 0.0)
    # scale anchor: without it the objective is unbounded whenever negative
    lp.add_constraint(np.concatenate([np.zeros(data.s), X[d]]), "=", 1.0)

    sol = simplex.solve(lp)
    if sol.status != simplex.OPTIMAL:
        raise SolverFailure(
            f"tie-break LP for evaluator {data.names[d]!r} came back {sol.status} "
            f"(theta={theta_d!r}); check for zero input cells or an inconsistent theta"
        )
    return sol.x[:data.s], sol.x[data.s:]


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

    rows = []
    for d in range(data.n):
        theta, _ = ccr_efficiency(data, d)
        u, v = secondary_goal_weights(data, d, groups, theta)
        row = cross_efficiency_row(data, d, u, v)
        row[d] = theta  # exact by the fixed-score constraint; avoids drift
        rows.append(row)
    E = np.vstack(rows)
    # the <= rows force every appraisal <= 1; clip float dust only
    E[(E > 1.0) & (E <= 1.0 + 1e-12)] = 1.0
    return CrossEfficiencyMatrix(names=list(data.names), values=E)


def cluster_groups(data: Dataset, H: int) -> GroupAssignment:
    """Agglomerative average-linkage clustering into exactly H ally groups.

    Feature vectors are the concatenated normalized inputs and outputs;
    distances are Euclidean.  Ties are broken toward the pair with the
    lowest DMU indices, and group ids are numbered by lowest member.
    """
    n = data.n
    if not 1 <= H <= n:
        raise ValidationError(f"cluster count {H} out of range 1..{n}")
    feats = data.features()
    diff = feats[:, None, :] - feats[None, :, :]
    base = np.sqrt((diff * diff).sum(axis=2))

    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist: dict[tuple[int, int], float] = {
        (i, j): float(base[i, j]) for i in range(n) for j in range(i + 1, n)
    }
    while len(members) > H:
        best_pair = None
        best_d = np.inf
        for pair in sorted(dist):
            d = dist[pair]
            if d < best_d:
                best_d = d
                best_pair = pair
        a, b = best_pair
        na, nb = len(members[a]), len(members[b])
        for c in list(members):
            if c in (a, b):
                continue
            key_ac = (min(a, c), max(a, c))
            key_bc = (min(b, c), max(b, c))
            # average linkage merges exactly under this weighted update
            merged = (na * dist[key_ac] + nb * dist[key_bc]) / (na + nb)
            dist[key_ac] = merged
            del dist[key_bc]
        del dist[(a, b)]
        members[a].extend(members[b])
        del members[b]

    labels = np.zeros(n, dtype=int)
    for gid, root in enumerate(sorted(members), start=1):
        for i in members[root]:
            labels[i] = gid
    return GroupAssignment(groups=labels, H=len(members))

