"""Self-contained dense two-phase primal simplex solver.

Built for the tiny LPs that DEA ratio models produce (tens of variables
and rows).  Determinism matters more than speed here: Bland's rule with a
fixed variable ordering pins down which optimal vertex is returned when a
program has alternative optima, so repeated solves of the same bits give
the same bits back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-10
TOL = 1e-9  # feasibility / optimality tolerance

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = ("<=", "=", ">=")
_MAX_PIVOTS = 50_000  # Bland's rule terminates; this guards against bugs


@dataclass(eq=False)
class LinearProgram:
    """min/max c.x subject to rows ``A x (<=|=|>=) b`` and x >= 0."""

    objective: np.ndarray
    sense: str = "max"
    constraints: list[tuple] = field(default_factory=list)  # (coeffs, relation, rhs)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise ValueError("objective must be a nonempty vector")
        if not np.isfinite(self.objective).all():
            raise ValueError("all coefficients must be finite")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        rows, self.constraints = self.constraints, []
        for coeffs, rel, rhs in rows:
            self.add_constraint(coeffs, rel, rhs)

    def add_constraint(self, coeffs, relation: str, rhs: float) -> "LinearProgram":
        """Append one row; its finiteness is checked once per solve."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.objective.size,):
            raise ValueError("constraint length does not match objective")
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        self.constraints.append((coeffs, relation, float(rhs)))
        return self


@dataclass(eq=False)
class LpSolution:
    status: str
    objective: float | None = None
    x: np.ndarray | None = None


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a LinearProgram; status is optimal, infeasible, or unbounded.

    Raises ValueError if a row holds a non-finite coefficient.
    """
    n = lp.objective.size
    c = lp.objective.copy()
    if lp.sense == "max":
        c = -c  # kernel minimizes

    status, x = _two_phase(c, lp.constraints, n)
    if status != OPTIMAL:
        return LpSolution(status=status)
    x = x[:n]
    x[np.abs(x) < 1e-12] = 0.0
    return LpSolution(status=OPTIMAL, objective=float(lp.objective @ x), x=x)


def _two_phase(c: np.ndarray, rows: list[tuple], n: int):
    m = len(rows)
    if m == 0:
        # No rows: optimum is at the origin unless some cost is negative.
        if (c < -TOL).any():
            return UNBOUNDED, None
        return OPTIMAL, np.zeros(n)

    A = np.array([r[0] for r in rows], dtype=float)
    b = np.array([r[2] for r in rows], dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("all coefficients must be finite")
    rels = [r[1] for r in rows]
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] = -b[i]
            rels[i] = {"<=": ">=", ">=": "<=", "=": "="}[rels[i]]

    n_slack = sum(1 for r in rels if r == "<=")
    n_surp = sum(1 for r in rels if r == ">=")
    n_art = sum(1 for r in rels if r in ("=", ">="))
    total = n + n_slack + n_surp + n_art
    slack0, surp0, art0 = n, n + n_slack, n + n_slack + n_surp

    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = np.empty(m, dtype=int)
    unit_row = np.full(art0, -1)  # the one row of each slack/surplus column
    si = ti = ai = 0
    for i, rel in enumerate(rels):
        if rel == "<=":
            T[i, slack0 + si] = 1.0
            basis[i] = slack0 + si
            unit_row[slack0 + si] = i
            si += 1
        elif rel == ">=":
            T[i, surp0 + ti] = -1.0
            T[i, art0 + ai] = 1.0
            basis[i] = art0 + ai
            unit_row[surp0 + ti] = i
            ti += 1
            ai += 1
        else:
            T[i, art0 + ai] = 1.0
            basis[i] = art0 + ai
            ai += 1
    A_std = T[:m, :art0].copy()  # rows in standard form, before any pivot
    kept = np.ones(m, dtype=bool)

    # Phase 1: minimize the sum of artificials.
    if n_art:
        obj = np.zeros(total + 1)
        obj[art0:art0 + n_art] = 1.0
        T[-1] = obj
        for i in range(m):
            if basis[i] >= art0:
                T[-1] -= T[i]
        if _iterate(T, basis) == UNBOUNDED:
            return INFEASIBLE, None  # phase-1 objective is bounded below by 0
        if -T[-1, -1] > 1e-8:
            return INFEASIBLE, None
        T, basis, m, kept = _purge_artificials(T, basis, art0)

    # Phase 2: original objective over structural + slack/surplus columns.
    T[:, art0:art0 + n_art] = 0.0
    obj = np.zeros(total + 1)
    obj[:n] = c
    T[-1] = obj
    for i in range(m):
        if basis[i] < art0 and abs(T[-1, basis[i]]) > PIVOT_TOL:
            T[-1] -= T[-1, basis[i]] * T[i]
    if _iterate(T, basis, forbid_from=art0) == UNBOUNDED:
        return UNBOUNDED, None

    # The tableau's right-hand side carries the rounding of every pivot, so
    # the final basis is solved once against the original rows.  A basic
    # value below zero there means the rows are consistent only up to
    # rounding (an equality pinned to a computed optimum, say) and the basis
    # put all of it on one row, scaled by the basis's conditioning.  That
    # value is held at zero and the others fit every row in least squares,
    # which spreads the rounding instead.
    kept_row = np.where(kept, np.cumsum(kept) - 1, -1)
    unit_row = np.where(unit_row >= 0, kept_row[unit_row], -1)
    A_B, b_B = A_std[kept], b[kept]
    x_B = _basic_values(A_B, b_B, basis, unit_row, np.zeros(m, dtype=bool))
    low = x_B < 0
    if low.any():
        x_B = _basic_values(A_B, b_B, basis, unit_row, low)
    x = np.zeros(total)
    x[basis] = x_B
    return OPTIMAL, x


def _basic_values(A, b, basis, unit_row, fixed):
    """Basic values of A x = b with the ``fixed`` ones held at zero.

    A slack or surplus column is +-1 in its own row only (``unit_row``), so
    each free one absorbs that row; the rows left over fix the other basic
    values, in least squares when held values leave more rows than unknowns.
    """
    rows = unit_row[basis]
    unit = (rows >= 0) & ~fixed
    dense = (rows < 0) & ~fixed
    rest = np.ones(b.size, dtype=bool)
    rest[rows[unit]] = False
    x = np.zeros(basis.size)
    if dense.any():
        block = A[np.ix_(rest, basis[dense])]
        if block.shape[0] == block.shape[1]:
            x[dense] = np.linalg.solve(block, b[rest])
        else:
            x[dense] = np.linalg.lstsq(block, b[rest], rcond=None)[0]
    covered = rows[unit]
    x[unit] = (b[covered] - A[covered][:, basis[dense]] @ x[dense]) / A[covered, basis[unit]]
    return x


def _iterate(T: np.ndarray, basis: np.ndarray, forbid_from: int | None = None) -> str:
    """Run Bland-rule pivots on tableau T until optimal or unbounded."""
    limit = T.shape[1] - 1 if forbid_from is None else forbid_from
    for _ in range(_MAX_PIVOTS):
        candidates = np.flatnonzero(T[-1, :limit] < -TOL)
        if candidates.size == 0:
            return OPTIMAL
        enter = int(candidates[0])
        leave = -1
        best = np.inf
        rows = np.flatnonzero(T[:-1, enter] > PIVOT_TOL)
        ratios = T[rows, -1] / T[rows, enter]
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            # Bland: strict improvement, ties broken by smallest basis index
            if ratio < best - PIVOT_TOL or (
                -PIVOT_TOL <= ratio - best <= PIVOT_TOL and (leave < 0 or basis[i] < basis[leave])
            ):
                best = ratio
                leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise RuntimeError("simplex did not terminate (pivot limit reached)")


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Scale the pivot row, then eliminate col from every row whose entry exceeds PIVOT_TOL."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = np.abs(factors) > PIVOT_TOL
    T[rows] -= factors[rows, None] * T[row]


def _purge_artificials(T: np.ndarray, basis: np.ndarray, art0: int):
    """Drive zero-level artificials out of the basis; drop redundant rows.

    Returns the tableau, the basis, the row count and the mask of the
    original rows that were kept.
    """
    m = T.shape[0] - 1
    keep = np.ones(m + 1, dtype=bool)
    for i in range(m):
        if basis[i] >= art0:
            for j in range(art0):
                if abs(T[i, j]) > 1e-9:
                    _pivot(T, i, j)
                    basis[i] = j
                    break
            else:
                keep[i] = False  # all-zero row: the constraint was redundant
    if keep.all():
        return T, basis, m, keep[:-1]
    T = T[keep]
    basis = basis[keep[:-1]]
    return T, basis, int(basis.size), keep[:-1]
