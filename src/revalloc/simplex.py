"""Self-contained dense two-phase primal simplex solver.

Built for the tiny LPs that DEA ratio models produce (tens of variables
and rows).  Determinism matters more than speed here: Bland's rule with a
fixed variable ordering pins down which optimal vertex is returned when a
program has alternative optima, so repeated solves of the same bits give
the same bits back.

There is one tableau path.  ``phase_one`` builds the tableau of
``A x (<=|=|>=) b, x >= 0`` straight from arrays and finds a feasible
basis; ``Tableau.optimize`` runs phase 2 for a cost vector from whatever
basis the tableau holds; ``Tableau.optimal_face`` keeps only the columns
that can move without leaving the optimum, so a second ``optimize`` picks
among the first one's optimal points (a secondary goal); ``Tableau.point``
reads the structural variables off the right-hand side.  ``solve`` chains
the three for one array LP; the package itself builds its tableaux with
``phase_one`` and never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
TOL = 1e-9  # feasibility / optimality tolerance

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 50_000  # Bland's rule terminates; this guards against bugs


def solve(cost, A, b, relations) -> tuple[str, np.ndarray | None]:
    """Minimize cost . x subject to ``A x (relations) b``, x >= 0; returns (status, x).

    x is None unless the status is optimal.  Raises ValueError as
    ``phase_one`` does, and on a cost that is not finite or does not match A.
    """
    cost = np.asarray(cost, dtype=float)
    A = np.asarray(A, dtype=float)
    if cost.ndim != 1 or A.ndim != 2 or A.shape[1] != cost.size or not np.isfinite(cost).all():
        raise ValueError(f"cost {cost} is not a finite vector matching A of shape {A.shape}")
    tab = phase_one(A, b, relations)
    if tab is None:
        return INFEASIBLE, None
    if tab.optimize(cost) == UNBOUNDED:
        return UNBOUNDED, None
    return OPTIMAL, tab.point()


@dataclass(eq=False)
class Tableau:
    """Rows in standard form with a feasible basis, and the last cost row.

    ``T[:-1]`` holds the rows as the pivots left them and ``T[-1]`` the
    reduced costs of the last ``optimize``; the last column is the
    right-hand side.  ``cols`` names the variable of each column: the n
    structural ones first, then one slack or surplus per inequality row.
    """

    T: np.ndarray
    basis: np.ndarray  # column basic in each row
    cols: np.ndarray   # variable of each column
    n: int             # structural variables

    def optimize(self, cost: np.ndarray) -> str:
        """Minimize cost . x (over the structural variables) from the current basis."""
        T, basis = self.T, self.basis
        T[-1] = 0.0
        structural = self.cols < self.n
        T[-1, :-1][structural] = cost[self.cols[structural]]
        # reduced costs c - c_B T over the rows whose basic variable has a cost
        rows = np.flatnonzero(T[-1, basis])
        T[-1] -= T[-1, basis[rows]] @ T[rows]
        return _iterate(T, basis)

    def optimal_face(self) -> "Tableau":
        """The tableau restricted to the optimal points of the last ``optimize``.

        A nonbasic column with a reduced cost above TOL would lower the
        objective by that much per unit, so it is held at zero on the face
        and dropped; the other columns, the rows and the basis stay.
        """
        keep = self.T[-1, :-1] <= TOL
        keep[self.basis] = True
        new_index = np.cumsum(keep) - 1
        return Tableau(T=self.T[:, np.append(keep, True)], basis=new_index[self.basis],
                       cols=self.cols[keep], n=self.n)

    def point(self) -> np.ndarray:
        """The structural variables of the current basic solution."""
        x = np.zeros(self.n)
        var = self.cols[self.basis]
        structural = var < self.n
        x[var[structural]] = self.T[:-1, -1][structural]
        x[np.abs(x) < 1e-12] = 0.0
        return x


def phase_one(A, b, relations) -> Tableau | None:
    """Tableau of ``A x (relations) b``, x >= 0, at a feasible basis; None if infeasible.

    Raises ValueError if A or b holds a non-finite entry, if a row lacks
    its right-hand side or relation, or on a relation other than <=, = and >=.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    rel = np.asarray(relations, dtype=str)
    if A.ndim != 2 or b.shape != (A.shape[0],) or rel.shape != b.shape:
        raise ValueError(f"A of shape {A.shape} needs one rhs and one relation per row")
    is_le, is_ge = rel == "<=", rel == ">="
    unknown = ~(is_le | is_ge | (rel == "="))
    if unknown.any():
        raise ValueError(f"unknown relation {str(rel[unknown][0])!r}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("all coefficients must be finite")
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    le = np.where(flip, is_ge, is_le)
    ge = np.where(flip, is_le, is_ge)
    art = ~le
    m, n = A.shape
    n_le, n_ge, n_art = int(le.sum()), int(ge.sum()), int(art.sum())
    slack0, surp0, art0 = n, n + n_le, n + n_le + n_ge

    # columns: structural, slacks of <= rows, surpluses of >= rows,
    # artificials of = and >= rows, each group in row order
    T = np.zeros((m + 1, art0 + n_art + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    le_rows, ge_rows, art_rows = np.flatnonzero(le), np.flatnonzero(ge), np.flatnonzero(art)
    T[le_rows, slack0 + np.arange(n_le)] = 1.0
    T[ge_rows, surp0 + np.arange(n_ge)] = -1.0
    T[art_rows, art0 + np.arange(n_art)] = 1.0
    basis = np.empty(m, dtype=int)
    basis[le_rows] = slack0 + np.arange(n_le)
    basis[art_rows] = art0 + np.arange(n_art)

    if n_art:
        # minimize the sum of the artificials
        T[-1, art0:-1] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        if _iterate(T, basis) == UNBOUNDED:
            return None  # the phase-1 objective is bounded below by 0
        if -T[-1, -1] > 1e-8:
            return None
        T, basis = _purge_artificials(T, basis, art0)
        T = np.delete(T, np.s_[art0:art0 + n_art], axis=1)
    return Tableau(T=T, basis=basis, cols=np.arange(art0), n=n)


def _iterate(T: np.ndarray, basis: np.ndarray) -> str:
    """Run Bland-rule pivots on tableau T until optimal or unbounded."""
    for _ in range(_MAX_PIVOTS):
        candidates = np.flatnonzero(T[-1, :-1] < -TOL)
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
    """Drive zero-level artificials out of the basis; drop redundant rows."""
    m = T.shape[0] - 1
    keep = np.ones(m + 1, dtype=bool)
    for i in np.flatnonzero(basis >= art0):
        for j in range(art0):
            if abs(T[i, j]) > 1e-9:
                _pivot(T, i, j)
                basis[i] = j
                break
        else:
            keep[i] = False  # all-zero row: the constraint was redundant
    if keep.all():
        return T, basis
    return T[keep], basis[keep[:-1]]
