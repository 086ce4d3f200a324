"""Self-contained dense two-phase primal simplex solver for stacks of small LPs.

Built for the tiny LPs that DEA ratio models produce (a handful of
variables, tens to hundreds of rows), one or two per DMU, all of one
shape.  Determinism matters more than speed here.  Bland's rule with a
fixed variable numbering pins down which optimal vertex is returned when
a program has alternative optima.  Every sum runs in a fixed order within
its LP and none goes through BLAS, whose kernel OpenBLAS picks by CPU, so
the same program gives the same bits on any machine, alone or in a stack.

A ``Stack`` holds L programs that share their right-hand side and
relations and differ only in A, and pivots them in lockstep: numpy scans
over the stack pick every active LP's entering and leaving variable, and
one masked rank-1 update pivots them all.  The tableau is compact, one
column per nonbasic variable plus the right-hand side, with ``basis`` and
``nonbasic`` naming the variable of each row and column.  An L = 1 stack
is the single-LP path.

``phase_one`` builds the stack of ``A x (<=|=|>=) b, x >= 0`` from arrays
and finds a feasible basis for each LP; ``Stack.optimize`` runs phase 2
for one cost vector per LP; ``Stack.optimal_face`` bars, in place, the
columns that cannot move without leaving the optimum, so a second
``optimize`` of the same stack picks among the first one's optimal points
(a secondary goal); ``Stack.point`` reads the structural variables off the
right-hand side.  Each LP keeps its own status.  ``solve`` chains the
three for one LP; the package builds its stacks with ``phase_one`` and
never calls it.
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
    """Minimize cost . x over ``A x (relations) b``, x >= 0; returns (status, x or None)."""
    stack = phase_one(A, b, relations)
    status = stack.optimize(cost)[0]
    return status, (stack.point()[0] if status == OPTIMAL else None)


@dataclass(eq=False)
class Stack:
    """L LPs in compact tableau form, each at a feasible basis, and their last cost rows.

    ``T[l, :-1]`` holds LP l's rows as the pivots left them and ``T[l, -1]``
    the reduced costs of its last ``optimize``; column j stands for the
    variable ``nonbasic[l, j]`` and the last column is the right-hand side.
    Variables are numbered the structural ones first, then one slack or
    surplus per inequality row, then one artificial per = and >= row, each
    group in row order.  A ``barred`` column may not enter the basis: the
    artificials after phase 1 and the columns an ``optimal_face`` holds at
    zero.  A redundant row is kept as zeros with its artificial basic.
    Only the LPs whose ``status`` is OPTIMAL take part in an ``optimize``.
    """

    T: np.ndarray         # (L, rows + 1, k + 1)
    basis: np.ndarray     # (L, rows) variable basic in each row
    nonbasic: np.ndarray  # (L, k) variable of each column
    barred: np.ndarray    # (L, k) columns that may not enter
    status: np.ndarray    # (L,) OPTIMAL, INFEASIBLE or UNBOUNDED
    n: int                # structural variables

    def optimize(self, cost) -> np.ndarray:
        """Minimize cost[l] . x for every OPTIMAL LP l from its current basis; returns ``status``.

        ``cost`` gives each LP's cost over the structural variables, or one
        vector for all of them; ValueError if it is neither or not finite.
        The statuses are the stack's own array, which a later ``optimize``
        updates.
        """
        T, basis, nonbasic = self.T, self.basis, self.nonbasic
        cost = np.asarray(cost, dtype=float)
        if cost.shape not in ((self.n,), (len(T), self.n)) or not np.isfinite(cost).all():
            raise ValueError(f"cost of shape {cost.shape} is not finite or not matching A per LP")
        cost = np.broadcast_to(cost, (len(T), self.n))
        lps = np.flatnonzero(self.status == OPTIMAL)
        full = np.zeros((len(T), basis.shape[1] + nonbasic.shape[1]))
        full[:, :self.n] = cost
        T[lps, -1, :-1] = np.take_along_axis(full[lps], nonbasic[lps], axis=1)
        T[lps, -1, -1] = 0.0
        # reduced costs c - c_B T, with cost_j times the row of each basic structural j
        # taken away in variable order: no BLAS, so the same bits in any stack, on any CPU
        for j in range(self.n):
            lp, row = np.nonzero((basis[lps] == j) & (cost[lps, j, None] != 0.0))
            lp = lps[lp]
            T[lp, -1] -= cost[lp, j, None] * T[lp, row]
        self.status[lps[_iterate(self, lps)]] = UNBOUNDED
        return self.status

    def optimal_face(self) -> None:
        """Restrict the stack, in place, to the optimal points of each LP's last ``optimize``.

        A nonbasic column with a reduced cost above TOL would lower the
        objective by that much per unit, so it is held at zero on the face.
        It is barred rather than deleted, since each LP holds other columns.
        """
        self.barred |= self.T[:, -1, :-1] > TOL

    def point(self) -> np.ndarray:
        """The structural variables of each LP's current basic solution, one row per LP."""
        x = np.zeros((len(self.T), self.n))
        lp, row = np.nonzero(self.basis < self.n)
        x[lp, self.basis[lp, row]] = self.T[lp, row, -1]
        x[np.abs(x) < 1e-12] = 0.0
        return x


def phase_one(A, b, relations) -> Stack:
    """Stack of ``A[l] x (relations) b``, x >= 0, each LP at a feasible basis.

    A holds one LP's rows or a stack of L such arrays; every LP shares b
    and the relations.  An LP with no feasible point gets the status
    INFEASIBLE, the others OPTIMAL.  Raises ValueError if A or b holds a
    non-finite entry, if a row lacks its right-hand side or relation, or
    on a relation other than <=, = and >=.
    """
    A = np.array(A, dtype=float)
    if A.ndim == 2:
        A = A[None]
    b = np.array(b, dtype=float)
    rel = np.asarray(relations, dtype=str)
    if A.ndim != 3 or b.shape != (A.shape[1],) or rel.shape != b.shape:
        raise ValueError(f"A of shape {A.shape} needs one rhs and one relation per row")
    is_le, is_ge = rel == "<=", rel == ">="
    unknown = ~(is_le | is_ge | (rel == "="))
    if unknown.any():
        raise ValueError(f"unknown relation {str(rel[unknown][0])!r}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("all coefficients must be finite")
    flip = b < 0
    A[:, flip] *= -1.0
    b[flip] *= -1.0
    le = np.where(flip, is_ge, is_le)
    ge = np.where(flip, is_le, is_ge)
    art = ~le
    L, m, n = A.shape
    n_le, n_ge, n_art = int(le.sum()), int(ge.sum()), int(art.sum())
    slack0, surp0, art0 = n, n + n_le, n + n_le + n_ge

    # columns: structural, then the surpluses of >= rows; the slacks of <=
    # rows and the artificials of = and >= rows start basic
    T = np.zeros((L, m + 1, n + n_ge + 1))
    T[:, :m, :n] = A
    T[:, :m, -1] = b
    le_rows, ge_rows, art_rows = np.flatnonzero(le), np.flatnonzero(ge), np.flatnonzero(art)
    T[:, ge_rows, n + np.arange(n_ge)] = -1.0
    basis = np.empty((L, m), dtype=int)
    basis[:, le_rows] = slack0 + np.arange(n_le)
    basis[:, art_rows] = art0 + np.arange(n_art)
    nonbasic = np.tile(np.concatenate([np.arange(n), surp0 + np.arange(n_ge)]), (L, 1))
    stack = Stack(T=T, basis=basis, nonbasic=nonbasic, barred=np.zeros(nonbasic.shape, dtype=bool),
                  status=np.full(L, OPTIMAL, dtype=object), n=n)
    if n_art:
        # minimize the sum of the artificials; the objective is bounded below
        # by 0, so an unbounded phase 1 can only come from rounding
        for i in art_rows:
            T[:, -1] -= T[:, i]
        unbounded = _iterate(stack, np.arange(L))
        infeasible = unbounded | (-T[:, -1, -1] > 1e-8)
        stack.status[infeasible] = INFEASIBLE
        for lp in np.flatnonzero(~infeasible & (basis >= art0).any(axis=1)):
            _purge_artificials(stack, lp, art0)
        stack.barred |= nonbasic >= art0
    return stack


def _iterate(stack: Stack, lps: np.ndarray) -> np.ndarray:
    """Run Bland-rule pivots on the LPs ``lps`` in lockstep until each is optimal or unbounded.

    Returns which of ``lps`` are unbounded.
    """
    T, basis, nonbasic = stack.T, stack.basis, stack.nonbasic
    unbounded = np.zeros(len(T), dtype=bool)
    if nonbasic.shape[1] == 0:
        return unbounded[lps]
    above = basis.shape[1] + nonbasic.shape[1]  # above every variable number
    active = lps
    for _ in range(_MAX_PIVOTS):
        # entering: the lowest-numbered free column whose reduced cost is below -TOL
        key = np.where((T[active, -1, :-1] < -TOL) & ~stack.barred[active],
                       nonbasic[active], above)
        enter = key.argmin(axis=1)
        moving = key[np.arange(active.size), enter] < above
        active, enter = active[moving], enter[moving]
        col = T[active, :-1, enter]
        allowed = col > PIVOT_TOL
        ratio = np.divide(T[active, :-1, -1], col, out=np.full(col.shape, np.inf), where=allowed)
        best = ratio.min(axis=1, initial=np.inf)
        bounded = best < np.inf
        unbounded[active[~bounded]] = True
        active, enter, ratio, best = active[bounded], enter[bounded], ratio[bounded], best[bounded]
        if active.size == 0:
            return unbounded[lps]
        # leaving (Bland): the lowest-numbered basic variable among the rows
        # within PIVOT_TOL of the least ratio
        ties = ratio - best[:, None] <= PIVOT_TOL
        leave = np.where(ties, basis[active], above).argmin(axis=1)
        _pivot(T, active, leave, enter)
        leaving = basis[active, leave]
        basis[active, leave] = nonbasic[active, enter]
        nonbasic[active, enter] = leaving
    raise RuntimeError("simplex did not terminate (pivot limit reached)")


def _pivot(T: np.ndarray, lps: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Pivot each LP ``lps[i]`` of the stack on its row ``rows[i]`` and column ``cols[i]``.

    The entering variable's column becomes the leaving one's, a unit column
    in the pivot row.  The pivot row is scaled, and every other row whose
    factor exceeds PIVOT_TOL in magnitude takes away the scaled row times
    that factor, all in one masked rank-1 update on the gathered LPs: the
    bits the full tableau holds in its nonbasic columns, with one
    exception.  A factor that is not zero but at most PIVOT_TOL (rounding
    dust) is not eliminated, so the full tableau would keep it in the
    entering variable's column; the compact one writes an exact unit
    column when that variable leaves.  ``lps`` is sorted without repeats;
    the other LPs are left as they were.
    """
    S = T[lps]
    i = np.arange(lps.size)
    p = S[i, rows, cols]
    factors = S[i, :, cols]
    factors[i, rows] = 0.0
    S[i, :, cols] = 0.0
    S[i, rows, cols] = 1.0
    S[i, rows] /= p[:, None]
    pivot_rows = S[i, rows]
    eliminate = np.abs(factors) > PIVOT_TOL
    np.subtract(S, factors[:, :, None] * pivot_rows[:, None, :], out=S,
                where=eliminate[:, :, None])
    T[lps] = S


def _purge_artificials(stack: Stack, lp: int, art0: int) -> None:
    """Drive LP lp's zero-level artificials out of its basis; zero the redundant rows."""
    T, basis, nonbasic = stack.T, stack.basis, stack.nonbasic
    for i in np.flatnonzero(basis[lp] >= art0):
        for j in np.argsort(nonbasic[lp]):  # columns in variable order
            if nonbasic[lp, j] < art0 and abs(T[lp, i, j]) > 1e-9:
                _pivot(T, np.array([lp]), np.array([i]), np.array([j]))
                basis[lp, i], nonbasic[lp, j] = nonbasic[lp, j], basis[lp, i]
                break
        else:
            T[lp, i] = 0.0  # all-zero row: the constraint was redundant
