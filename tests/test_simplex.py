"""Simplex solver: text-book cases, invariants, and the vertex-enumeration oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from revalloc import simplex
from revalloc.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve

from naive_oracles import vertex_enumeration_solve


def lp(c, sense, rows):
    """max or min c.x over rows (coeffs, relation, rhs) through ``solve``, which
    minimizes; returns (status, objective, x), objective and x None unless optimal."""
    c = np.asarray(c, float)
    A = np.array([r[0] for r in rows], float).reshape(len(rows), c.size)
    status, x = solve(-c if sense == "max" else c, A, [r[2] for r in rows], [r[1] for r in rows])
    return status, (None if x is None else float(c @ x)), x


def boxed(n, rows, box):
    """The rows, then x_i <= box for each variable in index order."""
    return rows + [(np.eye(n)[i], "<=", box) for i in range(n)]


def test_box_maximum():
    status, obj, x = lp([1, 1], "max", [([1, 0], "<=", 1), ([0, 1], "<=", 1)])
    assert status == OPTIMAL
    assert_allclose(obj, 2.0, atol=1e-9)
    assert_allclose(x, [1, 1], atol=1e-9)


def test_infeasible():
    assert lp([1], "max", [([1], "<=", -1)]) == (INFEASIBLE, None, None)


def test_unbounded():
    assert lp([1], "max", [([-1], "<=", 1)]) == (UNBOUNDED, None, None)


def test_no_constraints():
    assert lp([1], "max", [])[0] == UNBOUNDED
    status, obj, _ = lp([1], "min", [])
    assert status == OPTIMAL and obj == 0.0


def test_equality_constraint():
    status, obj, x = lp([2, 3], "max", [([1, 1], "=", 4), ([1, 0], "<=", 3)])
    assert status == OPTIMAL
    assert_allclose(obj, 12.0, atol=1e-9)  # all weight on x2
    assert_allclose(x, [0, 4], atol=1e-9)


def test_redundant_equality_rows_are_dropped():
    status, obj, x = lp([1, 2], "max", [
        ([1, 1], "=", 3),
        ([2, 2], "=", 6),  # same hyperplane
        ([1, 0], "<=", 2),
    ])
    assert status == OPTIMAL
    assert_allclose(obj, 6.0, atol=1e-9)
    assert_allclose(x, [0, 3], atol=1e-9)


def test_mixed_relations():
    status, obj, x = lp([6, 3], "min", [([0, 3], "<=", 2), ([1, 1], ">=", 1), ([2, -1], ">=", 1)])
    assert status == OPTIMAL
    assert_allclose(obj, 5.0, atol=1e-8)
    assert_allclose(x, [2 / 3, 1 / 3], atol=1e-8)


def test_degenerate_vertex():
    status, obj, _ = lp([2, 1], "max", [([3, 1], "<=", 6), ([1, -1], "<=", 2), ([0, 1], "<=", 3)])
    assert status == OPTIMAL
    assert_allclose(obj, 5.0, atol=1e-9)


def test_klee_minty_style_cycling_guard(monkeypatch):
    status, obj, _ = lp(
        [100, 10, 1], "max",
        [([1, 0, 0], "<=", 1), ([20, 1, 0], "<=", 100), ([200, 20, 1], "<=", 10000)],
    )
    assert status == OPTIMAL
    assert_allclose(obj, 10000.0, atol=1e-6)
    # the guard itself: a run out of pivots raises rather than returning a non-optimum
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
    with pytest.raises(RuntimeError, match=r"^simplex did not terminate \(pivot limit reached\)$"):
        solve([-1.0], [[1.0]], [1.0], ["<="])


def test_non_finite_rejected():
    # the cost is checked by Stack.optimize, the rows by phase_one
    for c, rows in [
        ([1, np.inf], []),
        ([1, 1], [([np.inf, 1], "<=", 1)]),
        ([1, 1], [([1, 1], "<=", np.nan)]),
    ]:
        with pytest.raises(ValueError, match="finite"):
            lp(c, "max", rows)
    # optimize itself, one cost for the stack or one row per LP
    for cost in ([np.nan, -1.0], [-np.inf, -1.0], [[1.0, np.inf]]):
        with pytest.raises(ValueError, match="finite"):
            simplex.phase_one([[1.0, 1.0]], [1.0], ["<="]).optimize(cost)


def test_malformed_programs_rejected():
    # an unknown relation used to be read as "="
    with pytest.raises(ValueError, match="unknown relation '<'"):
        lp([1, 1], "max", [([1, 0], "<", 1)])
    with pytest.raises(ValueError, match="unknown relation '=<'"):
        simplex.phase_one([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], ["<=", "=<"])
    with pytest.raises(ValueError, match="matching A"):
        solve([1.0, 1.0, 1.0], [[1.0, 0.0]], [1.0], ["<="])
    with pytest.raises(ValueError, match="one rhs and one relation per row"):
        solve([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], ["<="])
    with pytest.raises(ValueError, match="matching A per LP"):
        simplex.phase_one([[1.0, 0.0]], [1.0], ["<="]).optimize([[1.0, 1.0], [1.0, 1.0]])


def _random_lp(rng):
    n = int(rng.integers(2, 7))       # up to 6 variables
    k = int(rng.integers(1, 7))       # up to 6 structural constraints
    rows = []
    for _ in range(k):
        coeffs = rng.uniform(-1, 1, n)
        rel = rng.choice(["<=", ">=", "="], p=[0.6, 0.25, 0.15])
        rhs = float(rng.uniform(-0.2, 1.0))
        rows.append((coeffs, rel, rhs))
    return n, rows


def test_matches_vertex_enumeration_oracle_on_50_random_lps():
    rng = np.random.default_rng(2024)
    box = 10.0
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(50):
        n, rows = _random_lp(rng)
        c = rng.uniform(-1, 1, n)
        sense = "max" if rng.integers(2) else "min"
        status, obj, _ = lp(c, sense, boxed(n, rows, box))
        ref_status, best = vertex_enumeration_solve(c, sense, rows, box)
        assert status == ref_status, f"status mismatch: {status} vs oracle {ref_status}"
        statuses[status] += 1
        if status == "optimal":
            assert abs(obj - best) <= 1e-7, (obj, best)
    assert statuses["optimal"] >= 10
    assert statuses["infeasible"] >= 3  # the suite must exercise both outcomes


def test_returned_points_feasible_and_objective_consistent():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n, rows = _random_lp(rng)
        c = rng.uniform(-1, 1, n)
        status, _, x = lp(c, "max", boxed(n, rows, 10.0))
        if status != OPTIMAL:
            continue
        assert (x >= -1e-9).all()
        assert (x <= 10.0 + 1e-9).all()
        for coeffs, rel, rhs in rows:
            lhs = float(coeffs @ x)
            if rel == "<=":
                assert lhs <= rhs + 1e-9
            elif rel == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert abs(lhs - rhs) <= 1e-9


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(5)
    n, rows = _random_lp(rng)
    c = rng.uniform(-1, 1, n)
    a = lp(c, "max", boxed(n, rows, 10.0))
    b = lp(c, "max", boxed(n, rows, 10.0))
    assert a[:2] == b[:2]
    if a[0] == OPTIMAL:
        assert a[2].tobytes() == b[2].tobytes()


def row_loop_pivot(T, row, col):
    """Pivot on T[row, col] of one compact tableau, one row at a time (modifies T).

    The tableau holds a column per nonbasic variable, so column col holds
    the entering variable before the pivot and the leaving one after it.
    The full tableau gives the leaving variable's unit column 1/p in the
    pivot row, -(f * (1/p)) in each row it eliminates (factor f above
    PIVOT_TOL in magnitude) and 0 in the others.
    """
    p = T[row, col]
    entering = T[:, col].copy()
    T[row] /= p
    for i in range(T.shape[0]):
        f = entering[i]
        if i == row:
            T[i, col] = 1.0 / p
        elif abs(f) > simplex.PIVOT_TOL:
            T[i] -= f * T[row]
            T[i, col] = -(f * (1.0 / p))
        else:
            T[i, col] = 0.0


def test_pivot_matches_row_loop_bit_for_bit():
    # stacks of compact tableaux; some LPs sit the pivot out, as LPs that are
    # already optimal or unbounded do in the lockstep loop
    rng = np.random.default_rng(11)
    tol = simplex.PIVOT_TOL
    near_tol = [tol, -tol, tol * (1 - 1e-6), tol * (1 + 1e-6), -tol * (1 + 1e-6), 0.0]
    for _ in range(200):
        L, rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 12)), int(rng.integers(2, 15))
        T = rng.normal(size=(L, rows, cols))
        T[rng.random(T.shape) < 0.3] = 0.0
        lps = np.flatnonzero(rng.random(L) < 0.7)
        row, col = rng.integers(rows, size=lps.size), rng.integers(cols - 1, size=lps.size)
        for lp, r, c in zip(lps, row, col):
            T[lp, r, c] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            # factors just under, at and just over the elimination threshold
            for i in rng.choice(rows, size=min(rows, 3), replace=False):
                if i != r:
                    T[lp, i, c] = rng.choice(near_tol)
        ours, ref = T.copy(), T.copy()
        simplex._pivot(ours, lps, row, col)
        for lp, r, c in zip(lps, row, col):
            row_loop_pivot(ref[lp], r, c)
        assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("basis, leaves", [([3, 2], 1), ([2, 3], 0)])
@pytest.mark.parametrize("gap", [0.0, 5e-11])
def test_ratio_tie_leaves_smaller_basis_index(basis, leaves, gap):
    # variable 0 enters; both rows allow it up to 1, the row with the larger
    # basis index up to `gap` less, which is still within the tie tolerance
    T = np.array([
        [2.0, 1.0, 2.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 0.0],
    ])
    T[basis.index(3), -1] -= gap * T[basis.index(3), 0]
    stack = simplex.Stack(T=T[None], basis=np.array([basis]), nonbasic=np.array([[0, 1]]),
                          barred=np.zeros((1, 2), dtype=bool),
                          status=np.array([OPTIMAL], dtype=object), n=2)
    assert not simplex._iterate(stack, np.array([0])).any()
    assert stack.basis[0, leaves] == 0
    assert stack.basis[0, 1 - leaves] == 3


def test_entering_variable_is_the_lowest_numbered_free_column():
    # both columns improve; column 0 holds variable 2 and column 1 variable
    # 0, so variable 0 enters, unless it is barred (second LP)
    T = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 0.0]])
    stack = simplex.Stack(T=np.stack([T, T]), basis=np.array([[1], [1]]),
                          nonbasic=np.array([[2, 0], [2, 0]]),
                          barred=np.array([[False, False], [False, True]]),
                          status=np.array([OPTIMAL, OPTIMAL], dtype=object), n=3)
    assert not simplex._iterate(stack, np.array([0, 1])).any()
    assert stack.basis.tolist() == [[0], [2]]


def solve_one_at_a_time(A, b, relations, cost):
    """Statuses and points of each LP of a stack, solved as a stack of one."""
    results = []
    for lp in range(len(A)):
        one = simplex.phase_one(A[lp], b, relations)
        one.optimize(cost[lp])
        results.append((one.status[0], one.point()[0]))
    return results


def assert_stack_matches_singles(A, b, relations, cost):
    stack = simplex.phase_one(A, b, relations)
    stack.optimize(cost)
    points = stack.point()
    singles = solve_one_at_a_time(A, b, relations, cost)
    assert list(stack.status) == [status for status, _ in singles]
    for lp, (status, x) in enumerate(singles):
        if status == OPTIMAL:
            assert points[lp].tobytes() == x.tobytes(), lp
    return list(stack.status), points


def test_stack_matches_its_lps_solved_alone():
    # shared b and relations, a different A and cost per LP; without a box
    # some members are unbounded, and with a mixed sign pattern some infeasible
    rng = np.random.default_rng(314)
    seen = set()
    for _ in range(40):
        L, m, n = int(rng.integers(2, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
        relations = rng.choice(["<=", ">=", "="], size=m, p=[0.6, 0.25, 0.15]).tolist()
        b = rng.uniform(-0.2, 1.0, m)
        A = rng.uniform(-1, 1, (L, m, n))
        A[rng.random(A.shape) < 0.2] = 0.0
        cost = rng.uniform(-1, 1, (L, n))
        seen.update(assert_stack_matches_singles(A, b, relations, cost)[0])
    assert seen == {OPTIMAL, UNBOUNDED, INFEASIBLE}


def test_stack_with_an_infeasible_phase_one_member():
    # x1 + x2 = 1 with x1 + x2 <= 0.5 has no point; the other members solve
    A = np.array([
        [[1.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 2.0], [0.0, 1.0]],
    ])
    statuses, _ = assert_stack_matches_singles(A, [1.0, 0.5], ["=", "<="], -np.ones((3, 2)))
    assert statuses == [OPTIMAL, INFEASIBLE, OPTIMAL]


def test_stack_purges_a_redundant_equality_row():
    # the middle member repeats its first equality, so one artificial stays
    # basic at zero after phase 1 and its row is zeroed; the first member
    # has no point with x1 <= 2
    A = np.array([
        [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]],
        [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 2.0], [1.0, 0.0]],
    ])
    b, relations = [3.0, 6.0, 2.0], ["=", "=", "<="]
    stack = simplex.phase_one(A, b, relations)
    # variables 0 and 1 are structural, 2 the slack and 3, 4 the artificials
    assert (stack.T[1, 1] == 0.0).all() and stack.basis[1, 1] >= 3
    statuses, x = assert_stack_matches_singles(A, b, relations, np.array([[-1.0, -2.0]] * 3))
    assert statuses == [INFEASIBLE, OPTIMAL, OPTIMAL]
    assert_allclose(x[1:], [[0, 3], [0, 3]], atol=1e-9)
