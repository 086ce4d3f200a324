"""Simplex solver: text-book cases, invariants, and the vertex-enumeration oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from revalloc import simplex
from revalloc.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve

from naive_oracles import row_loop_pivot, vertex_enumeration_solve


def lp(c, sense, rows):
    prog = LinearProgram(objective=np.asarray(c, float), sense=sense)
    for coeffs, rel, rhs in rows:
        prog.add_constraint(np.asarray(coeffs, float), rel, rhs)
    return prog


def boxed(n, rows, box):
    """The rows, then x_i <= box for each variable in index order."""
    return rows + [(np.eye(n)[i], "<=", box) for i in range(n)]


def test_box_maximum():
    sol = solve(lp([1, 1], "max", [([1, 0], "<=", 1), ([0, 1], "<=", 1)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 2.0, atol=1e-9)
    assert_allclose(sol.x, [1, 1], atol=1e-9)


def test_infeasible():
    sol = solve(lp([1], "max", [([1], "<=", -1)]))
    assert sol.status == INFEASIBLE


def test_unbounded():
    sol = solve(lp([1], "max", [([-1], "<=", 1)]))
    assert sol.status == UNBOUNDED


def test_no_constraints():
    assert solve(lp([1], "max", [])).status == UNBOUNDED
    sol = solve(lp([1], "min", []))
    assert sol.status == OPTIMAL and sol.objective == 0.0


def test_equality_constraint():
    sol = solve(lp([2, 3], "max", [([1, 1], "=", 4), ([1, 0], "<=", 3)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 12.0, atol=1e-9)  # all weight on x2
    assert_allclose(sol.x, [0, 4], atol=1e-9)


def test_redundant_equality_rows_are_dropped():
    sol = solve(lp([1, 2], "max", [
        ([1, 1], "=", 3),
        ([2, 2], "=", 6),  # same hyperplane
        ([1, 0], "<=", 2),
    ]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 6.0, atol=1e-9)
    assert_allclose(sol.x, [0, 3], atol=1e-9)


def test_mixed_relations():
    sol = solve(lp([6, 3], "min", [([0, 3], "<=", 2), ([1, 1], ">=", 1), ([2, -1], ">=", 1)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 5.0, atol=1e-8)
    assert_allclose(sol.x, [2 / 3, 1 / 3], atol=1e-8)


def test_degenerate_vertex():
    sol = solve(lp([2, 1], "max", [([3, 1], "<=", 6), ([1, -1], "<=", 2), ([0, 1], "<=", 3)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 5.0, atol=1e-9)


def test_klee_minty_style_cycling_guard():
    sol = solve(lp(
        [100, 10, 1], "max",
        [([1, 0, 0], "<=", 1), ([20, 1, 0], "<=", 100), ([200, 20, 1], "<=", 10000)],
    ))
    assert sol.status == OPTIMAL
    assert_allclose(sol.objective, 10000.0, atol=1e-6)


def test_non_finite_rejected():
    # an objective is checked when the program is built, rows when it is solved
    for c, rows in [
        ([1, np.inf], []),
        ([1, 1], [([np.inf, 1], "<=", 1)]),
        ([1, 1], [([1, 1], "<=", np.nan)]),
    ]:
        with pytest.raises(ValueError, match="finite"):
            solve(lp(c, "max", rows))


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
        prog = lp(c, sense, boxed(n, rows, box))
        sol = solve(prog)
        status, best = vertex_enumeration_solve(c, sense, rows, box)
        assert sol.status == status, f"status mismatch: {sol.status} vs oracle {status}"
        statuses[status] += 1
        if status == "optimal":
            assert abs(sol.objective - best) <= 1e-7, (sol.objective, best)
    assert statuses["optimal"] >= 10
    assert statuses["infeasible"] >= 3  # the suite must exercise both outcomes


def test_returned_points_feasible_and_objective_consistent():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n, rows = _random_lp(rng)
        c = rng.uniform(-1, 1, n)
        prog = lp(c, "max", boxed(n, rows, 10.0))
        sol = solve(prog)
        if sol.status != OPTIMAL:
            continue
        assert (sol.x >= -1e-9).all()
        assert (sol.x <= 10.0 + 1e-9).all()
        for coeffs, rel, rhs in rows:
            lhs = float(coeffs @ sol.x)
            if rel == "<=":
                assert lhs <= rhs + 1e-9
            elif rel == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert abs(lhs - rhs) <= 1e-9
        assert abs(sol.objective - float(c @ sol.x)) <= 1e-9


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(5)
    n, rows = _random_lp(rng)
    c = rng.uniform(-1, 1, n)
    a = solve(lp(c, "max", boxed(n, rows, 10.0)))
    b = solve(lp(c, "max", boxed(n, rows, 10.0)))
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert a.objective == b.objective
        assert (a.x == b.x).all()


def test_pivot_matches_row_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    tol = simplex.PIVOT_TOL
    near_tol = [tol, -tol, tol * (1 - 1e-6), tol * (1 + 1e-6), -tol * (1 + 1e-6), 0.0]
    for _ in range(200):
        rows, cols = int(rng.integers(2, 12)), int(rng.integers(2, 15))
        T = rng.normal(size=(rows, cols))
        T[rng.random((rows, cols)) < 0.3] = 0.0
        row, col = int(rng.integers(rows)), int(rng.integers(cols))
        T[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        # factors just under, at and just over the elimination threshold
        for i in rng.choice(rows, size=min(rows, 3), replace=False):
            if i != row:
                T[i, col] = rng.choice(near_tol)
        ours, ref = T.copy(), T.copy()
        simplex._pivot(ours, row, col)
        row_loop_pivot(ref, row, col)
        assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("basis, leaves", [([3, 2], 1), ([2, 3], 0)])
@pytest.mark.parametrize("gap", [0.0, 5e-11])
def test_ratio_tie_leaves_smaller_basis_index(basis, leaves, gap):
    # column 0 enters; both rows allow it up to 1, the row with the larger
    # basis index up to `gap` less, which is still within the tie tolerance
    T = np.array([
        [2.0, 1.0, 0.0, 0.0, 2.0],
        [1.0, 1.0, 0.0, 0.0, 1.0],
        [-1.0, 1.0, 0.0, 0.0, 0.0],
    ])
    for i, var in enumerate(basis):
        T[i, var] = 1.0
    T[basis.index(3), -1] -= gap * T[basis.index(3), 0]
    basis = np.array(basis)
    assert simplex._iterate(T, basis) == OPTIMAL
    assert basis[leaves] == 0
    assert basis[1 - leaves] == 3
