"""Self-efficiency, tie-break weights, matrix properties, and clustering."""

import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import revalloc
from revalloc import dea, simplex
from revalloc.dataset import GroupAssignment, ValidationError, load_dataset

from naive_oracles import average_linkage_labels, lance_williams_labels, slack_tie_break

# one fixed technology for the seeded production data below
ELASTICITY = np.array([[0.45, 0.30, 0.20], [0.20, 0.25, 0.50]])
OUTPUT_SCALE = np.array([12.0, 7.0])


def two_dmu_dataset():
    return load_dataset(io.StringIO("dmu,x:a,y:b\nA,1,1\nB,1,2\n"))


def each(f, a):
    """f applied to every element as a Python float: the C library's exp and
    log, which the SIMD level numpy picks at import does not touch."""
    return np.array([f(t) for t in a.ravel().tolist()]).reshape(a.shape)


def production_dataset(seed, n=80):
    """Seeded DMUs in three size classes: log-normal inputs, Cobb-Douglas
    outputs times a half-normal inefficiency (the benchmark's appraisal
    technology).  Products and sums are in input order with no BLAS, and
    exp and log go through ``each``, so a seed names the same dataset at
    every numpy SIMD level; ``tests/test_portable_bits.py`` checks it at
    the baseline level."""
    rng = np.random.default_rng(seed)
    size = np.array([20.0, 60.0, 180.0])[rng.permutation(np.arange(n) % 3)]
    X = size[:, None] * each(math.exp, rng.normal(0.0, 0.3, (n, 3)))
    log_frontier = np.zeros((n, 2))
    for k in range(3):
        log_frontier += each(math.log, X[:, k, None]) * ELASTICITY[:, k]
    frontier = each(math.exp, log_frontier) * OUTPUT_SCALE
    efficiency = each(math.exp, -np.abs(rng.normal(0.0, 0.3, (n, 1))))
    mix = each(math.exp, rng.normal(0.0, 0.15, (n, 2)))
    return revalloc.Dataset(
        names=[f"D{i + 1:02d}" for i in range(n)],
        input_names=["in1", "in2", "in3"],
        output_names=["out1", "out2"],
        raw_inputs=X,
        raw_outputs=frontier * efficiency * mix,
    )


def test_toy_theta_matches_independent_solver(toy_dataset):
    from scipy.optimize import linprog

    ours = dea.ccr_all(toy_dataset).theta
    for d in range(toy_dataset.n):
        c = np.concatenate([-toy_dataset.norm_outputs[d], np.zeros(toy_dataset.m)])
        A_eq = np.concatenate([np.zeros(toy_dataset.s), toy_dataset.norm_inputs[d]])[None, :]
        A_ub = np.hstack([toy_dataset.norm_outputs, -toy_dataset.norm_inputs])
        ref = linprog(c, A_ub=A_ub, b_ub=np.zeros(toy_dataset.n), A_eq=A_eq,
                      b_eq=[1.0], bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(ours[d] + ref.fun) < 1e-9


def test_toy_fifth_dmu_is_dominated(toy_dataset):
    # 0.58 * (DMU_2 + DMU_3) uses less of every input and makes more of
    # every output than DMU_5, so DMU_5 cannot be efficient.
    lam = 0.578125
    combo_in = lam * (toy_dataset.raw_inputs[1] + toy_dataset.raw_inputs[2])
    combo_out = lam * (toy_dataset.raw_outputs[1] + toy_dataset.raw_outputs[2])
    assert (combo_in <= toy_dataset.raw_inputs[4]).all()
    assert (combo_out >= toy_dataset.raw_outputs[4]).all()
    theta = dea.ccr_all(toy_dataset).theta
    assert theta[4] < 0.9
    assert_allclose(theta[:4], 1.0, rtol=0, atol=1e-9)


def test_single_dmu_is_efficient():
    ds = load_dataset(io.StringIO("dmu,x:a,y:b\nonly,2,5\n"))
    theta = dea.ccr_efficiency(ds, 0)[0]
    assert abs(theta - 1.0) < 1e-12


def test_two_dmu_single_ratio_closed_form():
    ds = two_dmu_dataset()
    res = dea.ccr_all(ds)
    assert_allclose(res.theta, [0.5, 1.0], atol=1e-9)


def test_stored_weights_reproduce_theta(bank_dataset):
    res = dea.ccr_all(bank_dataset)
    for d in range(bank_dataset.n):
        num = res.weights_u[d] @ bank_dataset.norm_outputs[d]
        den = res.weights_v[d] @ bank_dataset.norm_inputs[d]
        assert abs(num / den - res.theta[d]) < 1e-7


def test_theta_range(bank_dataset):
    theta = dea.ccr_all(bank_dataset).theta
    assert (theta > 0).all()
    assert (theta <= 1 + 1e-9).all()


def test_index_out_of_range(toy_dataset):
    groups = GroupAssignment.single_group(toy_dataset.n)
    for d in (5, -1):
        with pytest.raises(IndexError, match=f"^DMU index {d} out of range$"):
            dea.ccr_efficiency(toy_dataset, d)
        with pytest.raises(IndexError, match=f"^DMU index {d} out of range$"):
            dea.secondary_goal_weights(toy_dataset, d, groups)


def test_two_dmu_matrix_closed_form():
    # with one input and one output every evaluator ranks by y/x, so
    # E[d][j] = theta_d * (y_j/x_j) / (y_d/x_d) regardless of grouping;
    # in particular the diagonal is the self-score theta_d
    ds = two_dmu_dataset()
    for groups in (None, GroupAssignment(groups=np.array([1, 2]), H=2)):
        M = dea.cross_efficiency_matrix(ds, groups)
        assert_allclose(M.values, [[0.5, 1.0], [0.5, 1.0]], atol=1e-9)


def test_matrix_diagonal_and_range(toy_dataset, bank_dataset):
    # the diagonal and ccr_all come from the same self-score solve, bit for bit
    for ds in (toy_dataset, bank_dataset, production_dataset([0, 0])):
        theta = dea.ccr_all(ds).theta
        M = dea.cross_efficiency_matrix(ds)
        assert np.diag(M.values).tobytes() == theta.tobytes()
        assert M.values.min() >= 0.0
        assert M.values.max() <= 1.0 + 1e-9


def test_self_appraisal_dominance(toy_dataset, bank_dataset):
    # nobody can score a target above the target's own best score
    for ds in (toy_dataset, bank_dataset):
        theta = dea.ccr_all(ds).theta
        M = dea.cross_efficiency_matrix(ds)
        assert (M.values - theta[None, :]).max() <= 1e-7


def one_row(ds, d, u, v):
    """Evaluator d's matrix row from its weights: a batch of one."""
    return dea.cross_efficiency_rows(ds, [d], u[None], v[None])[0]


def test_rows_recompute_from_tie_break_weights(toy_dataset):
    groups = dea.cluster_groups(toy_dataset, 2)
    M = dea.cross_efficiency_matrix(toy_dataset, groups)
    for d in range(toy_dataset.n):
        theta = dea.ccr_efficiency(toy_dataset, d)[0]
        u, v = dea.secondary_goal_weights(toy_dataset, d, groups)
        row = one_row(toy_dataset, d, u, v)
        row[d] = theta
        assert_allclose(row, M.values[d], rtol=0, atol=1e-7)


def test_units_invariance_under_column_scaling(toy_dataset, tmp_path):
    raw_in = toy_dataset.raw_inputs.copy()
    raw_out = toy_dataset.raw_outputs.copy()
    raw_in[:, 0] *= 3.0
    raw_out[:, 1] *= 0.02
    scaled = revalloc.Dataset(
        names=list(toy_dataset.names),
        input_names=list(toy_dataset.input_names),
        output_names=list(toy_dataset.output_names),
        raw_inputs=raw_in,
        raw_outputs=raw_out,
    )
    assert_allclose(dea.ccr_all(scaled).theta, dea.ccr_all(toy_dataset).theta,
                    rtol=0, atol=1e-7)
    groups = dea.cluster_groups(toy_dataset, 2)
    M0 = dea.cross_efficiency_matrix(toy_dataset, groups)
    M1 = dea.cross_efficiency_matrix(scaled, dea.cluster_groups(scaled, 2))
    assert_allclose(M1.values, M0.values, rtol=0, atol=1e-7)


@pytest.mark.parametrize("seed", [[66792959, 2], [406, 0]] + [[s, 0] for s in range(10)])
def test_seeded_matrix_stays_in_range_with_nonnegative_weights(seed):
    # when the data were drawn with numpy's SIMD exp and log, the simplex's
    # rounding once put entry (37, 7) of the first seed's dataset 6.8e-9
    # above 1, and a tie-break weight of the second's at -1.2e-7.  Those
    # datasets went with that draw, and the seeds stay as two more.  The
    # weights are read off the final tableau with no refit
    ds = production_dataset(seed)
    groups = dea.cluster_groups(ds, 3)
    M = dea.cross_efficiency_matrix(ds, groups)
    assert M.values.max() <= 1.0 + 1e-12
    for d in range(ds.n):
        u, v = dea.secondary_goal_weights(ds, d, groups)
        assert min(u.min(), v.min()) >= -1e-9, d


def test_matrix_solves_each_self_score_lp_once(bank_dataset, monkeypatch):
    # the tie-break is one phase 2 on the self-score's optimal face; a second
    # phase 1 per DMU (as with a separately built tie-break LP) took 350.
    # One lockstep step pivots every LP still active, and each counts.
    pivots = 0
    pivot = simplex._pivot

    def counted(T, lps, rows, cols):
        nonlocal pivots
        pivots += len(lps)
        pivot(T, lps, rows, cols)

    monkeypatch.setattr(simplex, "_pivot", counted)
    dea.cross_efficiency_matrix(bank_dataset, dea.cluster_groups(bank_dataset, 3))
    assert pivots <= 160


def test_a_dea_call_builds_one_stack(bank_dataset, monkeypatch):
    # the tie-break runs on the self-score stack, restricted in place to its
    # optimal face; a copied face made a second stack per grouped call
    built = []
    stack = simplex.Stack

    def counted(*args, **kwargs):
        built.append(1)
        return stack(*args, **kwargs)

    monkeypatch.setattr(simplex, "Stack", counted)
    groups = dea.cluster_groups(bank_dataset, 3)
    for call in (lambda: dea.ccr_all(bank_dataset),
                 lambda: dea.cross_efficiency_matrix(bank_dataset, groups)):
        built.clear()
        call()
        assert len(built) == 1


def one_evaluator_at_a_time(ds, groups):
    """ccr_all's fields and the matrix, built evaluator by evaluator through
    ``ccr_efficiency`` and ``secondary_goal_weights`` (stacks of one LP)."""
    solves = [dea.ccr_efficiency(ds, d) for d in range(ds.n)]
    theta = np.array([t for t, _, _ in solves])
    E = np.vstack([one_row(ds, d, *dea.secondary_goal_weights(ds, d, groups))
                   for d in range(ds.n)])
    E[np.diag_indices(ds.n)] = theta
    E[(E > 1.0) & (E <= 1.0 + 1e-12)] = 1.0
    return theta, np.vstack([u for _, u, _ in solves]), np.vstack([v for _, _, v in solves]), E


def test_stacked_solves_match_one_evaluator_at_a_time(toy_dataset, bank_dataset):
    cases = [(toy_dataset, H) for H in (1, 2, 3)] + [(bank_dataset, H) for H in (1, 3)]
    cases += [(production_dataset([seed, 0], n=24), 3) for seed in range(4)]
    for ds, H in cases:
        groups = dea.cluster_groups(ds, H)
        theta, u, v, E = one_evaluator_at_a_time(ds, groups)
        res = dea.ccr_all(ds)
        assert res.theta.tobytes() == theta.tobytes()
        assert np.ascontiguousarray(res.weights_u).tobytes() == u.tobytes()
        assert np.ascontiguousarray(res.weights_v).tobytes() == v.tobytes()
        assert dea.cross_efficiency_matrix(ds, groups).values.tobytes() == E.tobytes(), (ds.n, H)


def zero_cell_dataset():
    # Z03, Z04 and Z05 have a zero input; with three clusters each of their
    # tie-break LPs is unbounded
    X = [[3, 2], [2, 1], [1, 0], [1, 0], [0, 3], [2, 3], [2, 2], [3, 2]]
    Y = [2, 2, 2, 3, 1, 3, 3, 1]
    return load_dataset(io.StringIO("dmu,x:a,x:b,y:c\n" + "".join(
        f"Z{k + 1:02d},{x[0]},{x[1]},{y}\n" for k, (x, y) in enumerate(zip(X, Y)))))


def failing_self_scores(monkeypatch, evaluators):
    """The zero-cell dataset, with the self-score LPs of the given evaluators
    reported infeasible in every stack of all n LPs."""
    ds = zero_cell_dataset()
    phase_one = simplex.phase_one

    def failing(A, b, relations):
        stack = phase_one(A, b, relations)
        if len(stack.status) == ds.n:
            stack.status[evaluators] = simplex.INFEASIBLE
        return stack

    monkeypatch.setattr(simplex, "phase_one", failing)
    return ds


def test_failure_names_the_first_evaluator_in_dmu_order(monkeypatch):
    ds = zero_cell_dataset()
    groups = dea.cluster_groups(ds, 3)
    failing = []
    for d in range(ds.n):
        try:
            dea.secondary_goal_weights(ds, d, groups)
        except dea.SolverFailure:
            failing.append(d)
    assert failing == [2, 3, 4]
    with pytest.raises(dea.SolverFailure, match="tie-break LP for evaluator 'Z03'"):
        dea.cross_efficiency_matrix(ds, groups)
    # a self-score failure of a later evaluator does not jump the queue; one
    # of the same evaluator comes before its tie-break's
    ds = failing_self_scores(monkeypatch, [3, 6])
    with pytest.raises(dea.SolverFailure, match="tie-break LP for evaluator 'Z03'"):
        dea.cross_efficiency_matrix(ds, groups)
    with pytest.raises(dea.SolverFailure, match="self-efficiency LP for DMU 'Z04': infeasible"):
        dea.ccr_all(ds)
    monkeypatch.undo()
    ds = failing_self_scores(monkeypatch, [2, 6])
    with pytest.raises(dea.SolverFailure, match="self-efficiency LP for DMU 'Z03': infeasible"):
        dea.cross_efficiency_matrix(ds, groups)


def test_zero_virtual_input_comes_before_a_later_evaluators_lp_failure():
    ds = load_dataset(io.StringIO("dmu,x:a,x:b,y:c\nA,1,1,2\nB,0,1,0\nC,1,0,0\n"))
    groups = dea.cluster_groups(ds, 3)
    for name in ("B", "C"):
        d = ds.names.index(name)
        with pytest.raises(dea.SolverFailure, match=f"tie-break LP for evaluator '{name}'"):
            dea.secondary_goal_weights(ds, d, groups)
    u, v = dea.secondary_goal_weights(ds, 0, groups)
    assert v[0] > 0 and v[1] == 0  # all of A's input weight is on a, which B lacks
    for build in (lambda: one_row(ds, 0, u, v), lambda: dea.cross_efficiency_matrix(ds, groups)):
        with pytest.raises(dea.SolverFailure, match="evaluator 'A' gives DMU 'B' zero virtual input"):
            build()


def test_tie_break_matches_slack_variable_oracle(toy_dataset, bank_dataset):
    # same feasible set and objective as the slack form, so the same optimum;
    # on the case studies the same weights too, to 1e-12 in the matrix
    cases = [(toy_dataset, H, True) for H in (1, 2, 3)]
    cases += [(bank_dataset, H, True) for H in (1, 2, 3)]
    cases += [(production_dataset([seed, 0], n=24), 3, False) for seed in range(10)]
    for ds, H, same_matrix in cases:
        X, Y = ds.norm_inputs, ds.norm_outputs
        groups = dea.cluster_groups(ds, H)
        rows = []
        for d in range(ds.n):
            theta = dea.ccr_efficiency(ds, d)[0]
            u, v = dea.secondary_goal_weights(ds, d, groups)
            ref, ref_u, ref_v = slack_tie_break(X, Y, d, groups.allies(d), theta)
            sign = np.where(groups.allies(d), 1.0, -1.0)
            sign[d] = 0.0
            ours = float(sign @ (X @ v - Y @ u))
            assert abs(ours - ref) <= 1e-9 * abs(ref), (ds.n, H, d, ours, ref)
            row = one_row(ds, d, ref_u, ref_v)
            row[d] = theta
            rows.append(row)
        if same_matrix:
            M = dea.cross_efficiency_matrix(ds, groups)
            assert_allclose(M.values, np.vstack(rows), rtol=0, atol=1e-12)


def make_dataset(X, Y, prefix="D"):
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    return revalloc.Dataset(
        names=[f"{prefix}{i + 1:02d}" for i in range(len(X))],
        input_names=[f"in{k + 1}" for k in range(X.shape[1])],
        output_names=[f"out{k + 1}" for k in range(Y.shape[1])],
        raw_inputs=X,
        raw_outputs=Y,
    )


def row_order_case(permuted):
    """The benchmark's row-order data: integer cells 1..3 (many tied LP
    optima), n = 40, three fixed groups, in CSV order or row-permuted."""
    rng = np.random.default_rng(0)
    X = rng.integers(1, 4, (40, 3)).astype(float)
    Y = rng.integers(1, 4, (40, 2)).astype(float)
    order = rng.permutation(40) if permuted else np.arange(40)
    ds = make_dataset(X[order], Y[order], "R")
    return ds, GroupAssignment(groups=(np.arange(40) % 3 + 1)[order], H=3)


def pairs_dataset():
    # D01 and D02 are one DMU twice, D04 is D03 doubled; all four are
    # efficient, and without the margin each member of a pair would beat
    # the other.  D05 is beaten by D01, scaled.
    return make_dataset([[1, 2], [1, 2], [2, 1], [4, 2], [3, 3]], [[1], [1], [1], [2], [1]])


def zero_input_dataset():
    # on input a alone Z02 would beat Z01, but Z01's row binds wherever
    # v_a is small: it has a zero input, so it stays.  Z03 is beaten by Z02.
    return make_dataset([[1, 0], [1, 1], [2, 2]], [[1], [3], [1]], "Z")


def full_row_scores(ds, groups=None):
    """``dea._scores`` over all n evaluators, built here on a row for every DMU."""
    X, Y, n = ds.norm_inputs, ds.norm_outputs, ds.n
    A = np.zeros((n, n + 1, ds.s + ds.m))
    A[:, :-1] = np.hstack([Y, -X])
    A[:, -1, ds.s:] = X
    b = np.zeros(n + 1)
    b[-1] = 1.0
    stack = simplex.phase_one(A, b, ["<="] * n + ["="])
    self_score = stack.optimize(np.hstack([-Y, np.zeros((n, ds.m))])).copy()
    x = stack.point()
    theta = dea._products(Y, x[:, :ds.s])
    theta[(theta > 1.0) & (theta <= 1.0 + 1e-12)] = 1.0
    if groups is not None:
        stack.optimal_face()
        stack.optimize(dea._tie_break_costs(ds, np.arange(n), groups))
        x = stack.point()
    return theta, x, self_score, stack.status


def matrix_outcome(build):
    """The matrix's bytes, or the SolverFailure message in its place."""
    try:
        return build().tobytes()
    except dea.SolverFailure as err:
        return str(err)


def full_row_matrix(ds, groups):
    theta, x, self_score, tie_break = full_row_scores(ds, groups)
    E = dea.cross_efficiency_rows(ds, np.arange(ds.n), x[:, :ds.s], x[:, ds.s:],
                                  self_score, tie_break)
    E[np.diag_indices(ds.n)] = theta
    E[(E > 1.0) & (E <= 1.0 + 1e-12)] = 1.0
    return E


def screened_cases(toy_dataset, bank_dataset):
    """(dataset, groups): the case studies, the zero-cell, pair and zero-input
    datasets and seeded production data at H = 1 and 3, and the row-order
    data in both orders."""
    datasets = [toy_dataset, bank_dataset, zero_cell_dataset(), pairs_dataset(),
                zero_input_dataset()] + [production_dataset([n, 0], n) for n in (18, 80, 240)]
    cases = [(ds, dea.cluster_groups(ds, H)) for ds in datasets for H in (1, 3)]
    return cases + [row_order_case(permuted) for permuted in (False, True)]


def test_screened_rows_give_the_full_row_bits(toy_dataset, bank_dataset):
    # a screened-out row's slack is positive at every feasible point, so it
    # never wins a ratio test: the pivots, weights and statuses are those
    # of the stack with a row for every DMU, and so is any failure
    for ds, groups in screened_cases(toy_dataset, bank_dataset):
        evaluators = np.arange(ds.n)
        for g in (None, groups):
            ours, ref = dea._scores(ds, evaluators, g), full_row_scores(ds, g)
            assert all(np.array_equal(a, b) for a, b in zip(ours, ref)), (ds.names[0], ds.n, g)
        assert (matrix_outcome(lambda: dea.cross_efficiency_matrix(ds, groups).values)
                == matrix_outcome(lambda: full_row_matrix(ds, groups))), (ds.names[0], ds.n)
    # the zero-cell dataset fails as before: Z03's tie-break first
    ds, groups = zero_cell_dataset(), dea.cluster_groups(zero_cell_dataset(), 3)
    assert matrix_outcome(lambda: full_row_matrix(ds, groups)).startswith(
        "tie-break LP for evaluator 'Z03'")


def test_screen_keeps_every_efficient_dmu_and_every_zero_input_row(toy_dataset, bank_dataset):
    for ds, _ in screened_cases(toy_dataset, bank_dataset):
        kept = np.zeros(ds.n, dtype=bool)
        kept[dea._frontier_rows(ds)] = True
        theta = full_row_scores(ds)[0]
        assert kept[theta == 1.0].all(), (ds.names[0], ds.n)
        assert kept[(ds.norm_inputs == 0).any(axis=1)].all(), (ds.names[0], ds.n)
        assert (theta[~kept] < 1.0 - 1e-7).all(), (ds.names[0], ds.n)  # at most 1/(1 + margin)
        if ds.n >= 80:
            assert kept.sum() < ds.n / 2, (ds.names[0], ds.n)  # the screen pays
    assert dea._frontier_rows(zero_input_dataset()).tolist() == [0, 1]


def test_screen_keeps_both_members_of_identical_and_proportional_pairs():
    assert dea._frontier_rows(pairs_dataset()).tolist() == [0, 1, 2, 3]


def test_group_assignment_size_checked(toy_dataset):
    groups = GroupAssignment(groups=np.array([1, 1]), H=1)
    for call in (lambda: dea.cross_efficiency_matrix(toy_dataset, groups),
                 lambda: dea.secondary_goal_weights(toy_dataset, 0, groups)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == "group assignment does not match dataset size"


def test_library_inputs_of_the_wrong_kind_raise_validation_error(toy_dataset):
    ds, one = toy_dataset, GroupAssignment.single_group(toy_dataset.n)
    for call, message in (
        (lambda: dea.cross_efficiency_matrix(ds, [1, 1, 1, 1, 1]),
         "groups must be a GroupAssignment, got list"),
        # None would mean "no tie-break": the self-score weights
        (lambda: dea.secondary_goal_weights(ds, 0, None),
         "groups must be a GroupAssignment, got NoneType"),
        (lambda: dea.cluster_groups(ds, 2.0), "cluster count must be an integer, got 2.0"),
        (lambda: dea.cluster_groups(ds, True), "cluster count must be an integer, got True"),
        (lambda: dea.ccr_efficiency(ds, True), "DMU index must be an integer, got True"),
        (lambda: dea.secondary_goal_weights(ds, True, one),
         "DMU index must be an integer, got True"),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == message


def test_cluster_trivial_cuts(toy_dataset):
    assert dea.cluster_groups(toy_dataset, 1).groups.tolist() == [1] * 5
    assert dea.cluster_groups(toy_dataset, 5).groups.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(ValidationError, match=r"^cluster count 0 out of range 1\.\.5$"):
        dea.cluster_groups(toy_dataset, 0)
    with pytest.raises(ValidationError, match=r"^cluster count 6 out of range 1\.\.5$"):
        dea.cluster_groups(toy_dataset, 6)


def test_cluster_toy_against_oracle(toy_dataset):
    for H in (2, 3, 4):
        ours = dea.cluster_groups(toy_dataset, H).groups
        ref = average_linkage_labels(toy_dataset.features(), H)
        assert ours.tolist() == ref.tolist(), f"H={H}"


def test_cluster_random_against_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(3, 11))
        ds = revalloc.Dataset(
            names=[f"d{i}" for i in range(n)],
            input_names=["a", "b"],
            output_names=["c"],
            raw_inputs=rng.uniform(0.1, 5.0, (n, 2)),
            raw_outputs=rng.uniform(0.1, 5.0, (n, 1)),
        )
        H = int(rng.integers(1, n + 1))
        ours = dea.cluster_groups(ds, H).groups
        ref = average_linkage_labels(ds.features(), H)
        assert ours.tolist() == ref.tolist(), f"trial={trial} H={H}"
    # cells in 1..3 tie often, exactly in the real numbers and often in
    # floats too; every cut must go to the lowest pair on a float tie
    for n in range(3, 31):
        ds = revalloc.Dataset(
            names=[f"d{i}" for i in range(n)],
            input_names=["a", "b"],
            output_names=["c"],
            raw_inputs=rng.integers(1, 4, (n, 2)).astype(float),
            raw_outputs=rng.integers(1, 4, (n, 1)).astype(float),
        )
        for H in range(1, n + 1):
            ours = dea.cluster_groups(ds, H).groups
            ref = lance_williams_labels(ds.features(), H)
            assert ours.tolist() == ref.tolist(), f"integer cells n={n} H={H}"


def test_cluster_group_ids_ordered_by_lowest_member(bank_dataset):
    for H in (2, 3, 5):
        ga = dea.cluster_groups(bank_dataset, H)
        firsts = [int(np.argmax(ga.groups == g)) for g in range(1, H + 1)]
        assert firsts == sorted(firsts)
        assert ga.groups[0] == 1
