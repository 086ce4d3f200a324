"""Self-efficiency, tie-break weights, matrix properties, and clustering."""

import io

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


def production_dataset(seed, n=80):
    """Seeded DMUs in three size classes: log-normal inputs, Cobb-Douglas
    outputs times a half-normal inefficiency (the benchmark's appraisal data)."""
    rng = np.random.default_rng(seed)
    size = np.array([20.0, 60.0, 180.0])[rng.permutation(np.arange(n) % 3)]
    X = size[:, None] * np.exp(rng.normal(0.0, 0.3, (n, 3)))
    log_frontier = np.zeros((n, 2))
    for k in range(3):  # in input order, no BLAS: the same bits on any CPU
        log_frontier += np.log(X[:, k, None]) * ELASTICITY[:, k]
    frontier = np.exp(log_frontier) * OUTPUT_SCALE
    efficiency = np.exp(-np.abs(rng.normal(0.0, 0.3, (n, 1))))
    mix = np.exp(rng.normal(0.0, 0.15, (n, 2)))
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
    with pytest.raises(IndexError, match="^DMU index 5 out of range$"):
        dea.ccr_efficiency(toy_dataset, 5)


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
        theta, _, _, tab = dea.ccr_efficiency(toy_dataset, d)
        u, v = dea.secondary_goal_weights(toy_dataset, d, groups, tab)
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
    # the simplex's rounding once put entry (37, 7) of the first dataset
    # 6.8e-9 above 1, and a tie-break weight of the second at -1.2e-7;
    # the weights are read off the final tableau with no refit
    ds = production_dataset(seed)
    groups = dea.cluster_groups(ds, 3)
    M = dea.cross_efficiency_matrix(ds, groups)
    assert M.values.max() <= 1.0 + 1e-12
    for d in range(ds.n):
        u, v = dea.secondary_goal_weights(ds, d, groups, dea.ccr_efficiency(ds, d)[3])
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


def one_evaluator_at_a_time(ds, groups):
    """ccr_all's fields and the matrix, built evaluator by evaluator through
    ``ccr_efficiency`` and ``secondary_goal_weights`` (stacks of one LP)."""
    solves = [dea.ccr_efficiency(ds, d) for d in range(ds.n)]
    theta = np.array([t for t, _, _, _ in solves])
    E = np.vstack([one_row(ds, d, *dea.secondary_goal_weights(ds, d, groups, tab))
                   for d, (_, _, _, tab) in enumerate(solves)])
    E[np.diag_indices(ds.n)] = theta
    E[(E > 1.0) & (E <= 1.0 + 1e-12)] = 1.0
    return theta, np.vstack([u for _, u, _, _ in solves]), np.vstack([v for _, _, v, _ in solves]), E


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
            dea.secondary_goal_weights(ds, d, groups, dea.ccr_efficiency(ds, d)[3])
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
            dea.secondary_goal_weights(ds, d, groups, dea.ccr_efficiency(ds, d)[3])
    u, v = dea.secondary_goal_weights(ds, 0, groups, dea.ccr_efficiency(ds, 0)[3])
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
            theta, _, _, tab = dea.ccr_efficiency(ds, d)
            u, v = dea.secondary_goal_weights(ds, d, groups, tab)
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


def test_group_assignment_size_checked(toy_dataset):
    with pytest.raises(ValidationError, match="^group assignment does not match dataset size$"):
        dea.cross_efficiency_matrix(toy_dataset, GroupAssignment(groups=np.array([1, 1]), H=1))


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
