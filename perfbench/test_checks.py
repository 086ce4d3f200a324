"""The benchmark's own checks accept revalloc's answers and reject wrong ones.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import inputs  # noqa: E402
import naive_oracles  # noqa: E402
import revalloc  # noqa: E402

BANK = ROOT / "tests" / "data" / "bank_data.csv"


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("include_empty", [False, True])
def test_enumeration_matches_brute_force_oracle(n, include_empty):
    E = inputs.appraisal_matrix(n, n)
    got = checks.share_triple(E, include_empty)
    want = naive_oracles.shapley_triple(E, include_empty)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_share_check_rejects_a_share_off_by_1e6(which):
    E = inputs.appraisal_matrix(3, 9)
    triple = revalloc.shapley_triples(E)
    shares = [triple.phi_lower.copy(), triple.phi.copy(), triple.phi_upper.copy()]
    checks.check_shares(E, *shares)
    shares[which][4] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_shares(E, *shares)


def test_relabel_check_rejects_unpermuted_shares():
    E = inputs.appraisal_matrix(4, 7)
    perm = np.array([1, 0, 2, 3, 4, 5, 6])
    triple = revalloc.shapley_triples(E)
    shares = (triple.phi_lower, triple.phi, triple.phi_upper)
    moved = revalloc.shapley_triples(E[np.ix_(perm, perm)])
    checks.check_relabelled(shares, (moved.phi_lower, moved.phi, moved.phi_upper), perm)
    with pytest.raises(checks.CheckError):
        checks.check_relabelled(shares, shares, perm)


def _bank():
    _, X, Y = inputs.read_dataset(BANK)
    data = revalloc.load_dataset(BANK)
    groups = revalloc.cluster_groups(data, inputs.CLUSTERS)
    theta = revalloc.ccr_all(data).theta
    return X, Y, theta, revalloc.cross_efficiency_matrix(data, groups).values


def _worst_tiebreak_row(X, Y, d, theta_d, labels):
    """Appraisals from the weights that keep d's self-score but maximise the tie-break objective."""
    Xn, Yn = checks.normalized(X, Y)
    others = np.arange(len(Xn)) != d
    sign = np.where(labels == labels[d], 1.0, -1.0)[others]
    cost = np.concatenate([-(sign @ Yn[others]), sign @ Xn[others]])
    res = linprog(-cost, A_ub=np.hstack([Yn[others], -Xn[others]]), b_ub=np.zeros(len(Xn) - 1),
                  A_eq=[np.concatenate([Yn[d], -theta_d * Xn[d]]),
                        np.concatenate([np.zeros(Yn.shape[1]), Xn[d]])],
                  b_eq=[0.0, 1.0], method="highs")
    assert res.status == 0
    u, v = res.x[:Yn.shape[1]], res.x[Yn.shape[1]:]
    return (Yn @ u) / (Xn @ v), -res.fun


def test_matrix_check_accepts_the_bank_matrix():
    X, Y, theta, E = _bank()
    checks.check_matrix(X, Y, theta, E, checks.average_linkage_groups(X, Y, inputs.CLUSTERS))


def test_row_check_rejects_rows_from_non_optimal_weights():
    X, Y, theta, E = _bank()
    labels = checks.average_linkage_groups(X, Y, inputs.CLUSTERS)
    rejected = 0
    for d in range(len(E)):
        best = checks.tiebreak_optimum(X, Y, d, theta[d], labels)
        row, worst = _worst_tiebreak_row(X, Y, d, theta[d], labels)
        if worst - best < 1e-3:
            continue  # a unique optimum: every weight vector with the self-score is optimal
        with pytest.raises(checks.CheckError):
            checks.check_row(X, Y, d, theta[d], labels, row)
        rejected += 1
    assert rejected >= 5  # 7 of bank's 18 evaluators have more than one self-score weight


def test_matrix_check_rejects_a_wrong_diagonal():
    X, Y, theta, E = _bank()
    labels = checks.average_linkage_groups(X, Y, inputs.CLUSTERS)
    wrong = E.copy()
    wrong[2, 2] -= 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_matrix(X, Y, theta, wrong, labels)


def test_allocation_check_rejects_a_split_that_misses_the_revenue():
    E = inputs.appraisal_matrix(5, 8)
    triple = revalloc.shapley_triples(E)
    shares = (triple.phi_lower, triple.phi, triple.phi_upper)
    plan = revalloc.allocate(triple, 2900.0)
    checks.check_allocation(2900.0, shares, plan.lower, plan.central, plan.upper)
    central = plan.central.copy()
    central[0] += 2900.0 * 1e-6
    with pytest.raises(checks.CheckError, match="sum"):
        checks.check_allocation(2900.0, shares, plan.lower, central, plan.upper)
