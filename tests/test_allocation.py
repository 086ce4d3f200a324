"""Allocation arithmetic: proportional split, brackets, and invariants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from revalloc.allocation import AllocationError, allocate
from revalloc.dataset import ParseError, ValidationError
from revalloc.game import ShapleyTriple, include_empty_coalition, shapley_triples


def triple_of(lo, mid, up):
    return ShapleyTriple(
        phi_lower=np.asarray(lo, float),
        phi=np.asarray(mid, float),
        phi_upper=np.asarray(up, float),
    )


def random_triple(rng, n):
    lo = rng.uniform(0.05, 0.5, n)
    mid = lo + rng.uniform(0, 0.5, n)
    up = mid + rng.uniform(0, 0.5, n)
    return triple_of(lo, mid, up)


def test_central_split_is_proportional():
    tri = triple_of([1, 1, 1], [1, 2, 3], [4, 4, 4])
    plan = allocate(tri, 600.0)
    assert_allclose(plan.central, [100, 200, 300], rtol=0, atol=1e-9)
    assert_allclose(plan.shares.sum(), 1.0, rtol=0, atol=1e-12)


def test_central_sums_to_revenue(bank_matrix):
    plan = allocate(shapley_triples(bank_matrix), 2900.0)
    assert abs(plan.central.sum() - 2900.0) <= 1e-6 * 2900.0


def test_equal_shares_split_evenly():
    tri = triple_of([1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3])
    plan = allocate(tri, 1000.0)
    assert (plan.central == 250.0).all()


def test_single_dmu_gets_everything():
    tri = triple_of([0.4], [0.7], [0.9])
    plan = allocate(tri, 123.0)
    assert plan.central[0] == 123.0
    assert plan.upper[0] == 123.0
    assert plan.lower[0] == 123.0


def test_collapsed_bounds_match_central():
    rng = np.random.default_rng(15)
    mid = rng.uniform(0.1, 1.0, 6)
    tri = triple_of(mid, mid, mid)
    plan = allocate(tri, 500.0)
    assert_allclose(plan.upper, plan.central, rtol=1e-12, atol=0)
    assert_allclose(plan.lower, plan.central, rtol=1e-12, atol=0)


def test_scale_equivariance_in_revenue():
    rng = np.random.default_rng(19)
    tri = random_triple(rng, 5)
    base = allocate(tri, 100.0)
    for c in (2.0, 0.5, 7.3):
        scaled = allocate(tri, 100.0 * c)
        assert_allclose(scaled.central, c * base.central, rtol=1e-14, atol=0)
        assert_allclose(scaled.upper, c * base.upper, rtol=1e-14, atol=0)
        assert_allclose(scaled.lower, c * base.lower, rtol=1e-14, atol=0)


def test_share_invariance_under_uniform_scaling():
    rng = np.random.default_rng(21)
    tri = random_triple(rng, 6)
    R = 1234.5
    base = allocate(tri, R)
    for lam in (0.25, 3.0, 1e3):
        scaled = triple_of(lam * tri.phi_lower, lam * tri.phi, lam * tri.phi_upper)
        plan = allocate(scaled, R)
        assert_allclose(plan.central, base.central, rtol=0, atol=1e-9 * R)
        assert_allclose(plan.upper, base.upper, rtol=0, atol=1e-9 * R)
        assert_allclose(plan.lower, base.lower, rtol=0, atol=1e-9 * R)


def test_envelope_on_random_triples():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        tri = random_triple(rng, n)
        R = float(rng.uniform(1, 1e6))
        plan = allocate(tri, R)
        assert (plan.lower <= plan.central + 1e-9 * R).all()
        assert (plan.central <= plan.upper + 1e-9 * R).all()
        assert plan.lower.sum() <= R + 1e-6 * R
        assert plan.upper.sum() >= R - 1e-6 * R


def test_bracket_arithmetic_from_rounded_bank_triples():
    # spot-check the bracket formulas on the bank case's 2-decimal triples
    from conftest import BANK_REF_PHI, BANK_REF_PHI_LOWER, BANK_REF_PHI_UPPER

    tri = triple_of(BANK_REF_PHI_LOWER, BANK_REF_PHI, BANK_REF_PHI_UPPER)
    plan = allocate(tri, 2900.0)
    up, lo = plan.upper, plan.lower
    # DMU_1: 2900 * 0.24 / (0.24 + 1.68) and 2900 * 0.08 / (0.08 + 3.96)
    assert abs(up[0] - 2900 * 0.24 / 1.92) < 1e-9
    assert abs(lo[0] - 2900 * 0.08 / 4.04) < 1e-9


def test_rejects_bad_revenue():
    tri = triple_of([0.1], [0.2], [0.3])
    for bad in (0.0, -5.0, float("nan")):
        with pytest.raises(AllocationError, match="revenue"):
            allocate(tri, bad)
    for bad, message in (("5", "revenue must be a number, got '5'"),
                         (None, "revenue must be a number, got None")):
        with pytest.raises(AllocationError) as err:
            allocate(tri, bad)
        assert str(err.value) == message


def test_share_rows_may_be_lists():
    rows = [0.1, 0.25], [0.2, 0.3], [0.3, 0.45]
    plan = allocate(ShapleyTriple(*rows), 5.0)
    expected = allocate(triple_of(*rows), 5.0)
    for field in ("central", "upper", "lower", "shares"):
        assert getattr(plan, field).tobytes() == getattr(expected, field).tobytes()


@pytest.mark.parametrize("rows", [
    ([0.1, 0.1], ["a", 0.2], [0.3, 0.3]),
    ([0.1, 0.1], [0.2, 0.2], [{}, 0.3]),
])
def test_rejects_shares_that_are_no_numbers(rows):
    with pytest.raises(ParseError) as err:
        ShapleyTriple(*rows)
    assert str(err.value) == "shares must be numbers"


def test_list_rows_make_a_triple_of_float_vectors():
    tri = ShapleyTriple([0.1, 0.2], [0.2, 0.3], [0.3, 0.4])
    assert tri.n == 2
    assert tri.phi.dtype == float and tri.phi.shape == (2,)
    assert include_empty_coalition(tri).phi.tolist() == [0.7, 0.8]
    assert allocate(tri, 5.0).central.tolist() == [2.0, 3.0]


def test_rejects_nonpositive_shares():
    with pytest.raises(AllocationError, match="positive"):
        allocate(triple_of([0.0, 0.1], [0.1, 0.2], [0.2, 0.3]), 10.0)
    with pytest.raises(AllocationError, match="positive"):
        allocate(triple_of([0.1, 0.1], [-0.1, 0.2], [0.2, 0.3]), 10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_nonfinite_shares(bad):
    for row in range(3):
        rows = [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]
        rows[row][1] = bad
        with pytest.raises(AllocationError, match="finite"):
            allocate(triple_of(*rows), 10.0)


@pytest.mark.parametrize("rows", [
    ([0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3]),
    ([0.1], [0.2, 0.2], [0.3, 0.3]),     # one entry would broadcast
    ([0.1, 0.1], [0.2, 0.2], [[0.3, 0.3]]),
])
def test_rejects_share_rows_of_unequal_shape(rows):
    shapes = ", ".join(str(np.shape(row)) for row in rows)
    with pytest.raises(ValidationError) as err:
        ShapleyTriple(*rows)
    assert str(err.value) == f"share rows must be vectors of one length, got shapes {shapes}"


def test_rejects_a_name_count_that_does_not_match_the_shares():
    tri = triple_of([0.1, 0.1], [0.2, 0.2], [0.3, 0.3])
    for names in (["A"], ["A", "B", "C"]):
        with pytest.raises(AllocationError, match=f"{len(names)} names for 2 DMUs"):
            allocate(tri, 10.0, names=names)


def test_rejects_disordered_triples():
    with pytest.raises(AllocationError, match="lower <= central <= upper"):
        allocate(triple_of([0.5, 0.1], [0.2, 0.2], [0.6, 0.3]), 10.0)
