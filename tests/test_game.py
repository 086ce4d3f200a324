"""Coalition bounds, worths, the share formulas, and their oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from revalloc import _kernels
from revalloc.dataset import CrossEfficiencyMatrix
from revalloc.game import (
    DegenerateDenominatorError,
    build_coalition_table,
    coalition_weights,
    shapley_triples,
)

import naive_oracles


def random_matrix(rng, n, low=0.05):
    E = rng.uniform(low, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    return E


# ------------------------------------------------------------------- bounds

def test_worked_example_bounds(toy_matrix):
    # members 1..3 of the toy case receive the (upper, lower) bounds
    # (0.89, 0.58), (0.46, 0.43) and (0.40, 0.25)
    table = build_coalition_table(toy_matrix)
    assert abs(table.sum_upper[0b111] - 1.75) < 1e-12
    assert abs(table.sum_lower[0b111] - 1.26) < 1e-12


def test_singleton_bounds_are_one(toy_matrix):
    table = build_coalition_table(toy_matrix)
    for j in range(5):
        assert table.sum_upper[1 << j] == table.sum_lower[1 << j] == 1.0


def test_characteristic_worked_example(toy_matrix):
    table = build_coalition_table(toy_matrix)
    assert table.sum_upper[0b00100] == 1.0
    assert table.sum_upper[0] == table.sum_lower[0] == 0.0


# ------------------------------------------------------------ coalition table

def test_table_matches_naive_on_all_toy_masks(toy_matrix):
    table = build_coalition_table(toy_matrix)
    E = toy_matrix.values
    for mask in range(1, 1 << 5):
        coalition = {j for j in range(5) if mask >> j & 1}
        assert abs(table.sum_upper[mask]
                   - naive_oracles.coalition_worth(E, coalition)) < 1e-12
        assert abs(table.sum_lower[mask]
                   - naive_oracles.coalition_lower_total(E, coalition)) < 1e-12


def test_table_matches_naive_on_random_bank_masks(bank_matrix):
    table = build_coalition_table(bank_matrix)
    E = bank_matrix.values
    rng = np.random.default_rng(99)
    masks = rng.integers(1, 1 << 18, size=1000)
    for mask in masks:
        mask = int(mask)
        coalition = {j for j in range(18) if mask >> j & 1}
        assert abs(table.sum_upper[mask]
                   - naive_oracles.coalition_worth(E, coalition)) < 1e-9
        assert abs(table.sum_lower[mask]
                   - naive_oracles.coalition_lower_total(E, coalition)) < 1e-9


def test_table_sums_equal_member_bounds():
    # the table stores only the two sums per coalition; the members' bounds
    # must add up to them
    rng = np.random.default_rng(1)
    E = random_matrix(rng, 6)
    table = build_coalition_table(E)
    assert not hasattr(table, "bound_max")
    for mask in range(1, 1 << 6):
        coalition = {j for j in range(6) if mask >> j & 1}
        bounds = [naive_oracles.bounds_in_coalition(E, coalition, j) for j in coalition]
        assert abs(table.sum_upper[mask] - sum(u for u, _ in bounds)) <= 1e-12
        assert abs(table.sum_lower[mask] - sum(lo for _, lo in bounds)) <= 1e-12


def test_table_cap():
    with pytest.raises(ValueError, match="cap"):
        build_coalition_table(np.eye(25))


def test_single_dmu_table_and_shares():
    table = build_coalition_table(np.array([[1.0]]))
    assert table.sum_upper[1] == 1.0
    triple = shapley_triples(np.array([[1.0]]))
    assert triple.phi[0] == triple.phi_upper[0] == triple.phi_lower[0] == 1.0


def test_monotone_bounds_for_multi_member_coalitions():
    # growing a coalition can only raise a member's max and lower its min,
    # as long as the member is never alone (the lone-member value is pinned
    # to 1 by convention, which breaks monotonicity at that single step); so
    # without the joiner's own bounds the totals move the same way
    rng = np.random.default_rng(8)
    E = random_matrix(rng, 7)
    table = build_coalition_table(E)
    for _ in range(300):
        S = int(rng.integers(1, 1 << 7))
        extra = int(rng.integers(0, 7))
        if S >> extra & 1 or bin(S).count("1") < 2:
            continue
        T = S | (1 << extra)
        received = E[[d for d in range(7) if S >> d & 1], extra]
        assert table.sum_upper[S] <= table.sum_upper[T] - received.max() + 1e-12
        assert table.sum_lower[S] >= table.sum_lower[T] - received.min() - 1e-12


# ----------------------------------------------------------------- weights

def test_coalition_weights_match_factorials():
    import math

    for n in (1, 2, 5, 18, 24):
        w = coalition_weights(n)
        for s in range(n):
            exact = math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
            assert abs(w[s] - exact) < 1e-15
        # weights over all coalitions of the remaining n-1 players sum to 1
        total = sum(math.comb(n - 1, s) * w[s] for s in range(n))
        assert abs(total - 1.0) < 1e-12


# ------------------------------------------------------------------- shares

def test_two_player_symmetry_is_exact():
    for c in (0.3, 0.77, 1.0):
        E = np.array([[1.0, c], [c, 1.0]])
        triple = shapley_triples(E)
        assert triple.phi[0] == triple.phi[1]
        assert triple.phi_upper[0] == triple.phi_upper[1]
        assert triple.phi_lower[0] == triple.phi_lower[1]


def test_two_player_bounds_collapse():
    # a single evaluator makes max = min in every coalition
    rng = np.random.default_rng(3)
    for _ in range(20):
        E = random_matrix(rng, 2)
        triple = shapley_triples(E)
        assert (triple.phi_upper == triple.phi).all()
        assert (triple.phi_lower == triple.phi).all()


@pytest.mark.parametrize("include_empty, block_bits", [
    pytest.param(False, None, id="False"),
    pytest.param(True, None, id="True"),
    # 2-bit share blocks: n = 4..9 spans 2-64 blocks, and the player bit
    # falls both below and above the block
    pytest.param(False, 2, id="False-2bit"),
    pytest.param(True, 2, id="True-2bit"),
])
def test_matches_naive_enumeration(include_empty, block_bits, monkeypatch):
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
        # the same halves, with no helper forked per small game
        monkeypatch.setattr(_kernels, "_forks", lambda nblocks: False)
    rng = np.random.default_rng(17)
    convention = "unit" if include_empty else "exclude"
    for n in range(1, 10):
        E = random_matrix(rng, n)
        triple = shapley_triples(E, empty_coalition=convention)
        # a lone DMU's share is 1 under either convention; the oracle's
        # exclude sum over coalitions is empty there
        lo, mid, up = naive_oracles.shapley_triple(E, include_empty=include_empty or n == 1)
        assert_allclose(triple.phi, mid, rtol=0, atol=1e-12)
        assert_allclose(triple.phi_upper, up, rtol=0, atol=1e-12)
        assert_allclose(triple.phi_lower, lo, rtol=0, atol=1e-12)


def test_toy_fixture_matches_naive(toy_matrix):
    triple = shapley_triples(toy_matrix)
    lo, mid, up = naive_oracles.shapley_triple(toy_matrix.values)
    assert_allclose(triple.phi, mid, rtol=0, atol=1e-12)
    assert_allclose(triple.phi_upper, up, rtol=0, atol=1e-12)
    assert_allclose(triple.phi_lower, lo, rtol=0, atol=1e-12)


def test_unit_convention_adds_first_weight_exactly():
    rng = np.random.default_rng(23)
    E = random_matrix(rng, 5)
    w0 = coalition_weights(5)[0]
    a = shapley_triples(E, empty_coalition="exclude")
    b = shapley_triples(E, empty_coalition="unit")
    assert_allclose(b.phi - a.phi, w0, rtol=0, atol=1e-15)
    assert_allclose(b.phi_upper - a.phi_upper, w0, rtol=0, atol=1e-15)
    assert_allclose(b.phi_lower - a.phi_lower, w0, rtol=0, atol=1e-15)


def test_unknown_convention_rejected(toy_matrix):
    with pytest.raises(ValueError, match="empty_coalition"):
        shapley_triples(toy_matrix, empty_coalition="bogus")


def test_ordering_holds_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        triple = shapley_triples(random_matrix(rng, n))
        assert (triple.phi_lower <= triple.phi + 1e-9).all()
        assert (triple.phi <= triple.phi_upper + 1e-9).all()


def test_positivity_on_positive_matrices():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        triple = shapley_triples(random_matrix(rng, n))
        assert (triple.phi > 0).all()
        assert (triple.phi_upper > 0).all()
        assert (triple.phi_lower > 0).all()


def test_central_denominators_bounded_below_by_coalition_size():
    # for |S| >= 2 the member maxima can only grow when a player joins, so
    # the central denominator is at least s; |S| = 1 gives the joiner's score
    rng = np.random.default_rng(41)
    E = random_matrix(rng, 6)
    table = build_coalition_table(E)
    for i in range(6):
        for S in range(1, 1 << 6):
            if S >> i & 1:
                continue
            s = bin(S).count("1")
            T = S | (1 << i)
            eU = E[[d for d in range(6) if S >> d & 1], i].max()
            den = s + (table.sum_upper[T] - eU) - table.sum_upper[S]
            if s >= 2:
                assert den >= s - 1e-12
            else:
                j = S.bit_length() - 1
                assert abs(den - E[i, j]) < 1e-12


def test_superadditive_for_multi_member_coalitions():
    # worth is superadditive when both sides have at least two members;
    # lone members are pinned to worth 1, which can exceed what they add
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(4, 7))
        worth = build_coalition_table(random_matrix(rng, n)).sum_upper
        for S1 in range(1, 1 << n):
            if bin(S1).count("1") < 2:
                continue
            for S2 in range(1, 1 << n):
                if S1 & S2 or bin(S2).count("1") < 2:
                    continue
                assert worth[S1 | S2] >= worth[S1] + worth[S2] - 1e-9


def test_singleton_pair_breaks_superadditivity():
    # documented counterexample: two lone DMUs are worth 1 each, but the
    # pair is worth only the two mutual appraisals
    worth = build_coalition_table(np.array([[1.0, 0.5], [0.5, 1.0]])).sum_upper
    assert worth[0b11] == 1.0
    assert worth[0b11] < worth[0b01] + worth[0b10]


def test_degenerate_denominator_raises_with_location():
    E = np.array([
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1e-10, 1e-10, 1.0],
    ])
    with pytest.raises(DegenerateDenominatorError) as info:
        shapley_triples(E)
    err = info.value
    assert 0 <= err.player < 3
    assert err.mask >= 1
    assert str(err.player) in str(err)
    assert "coalition" in str(err)


def test_degenerate_denominator_names_the_dmus_of_a_named_matrix():
    E = CrossEfficiencyMatrix(names=["A", "B", "C"], values=[
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1e-10, 1e-10, 1.0],
    ])
    with pytest.raises(DegenerateDenominatorError,
                       match=r"for DMU C \(index 2\) joining coalition \{A\} \(mask 1\)$"):
        shapley_triples(E)


@pytest.mark.parametrize("entry", [-0.5, 1.5, 1 + 2e-9])
def test_scores_outside_the_unit_interval_rejected(entry):
    # a negative entry used to surface as a misleading degenerate denominator
    E = np.array([[1.0, entry], [0.5, 1.0]])
    for call in (shapley_triples, build_coalition_table):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            call(E)


def test_shapley_shares_sum_near_relative_worth(bank_matrix):
    # sanity: shares are positive and comparable in scale to worth ratios
    triple = shapley_triples(bank_matrix)
    assert triple.phi.sum() > 1.0
    assert triple.phi.max() / triple.phi.min() < 10
