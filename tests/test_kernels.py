"""The coalition kernel against brute-force scans of the coalition game."""

import tracemalloc

import numpy as np
import pytest

import naive_oracles
from revalloc import _kernels
from revalloc.game import (
    DENOM_TOL,
    DegenerateDenominatorError,
    build_coalition_table,
    coalition_weights,
    shapley_triples,
)


def first_degenerate_term(E):
    """(player, mask) of the first term denominator <= DENOM_TOL, scanning
    players and then masks in ascending order; None when there is none."""
    n = len(E)
    for i in range(n):
        for mask in range(1, 1 << n):
            if mask >> i & 1:
                continue
            S = {d for d in range(n) if mask >> d & 1}
            T = S | {i}
            up_T = sum(naive_oracles.bounds_in_coalition(E, T, j)[0] for j in S)
            lo_T = sum(naive_oracles.bounds_in_coalition(E, T, j)[1] for j in S)
            up_S = naive_oracles.coalition_worth(E, S)
            lo_S = naive_oracles.coalition_lower_total(E, S)
            s = len(S)
            if min(s + up_T - up_S, s + lo_T - up_S, s + up_T - lo_S) <= DENOM_TOL:
                return i, mask
    return None


@pytest.mark.parametrize("block_bits", [
    pytest.param(None, id="default"),
    # 2-bit blocks: n = 1..3 is one block, and from n = 4 column j lies below,
    # at or above the block bits
    pytest.param(2, id="2bit"),
])
def test_numpy_tables_match_slim_sums(block_bits, monkeypatch):
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    # dense n x 2^n member tables, summed member by member in ascending
    # order, give the same bits as the blocked column kernel
    rng = np.random.default_rng(2)
    for n in range(1, 8):
        E = rng.uniform(0.05, 1.0, (n, n))
        np.fill_diagonal(E, 1.0)
        bound_max = np.zeros((n, 1 << n))
        bound_min = np.zeros((n, 1 << n))
        for mask in range(1, 1 << n):
            members = [d for d in range(n) if mask >> d & 1]
            for j in members:
                others = [d for d in members if d != j]
                if others:
                    bound_max[j, mask] = E[others, j].max()
                    bound_min[j, mask] = E[others, j].min()
        su, sl = np.zeros(1 << n), np.zeros(1 << n)
        for j in range(n):
            su += bound_max[j]
            sl += bound_min[j]
        su[1 << np.arange(n)] = 1.0
        sl[1 << np.arange(n)] = 1.0
        su2, sl2 = _kernels.coalition_sums(E)
        assert (su == su2).all()
        assert (sl == sl2).all()


def game_shares(E, convention):
    """``shapley_triples`` on E; for a matrix with entries above 1, which it
    refuses, the kernel pass it would run, raising as it would."""
    if E.max() <= 1.0:
        return shapley_triples(E, empty_coalition=convention)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        shapley_triples(E, empty_coalition=convention)
    sum_upper, sum_lower = _kernels.coalition_sums(E)
    *shares, bad_i, bad_mask = _kernels.shapley_sums(
        E, sum_upper, sum_lower, coalition_weights(len(E)), DENOM_TOL)
    if bad_i >= 0:
        raise DegenerateDenominatorError(int(bad_i), int(bad_mask))
    return shares


@pytest.mark.parametrize("convention, block_bits", [
    pytest.param("exclude", None, id="exclude"),
    pytest.param("unit", None, id="unit"),
    # 2-bit share blocks: n = 4..7 spans 2-16 blocks per player
    pytest.param("exclude", 2, id="exclude-2bit"),
    pytest.param("unit", 2, id="unit-2bit"),
])
def test_degenerate_location_is_first_offender(convention, block_bits, monkeypatch):
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    # entries from a small set, so no denominator lands near the tolerance:
    # zeros and 1e-10 make |S| = 1 terms vanish, and entries above 1 drive
    # |S| >= 2 terms negative in the kernel (the game refuses such entries)
    rng = np.random.default_rng(52)
    levels = np.array([0.0, 1e-10, 0.25, 0.5, 1.0, 3.0])
    raised = 0
    for _ in range(150):
        n = int(rng.integers(2, 8))
        E = rng.choice(levels, size=(n, n), p=[0.03, 0.03, 0.3, 0.3, 0.24, 0.1])
        np.fill_diagonal(E, 1.0)
        expected = first_degenerate_term(E)
        try:
            game_shares(E, convention)
        except DegenerateDenominatorError as err:
            raised += 1
            assert (err.player, err.mask) == expected
        else:
            assert expected is None
    assert 50 < raised < 130  # both outcomes are exercised


def test_table_holds_only_the_two_sums():
    n = 16
    rng = np.random.default_rng(61)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    table = build_coalition_table(E)
    arrays = {k: v for k, v in vars(table).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["E", "sum_lower", "sum_upper"]
    assert table.sum_upper.shape == table.sum_lower.shape == (1 << n,)
    # the share kernel relies on this to leave den_lo unscanned
    assert (table.sum_lower <= table.sum_upper).all()
    for mask in [0, 1 << 7, (1 << n) - 1, *map(int, rng.integers(1, 1 << n, 50))]:
        coalition = {j for j in range(n) if mask >> j & 1}
        assert abs(table.sum_upper[mask] - naive_oracles.coalition_worth(E, coalition)) < 1e-12
        assert abs(table.sum_lower[mask]
                   - naive_oracles.coalition_lower_total(E, coalition)) < 1e-12


def test_shares_use_block_sized_buffers():
    # the share pass works in 2^_BLOCK_BITS-entry blocks, so at n = 20 its
    # peak stays below one 2^19-entry float64 buffer
    n = 20
    rng = np.random.default_rng(67)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    table = build_coalition_table(E)
    weights = coalition_weights(n)
    tracemalloc.start()
    try:
        bad_player = _kernels.shapley_sums(E, table.sum_upper, table.sum_lower,
                                           weights, DENOM_TOL)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad_player == -1
    assert peak < (1 << 19) * 8, f"peak {peak / 2**20:.1f} MiB"


def test_table_pass_holds_only_the_sums_and_block_buffers():
    # coalition_sums walks each column in 2^_BLOCK_BITS-entry blocks, so at
    # n = 20 its peak is the two length-2^n sums plus less than 1 MiB
    n = 20
    rng = np.random.default_rng(71)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    tracemalloc.start()
    try:
        _kernels.coalition_sums(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << n) * 8 + (1 << 20), f"peak {peak / 2**20:.1f} MiB"
