"""The coalition kernel against brute-force scans of the coalition game."""

import errno
import os
import signal
import time
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
    include_empty_coalition,
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
    """``shapley_triples`` on E, under ``convention``; for a matrix with
    entries above 1, which it refuses, the kernel pass it would run, raising
    as it would."""
    if E.max() <= 1.0:
        triple = shapley_triples(E)
        return include_empty_coalition(triple) if convention == "unit" else triple
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        shapley_triples(E)
    *shares, bad_i, bad_mask = _kernels.shapley_sums(E, coalition_weights(len(E)), DENOM_TOL)
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
        # the same halves, with no helper forked per small game
        monkeypatch.setattr(_kernels, "_forks", lambda nblocks: False)
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


def test_table_holds_only_the_two_sums(forks):
    n = 16
    rng = np.random.default_rng(61)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    started = forks(True)
    table = build_coalition_table(E)
    assert started == []   # the table runs in the calling process
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
    # the game works in 2^_BLOCK_BITS-entry blocks and keeps its sums and
    # share parts in shared mappings, so at n = 20 its peak stays below one
    # 2^19-entry float64 buffer
    n = 20
    rng = np.random.default_rng(67)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    weights = coalition_weights(n)
    tracemalloc.start()
    try:
        bad_player = _kernels.shapley_sums(E, weights, DENOM_TOL)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad_player == -1
    assert peak < (1 << 19) * 8, f"peak {peak / 2**20:.1f} MiB"


def test_table_pass_holds_only_the_sums_and_block_buffers():
    # coalition_sums walks each column in 2^_BLOCK_BITS-entry blocks and keeps
    # the two length-2^n sums in a shared mapping, which tracemalloc does not
    # see, so at n = 20 its traced peak is the block buffers alone
    n = 20
    rng = np.random.default_rng(71)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    tracemalloc.start()
    try:
        sums = _kernels.coalition_sums(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"
    for a in sums:
        assert a.dtype == np.float64 and a.shape == (1 << n,)


# ------------------------------------------------------- the forked helper

def test_forks_needs_two_blocks_two_cpus_and_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _kernels._forks(2)
    assert not _kernels._forks(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not _kernels._forks(2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not _kernels._forks(2)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_game(n, seed):
    rng = np.random.default_rng(seed)
    E = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(E, 1.0)
    return E


def kernel_passes(E):
    """Both kernel passes on E: the table alone, here, for the two sums, then
    the whole game for the shares and offender."""
    sums = _kernels.coalition_sums(E)
    assert_no_child_left()
    shares = _kernels.shapley_sums(E, coalition_weights(len(E)), DENOM_TOL)
    assert_no_child_left()
    return sums, shares


@pytest.fixture
def forks(monkeypatch):
    """``forks(flag)`` makes every game fork a helper (True) or not (False);
    the returned list counts the helpers started."""
    started = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def force(flag):
        monkeypatch.setattr(_kernels, "_forks", lambda nblocks: flag)
        return started
    return force


@pytest.mark.parametrize("n, block_bits", [
    *[pytest.param(n, None, id=f"n{n}") for n in (16, 18, 20)],
    # 2-bit blocks: 2 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
])
def test_split_passes_give_the_same_bits(n, block_bits, forks, monkeypatch):
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    E = random_game(n, 80 + n)
    started = forks(False)
    (su, sl), shares = kernel_passes(E)
    assert started == []
    forks(True)
    su2, sl2 = _kernels.coalition_sums(E)
    assert started == []   # the table alone runs here
    shares2 = _kernels.shapley_sums(E, coalition_weights(n), DENOM_TOL)
    assert len(started) == 1   # one helper per game
    assert_no_child_left()
    assert np.array_equal(su, su2) and np.array_equal(sl, sl2)
    for a, b in zip(shares[:3], shares2[:3]):
        assert np.array_equal(a, b)
    assert shares[3:] == shares2[3:] == (-1, -1)


def side_of(player, mask, n):
    """The side whose blocks hold ``player``'s term for joining ``mask``:
    the top block bit is mask bit n - 1, or n - 2 for player n - 1."""
    return "helper" if mask >> (n - 1 - (player == n - 1)) & 1 else "caller"


@pytest.mark.parametrize("zeros, expected, side", [
    pytest.param([(2, 1)], (2, 0b10), "caller", id="caller-only"),
    pytest.param([(1, 5)], (1, 0b100000), "helper", id="helper-only"),
    pytest.param([(3, 5), (3, 0)], (3, 0b1), "caller", id="both-caller-first"),
    pytest.param([(5, 1)], (5, 0b10), "caller", id="last-player-caller"),
    pytest.param([(5, 4)], (5, 0b10000), "helper", id="last-player-helper"),
])
def test_split_shares_report_the_first_offender(zeros, expected, side, forks, monkeypatch):
    # E[i, d] = 0 sends player i's term for joining {d} to 0; 2-bit blocks
    # give 8 blocks per column at n = 6
    monkeypatch.setattr(_kernels, "_BLOCK_BITS", 2)
    n = 6
    E = random_game(n, 91)
    for i, d in zeros:
        E[i, d] = 0.0
    assert first_degenerate_term(E) == expected
    assert side_of(*expected, n) == side
    for flag in (False, True):
        started = forks(flag)
        with pytest.raises(DegenerateDenominatorError) as err:
            shapley_triples(E)
        assert (err.value.player, err.value.mask) == expected
        assert_no_child_left()
    assert len(started) == 1


@pytest.mark.parametrize("slow", ["caller", "helper"])
def test_shares_wait_for_the_other_table(slow, forks, monkeypatch):
    # player n - 1 reads both sides' sums: with one side's table stage
    # delayed, the other must wait at the barrier, not read zeros
    E = random_game(16, 93)
    forks(False)
    expected = _kernels.shapley_sums(E, coalition_weights(16), DENOM_TOL)
    started = forks(True)
    parent, real = os.getpid(), _kernels._add_columns

    def delayed(*args):
        if (os.getpid() == parent) == (slow == "caller"):
            time.sleep(0.3)
        return real(*args)
    monkeypatch.setattr(_kernels, "_add_columns", delayed)
    shares = _kernels.shapley_sums(E, coalition_weights(16), DENOM_TOL)
    assert len(started) == 1
    for a, b in zip(shares[:3], expected[:3]):
        assert np.array_equal(a, b)
    assert shares[3:] == expected[3:] == (-1, -1)


def test_failed_fork_runs_both_halves_here(forks, monkeypatch):
    E = random_game(16, 95)
    forks(False)
    expected = kernel_passes(E)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    forks(True)
    monkeypatch.setattr(os, "fork", no_fork)
    (su, sl), shares = kernel_passes(E)
    assert np.array_equal(su, expected[0][0]) and np.array_equal(sl, expected[0][1])
    for a, b in zip(shares[:3], expected[1][:3]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("failing_call", [1, 2])
def test_failed_pipe_runs_both_halves_here(failing_call, forks, monkeypatch):
    # out of descriptors at either pipe: the one made is closed again (the
    # autouse fixture sees none left) and no helper is forked
    E = random_game(16, 94)
    forks(False)
    expected = _kernels.shapley_sums(E, coalition_weights(16), DENOM_TOL)
    started = forks(True)
    calls, real_pipe = [], os.pipe

    def pipe():
        calls.append(1)
        if len(calls) == failing_call:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()
    monkeypatch.setattr(os, "pipe", pipe)
    shares = _kernels.shapley_sums(E, coalition_weights(16), DENOM_TOL)
    assert len(calls) == failing_call and started == []
    for a, b in zip(shares[:3], expected[:3]):
        assert np.array_equal(a, b)
    assert shares[3:] == expected[3:] == (-1, -1)


def test_unmappable_sums_are_out_of_memory(monkeypatch):
    # a failed mapping is no I/O fault: the CLI would report exit 2
    def no_memory(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(_kernels.mmap, "mmap", no_memory)
    with pytest.raises(MemoryError, match="for 16 players"):
        _kernels.coalition_sums(random_game(16, 96))


def in_helper_only(monkeypatch, owner, name, action):
    """Wrap ``owner.<name>`` so that it runs ``action()`` first in a helper."""
    parent, real = os.getpid(), getattr(owner, name)

    def wrapped(*args):
        if os.getpid() != parent:
            action()
        return real(*args)
    monkeypatch.setattr(owner, name, wrapped)


def fail():
    raise ValueError("helper fault")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


BARRIER_WAIT = 0.5


def killed_later():
    time.sleep(BARRIER_WAIT)   # the caller reaches the barrier meanwhile
    killed()


@pytest.mark.parametrize("owner, name, action, status", [
    pytest.param(_kernels, "_add_columns", fail, 1, id="table-raises"),
    pytest.param(_kernels, "_player_sums", fail, 1, id="shares-raise"),
    # exits cleanly before its side is done: the unset done flag alone is
    # the fault
    pytest.param(_kernels, "_add_columns", lambda: os._exit(0), 0, id="table-early-exit"),
    pytest.param(_kernels, "_player_sums", lambda: os._exit(0), 0, id="shares-early-exit"),
    pytest.param(_kernels, "_add_columns", killed, -signal.SIGKILL, id="table-killed"),
    pytest.param(_kernels, "_player_sums", killed, -signal.SIGKILL, id="shares-killed"),
    # the helper's one os.write is its barrier byte: it dies in its place,
    # and the caller reads EOF at the barrier
    pytest.param(os, "write", lambda: os._exit(0), 0, id="barrier-early-exit"),
    pytest.param(os, "write", killed_later, -signal.SIGKILL, id="barrier-killed"),
])
def test_helper_fault_raises_after_reaping(owner, name, action, status, forks, monkeypatch):
    E = random_game(16, 97)
    forks(True)
    in_helper_only(monkeypatch, owner, name, action)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"exit status {status} "):
        kernel_passes(E)
    if action is killed_later:   # the caller waited for the helper's byte
        assert time.monotonic() - start >= BARRIER_WAIT
    assert_no_child_left()


@pytest.mark.parametrize("name", ["_add_columns", "_player_sums"])
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_fault_kills_the_helper(name, error, forks, monkeypatch):
    E = random_game(16, 99)
    forks(True)
    parent, real = os.getpid(), getattr(_kernels, name)

    def wrapped(*args):
        if os.getpid() == parent:
            raise error
        time.sleep(60)   # a helper left running would hold the test here
        return real(*args)
    monkeypatch.setattr(_kernels, name, wrapped)
    start = time.monotonic()
    with pytest.raises(error):
        _kernels.shapley_sums(E, coalition_weights(len(E)), DENOM_TOL)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("n, block_bits", [
    *[pytest.param(n, None, id=f"n{n}") for n in range(16, 22)],
    # 2-bit blocks: 4 to 128 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
])
def test_sides_split_every_player_block_once(n, block_bits, forks, monkeypatch):
    # recorded, not run: with no helper the caller runs table A, table B,
    # shares A, shares B, side A being the caller's and side B the helper's
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    started = forks(False)
    table_calls, share_calls = [], []

    def add_columns(E, sum_upper, sum_lower, bits, block_ranges):
        table_calls.append([list(hs) for hs in block_ranges])

    def player_sums(E, sum_upper, sum_lower, weights, tol, players, hs, parts):
        share_calls.append((list(players), list(hs)))
        return -1, -1
    monkeypatch.setattr(_kernels, "_add_columns", add_columns)
    monkeypatch.setattr(_kernels, "_player_sums", player_sums)
    _kernels.shapley_sums(random_game(n, 100 + n), coalition_weights(n), DENOM_TOL)
    assert started == []
    nblocks = 1 << (n - 1 - min(_kernels._BLOCK_BITS, n - 1))
    every = sorted((i, h) for i in range(n) for h in range(nblocks))
    # the table: side A, then side B, each column's blocks once
    assert len(table_calls) == 2
    assert sorted((j, h) for call in table_calls for j, hs in enumerate(call)
                  for h in hs) == every
    # the shares: one call per side, behind the barrier, for every player
    assert [players for players, _ in share_calls] == [list(range(n))] * 2
    covered = [(i, h) for players, hs in share_calls for i in players for h in hs]
    assert sorted(covered) == every
    per_side = [len(players) * len(hs) for players, hs in share_calls]
    assert per_side[0] == per_side[1] == n * nblocks // 2
    # each side's shares walk the block half its table wrote, so players
    # 0..n - 2 read only that half of the sums
    for k in (0, 1):
        assert share_calls[k][1] == table_calls[k][0]
