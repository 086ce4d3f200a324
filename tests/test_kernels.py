"""The coalition kernel against brute-force scans of the coalition game."""

import errno
import mmap
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

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


def rss_shmem_kb():
    """This process's resident shared-memory pages, in kB (Linux)."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssShmem:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_released_pages_read_back_the_same_values():
    # a slice from mid page 64 to just past page 104 releases the 39 whole
    # pages 65..103 and nothing else; the data stays in the shared mapping
    page = mmap.PAGESIZE // 8   # float64 entries per page
    a = _kernels._shared(3, (2, 64 * page))
    a[:] = (np.arange(a.size) * 0.5 - 7.25).reshape(a.shape)
    a[0, 5] = -0.0
    expected = a.copy()
    before = rss_shmem_kb()
    _kernels._release(a[1, page // 2:40 * page + 3])
    assert before - rss_shmem_kb() == 39 * mmap.PAGESIZE // 1024
    _kernels._release(a[0, 1:page])   # less than one whole page: nothing
    assert before - rss_shmem_kb() == 39 * mmap.PAGESIZE // 1024
    assert a.tobytes() == expected.tobytes()
    assert rss_shmem_kb() == before   # the re-read mapped every page back


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
    # side A sums part 0 (mask bits 5 and 4 clear) before part 1 (bit 4
    # set): its first offender met is player 3's, in part 0, and the lower
    # player 1's comes later, in part 1
    pytest.param([(3, 0), (1, 4)], (1, 0b10000), "caller", id="caller-lower-player-later"),
])
def test_split_shares_report_the_first_offender(zeros, expected, side, forks, monkeypatch):
    # E[i, d] = 0 sends player i's term for joining {d} to 0; 2-bit blocks
    # give 8 blocks per column at n = 6: four parts, quarters of the sums
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


TABLE_DELAY = 0.3


@pytest.mark.parametrize("slow", ["caller", "helper"])
def test_shares_wait_for_the_other_table(slow, forks, monkeypatch):
    # player n - 1 alone reads the other side's sums: with one side's table
    # passes delayed, the other runs every pass but player n - 1's
    # meanwhile, then waits at the barrier rather than read zeros
    n = 19   # 16 blocks per column: eighths, four parts per side
    E = random_game(n, 93)
    forks(False)
    expected = _kernels.shapley_sums(E, coalition_weights(n), DENOM_TOL)
    started = forks(True)
    parent, table, shares = os.getpid(), _kernels._add_columns, _kernels._player_sums
    passes = []   # the caller's share passes: (players, seconds into the game)

    def delayed(*args):
        if (os.getpid() == parent) == (slow == "caller"):
            time.sleep(TABLE_DELAY / 4)   # each side adds its columns in four calls
        return table(*args)

    def timed(blocks, rows, tol, players, parts):
        if os.getpid() == parent:
            passes.append(([i for i, hs, _ in players if hs], time.monotonic() - start))
        return shares(blocks, rows, tol, players, parts)
    monkeypatch.setattr(_kernels, "_add_columns", delayed)
    monkeypatch.setattr(_kernels, "_player_sums", timed)
    start = time.monotonic()
    result = _kernels.shapley_sums(E, coalition_weights(n), DENOM_TOL)
    assert len(started) == 1
    for a, b in zip(result[:3], expected[:3]):
        assert np.array_equal(a, b)
    assert result[3:] == expected[3:] == (-1, -1)
    # parts 0..3: the low players of each, then top players n - 3 (bit 0 of
    # the part) and n - 2 (bit 1); player n - 1 after the barrier
    low = [*range(n - 3)]
    assert [players for players, _ in passes] == [
        low, low + [n - 3], low + [n - 2], low + [n - 3, n - 2], [n - 1]]
    if slow == "helper":
        assert passes[-2][1] < TABLE_DELAY <= passes[-1][1]


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


def expected_part_bits(nblocks):
    """k of the 2^k parts: at most 3, two blocks of each low column to a
    part where the count allows, and two parts from two blocks per column."""
    return {1: 0, 2: 1, 4: 1, 8: 2}.get(nblocks, 3)


def recorded_schedule(monkeypatch, add_columns, player_sums):
    """Patch the game's two passes with recorders, and run its sides in the
    order the caller runs them without a helper; returns ``side``, whose
    one entry names the side running."""
    side = [None]

    def in_halves(blocks, before, after):
        for run, k in ((before, 0), (before, 1), (after, 0), (after, 1)):
            side[0] = k
            run(k)
    monkeypatch.setattr(_kernels, "_in_halves", in_halves)
    monkeypatch.setattr(_kernels, "_add_columns", add_columns)
    monkeypatch.setattr(_kernels, "_player_sums", player_sums)
    return side


@pytest.mark.parametrize("n, block_bits", [
    *[pytest.param(n, None, id=f"n{n}") for n in range(15, 22)],
    # 2-bit blocks: 1 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(3, 10)],
])
def test_sides_split_every_player_block_once(n, block_bits, monkeypatch):
    # recorded, not run: (side, "table", block ranges per column) and (side,
    # "shares", (player, blocks) per player) in call order
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    calls = []

    def add_columns(blocks, block_ranges):
        calls.append((side[0], "table", [list(hs) for hs in block_ranges]))

    def player_sums(blocks, rows, tol, players, parts):
        calls.append((side[0], "shares", [(i, list(hs)) for i, hs, _ in players]))
        return -1, -1
    side = recorded_schedule(monkeypatch, add_columns, player_sums)
    _kernels.shapley_sums(random_game(n, 100 + n), coalition_weights(n), DENOM_TOL)
    nblocks = 1 << (n - 1 - min(_kernels._BLOCK_BITS, n - 1))
    every = sorted((i, h) for i in range(n) for h in range(nblocks))
    assert sorted((j, h) for _, kind, ranges in calls if kind == "table"
                  for j, hs in enumerate(ranges) for h in hs) == every
    assert sorted((i, h) for _, kind, players in calls if kind == "shares"
                  for i, hs in players for h in hs) == every
    # mask bits n - k..n - 1 cut the sums into 2^k parts.  A low column's
    # part p is its block range p, and a top column j = n - k + t adds into
    # the parts with bit t, its blocks for p (and p without t) being
    # range q of twice the length, q = p with bit t left out.  Side A
    # (0) takes the parts without bit n - 1 in ascending order, side B the
    # rest; each part's table, then one pass of every player but n - 1,
    # ascending (no blocks for a top player whose bit the part lacks).
    # Player n - 1 follows the barrier, over half of its blocks per side.
    k = expected_part_bits(nblocks)
    span = nblocks >> k

    def top_blocks(p, t):
        q = (p >> t + 1 << t) | (p & (1 << t) - 1)
        return list(range(q * 2 * span, (q + 1) * 2 * span)) if p >> t & 1 else []
    expected = []
    for p in range(1 << k):
        p_side, own = int(p >= 1 << k >> 1), list(range(p * span, (p + 1) * span))
        expected.append((p_side, "table", [own] * (n - k) + [top_blocks(p, t) for t in range(k)]))
        expected.append((p_side, "shares", [(i, own) for i in range(n - k)]
                         + [(n - k + t, top_blocks(p, t)) for t in range(k - 1)]))
    if k:
        half = nblocks // 2
        expected += [(0, "shares", [(n - 1, list(range(half)))]),
                     (1, "shares", [(n - 1, list(range(half, nblocks)))])]
    assert calls == expected


@pytest.mark.parametrize("n, block_bits", [
    # 2-bit blocks: 2 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
    # 1, 2, 4 and 16 blocks per column
    *[pytest.param(n, None, id=f"n{n}") for n in (15, 16, 17, 19)],
])
def test_every_mask_gets_its_columns_in_ascending_order(n, block_bits, monkeypatch):
    # recorded, not run: the S | {j} masks of every block added, in call
    # order, from the block layout itself (the sums replaced by the masks)
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    masks = np.arange(1 << n)
    last, count, writer = np.full(1 << n, -1), np.zeros(1 << n, int), np.full(1 << n, -1)
    parts = []   # the top k mask bits of each table call, with its side

    def add_columns(blocks, block_ranges):
        written = []
        for j, hs in enumerate(block_ranges):
            for h in hs:
                t = blocks._halves(masks, j, h)[1].ravel()
                assert (t >> j & 1).all() and (last[t] < j).all(), (j, h)
                assert np.isin(writer[t], (-1, side[0])).all()   # one side writes each mask
                last[t], writer[t] = j, side[0]
                count[t] += 1
                written.append(t)
        tops = np.unique(np.concatenate(written) >> n - blocks.part_bits)
        assert len(tops) == 1   # one part per call
        parts.append((side[0], int(tops[0])))
    side = recorded_schedule(monkeypatch, add_columns, lambda *args: (-1, -1))
    _kernels.shapley_sums(random_game(n, 103), coalition_weights(n), DENOM_TOL)
    popcount = np.array([bin(m).count("1") for m in range(1 << n)])
    assert np.array_equal(count, popcount)   # each member's column once
    nblocks = 1 << (n - 1 - min(_kernels._BLOCK_BITS, n - 1))
    k = expected_part_bits(nblocks)
    # each part once, ascending; side B's have bit n - 1
    assert parts == [(int(p >= 1 << k >> 1), p) for p in range(1 << k)]


@pytest.mark.parametrize("n, block_bits", [
    # 2-bit blocks: 2 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
    # 1, 2, 4, 8 and 16 blocks per column
    *[pytest.param(n, None, id=f"n{n}") for n in (15, 16, 17, 18)],
    pytest.param(19, None, id="n19"),
])
def test_release_schedule_maps_a_quarter_per_side(n, block_bits, forks, monkeypatch):
    # walked, not run: the sums hold their own indices, each table walk
    # maps the S | {j} views it adds into, each share walk both views, and
    # _release unmaps exactly what it is given (the real one drops whole
    # pages only).  A side maps one part of both sums and one block at a
    # time, alone or beside the other in one process, and ends holding
    # nothing: a quarter of the sums or less from 8 blocks per column, a
    # half with 2 or 4, all of them with 1.
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    forks(False)
    real_init = _kernels._ColumnBlocks.__init__

    def init(self, E):
        real_init(self, E)
        self.sums = np.arange(2 << len(E)).reshape(2, -1)

    mapped, peak = np.zeros(2 << n, bool), [0]

    def touch(*views):
        for view in views:
            mapped[view.ravel()] = True
        peak[0] = max(peak[0], int(np.count_nonzero(mapped)))

    def add_columns(blocks, block_ranges):
        for j, hs in enumerate(block_ranges):
            for _, _, upper_t, _, lower_t in blocks.walk(j, hs):
                touch(upper_t, lower_t)

    def player_sums(blocks, rows, tol, players, parts):
        for i, hs, free in players:
            for _, *views in blocks.walk(i, hs, free):
                touch(*views)
        return -1, -1

    def release(a):
        mapped[a.ravel()] = False
    monkeypatch.setattr(_kernels._ColumnBlocks, "__init__", init)
    monkeypatch.setattr(_kernels, "_add_columns", add_columns)
    monkeypatch.setattr(_kernels, "_player_sums", player_sums)
    monkeypatch.setattr(_kernels, "_release", release)
    game = random_game(n, 104), coalition_weights(n), DENOM_TOL
    nblocks = 1 << (n - 1 - min(_kernels._BLOCK_BITS, n - 1))
    size, part = (1 << n - 1) // nblocks, (1 << n) >> expected_part_bits(nblocks)
    sides = [None,   # one process, both sides
             lambda blocks, before, after: (before(0), after(0)),
             lambda blocks, before, after: (before(1), after(1))]
    for in_halves in sides:
        if in_halves:
            monkeypatch.setattr(_kernels, "_in_halves", in_halves)
        mapped[:], peak[0] = False, 0
        _kernels.shapley_sums(*game)
        assert peak[0] <= 2 * (part + size), peak[0]
        assert not mapped.any()


def test_a_platform_without_madvise_releases_nothing(forks, monkeypatch):
    # the one-process path is the only one without os.fork, and it still
    # releases at n >= 16: where mmap has no MADV_DONTNEED (no madvise()
    # system call) the release is skipped and the shares keep their bits
    E = random_game(16, 102)
    forks(False)
    expected = _kernels.shapley_sums(E, coalition_weights(16), DENOM_TOL)
    monkeypatch.delattr(mmap, "MADV_DONTNEED")
    shares = _kernels.shapley_sums(E, coalition_weights(16), DENOM_TOL)
    for a, b in zip(expected[:3], shares[:3]):
        assert a.tobytes() == b.tobytes()
    assert shares[3:] == expected[3:] == (-1, -1)

# An n = 21 game in a fresh process, with a helper even on one CPU
# (argument "helper") or with none: the growth of peak RSS over the set-up,
# for the caller or the helper, whichever is larger.  The caller's peak is
# VmHWM, the peak of its own address space: its ru_maxrss also counts the
# process it was spawned from, which Linux carries across exec.  The reaped
# helper's ru_maxrss is its own.  Both are in KiB.
FOOTPRINT_CHILD = """
import resource
import sys
import numpy as np
from revalloc import _kernels
from revalloc.game import DENOM_TOL, coalition_weights

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

n = 21
rng = np.random.default_rng(98)
E = rng.uniform(0.05, 1.0, (n, n))
np.fill_diagonal(E, 1.0)
weights = coalition_weights(n)
_kernels._forks = lambda nblocks: sys.argv[1] == "helper"
before = peak_kib()
bad_player = _kernels.shapley_sums(E, weights, DENOM_TOL)[3]
after = max(peak_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(bad_player, (after - before) * 1024)
"""


def footprint(processes):
    """Peak RSS growth of FOOTPRINT_CHILD's game, in bytes."""
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, processes],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=path))
    assert child.returncode == 0, child.stderr
    bad_player, growth = map(int, child.stdout.split())
    assert bad_player == -1
    return growth


# The slack of both gates covers the block buffers, the share pass's
# tables, the block a side maps back (about 3.8 MiB at n = 21) and
# allocator noise.
FOOTPRINT_SLACK = 5 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("processes", ["helper", "none"])
def test_each_process_holds_an_eighth_of_the_sums_at_a_time(processes):
    # each side tables, sums and releases one eighth of both sums at a
    # time, and maps the parts it reads back block by block, with a helper
    # or with none: at most 2^(n - 2) float64 entries of the two 2^n sums
    # at a time (4 MiB at n = 21), where a quarter would take 8 MiB
    n = 21
    growth = footprint(processes)
    assert growth <= (1 << n - 2) * 8 + FOOTPRINT_SLACK, f"peak RSS grew {growth / 2**20:.1f} MiB"
