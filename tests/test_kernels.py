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
    # side A sums quarter Q0 (mask bits 5 and 4 clear) before Q1 (bit 4
    # set): its first offender met is player 3's, in Q0, and the lower
    # player 1's comes later, in Q1
    pytest.param([(3, 0), (1, 4)], (1, 0b10000), "caller", id="caller-lower-player-later"),
])
def test_split_shares_report_the_first_offender(zeros, expected, side, forks, monkeypatch):
    # E[i, d] = 0 sends player i's term for joining {d} to 0; 2-bit blocks
    # give 8 blocks per column at n = 6, two per quarter
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
    n = 17   # 4 blocks per column, one per quarter
    E = random_game(n, 93)
    forks(False)
    expected = _kernels.shapley_sums(E, coalition_weights(n), DENOM_TOL)
    started = forks(True)
    parent, table, shares = os.getpid(), _kernels._add_columns, _kernels._player_sums
    passes = []   # the caller's share passes: (players, seconds into the game)

    def delayed(*args):
        if (os.getpid() == parent) == (slow == "caller"):
            time.sleep(TABLE_DELAY / 2)   # each side adds its columns in two calls
        return table(*args)

    def timed(blocks, rows, tol, players, *args):
        if os.getpid() == parent:
            passes.append((list(players), time.monotonic() - start))
        return shares(blocks, rows, tol, players, *args)
    monkeypatch.setattr(_kernels, "_add_columns", delayed)
    monkeypatch.setattr(_kernels, "_player_sums", timed)
    start = time.monotonic()
    result = _kernels.shapley_sums(E, coalition_weights(n), DENOM_TOL)
    assert len(started) == 1
    for a, b in zip(result[:3], expected[:3]):
        assert np.array_equal(a, b)
    assert result[3:] == expected[3:] == (-1, -1)
    assert [players for players, _ in passes] == [[*range(n - 2)]] * 2 + [[n - 2], [n - 1]]
    if slow == "helper":
        assert passes[2][1] < TABLE_DELAY <= passes[3][1]


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
    # 2-bit blocks: 2 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
])
def test_sides_split_every_player_block_once(n, block_bits, forks, monkeypatch):
    # recorded, not run: ("table", block ranges per column) and ("shares",
    # players, blocks) in call order.  With no helper the caller runs side A
    # up to the barrier, side B up to it, then each side's player n - 1.
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    started = forks(False)
    calls = []

    def add_columns(blocks, block_ranges):
        calls.append(("table", [list(hs) for hs in block_ranges]))

    def player_sums(blocks, rows, tol, players, hs, parts, free=None):
        calls.append(("shares", list(players), list(hs)))
        return -1, -1
    monkeypatch.setattr(_kernels, "_add_columns", add_columns)
    monkeypatch.setattr(_kernels, "_player_sums", player_sums)
    _kernels.shapley_sums(random_game(n, 100 + n), coalition_weights(n), DENOM_TOL)
    assert started == []
    nblocks = 1 << (n - 1 - min(_kernels._BLOCK_BITS, n - 1))
    every = sorted((i, h) for i in range(n) for h in range(nblocks))
    assert sorted((j, h) for kind, *call in calls if kind == "table"
                  for j, hs in enumerate(call[0]) for h in hs) == every
    assert sorted((i, h) for kind, *call in calls if kind == "shares"
                  for i in call[0] for h in call[1]) == every
    # mask bits n - 1 and n - 2 cut the blocks of columns 0..n - 3 into
    # quarters (with fewer than 4 blocks, some are empty); each side tables
    # and sums its two quarters in turn, then player n - 2 over its half;
    # only player n - 1 comes after the barrier
    quarters = [list(range(q * nblocks // 4, (q + 1) * nblocks // 4)) for q in range(4)]
    halves = [quarters[0] + quarters[1], quarters[2] + quarters[3]]
    low = list(range(n - 2))
    side = [("table",), ("shares", low), ("table",), ("shares", low), ("shares", [n - 2])]
    assert [(kind, call[0]) if kind == "shares" else (kind,) for kind, *call in calls] \
        == side * 2 + [("shares", [n - 1])] * 2
    tables = [call[1] for call in calls if call[0] == "table"]
    shares = [call[2] for call in calls if call[0] == "shares"]
    # each low-player pass reads the quarter its table pass just wrote
    for q in range(4):
        assert tables[q][:n - 2] == [quarters[q]] * (n - 2)
        assert shares[[0, 1, 3, 4][q]] == quarters[q]
    assert shares[2::3] == [halves[0], halves[1]] and shares[6:] == halves
    # columns n - 2 and n - 1: each column's blocks go in after columns
    # 0..n - 3 have filled the quarters they add into, and column n - 1
    # adds into side B's quarters only (its first 2 |Q2| blocks into Q2)
    q2 = 2 * len(quarters[2])
    assert [table[n - 2:] for table in tables] == [
        [[], []], [halves[0], []], [[], list(range(q2))], [halves[1], list(range(q2, nblocks))]]


@pytest.mark.parametrize("n, block_bits", [
    # 2-bit blocks: 2 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
    # 1, 2 and 4 blocks per column
    *[pytest.param(n, None, id=f"n{n}") for n in (15, 16, 17)],
])
def test_every_mask_gets_its_columns_in_ascending_order(n, block_bits, forks, monkeypatch):
    # recorded, not run: the S | {j} masks of every block added, in call
    # order, from the block layout itself (the sums replaced by the masks)
    if block_bits is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", block_bits)
    forks(False)
    masks = np.arange(1 << n)
    last, count, writer = np.full(1 << n, -1), np.zeros(1 << n, int), np.full(1 << n, -1)
    calls = []

    def add_columns(blocks, block_ranges):
        side = len(calls) // 2   # two table calls per side
        calls.append(block_ranges)
        for j, hs in enumerate(block_ranges):
            for h in hs:
                t = blocks._halves(masks, j, h)[1].ravel()
                assert (t >> j & 1).all() and (last[t] < j).all(), (j, h)
                assert np.isin(writer[t], (-1, side)).all()   # one side writes each mask
                last[t], writer[t] = j, side
                count[t] += 1
    monkeypatch.setattr(_kernels, "_add_columns", add_columns)
    monkeypatch.setattr(_kernels, "_player_sums", lambda *args: (-1, -1))
    _kernels.shapley_sums(random_game(n, 103), coalition_weights(n), DENOM_TOL)
    assert len(calls) == 4
    popcount = np.array([bin(m).count("1") for m in range(1 << n)])
    assert np.array_equal(count, popcount)   # each member's column once


@pytest.mark.parametrize("n, block_bits", [
    # 2-bit blocks: 2 to 64 blocks per column
    *[pytest.param(n, 2, id=f"n{n}-2bit") for n in range(4, 10)],
    # 1, 2, 4 and 8 blocks per column
    *[pytest.param(n, None, id=f"n{n}") for n in (15, 16, 17, 18)],
])
def test_release_schedule_maps_a_quarter_per_side(n, block_bits, forks, monkeypatch):
    # walked, not run: the sums hold their own indices, each table walk
    # maps the S | {j} views it adds into, each share walk both views, and
    # _release unmaps exactly what it is given (the real one drops whole
    # pages only).  Where a column has 4 or more blocks, each side alone
    # maps a quarter of both sums and one block at a time, and one process
    # running both sides half of them; with fewer blocks a side writes a
    # half (2 blocks) or all (1) of the sums at once.
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
        peak[0] = max(peak[0], int(mapped.sum()))

    def add_columns(blocks, block_ranges):
        for j, hs in enumerate(block_ranges):
            for _, _, upper_t, _, lower_t in blocks.walk(j, hs):
                touch(upper_t, lower_t)

    def player_sums(blocks, rows, tol, players, hs, parts, free=None):
        for i in players:
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
    size, quarter = (1 << n - 1) // nblocks, 1 << n - 2
    # one process, both sides
    _kernels.shapley_sums(*game)
    if nblocks >= 4:
        assert peak[0] <= 2 * (2 * quarter + size)
    # each side alone ends holding only the quarter its player n - 1 read
    # in place: Q0 on side A, Q3 on side B
    write = (1 << n) // min(nblocks, 4)
    for k in (0, 1):
        mapped[:], peak[0] = False, 0
        monkeypatch.setattr(_kernels, "_in_halves",
                            lambda blocks, before, after: (before(k), after(k)))
        _kernels.shapley_sums(*game)
        assert peak[0] <= 2 * (write + size), (k, peak[0])
        if nblocks >= 2:
            kept = np.zeros((2, 4, quarter), bool)
            kept[:, 3 * k] = True
            assert np.array_equal(mapped, kept.ravel())


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


# The slack of both gates covers the block buffers and the share pass's
# tables (about 3.5 MiB at n = 21) and allocator noise.
FOOTPRINT_SLACK = 5 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_each_side_holds_a_quarter_of_the_sums_at_a_time():
    # each side tables, sums and releases one quarter of both sums at a
    # time, and maps the quarters it reads back block by block: at most
    # 2^(n - 1) float64 entries of the two 2^n sums at a time (8 MiB at
    # n = 21), where holding a side's half would take 16 MiB
    n = 21
    growth = footprint("helper")
    assert growth <= (1 << n - 1) * 8 + FOOTPRINT_SLACK, f"peak RSS grew {growth / 2**20:.1f} MiB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_one_process_holds_half_the_sums_at_a_time():
    # with no helper the caller runs side A up to the barrier, then side B,
    # keeping only side A's quarter for player n - 1: at most 2^n float64
    # entries (16 MiB at n = 21), where all four quarters take 32 MiB
    n = 21
    growth = footprint("none")
    assert growth <= (1 << n) * 8 + FOOTPRINT_SLACK, f"peak RSS grew {growth / 2**20:.1f} MiB"
