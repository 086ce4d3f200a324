"""The coalition kernel: member-bound sums and Shapley sums over 2^n masks.

One numpy path serves every n.  It builds no index array, no n x 2^n
table and no 2^(n-1)-entry column table, so its memory is the two
length-2^n sums plus buffers of O(2^_BLOCK_BITS) entries.

For an n x n appraisal matrix E (row = evaluator) and a target column j,
the *column table* holds the max and the min of ``E[d, j]`` over every
subset of the other n - 1 players.  A subset is indexed by its mask with
bit j squeezed out, so index order is ascending mask order.  The empty set
holds -inf / +inf and is never read as a member bound.

Over a length-2^n array ``a``, the ``[:, 1, :]`` view of
``a.reshape(-1, 2, 2**j)`` lists the masks that contain bit j and the
``[:, 0, :]`` view the masks without it, both in squeezed order.  So a
column table adds straight into the coalition totals, and player j reads
S and S | {j} side by side, without any gather.

The column table is never stored whole.  ``_ColumnBlocks`` walks it in
blocks of 2^b entries, b = min(_BLOCK_BITS, n - 1), so the working
buffers stay in L2.  It holds the one block layout both passes walk: b,
the block size and count, the two sums, each column's view shape and
iteration order, and each block's S and S | {j} views.  The low b bits
of a squeezed index are the first b other players and the block number
holds the rest:

* a block's column table is the *low* table (the bounds over every subset
  of the first b other players) maxed / minned with one scalar, the
  block's entry in the *high* table over the rest.  Both are filled by
  doubling: the k-th player d maps entries [0, 2^k) onto [2^k, 2^(k+1))
  through ``max(t, E[d, j])``.  The high tables of all columns, and the
  first 2^_KEPT_BITS entries of their low tables, are built once, all
  columns at a time; a walk of column j doubles its low table on from
  there;
* S and S | {j} are contiguous slices of the sums when j >= b, and the
  ``reshape(-1, 2, 2**j)`` views of one 2 * 2^b slice when j < b;
* |S| is the low popcount plus the block's high popcount, so |S| and
  ``w[|S|]`` are rows of small tables indexed by the high count.

``sum_upper[mask]`` / ``sum_lower[mask]`` are the per-coalition totals of
the member bounds, with singletons pinned to 1 by convention.
``_add_columns`` adds each block into its S | {j} view, one column after
another, so every entry sums its columns in ascending order; max and min
are exact, so the sums match full-length column tables bit for bit.
``coalition_sums`` adds every block of every column in the calling
process and forks nothing.

The shares walk the same blocks.  Each block's three partial sums are
stored per (player, block), and the caller adds them per player in
ascending block order, so the shares are deterministic.  A share pass
stops at its first degenerate term, and the lowest (player, mask) over
all passes is reported: the lowest player's lowest mask.

``shapley_sums`` cuts the sums into 2^k *parts*, part p holding the masks
whose top k bits read p.  k (``part_bits``) is at most 3 and leaves each
part two blocks of every low column where the block count allows: with
2^14-entry blocks n = 18 runs in quarters and n >= 19 in eighths, and a
game of one block per column is one part.  For a *low* player j < n - k
those k bits top every block number, so part p is one block range of
column j and holds both S and S | {j}.  A *top* player j >= n - k adds
into the parts p that hold bit j, and joins S in p without j to
S | {j} in p.  Side A owns the parts without bit n - 1, side B the
others, and each side takes its parts in ascending order.  For part p it:

* adds every column's blocks into p, in ascending column order;
* sums the shares over p in one pass, players ascending: each low player,
  then each top player j < n - 1 whose bit p holds, reading p without j,
  an earlier part of its own, back block by block;
* releases p.

After the barrier player n - 1 joins side A's parts to side B's over the
side's half of its blocks, and releases both views of each block once
read.  So every mask gets its columns in ascending order, written by one
side; only player n - 1 reads the other side's sums; and a side maps one
part of both sums and one block at a time, with a helper or without.
``_release`` drops whole pages only, from this process's page tables:
the data stays in the shared mapping, and a later read maps it back.
Without madvise() (Windows) it drops nothing.

The arrays of both functions are shared anonymous mappings (``mmap``),
which tracemalloc does not see: at n = 20 ``coalition_sums``' traced peak
is 0.80 MiB of block buffers.

``_in_halves`` runs side A in the caller and side B in one forked helper
process, where ``_forks`` allows it (2 or more blocks per column,
``os.fork``, and 2 or more CPUs in the affinity mask).  One barrier of
two pipes orders the sides: each writes one byte before player n - 1 and
reads the other's.  Without a helper, or if a pipe or the fork fails, the
caller runs side A up to the barrier, side B up to it, then player n - 1
of side A and of side B.  Each entry is computed as in one process, so
the bits do not depend on the CPU count.  The helper runs only numpy
code, sets a shared done flag once its side returns, and leaves through
``os._exit``.

The views of players 1 and 2 below the block bits run 2 or 4 entries
contiguous; numpy walks them column by column (``order="F"``, from
``_ColumnBlocks.order``) in both passes, several times faster than row by
row.  From player 3 on the rows are long enough that row order is faster.
"""

from __future__ import annotations

import mmap
import os

import numpy as np


_BLOCK_BITS = 14   # blocks of 2^14 entries: 128 KiB per float64 buffer
_KEPT_BITS = 9     # each column keeps its low table's first 2^9 entries: 8 KiB per column


def _subset_bounds(values: np.ndarray, tmax: np.ndarray, tmin: np.ndarray, h: int = 1) -> None:
    """Double tmax/tmin over ``values`` along their last axis, one table per
    row of ``values``: entries [0, h) hold the max/min over every subset of
    some earlier values (h = 1: the empty set, -inf/+inf), and each value x
    maps them onto the next h entries through max/min with x."""
    for x in values.T[..., None]:   # one value per row of tables, as a column
        np.maximum(tmax[..., :h], x, out=tmax[..., h:2 * h])
        np.minimum(tmin[..., :h], x, out=tmin[..., h:2 * h])
        h *= 2


def _popcounts(size: int) -> np.ndarray:
    """Popcount of every index in [0, size), size a power of two."""
    pc = np.zeros(size, dtype=np.int8)
    h = 1
    while h < size:
        np.add(pc[:h], 1, out=pc[h:2 * h])
        h *= 2
    return pc


def _unsqueeze(k: int, i: int) -> int:
    """The mask at index k of player i's squeezed order (bit i left out)."""
    return ((k >> i) << (i + 1)) | (k & ((1 << i) - 1))


def _squeeze(mask: int, i: int) -> int:
    """The index of ``mask`` in player i's squeezed order (bit i left out)."""
    return ((mask >> (i + 1)) << i) | (mask & ((1 << i) - 1))


class _ColumnBlocks:
    """The block layout of a game over the n players of E, its two sums, and
    the member bounds of one column at a time.

    Each column's table runs in ``nblocks`` blocks of ``size`` = 2^``bits``
    entries.  ``sums`` holds ``sum_upper`` and ``sum_lower`` in a shared
    mapping.  ``walk(j, hs)`` fills column j's low table, then yields each
    block h of ``hs`` with the S and S | {j} views of both sums,
    ``(h, upper_s, upper_t, lower_s, lower_t)``, once ``tmax``/``tmin``
    hold the max/min of ``E[d, j]`` over the block's subsets.
    ``views(j, ...)`` shapes block buffers like those views, and
    ``order(j)`` is the order numpy walks them in.  Every column's high
    table and the first 2^_KEPT_BITS entries of its low table are built
    once, for all columns together; the buffers are allocated once, for
    every column.  ``part_blocks(j, p)`` gives column j's blocks into part
    p of the sums, and ``release(p)`` drops part p.
    """

    def __init__(self, E: np.ndarray):
        n = E.shape[0]
        self.E, self.bits = E, min(_BLOCK_BITS, n - 1)
        self.size, self.nblocks = 1 << self.bits, 1 << (n - 1 - self.bits)
        # 2^part_bits parts of the sums: up to 8, each with two blocks of
        # every low column where the count allows; 2 parts from 2 blocks per
        # column, 1 with 1
        high_bits = n - 1 - self.bits
        self.part_bits = min(3, high_bits - 1) if high_bits > 1 else high_bits
        self.sums = _shared(n, (2, 1 << n))
        self.tmax, self.tmin = np.empty(self.size), np.empty(self.size)
        self.low_max, self.low_min = np.empty(self.size), np.empty(self.size)
        # row j: column j's E[d, j] over the other players d, ascending
        self.others = E.T[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        self.kept_bits = min(_KEPT_BITS, self.bits)
        self.first = np.empty((2, n, 1 << self.kept_bits))   # (max, min) over the first players
        self.high = np.empty((2, n, self.nblocks))      # (max, min) over the players above b
        for table, values in ((self.first, self.others[:, :self.kept_bits]),
                              (self.high, self.others[:, self.bits:])):
            table[0, :, 0], table[1, :, 0] = -np.inf, np.inf
            _subset_bounds(values, *table)

    def views(self, j: int, *bufs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Block buffers in column j's view shape: rows of 2^j entries below the block bits."""
        shape = (-1, 1 << j) if j < self.bits else (self.size,)
        return tuple(buf.reshape(shape) for buf in bufs)

    @staticmethod
    def order(j: int) -> str:
        """Runs of 2 or 4 entries (j = 1, 2) go several times faster column by column."""
        return "F" if j in (1, 2) else "K"

    def _halves(self, a: np.ndarray, j: int, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``a`` at S and at S | {j} for the squeezed indices of block h."""
        step, m0 = 1 << j, _unsqueeze(h * self.size, j)
        if step < self.size:
            pair = a[m0:m0 + 2 * self.size].reshape(-1, 2, step)
            return pair[:, 0, :], pair[:, 1, :]
        return a[m0:m0 + self.size], a[m0 + step:m0 + step + self.size]

    def walk(self, j: int, hs: range, free: tuple[int, ...] = ()):
        """Yield column j's blocks ``hs``; after each, release its views
        ``free``, 0 for S and 1 for S | {j}: slices for a top column j."""
        if not hs:
            return
        kept = 1 << self.kept_bits
        self.low_max[:kept], self.low_min[:kept] = self.first[:, j]
        _subset_bounds(self.others[j, self.kept_bits:self.bits], self.low_max, self.low_min, kept)
        high_max, high_min = self.high[:, j]
        for h in hs:
            np.maximum(self.low_max, high_max[h], out=self.tmax)
            np.minimum(self.low_min, high_min[h], out=self.tmin)
            upper, lower = self._halves(self.sums[0], j, h), self._halves(self.sums[1], j, h)
            yield h, *upper, *lower
            for view in free:
                _release(upper[view])
                _release(lower[view])

    def part_blocks(self, j: int, p: int) -> range:
        """Column j's blocks whose S | {j} views lie in part p: the blocks of
        p for a low column, none for a top column whose bit p lacks, and
        else those that join S in p without j to S | {j} in p."""
        n, k = len(self.E), self.part_bits
        first = p << (n - k)   # part p's lowest mask
        if j >= n - k and not first >> j & 1:
            return range(0)
        h = _squeeze(first, j) >> self.bits
        return range(h, h + (self.nblocks >> k << (j >= n - k)))

    def release(self, p: int) -> None:
        """Release part p of both sums."""
        part = self.sums.shape[1] >> self.part_bits
        for a in self.sums:
            _release(a[p * part:(p + 1) * part])


def _forks(nblocks: int) -> bool:
    """Whether a game of ``nblocks`` blocks per column runs a side in a helper."""
    return (nblocks >= 2 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _shared(n: int, shape, dtype=np.float64) -> np.ndarray:
    """A zero-filled array of a game over n players, in a shared anonymous
    mapping, so that a forked helper's writes land in it."""
    try:
        buf = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
    except OSError as err:   # ENOMEM: out of memory, as np.zeros would report it
        raise MemoryError(f"cannot map the coalition arrays for {n} players") from err
    return np.frombuffer(buf, dtype).reshape(shape)


def _release(a: np.ndarray) -> None:
    """Drop this process's pages of ``a``, a contiguous slice of a ``_shared``
    array, whole pages only.  The data stays in the shared mapping, and a
    later read maps it back.  Where the platform has no madvise() (no
    ``mmap.MADV_DONTNEED``, as on Windows), nothing is dropped."""
    root = a
    while isinstance(root.base, np.ndarray):
        root = root.base   # np.frombuffer's array, at the start of the mapping
    start = a.__array_interface__["data"][0] - root.__array_interface__["data"][0]
    page = mmap.PAGESIZE
    lo, hi = -(-start // page) * page, (start + a.nbytes) // page * page
    if lo < hi and hasattr(mmap, "MADV_DONTNEED"):
        root.base.obj.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _barrier(send: int, receive: int) -> bool:
    """Write one byte to ``send``, then read one from ``receive``; False if
    the other side has closed its end of either pipe: it is gone."""
    try:
        os.write(send, b"\1")
        return bool(os.read(receive, 1))
    except BrokenPipeError:
        return False


def _in_halves(blocks: _ColumnBlocks, before, after) -> None:
    """Run side A, ``before(0)`` then ``after(0)``, here and side B,
    ``before(1)`` then ``after(1)``, in a forked helper, or both here where
    ``_forks`` allows no helper or a pipe or the fork fails.

    Neither side starts its ``after`` before both ``before`` calls are
    done: each side crosses ``_barrier`` between its two calls, and without
    a helper the caller runs before 0, before 1, after 0 and after 1 in
    turn.

    The helper leaves through ``os._exit`` and is always reaped; an
    exception here, ``KeyboardInterrupt`` included, kills it first.  A
    helper that exits nonzero or before its side is done raises
    ``RuntimeError``.
    """
    pid, fds = -1, []
    if _forks(blocks.nblocks):
        done = _shared(len(blocks.E), 1, np.uint8)   # mapped before the fork, so both see it
        try:
            fds += os.pipe()   # helper to caller: (read end, write end)
            fds += os.pipe()   # caller to helper
            pid = os.fork()
        except OSError:   # EMFILE, EAGAIN or ENOMEM: no helper, both sides here
            for fd in fds:
                os.close(fd)
    if pid < 0:
        before(0)
        before(1)
        after(0)
        after(1)
        return
    caller_in, helper_out, helper_in, caller_out = fds
    if pid == 0:
        code = 1
        try:
            os.close(caller_in)
            os.close(caller_out)
            before(1)
            if _barrier(helper_out, helper_in):
                after(1)
                done[0] = 1
            code = 0
        except Exception:
            import traceback   # only a failing helper loads it
            traceback.print_exc()
        finally:
            os._exit(code)
    # the helper's ends are closed here, so its exit reads as EOF
    os.close(helper_out)
    os.close(helper_in)
    try:
        before(0)
        if _barrier(caller_out, caller_in):   # a lost helper shows below
            after(0)
    except BaseException:
        import signal   # only a failing game loads it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(caller_in)
        os.close(caller_out)
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not done[0]:
        raise RuntimeError(f"coalition helper failed with exit status "
                           f"{os.waitstatus_to_exitcode(status)} before its side was done")


def _add_columns(blocks: _ColumnBlocks, block_ranges) -> None:
    """Add column j's blocks ``block_ranges[j]`` into the S | {j} views, j ascending.

    The singleton {j} gets column j alone, in block 0, and is then pinned
    to 1.
    """
    for j, hs in enumerate(block_ranges):
        tmax, tmin = blocks.views(j, blocks.tmax, blocks.tmin)
        order = blocks.order(j)
        for _, _, upper_t, _, lower_t in blocks.walk(j, hs):
            np.add(upper_t, tmax, out=upper_t, order=order)
            np.add(lower_t, tmin, out=lower_t, order=order)
        if 0 in hs:   # block 0 holds {j}: a lone member appraises itself at 1
            blocks.sums[:, 1 << j] = 1.0


def _share_rows(blocks: _ColumnBlocks, weights: np.ndarray):
    """The tables every share pass of a game reads: |S| and w[|S|] within a
    block, one row per count of high members, the high count of every
    block, and four block buffers."""
    low = _popcounts(blocks.size)
    highs = range(len(blocks.E) - blocks.bits)
    w_rows = np.empty((len(highs), blocks.size))
    for c in highs:
        np.take(weights[c:], low, out=w_rows[c])
    return np.add.outer(highs, low, dtype=float), w_rows, _popcounts(blocks.nblocks), \
        np.empty((4, blocks.size))


def _player_sums(blocks: _ColumnBlocks, rows, tol, players, parts):
    """Share sums of ``players``, (player, blocks, views to free) in
    ascending player order, into ``parts``, a (3, n, nblocks) array of (phi,
    phi_upper, phi_lower) partial sums per player and block; returns the
    pass's first offender (player, mask), the lowest as players and blocks
    ascend, or (-1, -1).

    Stops at the first offender, leaving the later entries zero.  Releases
    each block's views to free once summed (see ``_ColumnBlocks.walk``).
    """
    s_rows, w_rows, pc_high, (w_e, den_mid, den_up, den_lo) = rows
    size, tmax, tmin = blocks.size, blocks.tmax, blocks.tmin
    for i, hs, free in players:
        tmax_v, tmin_v, mid, up, lo = blocks.views(i, tmax, tmin, den_mid, den_up, den_lo)
        order = blocks.order(i)
        for h, upper_s, upper_t, lower_s, lower_t in blocks.walk(i, hs, free):
            s, w = s_rows[pc_high[h]], w_rows[pc_high[h]]
            # den_mid = |S| + (sum_upper[T] - eU) - sum_upper[S]; den_up and
            # den_lo take the lower totals of T and of S in its place
            np.subtract(upper_t, tmax_v, out=mid, order=order)
            den_mid += s
            np.subtract(mid, lower_s, out=lo, order=order)
            np.subtract(mid, upper_s, out=mid, order=order)
            np.subtract(lower_t, tmin_v, out=up, order=order)
            den_up += s
            np.subtract(up, upper_s, out=up, order=order)
            first = 1 if h == 0 else 0   # skip the empty coalition, index 0
            dm, du, dl = den_mid[first:], den_up[first:], den_lo[first:]
            # den_lo >= den_mid exactly: the same minuend less sum_lower[S] <=
            # sum_upper[S], and rounding is monotone, so den_lo needs no scan
            if min(dm.min(), du.min()) <= tol:
                k = h * size + first + int(np.argmax((dm <= tol) | (du <= tol)))
                return i, _unsqueeze(k, i)
            w, e = w[first:], w_e[first:]
            np.multiply(w, tmax[first:], out=e)
            parts[0, i, h] = np.divide(e, dm, out=dm).sum()
            parts[1, i, h] = np.divide(e, du, out=du).sum()
            np.multiply(w, tmin[first:], out=e)
            parts[2, i, h] = np.divide(e, dl, out=dl).sum()
    return -1, -1


def coalition_sums(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coalition totals of member bounds: (sum_upper, sum_lower), length
    2^n, with every block of every column added here."""
    blocks = _ColumnBlocks(E)
    _add_columns(blocks, [range(blocks.nblocks)] * len(E))
    return tuple(blocks.sums)


def shapley_sums(E, weights, tol):
    """Per-player share sums over every nonempty coalition S the player can
    join, in a game of two or more players.

    Returns (phi, phi_upper, phi_lower, bad_player, bad_mask); bad_player is
    -1 unless some term denominator fell to ``tol`` or below, in which case
    the first offender (lowest player, then lowest mask) is reported.  The
    empty coalition contributes nothing here.
    """
    n = E.shape[0]
    blocks = _ColumnBlocks(E)
    nblocks, k = blocks.nblocks, blocks.part_bits
    parts = _shared(n, (3, n, nblocks))
    bad = _shared(n, (2, 2), np.int64)   # each side's first offender
    rows = _share_rows(blocks, weights)
    sides = [range(1 << k >> 1), range(1 << k >> 1, 1 << k)]   # parts without bit n - 1, with it
    found = ([], [])   # the first offender of each pass of each side

    def before(side):
        for p in sides[side]:
            _add_columns(blocks, [blocks.part_blocks(j, p) for j in range(n)])
            # S | {j} lies in p, and so does S for a low player j; a top one
            # maps S back from an earlier part of the side, block by block.
            # Player n - 1 waits for the barrier, unless it is low (one part)
            found[side].append(_player_sums(blocks, rows, tol, [
                (j, blocks.part_blocks(j, p), (0,) if j >= n - k else ())
                for j in range(n - 1 if k else n)], parts))
            blocks.release(p)

    def after(side):
        if k:   # player n - 1 joins side A's parts to side B's over the side's half
            half = range(side * nblocks // 2, (side + 1) * nblocks // 2)
            found[side].append(_player_sums(blocks, rows, tol, [(n - 1, half, (0, 1))], parts))
        bad[side] = min((f for f in found[side] if f[0] >= 0), default=(-1, -1))

    _in_halves(blocks, before, after)
    out = np.zeros(parts.shape[:2])
    for h in range(nblocks):   # ascending blocks, as in one process
        out += parts[..., h]
    return (*out, *min(((int(i), int(m)) for i, m in bad if i >= 0), default=(-1, -1)))
