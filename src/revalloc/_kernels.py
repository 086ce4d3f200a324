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
  through ``max(t, E[d, j])``;
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
ascending block order, so the shares are deterministic and the first
degenerate term found is still the lowest player's lowest mask.

``shapley_sums`` runs its game as two disjoint halves of the coalitions.
For j < n - 1 the top bit of a block number is mask bit n - 1, so block
half A, [0, nblocks / 2), of any column j < n - 1 holds masks without
player n - 1 and block half B, [nblocks / 2, nblocks), masks with it:

* table stage: side A adds half A of every column j < n - 1; side B adds
  half B and then all of column n - 1, so each mask still gets its
  columns in ascending order and each side writes one half of the sums;
* share stage: each side walks its block half of every player.  Players
  0..n - 2 read S and S | {i} in the half of the sums that side wrote.
  Player n - 1's blocks split at mask bit n - 2 instead, and on either
  side it joins S from half A to form S | {n - 1} in half B, so a side
  starts its shares only once both table stages are in.

Each side stores its first offender (player, mask), and the lower of the
two is reported.  With one block per column, half A is empty.  The arrays
of both functions are shared anonymous mappings (``mmap``), which
tracemalloc does not see: at n = 20 ``coalition_sums``' traced peak is
0.63 MiB of block buffers.

``_in_halves`` runs side A in the caller and side B in one forked helper
process, where ``_forks`` allows it (2 or more blocks per column,
``os.fork``, and 2 or more CPUs in the affinity mask).  One barrier of
two pipes orders the stages: each side writes one byte once its table
stage is in and reads the other's before its share stage.  Without a
helper, or if a pipe or the fork fails, the caller runs table A, table B,
shares A and shares B in turn.  Each entry is computed as in one process,
so the bits do not depend on the CPU count.  The helper runs only numpy
code, sets a shared done flag once its side returns, and leaves through
``os._exit``.

Mask bits n - 1 and n - 2 cut the sums into quarters Q0..Q3.  Side A
reads Q0 and Q1 for players 0..n - 2, then Q0 and Q2 for player n - 1;
side B reads Q2 and Q3, then Q1 and Q3.  So in any game of two or more
blocks per column, each side releases the quarter of both sums it has
finished with (Q1 on side A, Q2 on side B) just before player n - 1's
blocks; with a helper, each process holds half the sums at a time
instead of three quarters.  ``_release`` drops whole pages only, from
this process's page tables: the data stays in the shared mapping, and a
later read maps it back.  Without madvise() (Windows) it drops nothing.  Where both sides run in the caller, side B's
player n - 1 so maps back the Q1 that side A released.

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


def _subset_bounds(values: np.ndarray, tmax: np.ndarray, tmin: np.ndarray) -> None:
    """Fill tmax/tmin (length 2^len(values)) with the max/min of every subset of values."""
    tmax[0] = -np.inf
    tmin[0] = np.inf
    h = 1
    for x in values:
        np.maximum(tmax[:h], x, out=tmax[h:2 * h])
        np.minimum(tmin[:h], x, out=tmin[h:2 * h])
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


class _ColumnBlocks:
    """The block layout of a game over the n players of E, its two sums, and
    the member bounds of one column at a time.

    Each column's table runs in ``nblocks`` blocks of ``size`` = 2^``bits``
    entries.  ``sums`` holds ``sum_upper`` and ``sum_lower`` in a shared
    mapping.  ``walk(j, hs)`` fills column j's low and high tables, then
    yields each block h of ``hs`` with the S and S | {j} views of both
    sums, ``(h, upper_s, upper_t, lower_s, lower_t)``, once
    ``tmax``/``tmin`` hold the max/min of ``E[d, j]`` over the block's
    subsets.  ``views(j, ...)`` shapes block buffers like those views, and
    ``order(j)`` is the order numpy walks them in.  The buffers are
    allocated once, for every column.  ``release(hs)`` drops side ``hs``'s
    finished quarter of the sums.
    """

    def __init__(self, E: np.ndarray):
        n = E.shape[0]
        self.E, self.bits = E, min(_BLOCK_BITS, n - 1)
        self.size, self.nblocks = 1 << self.bits, 1 << (n - 1 - self.bits)
        self.sums = _shared(n, (2, 1 << n))
        self.tmax, self.tmin = np.empty(self.size), np.empty(self.size)
        self.low_max, self.low_min = np.empty(self.size), np.empty(self.size)
        self.high_max, self.high_min = np.empty(self.nblocks), np.empty(self.nblocks)

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

    def walk(self, j: int, hs: range):
        if not hs:
            return
        others = np.delete(self.E[:, j], j)
        _subset_bounds(others[:self.bits], self.low_max, self.low_min)
        _subset_bounds(others[self.bits:], self.high_max, self.high_min)
        for h in hs:
            np.maximum(self.low_max, self.high_max[h], out=self.tmax)
            np.minimum(self.low_min, self.high_min[h], out=self.tmin)
            yield h, *self._halves(self.sums[0], j, h), *self._halves(self.sums[1], j, h)

    def release(self, hs: range) -> None:
        """Release the quarter of both sums that side ``hs`` reads for players
        0..n - 2 and not for player n - 1: Q1 for half A, Q2 for half B."""
        quarter = self.sums.shape[1] // 4
        q = 2 if hs.start else 1
        for a in self.sums:
            _release(a[q * quarter:(q + 1) * quarter])


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


def _in_halves(blocks: _ColumnBlocks, table, shares) -> None:
    """Run side A, ``table(0)`` then ``shares(0)``, here and side B,
    ``table(1)`` then ``shares(1)``, in a forked helper, or both here where
    ``_forks`` allows no helper or a pipe or the fork fails.

    Neither side starts its shares before both tables are in: each side
    crosses ``_barrier`` between its two calls, and without a helper the
    caller runs table 0, table 1, shares 0 and shares 1 in turn.

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
        table(0)
        table(1)
        shares(0)
        shares(1)
        return
    caller_in, helper_out, helper_in, caller_out = fds
    if pid == 0:
        code = 1
        try:
            os.close(caller_in)
            os.close(caller_out)
            table(1)
            if _barrier(helper_out, helper_in):
                shares(1)
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
        table(0)
        if _barrier(caller_out, caller_in):   # a lost helper shows below
            shares(0)
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


def _player_sums(blocks: _ColumnBlocks, weights, tol, hs, parts):
    """Share sums of every player over its blocks ``hs`` into ``parts``, a
    (3, n, nblocks) array of (phi, phi_upper, phi_lower) partial sums per
    player and block; returns the first offender (player, mask) or (-1, -1).

    Stops at the first offender, leaving the later entries zero.  With two
    or more blocks per column, releases the quarter of the sums side ``hs``
    has finished with just before player n - 1's blocks.
    """
    size = blocks.size
    # |S| and w[|S|] within a block, one row per count of high members
    highs = np.arange(len(blocks.E) - blocks.bits, dtype=np.int8)
    counts = np.add.outer(highs, _popcounts(size))
    s_rows = counts.astype(float)
    w_rows = weights[counts]
    pc_high = _popcounts(blocks.nblocks)
    tmax, tmin, w_e = blocks.tmax, blocks.tmin, np.empty(size)
    den_mid, den_up, den_lo = np.empty(size), np.empty(size), np.empty(size)
    for i in range(len(blocks.E)):
        if i == len(blocks.E) - 1 and blocks.nblocks > 1:
            blocks.release(hs)
        tmax_v, tmin_v, mid, up, lo = blocks.views(i, tmax, tmin, den_mid, den_up, den_lo)
        order = blocks.order(i)
        for h, upper_s, upper_t, lower_s, lower_t in blocks.walk(i, hs):
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
    """Per-player share sums over every nonempty coalition S the player can join.

    Returns (phi, phi_upper, phi_lower, bad_player, bad_mask); bad_player is
    -1 unless some term denominator fell to ``tol`` or below, in which case
    the first offender (lowest player, then lowest mask) is reported.  The
    empty coalition contributes nothing here.
    """
    n = E.shape[0]
    blocks = _ColumnBlocks(E)
    nblocks = blocks.nblocks
    parts = _shared(n, (3, n, nblocks))
    bad = _shared(n, (2, 2), np.int64)   # each side's first offender
    halves = (range(nblocks // 2), range(nblocks // 2, nblocks))

    def table(k):
        last = (range(0), range(nblocks))[k]   # column n - 1 lies in half B
        _add_columns(blocks, [halves[k]] * (n - 1) + [last])

    def shares(k):
        bad[k] = _player_sums(blocks, weights, tol, halves[k], parts)

    _in_halves(blocks, table, shares)
    out = np.zeros(parts.shape[:2])
    for h in range(nblocks):   # ascending blocks, as in one process
        out += parts[..., h]
    return (*out, *min(((int(i), int(m)) for i, m in bad if i >= 0), default=(-1, -1)))
