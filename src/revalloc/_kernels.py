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
blocks of 2^b = 2^_BLOCK_BITS entries (one block when n - 1 <= b), so the
working buffers stay in L2.  The low b bits of a squeezed index are the
first b other players and the block number holds the rest:

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
``coalition_sums`` adds each block into its S | {j} view, one column after
another, so every entry sums its columns in ascending order; max and min
are exact, so the sums match full-length column tables bit for bit.

The shares walk the same blocks.  Per-block partial sums are added per
player in ascending block order, so the shares are deterministic and the
first degenerate term found is still the lowest player's lowest mask.

Each pass does the same two disjoint halves of work, in the same order:

* table pass: for j < n - 1 the top bit of a block number is mask bit
  n - 1.  The first half adds the first half of every such column's blocks
  (the masks without player n - 1); the second adds the other half and
  then all of column n - 1, so each mask still gets its columns in
  ascending order.  With one block per column the first half is empty;
* share pass: the first half takes the even players and the second the
  odd ones, so the costly low-bit players fall on both sides.  Each half
  stores its 3 sums per player and its first offender; the lower
  (player, mask) of the two is reported.

Both halves write into shared anonymous mappings (``mmap``), which
tracemalloc does not see: at n = 20 the table pass's traced peak is
0.63 MiB of block buffers.  ``_in_halves`` runs the second half in one
forked helper process while the first runs in the caller, where ``_forks``
allows it (2 or more blocks per column, ``os.fork``, and 2 or more CPUs in
the affinity mask); otherwise, or if the fork fails, the caller runs it
right after the first.  Each entry is computed as in one process, so the
bits do not depend on the CPU count.  The helper runs only numpy code,
sets a shared done flag once its half returns, and leaves through
``os._exit``.  At n = 21 the table pass takes 0.127 s against 0.210 s in
one process, and the share pass 0.274 s against 0.506 s (medians of 16
alternating runs on ``perfbench/inputs.appraisal_matrix(1)``, 2-vCPU Xeon
at 2.1 GHz).
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


def _halves(a: np.ndarray, i: int, k0: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``a`` at S and at S | {i} for the squeezed indices [k0, k0 + size)."""
    step = 1 << i
    m0 = _unsqueeze(k0, i)
    if step < size:
        pair = a[m0:m0 + 2 * size].reshape(-1, 2, step)
        return pair[:, 0, :], pair[:, 1, :]
    return a[m0:m0 + size], a[m0 + step:m0 + step + size]


class _ColumnBlocks:
    """Member bounds of one column at a time, in blocks of 2^bits entries.

    ``walk(j, hs)`` fills column j's low and high tables, then yields each
    block h of ``hs`` once ``tmax``/``tmin`` hold the max/min of ``E[d, j]``
    over the block's subsets.  The buffers are allocated once, for every
    column.
    """

    def __init__(self, E: np.ndarray, bits: int):
        self.E, self.bits = E, bits
        size, self.nblocks = 1 << bits, 1 << (E.shape[0] - 1 - bits)
        self.tmax, self.tmin = np.empty(size), np.empty(size)
        self.low_max, self.low_min = np.empty(size), np.empty(size)
        self.high_max, self.high_min = np.empty(self.nblocks), np.empty(self.nblocks)

    def walk(self, j: int, hs: range):
        others = np.delete(self.E[:, j], j)
        _subset_bounds(others[:self.bits], self.low_max, self.low_min)
        _subset_bounds(others[self.bits:], self.high_max, self.high_min)
        for h in hs:
            np.maximum(self.low_max, self.high_max[h], out=self.tmax)
            np.minimum(self.low_min, self.high_min[h], out=self.tmin)
            yield h


def _forks(nblocks: int) -> bool:
    """Whether a pass of ``nblocks`` blocks per column runs half in a helper."""
    return (nblocks >= 2 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _shared(n: int, shape, dtype=np.float64) -> np.ndarray:
    """A zero-filled array of a pass over n players, in a shared anonymous
    mapping, so that a forked helper's writes land in it."""
    try:
        buf = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
    except OSError as err:   # ENOMEM: out of memory, as np.zeros would report it
        raise MemoryError(f"cannot map the coalition arrays for {n} players") from err
    return np.frombuffer(buf, dtype).reshape(shape)


def _in_halves(n: int, first, second) -> None:
    """Run ``first()`` here and ``second()`` in a forked helper, or here
    right after ``first()`` where ``_forks`` allows no helper or fork fails.

    The helper leaves through ``os._exit`` and is always reaped; an
    exception here, ``KeyboardInterrupt`` included, kills it first.  A
    helper that exits nonzero or before ``second()`` returns raises
    ``RuntimeError``.
    """
    pid = -1
    if _forks(1 << (n - 1 - min(_BLOCK_BITS, n - 1))):
        done = _shared(n, 1, np.uint8)   # mapped before the fork, so both see it
        try:
            pid = os.fork()
        except OSError:   # EAGAIN or ENOMEM: no helper, the same halves here
            pass
    if pid < 0:
        first()
        second()
        return
    if pid == 0:
        code = 1
        try:
            second()
            done[0] = 1
            code = 0
        except Exception:
            import traceback   # only a failing helper loads it
            traceback.print_exc()
        finally:
            os._exit(code)
    try:
        first()
    except BaseException:
        import signal   # only a failing pass loads it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not done[0]:
        raise RuntimeError(f"coalition helper failed with exit status "
                           f"{os.waitstatus_to_exitcode(status)} before its half was done")


def _add_columns(E, sum_upper, sum_lower, bits: int, block_ranges) -> None:
    """Add column j's blocks ``block_ranges[j]`` into the S | {j} views, j ascending."""
    size = 1 << bits
    blocks = _ColumnBlocks(E, bits)
    for j, hs in enumerate(block_ranges):
        if not hs:
            continue
        shape = (-1, 1 << j) if j < bits else (size,)
        tmax_v, tmin_v = blocks.tmax.reshape(shape), blocks.tmin.reshape(shape)
        for h in blocks.walk(j, hs):
            upper_t = _halves(sum_upper, j, h * size, size)[1]
            lower_t = _halves(sum_lower, j, h * size, size)[1]
            upper_t += tmax_v
            lower_t += tmin_v


def coalition_sums(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coalition totals of member bounds: (sum_upper, sum_lower), length 2^n."""
    n = E.shape[0]
    bits = min(_BLOCK_BITS, n - 1)
    nblocks = 1 << (n - 1 - bits)
    sum_upper, sum_lower = _shared(n, (2, 1 << n))
    # for j < n - 1 the top block bit is mask bit n - 1: masks without it
    # first, then masks with it and all of column n - 1
    low, high = range(nblocks // 2), range(nblocks // 2, nblocks)
    _in_halves(n, lambda: _add_columns(E, sum_upper, sum_lower, bits, [low] * (n - 1)),
               lambda: _add_columns(E, sum_upper, sum_lower, bits,
                                    [high] * (n - 1) + [range(nblocks)]))
    singles = 1 << np.arange(n)
    sum_upper[singles] = 1.0  # lone member appraises itself at 1 by convention
    sum_lower[singles] = 1.0
    return sum_upper, sum_lower


def _player_sums(E, sum_upper, sum_lower, weights, tol, players, out):
    """Share sums of ``players`` into columns of ``out``, a (3, n) array of
    (phi, phi_upper, phi_lower) rows; returns the first offender (player,
    mask) or (-1, -1).

    Stops at the first offender, leaving the later columns zero.
    """
    n = E.shape[0]
    bits = min(_BLOCK_BITS, n - 1)
    size = 1 << bits
    pc_low = _popcounts(size)
    pc_high = _popcounts(1 << (n - 1 - bits))
    # |S| and w[|S|] within a block, one row per count of high members
    counts = np.add.outer(np.arange(n - bits, dtype=np.int8), pc_low)
    s_rows = counts.astype(float)
    w_rows = weights[counts]
    blocks = _ColumnBlocks(E, bits)
    tmax, tmin, w_e = blocks.tmax, blocks.tmin, np.empty(size)
    den_mid, den_up, den_lo = np.empty(size), np.empty(size), np.empty(size)
    for i in players:
        shape = (-1, 1 << i) if i < bits else (size,)
        tmax_v, tmin_v = tmax.reshape(shape), tmin.reshape(shape)
        mid, up, lo = den_mid.reshape(shape), den_up.reshape(shape), den_lo.reshape(shape)
        mid_acc = up_acc = lo_acc = 0.0
        for h in blocks.walk(i, range(blocks.nblocks)):
            k0 = h * size
            upper_s, upper_t = _halves(sum_upper, i, k0, size)
            lower_s, lower_t = _halves(sum_lower, i, k0, size)
            s, w = s_rows[pc_high[h]], w_rows[pc_high[h]]
            # den_mid = |S| + (sum_upper[T] - eU) - sum_upper[S]; den_up and
            # den_lo take the lower totals of T and of S in its place
            np.subtract(upper_t, tmax_v, out=mid)
            den_mid += s
            np.subtract(mid, lower_s, out=lo)
            mid -= upper_s
            np.subtract(lower_t, tmin_v, out=up)
            den_up += s
            up -= upper_s
            first = 1 if h == 0 else 0   # skip the empty coalition, index 0
            dm, du, dl = den_mid[first:], den_up[first:], den_lo[first:]
            # den_lo >= den_mid exactly: the same minuend less sum_lower[S] <=
            # sum_upper[S], and rounding is monotone, so den_lo needs no scan
            if min(dm.min(), du.min()) <= tol:
                k = k0 + first + int(np.argmax((dm <= tol) | (du <= tol)))
                return i, _unsqueeze(k, i)
            w, e = w[first:], w_e[first:]
            np.multiply(w, tmax[first:], out=e)
            mid_acc += np.divide(e, dm, out=dm).sum()
            up_acc += np.divide(e, du, out=du).sum()
            np.multiply(w, tmin[first:], out=e)
            lo_acc += np.divide(e, dl, out=dl).sum()
        out[:, i] = mid_acc, up_acc, lo_acc
    return -1, -1


def shapley_sums(E, sum_upper, sum_lower, weights, tol):
    """Per-player share sums over every nonempty coalition S the player can join.

    Returns (phi, phi_upper, phi_lower, bad_player, bad_mask); bad_player is
    -1 unless some term denominator fell to ``tol`` or below, in which case
    the first offender (lowest player, then lowest mask) is reported.  The
    empty coalition contributes nothing here.
    """
    n = E.shape[0]
    out = _shared(n, (3, n))
    bad = _shared(n, (2, 2), np.int64)   # each half's first offender

    def half(k):   # k = 0: the even players, k = 1: the odd ones
        bad[k] = _player_sums(E, sum_upper, sum_lower, weights, tol, range(k, n, 2), out)

    _in_halves(n, lambda: half(0), lambda: half(1))
    return (*out, *min(((int(i), int(m)) for i, m in bad if i >= 0), default=(-1, -1)))
