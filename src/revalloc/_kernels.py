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
are exact, so the sums match full-length column tables bit for bit.  The
sums live in one shared anonymous mapping (``mmap``), which tracemalloc does
not see: at n = 20 the pass's traced peak is 0.63 MiB of block buffers.

The shares walk the same blocks.  Per-block partial sums are added per
player in ascending block order, so the shares are deterministic and the
first degenerate term found is still the lowest player's lowest mask.

Each pass forks one helper process and splits its work in two disjoint
halves, where ``_forks`` allows it (2 or more blocks per column, ``os.fork``,
and 2 or more CPUs in the affinity mask):

* table pass: for j < n - 1 the top bit of a block number is mask bit
  n - 1.  The calling process adds the first half of every such column's
  blocks (the masks without player n - 1); the helper adds the second half
  and then all of column n - 1, so each mask still gets its columns in
  ascending order, and both write straight into the shared sums;
* share pass: the calling process takes the even players and the helper
  the odd ones, so the costly low-bit players fall on both sides.  The
  helper pipes back its 3 sums per player and its first offender; the
  lower (player, mask) of the two halves is reported.

Each entry is computed as in one process, so the bits do not depend on the
CPU count.  The halves write disjoint data; the helper runs only numpy
code and leaves through ``os._exit``.  At n = 21 the
table pass takes 0.127 s against 0.210 s in one process, and the share
pass 0.274 s against 0.506 s (medians of 16 alternating runs on
``perfbench/inputs.appraisal_matrix(1)``, 2-vCPU Xeon at 2.1 GHz).
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


def _in_two_processes(mine, theirs, reply_size: int):
    """Run ``theirs()`` in a forked helper while ``mine()`` runs here.

    Returns ``mine()``'s result and the ``reply_size`` bytes ``theirs()``
    returned (``theirs`` returns None when ``reply_size`` is 0).  If fork
    fails, both run here.  The helper leaves through ``os._exit`` and is
    always reaped; an exception here, ``KeyboardInterrupt`` included,
    kills it first.  A helper that exits nonzero or replies short raises
    ``RuntimeError``.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:   # EAGAIN or ENOMEM: no helper, the same halves here
        os.close(r)
        os.close(w)
        return mine(), theirs()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as out:
                out.write(theirs() or b"")
            code = 0
        except Exception:
            import traceback   # only a failing helper loads it
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as replies:
            result = mine()
            reply = replies.read(reply_size)
    except BaseException:
        import signal   # only a failing pass loads it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or len(reply) != reply_size:
        raise RuntimeError(f"coalition helper failed with exit status "
                           f"{os.waitstatus_to_exitcode(status)} after replying "
                           f"{len(reply)} of {reply_size} bytes")
    return result, reply


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
    # one shared zero-filled mapping, so a helper's writes land in these sums
    try:
        sums = np.frombuffer(mmap.mmap(-1, 2 * 8 << n))
    except OSError as err:   # ENOMEM: out of memory, as np.zeros would report it
        raise MemoryError(f"cannot map the coalition sums for {n} players") from err
    sum_upper, sum_lower = sums[:1 << n], sums[1 << n:]
    every = range(nblocks)
    if _forks(nblocks):
        # for j < n - 1 the top block bit is mask bit n - 1: masks without it
        # here, masks with it (and all of column n - 1) in the helper
        low, high = range(nblocks // 2), range(nblocks // 2, nblocks)
        _in_two_processes(
            lambda: _add_columns(E, sum_upper, sum_lower, bits, [low] * (n - 1)),
            lambda: _add_columns(E, sum_upper, sum_lower, bits, [high] * (n - 1) + [every]),
            0)
    else:
        _add_columns(E, sum_upper, sum_lower, bits, [every] * n)
    singles = 1 << np.arange(n)
    sum_upper[singles] = 1.0  # lone member appraises itself at 1 by convention
    sum_lower[singles] = 1.0
    return sum_upper, sum_lower


def _player_sums(E, sum_upper, sum_lower, weights, tol, players):
    """Share sums of ``players``: a (3, len(players)) array of (phi, phi_upper,
    phi_lower) rows, and the first offender (player, mask) or (-1, -1).

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
    out = np.zeros((3, len(players)))
    for col, i in enumerate(players):
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
                return out, (i, _unsqueeze(k, i))
            w, e = w[first:], w_e[first:]
            np.multiply(w, tmax[first:], out=e)
            mid_acc += np.divide(e, dm, out=dm).sum()
            up_acc += np.divide(e, du, out=du).sum()
            np.multiply(w, tmin[first:], out=e)
            lo_acc += np.divide(e, dl, out=dl).sum()
        out[:, col] = mid_acc, up_acc, lo_acc
    return out, (-1, -1)


def shapley_sums(E, sum_upper, sum_lower, weights, tol):
    """Per-player share sums over every nonempty coalition S the player can join.

    Returns (phi, phi_upper, phi_lower, bad_player, bad_mask); bad_player is
    -1 unless some term denominator fell to ``tol`` or below, in which case
    the first offender (lowest player, then lowest mask) is reported.  The
    empty coalition contributes nothing here.
    """
    n = E.shape[0]
    args = (E, sum_upper, sum_lower, weights, tol)
    if not _forks(1 << (n - 1 - min(_BLOCK_BITS, n - 1))):
        out, bad = _player_sums(*args, range(n))
        return (*out, *bad)
    # even players here, odd ones in the helper, which replies with its
    # 3 sums per player and then its first offender as int64
    odd = range(1, n, 2)

    def helper():
        out, bad = _player_sums(*args, odd)
        return out.tobytes() + np.array(bad, dtype=np.int64).tobytes()

    (out_even, bad_even), reply = _in_two_processes(
        lambda: _player_sums(*args, range(0, n, 2)), helper, 8 * (3 * len(odd) + 2))
    out = np.empty((3, n))
    out[:, 0::2] = out_even
    out[:, 1::2] = np.frombuffer(reply[:-16]).reshape(3, -1)
    bad_odd = tuple(int(x) for x in np.frombuffer(reply[-16:], dtype=np.int64))
    bad = min((b for b in (bad_even, bad_odd) if b[0] >= 0), default=(-1, -1))
    return (*out, *bad)
