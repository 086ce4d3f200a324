"""The coalition kernel: member-bound sums and Shapley sums over 2^n masks.

One numpy path serves every n.  It builds no index array and no n x 2^n
table, so its memory is O(2^n).

For an n x n appraisal matrix E (row = evaluator) and a target column j,
the *column tables* hold the max and the min of ``E[d, j]`` over every
subset of the other n - 1 players.  A subset is indexed by its mask with
bit j squeezed out, so index order is ascending mask order.  The tables
are filled by doubling: the k-th other player d maps entries [0, 2^k)
onto [2^k, 2^(k+1)) through ``max(t, E[d, j])``.  The empty set holds
-inf / +inf and is never read as a member bound.

Over a length-2^n array ``a``, the ``[:, 1, :]`` view of
``a.reshape(-1, 2, 2**j)`` lists the masks that contain bit j and the
``[:, 0, :]`` view the masks without it, both in squeezed order.  So a
column table adds straight into the coalition totals, and player j reads
S and S | {j} side by side, without any gather.

``sum_upper[mask]`` / ``sum_lower[mask]`` are the per-coalition totals of
the member bounds, with singletons pinned to 1 by convention.  Every sum
runs over coalitions in ascending mask order, so results are reproducible.
"""

from __future__ import annotations

import numpy as np


def _column_tables(E: np.ndarray, j: int, tmax: np.ndarray, tmin: np.ndarray) -> None:
    """Fill tmax/tmin (length 2^(n-1)) with column j's bounds over other-player subsets."""
    tmax[0] = -np.inf
    tmin[0] = np.inf
    h = 1
    for d in range(E.shape[0]):
        if d != j:
            np.maximum(tmax[:h], E[d, j], out=tmax[h:2 * h])
            np.minimum(tmin[:h], E[d, j], out=tmin[h:2 * h])
            h *= 2


def _popcounts(size: int) -> np.ndarray:
    """Popcount of every index in [0, size), size a power of two."""
    pc = np.zeros(size, dtype=np.int8)
    h = 1
    while h < size:
        np.add(pc[:h], 1, out=pc[h:2 * h])
        h *= 2
    return pc


def coalition_sums(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coalition totals of member bounds: (sum_upper, sum_lower), length 2^n."""
    n = E.shape[0]
    sum_upper = np.zeros(1 << n)
    sum_lower = np.zeros(1 << n)
    tmax = np.empty(1 << (n - 1))
    tmin = np.empty(1 << (n - 1))
    for j in range(n):
        _column_tables(E, j, tmax, tmin)
        step = 1 << j
        sum_upper.reshape(-1, 2, step)[:, 1, :] += tmax.reshape(-1, step)
        sum_lower.reshape(-1, 2, step)[:, 1, :] += tmin.reshape(-1, step)
    singles = 1 << np.arange(n)
    sum_upper[singles] = 1.0  # lone member appraises itself at 1 by convention
    sum_lower[singles] = 1.0
    return sum_upper, sum_lower


def shapley_sums(E, sum_upper, sum_lower, weights, tol):
    """Per-player share sums over every nonempty coalition S the player can join.

    Returns (phi, phi_upper, phi_lower, bad_player, bad_mask); bad_player is
    -1 unless some term denominator fell to ``tol`` or below, in which case
    the first offender (lowest player, then lowest mask) is reported.  The
    empty coalition contributes nothing here.
    """
    n = E.shape[0]
    half = 1 << (n - 1)
    pc = _popcounts(half)       # |S|, the same in every player's squeezed order
    w = weights[pc]
    tmax, tmin = np.empty(half), np.empty(half)
    den_mid, den_up, den_lo = np.empty(half), np.empty(half), np.empty(half)
    phi, phi_up, phi_lo = np.zeros(n), np.zeros(n), np.zeros(n)
    for i in range(n):
        _column_tables(E, i, tmax, tmin)
        step = 1 << i
        upper = sum_upper.reshape(-1, 2, step)
        lower = sum_lower.reshape(-1, 2, step)
        mid, up, lo = den_mid.reshape(-1, step), den_up.reshape(-1, step), den_lo.reshape(-1, step)
        # den_mid = |S| + (sum_upper[T] - eU) - sum_upper[S]; den_up and
        # den_lo take the lower totals of T and of S in its place
        np.subtract(upper[:, 1, :], tmax.reshape(-1, step), out=mid)
        den_mid += pc
        np.subtract(mid, lower[:, 0, :], out=lo)
        mid -= upper[:, 0, :]
        np.subtract(lower[:, 1, :], tmin.reshape(-1, step), out=up)
        den_up += pc
        up -= upper[:, 0, :]
        dm, du, dl = den_mid[1:], den_up[1:], den_lo[1:]
        if min(dm.min(), du.min(), dl.min()) <= tol:
            k = int(np.argmax((dm <= tol) | (du <= tol) | (dl <= tol))) + 1
            return phi, phi_up, phi_lo, i, ((k >> i) << (i + 1)) | (k & (step - 1))
        w_e = w[1:] * tmax[1:]
        phi[i] = np.divide(w_e, dm, out=dm).sum()
        phi_up[i] = np.divide(w_e, du, out=du).sum()
        np.multiply(w[1:], tmin[1:], out=w_e)
        phi_lo[i] = np.divide(w_e, dl, out=dl).sum()
    return phi, phi_up, phi_lo, -1, -1
