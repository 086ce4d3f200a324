"""Checks of revalloc's outputs, computed apart from the package.

Nothing here imports revalloc.  The LPs are solved with scipy's HiGHS,
the ally groups come from scipy's average linkage, and the coalition
shares from a set-wise enumeration over bitmask views.  Each check raises
``CheckError`` naming the first entry that disagrees.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.optimize import linprog

SCORE_TOL = 1e-7      # HiGHS optimum vs the program's self-score
OPTIMUM_TOL = 1e-6    # tie-break optimum with and without the row pinned, relative
WEIGHT_TOL = 1e-6     # how far below 0 the weights behind a pinned row may go
SHARE_TOL = 1e-9      # shares vs the enumeration, absolute
MONEY_TOL = 1e-9      # allocations, relative to the revenue
SAME_TOL = 1e-9       # two outputs that must agree (reruns, relabelled inputs)
RANGE_TOL = 1e-9      # rounding above 1 allowed in an appraisal, as the package's matrix reader allows


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ------------------------------------------------------------ appraisal (LP)

def normalized(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each input and output column divided by its sum over the DMUs."""
    return X / X.sum(axis=0), Y / Y.sum(axis=0)


def ratio_scores(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Self-scores: max Y_d u subject to X_d v = 1 and Y_j u <= X_j v for all j."""
    Xn, Yn = normalized(X, Y)
    n, m = Xn.shape
    s = Yn.shape[1]
    A_ub = np.hstack([Yn, -Xn])
    scores = np.empty(n)
    for d in range(n):
        res = linprog(np.concatenate([-Yn[d], np.zeros(m)]), A_ub=A_ub, b_ub=np.zeros(n),
                      A_eq=np.concatenate([np.zeros(s), Xn[d]])[None], b_eq=[1.0],
                      method="highs")
        require(res.status == 0, f"ratio LP for DMU {d} did not solve: {res.message}")
        scores[d] = -res.fun
    return scores


def average_linkage_groups(X: np.ndarray, Y: np.ndarray, H: int) -> np.ndarray:
    """Ally labels from average linkage on the normalized features, cut at H groups."""
    Xn, Yn = normalized(X, Y)
    n = Xn.shape[0]
    merges = linkage(np.hstack([Xn, Yn]), method="average", metric="euclidean")
    members = {i: [i] for i in range(n)}
    for k, (a, b) in enumerate(merges[: n - H, :2].astype(int)):
        members[n + k] = members.pop(a) + members.pop(b)
    labels = np.empty(n, dtype=int)
    for gid, group in enumerate(members.values(), start=1):
        labels[group] = gid
    return labels


def tiebreak_optimum(X: np.ndarray, Y: np.ndarray, d: int, theta_d: float,
                     labels: np.ndarray, row: np.ndarray | None = None) -> float | None:
    """Least allies'-minus-adversaries' slack over weights that keep d's self-score.

    With ``row``, the weights must also reproduce evaluator d's appraisals
    ``row[j] = Y_j u / X_j v``, and may be negative by ``WEIGHT_TOL``.
    Returns None when no such weights exist.
    """
    Xn, Yn = normalized(X, Y)
    n = Xn.shape[0]
    others = np.arange(n) != d
    sign = np.where(labels == labels[d], 1.0, -1.0)[others]
    # slack_j = X_j v - Y_j u >= 0 for every other DMU j
    cost = np.concatenate([-(sign @ Yn[others]), sign @ Xn[others]])
    A_ub = np.hstack([Yn[others], -Xn[others]])
    A_eq = [np.concatenate([Yn[d], -theta_d * Xn[d]]),
            np.concatenate([np.zeros(Yn.shape[1]), Xn[d]])]
    b_eq = [0.0, 1.0]
    lowest = 0.0
    if row is not None:
        A_eq.extend(np.hstack([Yn[others], -row[others, None] * Xn[others]]))
        b_eq.extend([0.0] * int(others.sum()))
        lowest = -WEIGHT_TOL
    res = linprog(cost, A_ub=A_ub, b_ub=np.zeros(n - 1), A_eq=np.array(A_eq), b_eq=b_eq,
                  bounds=(lowest, None), method="highs")
    if res.status == 2:
        return None
    require(res.status == 0, f"tie-break LP for evaluator {d} did not solve: {res.message}")
    return float(res.fun)


def check_scores(X: np.ndarray, Y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The program's self-scores against HiGHS; returns the HiGHS scores."""
    ref = ratio_scores(X, Y)
    dev = np.abs(np.asarray(theta) - ref)
    d = int(dev.argmax())
    require(dev[d] <= SCORE_TOL,
             f"self-score of DMU {d} is {float(theta[d])!r}, HiGHS gives {float(ref[d])!r}")
    return ref


def check_matrix(X: np.ndarray, Y: np.ndarray, theta: np.ndarray, E: np.ndarray,
                 labels: np.ndarray) -> None:
    """Appraisal matrix: range, diagonal, and every row reachable at the tie-break optimum."""
    E = np.asarray(E, dtype=float)
    ref = check_scores(X, Y, theta)
    require(bool((E > 0).all()), f"matrix has an entry <= 0: {E.min()!r}")
    require(bool((E <= 1 + RANGE_TOL).all()), f"matrix has an entry > 1: {E.max()!r}")
    diag = np.abs(np.diag(E) - np.asarray(theta))
    require(diag.max() <= SAME_TOL,
             f"matrix diagonal differs from the self-scores at DMU {int(diag.argmax())}")
    for d in range(E.shape[0]):
        check_row(X, Y, d, ref[d], labels, E[d])


def check_row(X, Y, d: int, theta_d: float, labels, row) -> None:
    """Row d must come from weights that attain the tie-break optimum."""
    free = tiebreak_optimum(X, Y, d, theta_d, labels)
    pinned = tiebreak_optimum(X, Y, d, theta_d, labels, np.asarray(row, dtype=float))
    require(pinned is not None, f"no weights with the self-score reproduce row {d}")
    require(abs(pinned - free) <= OPTIMUM_TOL * max(1.0, abs(free)),
             f"row {d} is reached at tie-break objective {pinned!r}, optimum is {free!r}")


def check_same(name: str, got, want, tol: float = SAME_TOL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    if got.size:
        dev = np.abs(got - want)
        k = int(dev.argmax())
        where = tuple(int(i) for i in np.unravel_index(k, got.shape))
        require(dev.flat[k] <= tol,
                 f"{name}: entry {where} is {float(got.flat[k])!r}, "
                 f"expected {float(want.flat[k])!r}")


# ------------------------------------------------------------- coalition game

def _with_bit(a: np.ndarray, bit: int) -> np.ndarray:
    """View of the entries of a 2^n array whose mask contains ``bit``."""
    return a.reshape(-1, 2, 1 << bit)[:, 1, :]


def _without_bit(a: np.ndarray, bit: int) -> np.ndarray:
    return a.reshape(-1, 2, 1 << bit)[:, 0, :]


def _received(E: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Best and worst appraisal of DMU j over the evaluators in each set (0 for the empty set).

    Sets are filled by doubling: the sets whose highest member is d are the
    sets below 2^d with d added.
    """
    n = E.shape[0]
    hi = np.empty(1 << n)
    lo = np.empty(1 << n)
    hi[0] = -np.inf
    lo[0] = np.inf
    for d in range(n):
        np.maximum(hi[: 1 << d], E[d, j], out=hi[1 << d: 2 << d])
        np.minimum(lo[: 1 << d], E[d, j], out=lo[1 << d: 2 << d])
    hi[0] = lo[0] = 0.0
    return hi, lo


def share_triple(E, include_empty: bool = False):
    """(lower, central, upper) shares of every DMU by enumerating all coalitions.

    A member's received bounds in a set are the best and worst appraisal the
    other members give it (1 when alone); a set's totals sum them.  Joining
    S, player i earns w(|S|) times its received bound over |S| plus the
    shift in the others' totals; ``include_empty`` counts the S = {} term as
    the lone player's worth 1.
    """
    E = np.asarray(E, dtype=float)
    n = E.shape[0]
    if n == 1:
        return np.ones(1), np.ones(1), np.ones(1)
    size = 1 << n
    total_hi = np.zeros(size)
    total_lo = np.zeros(size)
    count = np.zeros(size)
    for j in range(n):
        hi, lo = _received(E, j)
        _with_bit(total_hi, j)[...] += _without_bit(hi, j)
        _with_bit(total_lo, j)[...] += _without_bit(lo, j)
        _with_bit(count, j)[...] += 1.0
    alone = 1 << np.arange(n)
    total_hi[alone] = 1.0
    total_lo[alone] = 1.0
    weight = np.array([math.factorial(k) * math.factorial(n - k - 1) / math.factorial(n)
                       for k in range(n)])
    start = weight[0] if include_empty else 0.0
    lower, central, upper = np.full(n, start), np.full(n, start), np.full(n, start)
    for i in range(n):
        hi, lo = _received(E, i)
        S = slice(1, None)  # every nonempty coalition without i
        e_hi, e_lo = _without_bit(hi, i).ravel()[S], _without_bit(lo, i).ravel()[S]
        k = _without_bit(count, i).ravel()[S]
        hi_S, lo_S = _without_bit(total_hi, i).ravel()[S], _without_bit(total_lo, i).ravel()[S]
        shift_hi = _with_bit(total_hi, i).ravel()[S] - e_hi
        shift_lo = _with_bit(total_lo, i).ravel()[S] - e_lo
        den_mid = k + shift_hi - hi_S
        den_up = k + shift_lo - hi_S
        den_lo = k + shift_hi - lo_S
        require(bool((np.minimum(np.minimum(den_mid, den_up), den_lo) > 0).all()),
                 f"share denominator <= 0 for player {i}")
        w = weight[k.astype(int)]
        central[i] += float(np.sum(w * e_hi / den_mid))
        upper[i] += float(np.sum(w * e_hi / den_up))
        lower[i] += float(np.sum(w * e_lo / den_lo))
    return lower, central, upper


def check_shares(E, lower, central, upper, include_empty: bool = False):
    """Shares against the enumeration, positive and ordered; returns the enumeration."""
    want = share_triple(E, include_empty)
    for name, got, ref in zip(("phi_lower", "phi", "phi_upper"), (lower, central, upper), want):
        check_same(name, got, ref, SHARE_TOL)
    lower, central, upper = (np.asarray(a, dtype=float) for a in (lower, central, upper))
    require(bool((lower > 0).all()), "a lower share is not positive")
    require(bool((lower <= central + SHARE_TOL).all() and (central <= upper + SHARE_TOL).all()),
             "shares are not ordered lower <= central <= upper")
    return want


def check_relabelled(triple, relabelled, perm) -> None:
    """Shares of the matrix relabelled by ``perm`` are the shares permuted."""
    for name, got, base in zip(("phi_lower", "phi", "phi_upper"), relabelled, triple):
        check_same(f"relabelled {name}", got, np.asarray(base)[perm])


# ----------------------------------------------------------------- allocation

def check_allocation(revenue: float, shares, lower, central, upper) -> None:
    """Central split sums to R in proportion to phi; brackets hold and match their formulas."""
    phi_lo, phi, phi_up = (np.asarray(a, dtype=float) for a in shares)
    lower, central, upper = (np.asarray(a, dtype=float) for a in (lower, central, upper))
    tol = MONEY_TOL * revenue
    require(abs(central.sum() - revenue) <= tol,
             f"central allocations sum to {float(central.sum())!r}, not {revenue!r}")
    check_same("central allocation", central, revenue * phi / phi.sum(), tol)
    check_same("optimistic allocation", upper,
               revenue * phi_up / (phi_up + phi_lo.sum() - phi_lo), tol)
    check_same("pessimistic allocation", lower,
               revenue * phi_lo / (phi_lo + phi_up.sum() - phi_up), tol)
    require(bool((lower <= central + tol).all() and (central <= upper + tol).all()),
             "an allocation bracket does not hold lower <= central <= upper")
