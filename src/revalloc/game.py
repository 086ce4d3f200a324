"""Coalition worths and the cross-efficiency Shapley shares with bounds.

Coalitions are bitmasks over DMU indices (bit i = DMU i).  A member's
in-coalition upper/lower bound is the max/min appraisal it receives from
the other members; a lone member scores exactly 1 by convention.  The
coalition worth is the sum of member upper bounds.

The per-player share replaces the classic marginal-contribution difference
with a ratio: joining coalition S, player i contributes its own received
upper bound against the shift it causes in the members' totals.  The
optimistic (pessimistic) variants put the player's upper (lower) received
bound over the least (most) favorable total shift.  The ratio is undefined
at S = empty; both conventions for that term are implemented (drop it, or
count it as the classic worth-of-singleton 1) and ``exclude`` is the
calibrated default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import CrossEfficiencyMatrix

MAX_DMUS = 24            # hard cap: the two 2^n sums take 256 MB at n = 24
DENOM_TOL = 1e-9
EMPTY_CONVENTIONS = ("exclude", "unit")
DEFAULT_EMPTY_COALITION = "exclude"


class DegenerateDenominatorError(ArithmeticError):
    """A Shapley term denominator fell below tolerance; names (player, coalition)."""

    def __init__(self, player: int, mask: int, names: list[str] | None = None):
        self.player = player
        self.mask = mask
        members = mask_members(mask)
        if names is None:
            who = f"DMU index {player}"
            coalition = ", ".join(map(str, members))
        else:
            who = f"DMU {names[player]} (index {player})"
            coalition = ", ".join(names[m] for m in members)
        super().__init__(
            f"term denominator <= {DENOM_TOL} for {who} "
            f"joining coalition {{{coalition}}} (mask {mask})"
        )


@dataclass(eq=False)
class ShapleyTriple:
    """Per-DMU lower / central / upper shares."""

    phi_lower: np.ndarray
    phi: np.ndarray
    phi_upper: np.ndarray

    @property
    def n(self) -> int:
        return self.phi.size


@dataclass(eq=False)
class CoalitionTable:
    """Precomputed per-coalition totals of the member bounds."""

    E: np.ndarray
    sum_upper: np.ndarray            # worth v(mask) = sum of member upper bounds
    sum_lower: np.ndarray

    @property
    def n(self) -> int:
        return self.E.shape[0]

    def characteristic(self, mask: int) -> float:
        _check_mask(mask, self.n)
        return float(self.sum_upper[mask])


def mask_members(mask: int) -> list[int]:
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def matrix_values(E) -> np.ndarray:
    """Accept a CrossEfficiencyMatrix or a plain square array."""
    values = E.values if isinstance(E, CrossEfficiencyMatrix) else np.asarray(E, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
        raise ValueError(f"appraisal matrix must be square and nonempty, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("appraisal matrix has non-finite entries")
    return values


def _check_mask(mask: int, n: int) -> None:
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask {mask} is not a coalition of {n} DMUs (0 <= mask < {1 << n})")


def _bounds(values: np.ndarray, mask: int, j: int) -> tuple[float, float]:
    others = [d for d in mask_members(mask) if d != j]
    if not others:
        return 1.0, 1.0
    col = values[others, j]
    return float(col.max()), float(col.min())


def coalition_bounds(E, mask: int, j: int) -> tuple[float, float]:
    """(upper, lower) appraisal bounds of member j in coalition mask, directly."""
    values = matrix_values(E)
    n = values.shape[0]
    _check_mask(mask, n)
    if not 0 <= j < n:
        raise ValueError(f"DMU index {j} is out of range for {n} DMUs")
    if not (mask >> j) & 1:
        raise ValueError(f"DMU {j} is not a member of mask {mask}")
    return _bounds(values, mask, j)


def characteristic_value(E, mask: int) -> float:
    """Coalition worth: sum over members of their upper received appraisal."""
    values = matrix_values(E)
    _check_mask(mask, values.shape[0])
    total = 0.0
    for j in mask_members(mask):
        total += _bounds(values, mask, j)[0]
    return total


def coalition_weights(n: int) -> np.ndarray:
    """w[s] = s!(n-s-1)!/n! for s = 0..n-1, via exact integer binomials."""
    return np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)])


def build_coalition_table(E) -> CoalitionTable:
    """Build the per-coalition sums with the blocked column kernel.

    Memory is the two length-2^n sums plus block buffers: at n = 24 the
    peak is 256 MB of sums, down from 384 MB with full-length column tables.
    """
    values = matrix_values(E)
    n = values.shape[0]
    if n > MAX_DMUS:
        raise ValueError(f"{n} DMUs exceeds the coalition cap of {MAX_DMUS}")
    sum_upper, sum_lower = _kernels.coalition_sums(values)
    return CoalitionTable(values, sum_upper, sum_lower)


def include_empty_coalition(triple: ShapleyTriple) -> ShapleyTriple:
    """The ``unit`` triple from an ``exclude`` one.

    The empty-coalition term adds w[0] = 1/n to every share; a lone DMU's
    share is 1 under either convention.
    """
    if triple.n == 1:
        return triple
    w0 = coalition_weights(triple.n)[0]
    return ShapleyTriple(phi_lower=triple.phi_lower + w0, phi=triple.phi + w0,
                         phi_upper=triple.phi_upper + w0)


def shapley_triples(E, empty_coalition: str = DEFAULT_EMPTY_COALITION) -> ShapleyTriple:
    """Lower/central/upper shares in one pass over the coalition table."""
    values = matrix_values(E)
    n = values.shape[0]
    if empty_coalition not in EMPTY_CONVENTIONS:
        raise ValueError(f"empty_coalition must be one of {EMPTY_CONVENTIONS}")
    if n == 1:
        # a lone DMU owns its whole (unit) worth; the coalition sum is vacuous
        one = np.ones(1)
        return ShapleyTriple(phi_lower=one.copy(), phi=one.copy(), phi_upper=one.copy())
    table = build_coalition_table(values)
    phi, up, lo, bad_i, bad_mask = _kernels.shapley_sums(
        values, table.sum_upper, table.sum_lower, coalition_weights(n), DENOM_TOL,
    )
    if bad_i >= 0:
        raise DegenerateDenominatorError(int(bad_i), int(bad_mask))
    triple = ShapleyTriple(phi_lower=lo, phi=phi, phi_upper=up)
    return include_empty_coalition(triple) if empty_coalition == "unit" else triple
