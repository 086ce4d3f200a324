"""Coalition worths and the cross-efficiency Shapley shares with bounds.

Coalitions are bitmasks over DMU indices (bit i = DMU i).  A member's
in-coalition upper/lower bound is the max/min appraisal it receives from
the other members; a lone member scores exactly 1 by convention.  The
coalition worth (the characteristic function) is the sum of member upper
bounds.  ``build_coalition_table`` returns both totals for every mask,
with ``sum_upper[mask]`` the worth v(mask) and ``sum_lower[mask]`` the sum
of member lower bounds; it runs in the calling process.
``shapley_triples`` builds the same totals in its own game and computes
the shares over them.

The per-player share replaces the classic marginal-contribution difference
with a ratio: joining coalition S, player i contributes its own received
upper bound against the shift it causes in the members' totals.  The
optimistic (pessimistic) variants put the player's upper (lower) received
bound over the least (most) favorable total shift.  The ratio is undefined
at S = empty.  ``shapley_triples`` drops that term (the ``exclude``
convention, the calibrated default); ``include_empty_coalition`` adds it
back as the classic worth-of-singleton 1 (the ``unit`` convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import CrossEfficiencyMatrix, ValidationError, _floats, check_scores

MAX_DMUS = 24            # hard cap: the two 2^n sums take 256 MB at n = 24, of which
                         # each process of a game maps about 32 MB at a time
DENOM_TOL = 1e-9
EMPTY_CONVENTIONS = ("exclude", "unit")
DEFAULT_EMPTY_COALITION = "exclude"


class DegenerateDenominatorError(ArithmeticError):
    """A Shapley term denominator fell below tolerance; names (player, coalition)."""

    def __init__(self, player: int, mask: int, names: list[str] | None = None):
        self.player = player
        self.mask = mask
        members = [i for i in range(mask.bit_length()) if mask >> i & 1]
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
    """Per-DMU lower / central / upper shares, as float vectors of one length.

    Rows of any array-like kind are read as floats: ParseError unless they
    are numbers, ValidationError unless they are nonempty vectors of one
    length.  Their values are ``allocate``'s to check.
    """

    phi_lower: np.ndarray
    phi: np.ndarray
    phi_upper: np.ndarray

    def __post_init__(self):
        rows = [_floats(row, "shares") for row in (self.phi_lower, self.phi, self.phi_upper)]
        if any(row.shape != (rows[1].size,) for row in rows):
            raise ValidationError("share rows must be vectors of one length, got shapes "
                                  + ", ".join(str(row.shape) for row in rows))
        if rows[1].size == 0:
            raise ValidationError("share rows need at least one DMU")
        self.phi_lower, self.phi, self.phi_upper = rows

    @property
    def n(self) -> int:
        return self.phi.size


@dataclass(eq=False)
class CoalitionTable:
    """Precomputed per-coalition totals of the member bounds."""

    E: np.ndarray
    sum_upper: np.ndarray            # worth v(mask) = sum of member upper bounds
    sum_lower: np.ndarray


def matrix_values(E) -> np.ndarray:
    """The scores of a CrossEfficiencyMatrix, or a plain array checked as one."""
    return E.values if isinstance(E, CrossEfficiencyMatrix) else check_scores(E)


def coalition_weights(n: int) -> np.ndarray:
    """w[s] = s!(n-s-1)!/n! for s = 0..n-1, via exact integer binomials."""
    return np.array([1.0 / (n * math.comb(n - 1, s)) for s in range(n)])


def check_coalition_cap(n: int) -> None:
    """Refuse a game of more than ``MAX_DMUS`` players."""
    if n > MAX_DMUS:
        raise ValidationError(f"{n} DMUs exceeds the coalition cap of {MAX_DMUS}")


def build_coalition_table(E) -> CoalitionTable:
    """Build the per-coalition sums with the blocked column kernel, in this process.

    Memory is the two length-2^n sums plus block buffers: at n = 24 the
    peak is 256 MB of sums.
    """
    values = matrix_values(E)
    check_coalition_cap(values.shape[0])
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


def shapley_triples(E) -> ShapleyTriple:
    """Lower/central/upper ``exclude`` shares in one game: the coalition
    sums, then the shares over them."""
    values = matrix_values(E)
    n = values.shape[0]
    if n == 1:
        # a lone DMU owns its whole (unit) worth; the coalition sum is vacuous
        one = np.ones(1)
        return ShapleyTriple(phi_lower=one.copy(), phi=one.copy(), phi_upper=one.copy())
    check_coalition_cap(n)
    phi, up, lo, bad_i, bad_mask = _kernels.shapley_sums(values, coalition_weights(n), DENOM_TOL)
    if bad_i >= 0:
        raise DegenerateDenominatorError(int(bad_i), int(bad_mask), getattr(E, "names", None))
    return ShapleyTriple(phi_lower=lo, phi=phi, phi_upper=up)
