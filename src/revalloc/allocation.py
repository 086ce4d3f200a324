"""Turn share triples and a revenue amount into allocation vectors.

The central allocation splits R proportionally to the central shares.  The
optimistic figure for a DMU pits its upper share against everybody else's
lower share; the pessimistic figure is the mirror image.  Together they
bracket the central allocation DMU by DMU.  ``allocate`` returns all three:
the brackets are its plan's ``upper`` and ``lower``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import ShapleyTriple

ORDER_TOL = 1e-9


class AllocationError(ValueError):
    """Invalid revenue or share inputs."""


@dataclass(eq=False)
class AllocationPlan:
    """Central allocation plus per-DMU optimistic/pessimistic brackets."""

    revenue: float
    central: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    shares: np.ndarray
    names: list[str] | None = None


def check_revenue(revenue: float) -> None:
    """Refuse a revenue that is not a positive finite number."""
    if np.shape(revenue) != () or np.asarray(revenue).dtype.kind not in "iuf":
        raise AllocationError(f"revenue must be a number, got {revenue!r}")
    if not np.isfinite(revenue) or revenue <= 0:
        raise AllocationError(f"revenue must be positive, got {revenue!r}")


def _check_shares(triple: ShapleyTriple, revenue: float) -> None:
    """Refuse a bad ``revenue``, or share rows that are not finite, positive and ordered."""
    check_revenue(revenue)
    lower, phi, upper = triple.phi_lower, triple.phi, triple.phi_upper
    for arr in (lower, phi, upper):
        if not np.isfinite(arr).all():
            raise AllocationError("shares must be finite")
        if (arr <= 0).any():
            raise AllocationError("shares must be strictly positive")
    if ((lower > phi + ORDER_TOL) | (phi > upper + ORDER_TOL)).any():
        raise AllocationError("share triples must satisfy lower <= central <= upper")


def allocate(triple: ShapleyTriple, revenue: float,
             names: list[str] | None = None) -> AllocationPlan:
    """Full allocation plan: proportional split plus both brackets.

    The triple's rows are already float vectors of one length
    (``ShapleyTriple`` reads them so); AllocationError unless ``revenue`` is
    a positive finite number, the rows are finite, positive and ordered
    lower <= central <= upper, and ``names``, if given, is a list of one
    name per DMU.
    """
    _check_shares(triple, revenue)
    if isinstance(names, str):
        raise AllocationError(f"names must be a list of strings, got {names!r}")
    if names is not None and len(names) != triple.n:
        raise AllocationError(f"{len(names)} names for {triple.n} DMUs")
    up, lo = triple.phi_upper, triple.phi_lower
    shares = triple.phi / triple.phi.sum()
    return AllocationPlan(
        revenue=float(revenue),
        central=revenue * shares,
        upper=revenue * up / (up + (lo.sum() - lo)),
        lower=revenue * lo / (lo + (up.sum() - up)),
        shares=shares,
        names=list(names) if names is not None else None,
    )
