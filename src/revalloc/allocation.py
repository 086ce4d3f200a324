"""Turn share triples and a revenue amount into allocation vectors.

The central allocation splits R proportionally to the central shares.  The
optimistic figure for a DMU pits its upper share against everybody else's
lower share; the pessimistic figure is the mirror image.  Together they
bracket the central allocation DMU by DMU.
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
    if not np.isfinite(revenue) or revenue <= 0:
        raise AllocationError(f"revenue must be positive, got {revenue!r}")


def _validated(triple: ShapleyTriple, revenue: float) -> ShapleyTriple:
    check_revenue(revenue)
    arrays = (triple.phi_lower, triple.phi, triple.phi_upper)
    for arr in arrays:
        if (np.asarray(arr) <= 0).any():
            raise AllocationError("shares must be strictly positive")
    if ((triple.phi_lower > triple.phi + ORDER_TOL)
            | (triple.phi > triple.phi_upper + ORDER_TOL)).any():
        raise AllocationError("share triples must satisfy lower <= central <= upper")
    return triple


def optimistic_allocation(triple: ShapleyTriple, revenue: float) -> np.ndarray:
    """Each DMU's upper share against everyone else's lower shares."""
    return allocate(triple, revenue).upper


def pessimistic_allocation(triple: ShapleyTriple, revenue: float) -> np.ndarray:
    """Each DMU's lower share against everyone else's upper shares."""
    return allocate(triple, revenue).lower


def allocate(triple: ShapleyTriple, revenue: float,
             names: list[str] | None = None) -> AllocationPlan:
    """Full allocation plan: proportional split plus both brackets."""
    _validated(triple, revenue)
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
