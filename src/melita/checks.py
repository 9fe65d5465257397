"""Argument checks shared by RunConfig and the built-in domains. Each
returns a plain int or float, or raises a ValueError naming the field."""
from __future__ import annotations

import math
from numbers import Integral, Real


def require_int(name: str, value: object, minimum: int, maximum: int | None = None) -> int:
    """An integer of at least ``minimum`` and, when given, at most
    ``maximum``; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, Integral)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be an integer <= {maximum}, got {value!r}")
    return int(value)


def require_finite(name: str, value: object) -> float:
    """A finite, non-negative number within float range; bools are rejected."""
    try:
        if not isinstance(value, bool) and isinstance(value, Real) and 0 <= value < math.inf:
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
