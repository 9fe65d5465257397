"""Helpers shared by the built-in domains."""
from __future__ import annotations

import bisect

import numpy as np


def bin4(x: float, thresholds: tuple[float, float, float]) -> int:
    """Quantize into four bins by increasing thresholds; boundary values
    fall upward, and NaN falls in the top bin."""
    return bisect.bisect_right(thresholds, x)


def mean(a: np.ndarray) -> np.floating:
    """``np.mean`` of a float array, by its own ufunc steps."""
    return np.add.reduce(a, axis=None) / a.size


def norm(values) -> float:
    """``np.linalg.norm``, which dots the ravel: a strided view's dot can sum otherwise."""
    x = np.asarray(values)
    x = (x if issubclass(x.dtype.type, np.inexact) else x.astype(float)).ravel(order="K")
    return float(np.sqrt(x.dot(x)))
