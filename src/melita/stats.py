"""Rank-sum significance testing for comparing per-run outcome samples.

Mann-Whitney U with midranks for ties, a tie-corrected variance, a 0.5
continuity correction, and the normal approximation for p. Sample sizes
here are ~10 runs per method, where the approximation is customary; an
exact enumerator lives in the test suite as the oracle for tiny n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RankSumResult:
    statistic: float  # U of the first sample
    p_value: float
    alternative: str


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = mid
        i = j + 1
    return ranks


def rank_sum_test(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alternative: str = "two-sided",
) -> RankSumResult:
    """Compare two independent samples.

    alternative="two-sided" tests for any location difference;
    "greater" tests whether sample_a tends to exceed sample_b. When
    every value is tied the variance vanishes and p is reported as 1.
    """
    if alternative not in ("two-sided", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    n1, n2 = len(sample_a), len(sample_b)
    if n1 == 0 or n2 == 0:
        raise ValueError("rank_sum_test requires non-empty samples")

    pooled = [float(v) for v in sample_a] + [float(v) for v in sample_b]
    ranks = _midranks(pooled)
    r1 = math.fsum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1

    n = n1 + n2
    seen: dict[float, int] = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    tie_term = sum(count**3 - count for count in seen.values())
    variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    mean = n1 * n2 / 2.0

    if variance <= 0.0:
        return RankSumResult(u1, 1.0, alternative)
    sd = math.sqrt(variance)

    # Normal tails through erfc, which keeps its digits where p is small.
    if alternative == "greater":
        z = (u1 - mean - 0.5) / sd
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
    else:
        z = (min(u1, u2) - mean + 0.5) / sd
        p = math.erfc(-z / math.sqrt(2.0))
    return RankSumResult(u1, min(1.0, max(0.0, p)), alternative)
