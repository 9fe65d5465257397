import itertools
import math

import numpy as np
import pytest

from melita import rank_sum_test


def midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for idx in order[i : j + 1]:
            ranks[idx] = (i + j) / 2 + 1.0
        i = j + 1
    return ranks


def exact_two_sided_p(a, b):
    """Permutation-exact two-sided p: enumerate every assignment of the
    pooled observations to group A and count U values at least as
    extreme (on either side) as the observed one."""
    n1 = len(a)
    pooled = list(a) + list(b)
    ranks = midranks(pooled)
    offset = n1 * (n1 + 1) / 2.0

    observed = math.fsum(ranks[:n1]) - offset
    u_min_obs = min(observed, n1 * (len(pooled) - n1) - observed)

    extreme = total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        u1 = math.fsum(ranks[i] for i in combo) - offset
        u2 = n1 * (len(pooled) - n1) - u1
        total += 1
        if min(u1, u2) <= u_min_obs + 1e-12:
            extreme += 1
    return extreme / total


def test_identical_samples():
    result = rank_sum_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert result.statistic == 4.5
    assert result.p_value == 1.0


def test_separated_samples():
    result = rank_sum_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert result.statistic == 0.0
    # The permutation-exact p here is 2/20 = 0.1; the continuity-corrected
    # normal approximation lands near 0.08 at this tiny n.
    assert exact_two_sided_p([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)
    assert 0.04 <= result.p_value <= 0.11


def test_all_ties_longer():
    result = rank_sum_test([2.0] * 5, [2.0] * 4)
    assert result.p_value == 1.0


def test_two_sided_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = list(rng.integers(0, 5, size=int(rng.integers(2, 7))).astype(float))
        b = list(rng.integers(0, 5, size=int(rng.integers(2, 7))).astype(float))
        ab = rank_sum_test(a, b)
        ba = rank_sum_test(b, a)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert ab.statistic + ba.statistic == pytest.approx(len(a) * len(b))


def test_normal_approximation_tracks_exact_enumeration():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(40):
        n1 = int(rng.integers(3, 7))
        n2 = int(rng.integers(3, 7))
        a = list(rng.integers(0, 6, size=n1).astype(float))
        b = list(rng.integers(0, 6, size=n2).astype(float))
        approx = rank_sum_test(a, b).p_value
        exact = exact_two_sided_p(a, b)
        assert 0.0 <= approx <= 1.0
        worst = max(worst, abs(approx - exact))
    assert worst <= 0.15


def test_greater_alternative():
    high_vs_low = rank_sum_test([4.0, 5.0, 6.0], [1.0, 2.0, 3.0], "greater")
    assert high_vs_low.statistic == 9.0
    assert high_vs_low.p_value == pytest.approx(0.0404, abs=0.01)

    low_vs_high = rank_sum_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], "greater")
    assert low_vs_high.p_value > 0.9


def test_greater_monotone_in_shift():
    rng = np.random.default_rng(13)
    base = list(rng.random(10))
    previous = None
    for shift in (0.0, 0.3, 0.8, 2.0):
        p = rank_sum_test([v + shift for v in base], base, "greater").p_value
        if previous is not None:
            assert p <= previous + 1e-12
        previous = p


def test_validation():
    with pytest.raises(ValueError):
        rank_sum_test([], [1.0])
    with pytest.raises(ValueError):
        rank_sum_test([1.0], [1.0], alternative="less")


def test_matches_scipy_mannwhitneyu_with_ties():
    # scipy is an independent implementation of the same statistic: the
    # asymptotic two-sided test with tie-corrected variance and continuity
    # correction. Integer draws from a small range make ties common, and
    # fully separated 20-vs-20 and 30-vs-30 samples reach p near 7e-8 and
    # 3e-11, where a tail computed as 1 + erf cancels. U must agree
    # exactly and p to 5e-14; the worst difference seen is 4.3e-15.
    mannwhitneyu = pytest.importorskip("scipy.stats").mannwhitneyu

    rng = np.random.default_rng(14)
    samples = []
    for trial in range(200):
        n1 = int(rng.integers(1, 16))
        n2 = int(rng.integers(1, 16))
        high = int(rng.integers(2, 12))
        a = list(rng.integers(0, high, size=n1).astype(float))
        b = list(rng.integers(0, high, size=n2).astype(float) + (trial % 3))
        if len(set(a + b)) == 1:
            continue  # scipy reports nan where every value ties
        samples.append((a, b))
    for n in (20, 30):
        low, high = [float(v) for v in range(n)], [float(v + n) for v in range(n)]
        samples += [(low, high), (high, low)]
    for a, b in samples:
        ours = rank_sum_test(a, b)
        theirs = mannwhitneyu(a, b, alternative="two-sided", use_continuity=True, method="asymptotic")
        assert ours.statistic == theirs.statistic
        assert math.isclose(ours.p_value, theirs.pvalue, rel_tol=5e-14), (a, b)
    assert min(rank_sum_test(a, b).p_value for a, b in samples) < 1e-10
