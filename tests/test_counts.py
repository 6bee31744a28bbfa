"""The desk-scale bounds of drinfeld.counts against the exact counts.

Each bound is first compared with a free lower bound on its count, and the
exact count is formed only when that test passes.  These tests show that the
shortcut refuses only what the exact comparison refuses, and that it spares
the exact count where that could not be formed.
"""

import pytest

from drinfeld import context_for, p_classify, p_enumerate, q_classify, q_enumerate

from drinfeld.counts import (
    MAX_GROUP,
    MAX_POINTS,
    MAX_STRATA,
    check_covers,
    check_desk_scale,
    check_group,
    check_radical,
    flags,
    nonzero_subspaces,
    nonzero_vectors,
    pgl_order,
    variety_total,
)

QS = (2, 3, 4, 5, 7)


def _refusal(check, *args):
    "The message of the ValueError check(*args) raises, or None."
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("q", QS)
def test_desk_scale_shortcut_refuses_only_what_the_exact_counts_refuse(q):
    for n_plus_1 in range(1, MAX_POINTS.bit_length() + 3):
        for variety, strata in (("P", nonzero_subspaces), ("Q", nonzero_subspaces), ("B", flags)):
            too_many_strata = strata(n_plus_1, q) > MAX_STRATA
            if n_plus_1 > MAX_STRATA.bit_length():
                assert too_many_strata
            for m in (1, 2, 3):
                too_many_points = variety_total(variety, n_plus_1, q, m) > MAX_POINTS
                if n_plus_1 > MAX_POINTS.bit_length():
                    assert too_many_points
                want = "stratum" if too_many_strata else "point" if too_many_points else None
                got = _refusal(check_desk_scale, variety, n_plus_1, q, [m])
                assert (got and got.split()[0]) == want, (variety, n_plus_1, q, m, got)


@pytest.mark.parametrize("q", QS)
def test_group_shortcut_refuses_only_what_the_exact_order_refuses(q):
    for n_plus_1 in range(1, MAX_GROUP.bit_length() + 3):
        order = pgl_order(n_plus_1, q)
        assert order >= 2 ** (n_plus_1 * (n_plus_1 - 1))
        if n_plus_1 * (n_plus_1 - 1) > MAX_GROUP.bit_length():
            assert order > MAX_GROUP
        assert (_refusal(check_group, n_plus_1, q) is not None) == (order > MAX_GROUP)


@pytest.mark.parametrize("q", QS)
def test_covers_shortcut_refuses_only_what_the_exact_counts_refuse(q):
    for count in (nonzero_vectors, nonzero_subspaces):
        sizes = [count(n_plus_1, q) for n_plus_1 in range(1, 8)]
        for n_plus_1 in range(1, max(sizes).bit_length() + 3):
            exact = count(n_plus_1, q)
            assert exact >= 2**n_plus_1 - 1
            for entries in sizes:
                refused = _refusal(check_covers, entries, n_plus_1, count, q, "no") is not None
                assert refused == (exact != entries)


def test_counts_past_reach_are_refused_without_forming_them():
    # each exact count here has millions of digits, and its sum of Gaussian
    # binomials or product would not finish
    n_plus_1 = 10**6
    assert _refusal(check_desk_scale, "B", n_plus_1, 2, [1])
    assert _refusal(check_group, n_plus_1, 2)
    assert _refusal(check_covers, 4_000, n_plus_1, nonzero_subspaces, 2, "too few")


def _compositions(n):
    "The tuples of positive integers summing to n."
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


@pytest.mark.parametrize("q", QS)
def test_radical_shortcut_refuses_only_what_the_exact_order_refuses(q):
    for n_plus_1 in range(1, 11):
        for dims in _compositions(n_plus_1):
            exponent = sum(a * b for s, a in enumerate(dims) for b in dims[s + 1:])
            assert (_refusal(check_radical, dims, q) is not None) == (q**exponent > MAX_GROUP)


@pytest.mark.parametrize("q, n_plus_1", [(2, 3), (3, 2)])
def test_b_points_fibre_over_p_and_q_points(q, n_plus_1):
    # flags(n+1, q, dense) sums the fibres of pi over the P points, B of the
    # kernel, and those of rho over the Q points, B of V / support; B of a
    # zero-dimensional space is one point
    assert variety_total("B", 0, q, 1) == 1
    for m in (1, 2):
        ctx = context_for(q, 1, n_plus_1, [m])
        total = variety_total("B", n_plus_1, q, m)
        assert total == sum(
            variety_total("B", p_classify(x).dim, q, m) for x in p_enumerate(ctx, n_plus_1, m)
        )
        assert total == sum(
            variety_total("B", n_plus_1 - q_classify(y).dim, q, m)
            for y in q_enumerate(ctx, n_plus_1, m)
        )
