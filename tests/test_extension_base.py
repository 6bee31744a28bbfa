"""The base field need not be prime: everything over k = GF(4) = GF(2^2).

Subfield membership, rational kernels, enumeration and both stabilizer
routes all run relative to k, not to the prime field, so a non-prime base
exercises every e-dependent code path.
"""

from itertools import product

import pytest

from drinfeld import (
    Subspace,
    b_enumerate,
    context_for,
    enumerate_pgl,
    enumerate_subspaces,
    frobenius_k,
    gaussian_binomial,
    p_classify,
    p_core,
    p_enumerate,
    pgl_order,
    q_classify,
    q_enumerate,
    rational_kernel,
    stabilizer_bruteforce,
    stabilizer_predicted,
    stratum_flag,
    unipotent_elements,
    unipotent_radical_k,
)
from drinfeld.linalg import apply_functional
from drinfeld.points import b_classify


@pytest.fixture(scope="module")
def ctx4():
    "k = GF(4) and k_2 = GF(16) inside GF(2^4)."
    return context_for(2, 2, 2, [1, 2])


def test_base_field_sits_inside_ambient(ctx4):
    assert ctx4.q == 4 and ctx4.D == 4
    assert len(ctx4.k_elements) == 4
    assert len(ctx4.subfield_elements(2)) == 16
    for a in ctx4.k_elements:
        assert frobenius_k(a) == a  # Frobenius is relative to k, not F_p
    fixed_by_p_power = sum(1 for a in ctx4.elements() if a**2 == a)
    assert fixed_by_p_power == 2  # only the prime field is fixed by x -> x^p


def test_subspace_enumeration_over_gf4(ctx4):
    assert len(enumerate_subspaces(2, 1, ctx4)) == 5 == gaussian_binomial(2, 1, 4)


def test_rational_kernel_over_gf4_bruteforce(ctx4):
    """Against brute force over k = GF(4), over k = GF(8) inside GF(2^6), and
    over k = GF(4) inside GF(2^6), whose k_3 holds an a of degree 3 over k:
    (1, a, a) has three twists but rank 2.  The coordinates include zeros,
    unnormalized tuples and the zero functional."""
    import random

    rng = random.Random(3)
    ctx8 = context_for(2, 3, 2, [1, 2])
    ctx43 = context_for(2, 2, 3, [3])
    a = next(x for x in ctx43.subfield_elements(3) if not ctx43.in_subfield(x, 1))
    cases = [(ctx43, (ctx43.one, a, a)), (ctx43, (a, ctx43.zero, a * a, a))]
    for ctx, n_plus_1 in ((ctx4, 2), (ctx4, 3), (ctx8, 2), (ctx8, 3)):
        els = ctx.subfield_elements(2)
        cases.append((ctx, (ctx.zero,) * n_plus_1))
        for _ in range(120):
            cases.append((ctx, tuple(rng.choice((ctx.zero, *els)) for _ in range(n_plus_1))))
    for ctx, coords in cases:
        K = rational_kernel(coords, ctx)
        n_plus_1 = len(coords)
        solutions = [
            v
            for v in product(ctx.k_elements, repeat=n_plus_1)
            if not apply_functional(coords, v)
        ]
        assert K == Subspace.span(n_plus_1, [v for v in solutions if any(v)])
        assert len(solutions) == ctx.q**K.dim
    assert rational_kernel((ctx43.one, a, a), ctx43).dim == 1


def test_point_totals_over_gf4(ctx4):
    for m in (1, 2):
        want = (4 ** (2 * m) - 1) // (4**m - 1)
        P = p_enumerate(ctx4, 2, m)
        Q = q_enumerate(ctx4, 2, m)
        B = b_enumerate(ctx4, 2, m)
        assert len(P) == len(Q) == len(B) == want
        for x in Q:
            q_classify(x)
        for x in B:
            b_classify(x)


def test_pgl24_is_order_sixty(ctx4):
    group = enumerate_pgl(2, ctx4)
    assert len(group) == 60 == pgl_order(2, 4)


def test_stabilizer_theorem_over_gf4(ctx4):
    group = enumerate_pgl(2, ctx4)
    for m in (1, 2):
        pts = (
            p_enumerate(ctx4, 2, m)
            + q_enumerate(ctx4, 2, m)
            + b_enumerate(ctx4, 2, m)
        )
        for x in pts:
            assert stabilizer_bruteforce(x, group) == stabilizer_predicted(x)


def test_dense_point_stabilizer_is_nonsplit_torus(ctx4):
    # a dense GF(16)-point is fixed exactly by the nonsplit torus
    # k_2^x / k^x of order (16 - 1)/(4 - 1) = 5 inside PGL(2, 4)
    x = next(x for x in p_enumerate(ctx4, 2, 2) if p_classify(x).dim == 0)
    stab = stabilizer_bruteforce(x)
    assert len(stab) == 5
    assert sorted(g.order() for g in stab) == [1, 5, 5, 5, 5]


def test_unipotent_identities_over_gf4(ctx4):
    group = enumerate_pgl(2, ctx4)
    for m in (1, 2):
        for x in (
            p_enumerate(ctx4, 2, m)
            + q_enumerate(ctx4, 2, m)
            + b_enumerate(ctx4, 2, m)
        ):
            stab = stabilizer_bruteforce(x, group)
            rad = unipotent_radical_k(stratum_flag(x), ctx4)
            assert unipotent_elements(stab) == rad
            assert p_core(stab) == rad
