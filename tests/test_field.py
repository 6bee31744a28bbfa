import pickle

import pytest

from drinfeld import field_make, frobenius_k, subfield_degree
from drinfeld.field import FieldCtx, smallest_irreducible


def test_prime_field_modulus():
    ctx = field_make(2, 1, 1)
    assert ctx.modulus == (0, 1)  # the polynomial x


def test_gf4_modulus_is_unique_irreducible_quadratic():
    ctx = field_make(2, 1, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1


def test_gf9_modulus_lex_smallest():
    # x^2, x^2+x, x^2+2x all have a root; x^2+1 has none over F_3
    ctx = field_make(3, 1, 2)
    assert ctx.modulus == (1, 0, 1)


def test_degree_six_moduli():
    assert field_make(2, 1, 6).modulus == (1, 0, 0, 0, 0, 1, 1)  # x^6+x^5+1
    assert field_make(3, 1, 6).modulus == (1, 0, 0, 0, 1, 1, 1)


def test_modulus_minimality_by_enumeration():
    # independent oracle: scan candidates in lex order, trial-divide; the
    # same modulus for every p^D <= 2^12
    from itertools import product

    from drinfeld.field import is_prime

    for p in filter(is_prime, range(2, 2**12 + 1)):
        D = 1
        while p**D <= 2**12:
            want = next(
                poly for poly in (tail + (1,) for tail in product(range(p), repeat=D))
                if _irreducible_by_trial_division(poly, p)
            )
            assert smallest_irreducible(p, D) == want
            D += 1


def _irreducible_by_trial_division(poly, p):
    "The oracle of Ben-Or's test: no monic polynomial of degree 1 to deg/2 divides poly."
    deg = len(poly) - 1
    return deg >= 1 and all(any(_poly_eval_chain(poly, den, p)) for den in _monic_up_to(p, deg // 2))


def test_ben_or_agrees_with_trial_division():
    # every monic polynomial of degree 1..8 over F_2, 1..5 over F_3 and 1..3 over F_5
    from itertools import product

    from drinfeld.field import _poly_is_irreducible

    for p, top in ((2, 8), (3, 5), (5, 3)):
        for deg in range(1, top + 1):
            for tail in product(range(p), repeat=deg):
                poly = tuple(tail) + (1,)
                assert _poly_is_irreducible(poly, p) == _irreducible_by_trial_division(poly, p)


def _monic_up_to(p, max_deg):
    from itertools import product

    for d in range(1, max_deg + 1):
        for tail in product(range(p), repeat=d):
            yield tuple(tail) + (1,)


def _poly_eval_chain(num, den, p):
    # remainder of num / den over F_p; nonzero iff den does not divide num
    from drinfeld.field import _poly_divmod

    return _poly_divmod(num, den, p)[1]


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        field_make(4, 1, 1)
    with pytest.raises(ValueError):
        field_make(2, 0, 1)


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldCtx(2, 1, 2, (0, 0, 1))  # x^2 = x * x


def test_frobenius_on_gf4(omega4, ctx64):
    assert frobenius_k(omega4) == omega4 + ctx64.one
    assert frobenius_k(frobenius_k(omega4)) == omega4


def test_frobenius_fixes_base_field(ctx64):
    for a in ctx64.k_elements:
        assert frobenius_k(a) == a


def test_frobenius_is_q_power_everywhere(ctx64, ctx729):
    for ctx in (ctx64, ctx729):
        for a in ctx.elements():
            assert frobenius_k(a) == a**ctx.q


def test_frobenius_automorphism_exhaustive_pairs():
    ctx = field_make(2, 1, 6)
    els = ctx.elements()
    for a in els:
        fa = frobenius_k(a)
        for b in els:
            assert frobenius_k(a + b) == fa + frobenius_k(b)
            assert frobenius_k(a * b) == fa * frobenius_k(b)


def test_ring_axioms_and_inverses():
    for ctx in (field_make(2, 1, 2), field_make(3, 1, 2)):
        els = ctx.elements()
        for a in els:
            if a:
                assert a * a.inverse() == ctx.one
            for b in els:
                assert (a + b) - b == a
                assert a * b == b * a
                for c in els[:3]:
                    assert a * (b + c) == a * b + a * c


def test_subfield_orders(ctx64):
    # |{a : a^(q^d) = a}| = q^d for each d with d*e | D
    for d in (1, 2, 3, 6):
        count = sum(1 for a in ctx64.elements() if ctx64.in_subfield(a, d))
        assert count == 2**d
        assert len(ctx64.subfield_elements(d)) == 2**d


def test_subfield_degree(omega4, ctx64):
    assert subfield_degree(ctx64.one, 2) == 1
    assert subfield_degree(ctx64.zero, 6) == 1
    assert subfield_degree(omega4, 2) == 2
    assert subfield_degree(omega4, 6) == 2
    with pytest.raises(ValueError):
        subfield_degree(omega4, 3)  # omega lies in k_2, not in k_3


def test_pow_and_division(ctx729):
    a = ctx729.element((1, 2, 0, 1))
    assert a ** (3**6 - 1) == ctx729.one
    assert a**-1 == a.inverse()
    assert (a / a) == ctx729.one


def test_field_laws_on_random_triples(ctx729):
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(*([st.integers(0, 2)] * 6)),
        st.tuples(*([st.integers(0, 2)] * 6)),
        st.tuples(*([st.integers(0, 2)] * 6)),
    )
    def run(ca, cb, cc):
        a, b, c = (ctx729.element(t) for t in (ca, cb, cc))
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    run()


# --- polynomial arithmetic: the oracle for the tables -------------------------
#
# Plain coefficient-tuple arithmetic over F_p (low degree first), written
# without the package: the product, long division, the extended Euclidean
# inverse and the q-power map.


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_div(num, den, p):
    "(quotient, remainder); den nonzero and trimmed."
    num, quot = _trim(num), [0] * max(len(num) - len(den) + 1, 1)
    inv = pow(den[-1], p - 2, p)
    while len(num) >= len(den):
        c, shift = num[-1] * inv % p, len(num) - len(den)
        quot[shift] = c
        for j, d in enumerate(den):
            num[shift + j] = (num[shift + j] - c * d) % p
        num = _trim(num)
    return _trim(quot), num


def _reduce(a, ctx):
    r = _poly_div(a, list(ctx.modulus), ctx.p)[1]
    return tuple(r) + (0,) * (ctx.D - len(r))


def _poly_inverse(a, ctx):
    "s with s*a = 1 mod modulus, from the Euclidean algorithm on (modulus, a)."
    p = ctx.p
    r0, r1, s0, s1 = list(ctx.modulus), _trim(a), [], [1]
    while r1:
        quot, rem = _poly_div(r0, r1, p)
        prod = _poly_mul(quot, s1, p) if quot and s1 else []
        width = max(len(s0), len(prod))
        s = [((s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0)) % p
             for i in range(width)]
        r0, r1, s0, s1 = r1, rem, s1, _trim(s)
    c = pow(r0[0], p - 2, p)  # r0 is the nonzero constant gcd
    return _reduce([c * x % p for x in s0], ctx)


def _poly_pow(a, n, ctx):
    result, base = [1], _trim(a)
    while n:
        if n & 1:
            result = list(_reduce(_poly_mul(result, base, ctx.p), ctx)) if base else []
        base = list(_reduce(_poly_mul(base, base, ctx.p), ctx)) if base else []
        n >>= 1
    return _reduce(result, ctx)


@pytest.mark.parametrize("p, e, D", [(2, 1, 6), (3, 1, 4), (5, 1, 2), (2, 2, 4)])
def test_tables_against_polynomial_arithmetic(p, e, D):
    # every operation on every element and every pair, on GF(2^6), GF(3^4),
    # GF(5^2) and GF(2^4) over k = GF(4)
    from itertools import product

    ctx = FieldCtx(p, e, D)
    els = ctx.elements()
    # element order is coefficient-tuple order, and each tuple names one element
    assert [a.coeffs for a in els] == list(product(range(p), repeat=D))
    assert all(ctx.element(a.coeffs) is a for a in els)
    for a in els:
        x = a.coeffs
        assert (-a).coeffs == tuple(-c % p for c in x)
        assert ctx.frobenius(a).coeffs == _poly_pow(x, ctx.q, ctx)
        assert ctx.inv_frobenius(ctx.frobenius(a)) is a
        assert (a**5).coeffs == _poly_pow(x, 5, ctx)
        if a:
            assert a.inverse().coeffs == _poly_inverse(x, ctx)
        for b in els:
            y = b.coeffs
            assert (a * b).coeffs == _reduce(_poly_mul(x, y, p) if a and b else [], ctx)
            assert (a + b).coeffs == tuple((s + t) % p for s, t in zip(x, y))
            assert (a - b).coeffs == tuple((s - t) % p for s, t in zip(x, y))
    for m in range(1, D // e + 1):
        if D % (m * e):
            continue
        fixed = [a for a in els if _poly_pow(a.coeffs, ctx.q**m, ctx) == a.coeffs]
        assert list(ctx.subfield_elements(m)) == fixed
        assert [a for a in els if ctx.in_subfield(a, m)] == fixed


def test_field_size_bound_is_checked_before_primality():
    # 2^61 - 1 is prime; trial division would not finish
    with pytest.raises(ValueError, match="at most 2"):
        FieldCtx(2**61 - 1, 1, 1)
    with pytest.raises(ValueError, match="at most 2"):
        FieldCtx(2, 1, 17)
    assert len(FieldCtx(2, 1, 16).k_elements) == 2


def test_one_live_context_per_field():
    # the default modulus names the same field as the explicit smallest one
    ctx = FieldCtx(2, 1, 4)
    assert ctx is FieldCtx(2, 1, 4, smallest_irreducible(2, 4))
    assert ctx is FieldCtx(2, 1, 4, [c + 2 for c in smallest_irreducible(2, 4)])
    assert ctx is not FieldCtx(2, 2, 4)
    # a context built twice hands out its own elements, not an earlier one's
    again = FieldCtx(2, 1, 2)
    assert FieldCtx(2, 1, 2) is again
    assert all(a.ctx is again for a in again.k_elements)


def test_nothing_of_two_fields_compares_equal():
    # equality is identity: a code names an element of one field only
    from drinfeld import GroupElement, PPoint, Subspace

    gf2, gf3, gf4 = field_make(2, 1, 1), field_make(3, 1, 1), field_make(2, 1, 2)
    x = gf4.element((0, 1))
    assert x.code == gf2.one.code == gf3.one.code
    assert x != gf2.one and gf3.one != gf2.one
    assert x not in {gf2.one: 0} and gf2.one not in {x: 0}
    assert PPoint(gf2, (gf2.one, gf2.zero)) != PPoint(gf3, (gf3.one, gf3.zero))
    assert Subspace.full(2, gf2) != Subspace.full(2, gf3)
    assert GroupElement.identity(2, gf2) != GroupElement.identity(2, gf3)


def test_pickling_returns_the_live_context_and_element():
    ctx = FieldCtx(3, 1, 2)
    assert pickle.loads(pickle.dumps(ctx)) is ctx
    a = ctx.elements()[5]
    assert pickle.loads(pickle.dumps(a)) is a


def test_a_rejected_modulus_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="not irreducible"):
            FieldCtx(2, 1, 2, (0, 0, 1))
    assert FieldCtx(2, 1, 2).modulus == (1, 1, 1)


def test_a_dropped_context_is_freed_with_its_tables():
    # what is built for a field (k, the rational index, the group, the images
    # of its elements, a count's worker state) lives on its context, so a
    # context nothing holds is collected and leaves _LIVE
    import gc
    import weakref

    from drinfeld import b_enumerate, build_atlas, enumerate_pgl, field
    from drinfeld import stabilizer_bruteforce, stabilizer_predicted
    from drinfeld.linalg import _subspace_order
    from drinfeld.points import b_classify

    ctx = FieldCtx(5, 1, 1)
    key = (ctx.p, ctx.e, ctx.D, ctx.modulus)
    assert len(ctx.k_elements) == 5
    index = _subspace_order(ctx, 2)
    group = enumerate_pgl(2, ctx)
    x = b_enumerate(ctx, 2, 1)[0]
    b_classify(x)
    assert stabilizer_bruteforce(x, group) == stabilizer_predicted(x)
    atlases = [build_atlas("B", 2, ctx, [1], jobs=jobs) for jobs in (1, 2)]
    assert atlases[0].counts == atlases[1].counts
    ref = weakref.ref(ctx)
    del ctx, index, group, x, atlases
    gc.collect()
    assert ref() is None
    assert key not in field._LIVE
