import functools
import json
import random
from itertools import combinations, product

import pytest

from drinfeld import (
    BPoint,
    Flag,
    PPoint,
    QPoint,
    Subspace,
    all_subspaces,
    b_classify,
    b_enumerate,
    b_from_flag_data,
    b_validate,
    context_for,
    enumerate_flags,
    enumerate_omega,
    field_make,
    frobenius_twist,
    omega_embed_b,
    omega_embed_q,
    p_classify,
    p_enumerate,
    pi_map,
    point_from_obj,
    point_to_obj,
    q_classify,
    q_enumerate,
    q_validate,
    rho_map,
    twist_span_dim,
)
from drinfeld.errors import DefectSignal, InvariantViolation
from drinfeld.linalg import apply_functional, coords_to_ambient, rational_kernel
from drinfeld.points import (
    b_enumerate_flag,
    canonical_vectors,
    enumerate_functionals,
    incidence_minors_ok,
    q_bruteforce,
    q_from_omega,
    restriction_proportional_ok,
    subspace_str,
)


def vecs(ctx, *ints):
    return tuple(ctx.from_int(i) for i in ints)


# --- P ----------------------------------------------------------------------


def test_p_classify_rational_point(ctx64):
    x = PPoint(ctx64, (ctx64.one, ctx64.zero))
    assert p_classify(x) == Subspace.span(2, [vecs(ctx64, 0, 1)])


def test_p_classify_dense_point(ctx64, omega4):
    assert p_classify(PPoint(ctx64, (ctx64.one, omega4))).dim == 0


def test_p_classify_dim_two_kernel(ctx64):
    x = PPoint(ctx64, (ctx64.one, ctx64.one, ctx64.zero))
    want = Subspace.span(3, [vecs(ctx64, 1, 1, 0), vecs(ctx64, 0, 0, 1)])
    assert p_classify(x) == want


def test_p_point_normalization(ctx64, omega4):
    assert PPoint(ctx64, (omega4, ctx64.one)) == PPoint(
        ctx64, (ctx64.one, omega4.inverse())
    )
    with pytest.raises(ValueError):
        PPoint(ctx64, (ctx64.zero, ctx64.zero))


def test_p_partition_totals(ctx64, ctx729):
    for ctx, q in ((ctx64, 2), (ctx729, 3)):
        for n_plus_1 in (2, 3):
            for m in (1, 2):
                pts = p_enumerate(ctx, n_plus_1, m)
                assert len(pts) == (q ** (m * n_plus_1) - 1) // (q**m - 1)
                assert len(set(pts)) == len(pts)


def test_twist_examples(ctx64, omega4):
    x = PPoint(ctx64, (ctx64.one, omega4))
    assert frobenius_twist(x, 0) == x
    assert frobenius_twist(x, 1).coords == (ctx64.one, omega4 + ctx64.one)
    assert frobenius_twist(x, 2) == x
    rational = PPoint(ctx64, (ctx64.one, ctx64.one))
    assert frobenius_twist(rational, 5) == rational


def test_twist_span_dims(ctx64, omega4):
    assert twist_span_dim(PPoint(ctx64, (ctx64.one, ctx64.one))) == 1
    assert twist_span_dim(PPoint(ctx64, (ctx64.one, omega4))) == 2


def test_twist_span_lemma_exhaustive(ctx64):
    for n_plus_1 in (2, 3):
        for m in (1, 2, 3):
            for x in p_enumerate(ctx64, n_plus_1, m):
                assert twist_span_dim(x) == n_plus_1 - p_classify(x).dim


# --- Q ----------------------------------------------------------------------


def test_q_validate_accepts_inverse_of_dense_covector(ctx64, omega4):
    x = omega_embed_q(PPoint(ctx64, (ctx64.one, omega4)))
    assert q_validate(x.table, ctx64, 2)


def test_q_validate_rejects_zero_table(ctx64):
    table = {v: ctx64.zero for v in canonical_vectors(2, ctx64)}
    res = q_validate(table, ctx64, 2)
    assert not res and res.code == "non-generating"


def test_q_validate_addition_counterexample(ctx64):
    table = {
        vecs(ctx64, 1, 0): ctx64.one,
        vecs(ctx64, 0, 1): ctx64.one,
        vecs(ctx64, 1, 1): ctx64.zero,
    }
    res = q_validate(table, ctx64, 2)
    assert not res and res.code == "addition" and res.witness is not None


def test_q_validate_scaling_counterexample(ctx729):
    # violate r(2v) = 2^(-1) r(v) over GF(3)
    table = {v: ctx729.one for v in canonical_vectors(2, ctx729)}
    res = q_validate(table, ctx729, 2)
    assert not res and res.code == "scaling"


def test_q_validate_requires_full_domain(ctx64):
    with pytest.raises(ValueError):
        q_validate({vecs(ctx64, 1, 0): ctx64.one}, ctx64, 2)


def test_q_bruteforce_matches_construction(ctx64, ctx729):
    # q = 2: 3 points over k, 5 over k_2 (one per line, plus dense points)
    for m, count in ((1, 3), (2, 5)):
        brute = q_bruteforce(ctx64, 2, m)
        built = q_enumerate(ctx64, 2, m)
        assert len(brute) == len(built) == count
        assert set(brute) == set(built)
    # q = 3, m = 1: 4 lines, no dense points
    brute = q_bruteforce(ctx729, 2, 1)
    assert len(brute) == 4
    assert set(brute) == set(q_enumerate(ctx729, 2, 1))


def test_q_totals_equal_p_totals(ctx64):
    for n_plus_1 in (2, 3):
        for m in (1, 2):
            assert len(q_enumerate(ctx64, n_plus_1, m)) == len(
                p_enumerate(ctx64, n_plus_1, m)
            )


def _q_validate_oracle(table, ctx, n_plus_1):
    "(ok, code, witness) of the axioms as stated: scaling, then addition on every pair."
    vectors = canonical_vectors(n_plus_1, ctx)
    if not any(table[v] for v in vectors):
        return False, "non-generating", None
    for v in vectors:
        for lam in ctx.k_elements:
            if lam and lam != ctx.one and table[tuple(lam * a for a in v)] != lam.inverse() * table[v]:
                return False, "scaling", (lam, v)
    for v, w in combinations(vectors, 2):
        s = tuple(a + b for a, b in zip(v, w))
        if any(s) and table[v] * table[w] != table[s] * (table[v] + table[w]):
            return False, "addition", (v, w)
    return True, None, None


def _assert_q_validate_is_the_oracle(table, ctx, n_plus_1):
    res = q_validate(table, ctx, n_plus_1)
    assert (bool(res), res.code, res.witness) == _q_validate_oracle(table, ctx, n_plus_1)
    return bool(res)


def test_q_validate_against_the_oracle_on_every_table(ctx64):
    # every normalized table, valid or not, at (q, n+1, m) = (2,2,1..3), (2,3,1)
    for n_plus_1, m in ((2, 1), (2, 2), (2, 3), (3, 1)):
        vectors = canonical_vectors(n_plus_1, ctx64)
        valid = sum(
            _assert_q_validate_is_the_oracle(dict(zip(vectors, values)), ctx64, n_plus_1)
            for values in enumerate_functionals(len(vectors), ctx64, m)
        )
        assert valid == len(q_enumerate(ctx64, n_plus_1, m))


def _scaled_tables(ctx, n_plus_1, els, rng, count):
    """Random tables that satisfy scaling: a value in els per line, extended
    by r(c u) = r(u) / c; they reach the addition test."""
    for _ in range(count):
        table = {}
        for v in canonical_vectors(n_plus_1, ctx):
            if v not in table:
                val = rng.choice(els)
                for c in ctx.k_elements:
                    if c:
                        table[tuple(c * a for a in v)] = c.inverse() * val
        yield table


def test_q_validate_against_the_oracle_on_random_and_perturbed_tables(ctx729):
    rng = random.Random(5)
    ctx16 = context_for(2, 2, 2, [1])  # k = GF(4)
    for ctx, n_plus_1, m in ((ctx729, 2, 1), (ctx729, 2, 2), (ctx16, 2, 1), (ctx729, 3, 1)):
        vectors, els = canonical_vectors(n_plus_1, ctx), ctx.subfield_elements(m)
        tables = [{v: rng.choice(els) for v in vectors} for _ in range(100)]
        tables += list(_scaled_tables(ctx, n_plus_1, els, rng, 200))
        for x in q_enumerate(ctx, n_plus_1, m):
            tables.append(dict(x.table))
            v = rng.choice(vectors)
            for val in (rng.choice([a for a in els if a != x.table[v]]), ctx.zero):
                one_entry = dict(x.table)
                one_entry[v] = val
                # the same change on v's whole line keeps scaling
                line = {
                    tuple(c * a for a in v): c.inverse() * val for c in ctx.k_elements if c
                }
                tables += [one_entry, {**x.table, **line}]
        valid = sum(_assert_q_validate_is_the_oracle(t, ctx, n_plus_1) for t in tables)
        assert valid > len(q_enumerate(ctx, n_plus_1, m))
        assert valid < len(tables)


def test_q_certificate_and_scan_disagreeing_raise(ctx64, omega4, monkeypatch):
    from drinfeld import points

    x = omega_embed_q(PPoint(ctx64, (ctx64.one, omega4)))
    monkeypatch.setattr(points, "_reciprocal_certificate", lambda *args: False)
    with pytest.raises(DefectSignal):
        q_validate(x.table, ctx64, 2)


def test_large_valid_q_table_never_builds_the_subspace_index(tmp_path, monkeypatch, capsysbinary):
    # 1/l for l = (1, g, ..., g^9), g primitive in GF(2^10): 1,023 entries,
    # whose subspace index would hold 229,755,605 subspaces
    from drinfeld import cli, linalg, points

    ctx = field_make(2, 1, 10)
    g = next(a for a in ctx.elements() if a and all(a ** (1023 // r) != ctx.one for r in (3, 11, 31)))
    table = {}
    for v in canonical_vectors(10, ctx):
        table[v] = apply_functional(tuple(g**i for i in range(10)), v).inverse()

    def refuse(*args):
        raise AssertionError("a Q point built the subspace index")

    monkeypatch.setattr(points, "_subspace_order", refuse)
    monkeypatch.setattr(linalg, "_subspace_order", refuse)
    assert q_validate(table, ctx, 10)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(point_to_obj(QPoint(ctx, 10, table, validate=False))))
    assert cli.main(["classify", "--input", str(path), "--format", "json"]) == 0
    full = subspace_str(Subspace.full(10, ctx), ctx)
    assert json.loads(capsysbinary.readouterr().out) == {"variety": "Q", "valid": True, "stratum": full}


def _omega_count_moebius(s, q, m):
    """Dense-point count by Moebius inversion on the subspace lattice.

    Functionals vanishing on a fixed V' of codimension j are the points of
    the quotient projective space, so with pi(t) = (q^(mt) - 1)/(q^m - 1):
    |Omega| = sum_j (-1)^j q^(j(j-1)/2) [s choose j]_q pi(s - j).
    """
    from drinfeld.counts import gaussian_binomial

    def pi(t):
        return (q ** (m * t) - 1) // (q**m - 1) if t else 0

    total = 0
    for j in range(s + 1):
        sign = (-1) ** j
        total += sign * q ** (j * (j - 1) // 2) * gaussian_binomial(s, j, q) * pi(s - j)
    return total


def test_omega_counts_match_moebius_formula(ctx64, ctx729):
    for ctx, q in ((ctx64, 2), (ctx729, 3)):
        for s in (1, 2, 3):
            for m in (1, 2, 3):
                got = len(enumerate_omega(s, ctx, m))
                assert got == _omega_count_moebius(s, q, m), (q, s, m, got)


def test_q_classify_supports(ctx64, ctx729):
    line = Subspace.span(2, [vecs(ctx64, 1, 0)])
    x = q_from_omega((ctx64.one,), line, ctx64, 2)
    assert q_classify(x) == line
    # over GF(3): values on the line scale reciprocally
    line3 = Subspace.span(2, [vecs(ctx729, 1, 0)])
    x3 = q_from_omega((ctx729.one,), line3, ctx729, 2)
    assert q_classify(x3) == line3
    assert x3.table[vecs(ctx729, 2, 0)] == ctx729.from_int(2)


def test_q_classify_rejects_broken_support(ctx64):
    x = q_enumerate(ctx64, 2, 2)[-1]
    table = dict(x.table)
    v = next(v for v, val in table.items() if val)
    table[v] = ctx64.zero  # punch a hole in the support
    broken = QPoint(ctx64, 2, table, validate=False)
    with pytest.raises(InvariantViolation):
        q_classify(broken)


def test_q_point_rejects_invalid_table(ctx64):
    table = {
        vecs(ctx64, 1, 0): ctx64.one,
        vecs(ctx64, 0, 1): ctx64.one,
        vecs(ctx64, 1, 1): ctx64.zero,
    }
    with pytest.raises(ValueError):
        QPoint(ctx64, 2, table)


# --- B ----------------------------------------------------------------------


def test_b_family_must_cover_all_subspaces(ctx64):
    with pytest.raises(ValueError):
        BPoint(ctx64, 2, {Subspace.full(2, ctx64): (ctx64.one, ctx64.zero)})


def test_omega_embedding_roundtrip(ctx64, omega4):
    l = PPoint(ctx64, (ctx64.one, omega4))
    x = omega_embed_b(l)
    assert b_classify(x) == Flag.trivial(2)
    assert pi_map(x) == l
    assert rho_map(x) == omega_embed_q(l)


def test_omega_embedding_requires_dense_point(ctx64):
    with pytest.raises(ValueError):
        omega_embed_b(PPoint(ctx64, (ctx64.one, ctx64.one)))


def test_b_from_flag_data_one_member(ctx64):
    V1 = Subspace.span(2, [vecs(ctx64, 0, 1)])
    flag = Flag(2, (V1,))
    x = b_from_flag_data(flag, [(ctx64.one,), (ctx64.one,)], ctx64)
    assert b_classify(x) == flag
    assert p_classify(pi_map(x)) == V1
    assert q_classify(rho_map(x)) == V1
    assert b_validate(x)


def test_b_from_flag_data_rejects_degenerate_part(ctx64):
    V1 = Subspace.span(2, [vecs(ctx64, 0, 1)])
    with pytest.raises(ValueError):
        # (1, 1) has a rational kernel inside the 2-dim quotient of the
        # trivial flag piece, hence is not a dense point of it
        b_from_flag_data(Flag.trivial(2), [(ctx64.one, ctx64.one)], ctx64)
    with pytest.raises(ValueError):
        b_from_flag_data(Flag(2, (V1,)), [(ctx64.one,)], ctx64)


def test_public_builders_reject_a_part_with_a_kernel(ctx64, omega4):
    # enumeration builds from _omega's parts without checking their kernels
    # again; every public entry point still checks the parts it is given
    kernel = "trivial rational kernel"
    one, zero = ctx64.one, ctx64.zero
    c = (one, one, zero)  # vanishes on the rational vectors (1, 1, 0) and (0, 0, 1)
    full = Subspace.full(3, ctx64)
    with pytest.raises(ValueError, match=kernel):
        q_from_omega(c, full, ctx64, 3)
    with pytest.raises(ValueError, match=kernel):
        omega_embed_q(PPoint(ctx64, c))
    with pytest.raises(ValueError, match=kernel):
        b_from_flag_data(Flag.trivial(3), [c], ctx64)
    with pytest.raises(ValueError, match="only dense points embed"):
        omega_embed_b(PPoint(ctx64, c))
    # a nontrivial flag: the line is fine, the 2-dimensional quotient part is not
    line = Subspace.span(3, [vecs(ctx64, 0, 0, 1)])
    with pytest.raises(ValueError, match=kernel):
        b_from_flag_data(Flag(3, (line,)), [(one, one), (one,)], ctx64)
    assert b_classify(b_from_flag_data(Flag(3, (line,)), [(one, omega4), (one,)], ctx64)) == Flag(3, (line,))


def test_b_counts(ctx64):
    # dim V = 2: the family side has as many points as the covector side
    for m in (1, 2, 3):
        assert len(b_enumerate(ctx64, 2, m)) == (2 ** (2 * m) - 1) // (2**m - 1)
    for m, want in ((1, 21), (2, 49), (3, 129)):
        pts = b_enumerate(ctx64, 3, m)
        assert len(pts) == want
        assert len(set(pts)) == want


def test_b_parametrisation_injective(ctx64):
    # fixed flag: distinct quotient data gives distinct points (n+1=3, m=2)
    from itertools import product as iproduct

    for flag in enumerate_flags(3, ctx64):
        chain = flag.chain(ctx64)
        dims = [chain[t].dim - chain[t + 1].dim for t in range(len(chain) - 1)]
        choices = [enumerate_omega(d, ctx64, 2) for d in dims]
        seen = {}
        for parts in iproduct(*choices):
            x = b_from_flag_data(flag, parts, ctx64)
            assert parts not in seen
            assert x not in seen.values()
            seen[parts] = x
        # complete flags carry exactly one point
        if len(flag) == 2:
            assert len(seen) == 1


def test_b_classification_is_the_built_flag(ctx64):
    for m in (1, 2):
        for flag in enumerate_flags(3, ctx64):
            for x in b_enumerate_flag(flag, ctx64, m):
                assert b_classify(x) == flag


def test_b_classify_guards_divisor_chain_agreement(ctx64):
    # complete flag: the kernel chain is [plane, line]; tampering with an
    # off-chain plane functional removes the line from the divisor set, and
    # the classifier must refuse rather than return a flag
    from drinfeld import enumerate_flags

    flag = next(f for f in enumerate_flags(3, ctx64) if len(f) == 2)
    x = b_enumerate_flag(flag, ctx64, 1)[0]
    line = flag.smallest
    off_chain = next(
        W
        for W in x.family
        if W.dim == 2 and W != flag.largest and W.contains(line)
    )
    fam = dict(x.family)
    line_coords = off_chain.coords_of(line.rows[0])
    from drinfeld.linalg import apply_functional

    fam[off_chain] = next(
        c
        for c in enumerate_functionals(2, ctx64, 1)
        if apply_functional(c, line_coords)
    )
    broken = BPoint(ctx64, 3, fam, validate=False)
    with pytest.raises(InvariantViolation):
        b_classify(broken)


def _divisors_by_every_superspace(x, above):
    """The exceptional divisors of x by the full test, evaluating functionals
    by coordinates: the proper V' on which l_W vanishes for every W > V'."""
    return {
        small
        for small in x.family
        if small.dim < x.n_plus_1
        and not any(x.value(W, r) for W in above[small] for r in small.rows)
    }


@pytest.mark.parametrize("p, n_plus_1, m", [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (2, 4, 1)])
def test_b_divisors_on_covers_match_every_superspace(p, n_plus_1, m):
    # b_classify reads covering pairs only; on compatible families that is
    # the full divisor test, which is the oracle here
    ctx = context_for(p, 1, n_plus_1, [m])
    subs = all_subspaces(n_plus_1, ctx, include_zero=False)
    above = {a: [b for b in subs if b.dim > a.dim and b.contains(a)] for a in subs}
    for x in b_enumerate(ctx, n_plus_1, m):
        assert _divisors_by_every_superspace(x, above) == set(b_classify(x).members)


def test_b_built_point_classifying_elsewhere_raises(ctx64, monkeypatch):
    # the roundtrip check on built points is a raise, not an assert that
    # python -O would strip
    from drinfeld import points

    flag = next(f for f in enumerate_flags(3, ctx64) if len(f) == 2)  # one point
    monkeypatch.setattr(points, "b_classify", lambda x: Flag.trivial(3))
    with pytest.raises(InvariantViolation):
        b_enumerate_flag(flag, ctx64, 1)


def test_count_classifies_each_b_point_once(ctx64, monkeypatch):
    from collections import Counter

    from drinfeld import atlas, points

    calls = Counter()
    classify = points.b_classify

    def counting(x):
        calls[x] += 1
        return classify(x)

    # every module that could classify the points count builds
    monkeypatch.setattr(points, "b_classify", counting)
    monkeypatch.setattr(atlas, "b_classify", counting, raising=False)
    counts = atlas.count_stratum_points("B", 3, ctx64, 1)
    assert sum(counts.values()) == len(calls) == 21
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("p, n_plus_1, m", [(2, 3, 1), (2, 3, 2), (3, 3, 1), (2, 4, 1)])
def test_b_line_table_is_each_functional_at_each_line(p, n_plus_1, m):
    # on_lines[W][j] = l_W(u_j) with u_j's coordinates solved by coords_of, on
    # every enumerated point and on points decoded from JSON or moved by g
    from drinfeld.action import GroupElement, act_B
    from drinfeld.linalg import _subspace_order, rref

    ctx = context_for(p, 1, n_plus_1, [m])
    lines = _subspace_order(ctx, n_plus_1).lines
    members = {
        W: [j for j, u in enumerate(lines) if W.contains_vector(u)]
        for W in all_subspaces(n_plus_1, ctx, include_zero=False)
    }

    def check(x):
        assert set(x.on_lines) == set(members)
        for W, func in x.family.items():
            assert x.on_lines[W] == {j: apply_functional(func, W.coords_of(lines[j])) for j in members[W]}

    pts = b_enumerate(ctx, n_plus_1, m)
    for x in pts:
        check(x)
    # the other two entries to the flag builder: the first quotient data on
    # every flag, and every dense P point embedded
    for flag in enumerate_flags(n_plus_1, ctx):
        chain = flag.chain(ctx)
        choices = [enumerate_omega(big.dim - small.dim, ctx, m) for big, small in zip(chain, chain[1:])]
        if all(choices):
            check(b_from_flag_data(flag, [c[0] for c in choices], ctx))
    for c in enumerate_omega(n_plus_1, ctx, m):
        check(omega_embed_b(PPoint(ctx, c)))
    rng = random.Random(3)
    for x in rng.sample(pts, 10):
        check(point_from_obj(json.loads(json.dumps(point_to_obj(x)))))
        rows = None
        while rows is None or rref(rows)[1] < n_plus_1:
            rows = [[rng.choice(ctx.k_elements) for _ in range(n_plus_1)] for _ in range(n_plus_1)]
        check(act_B(x, GroupElement(ctx, rows)))


def test_b_validate_detects_perturbation(ctx64):
    # replacing one plane functional of a dense point breaks a minor, and
    # both tests must agree on that
    x = omega_embed_b(PPoint(ctx64, enumerate_omega(3, ctx64, 3)[0]))
    subs = all_subspaces(3, ctx64, include_zero=False)
    plane = next(s for s in subs if s.dim == 2)
    fam = dict(x.family)
    for cand in enumerate_functionals(2, ctx64, 3):
        if cand != fam[plane]:
            fam[plane] = cand
            break
    y = BPoint(ctx64, 3, fam, validate=False)
    a, wit_a = incidence_minors_ok(y)
    b, wit_b = restriction_proportional_ok(y)
    assert a == b and not a and wit_a is not None
    assert (a, wit_a) == _minors_oracle(fam, ctx64)
    assert not b_validate(y)
    with pytest.raises(ValueError):
        BPoint(ctx64, 3, fam)


def _minors_oracle(family, ctx):
    """(ok, witness) of the minors as stated: every pair of vectors of W' for
    every W' < W, the family's subspaces in canonical order."""
    values = {
        W: dict(zip(W.vectors(ctx), (apply_functional(f, c) for c in product(ctx.k_elements, repeat=W.dim))))
        for W, f in family.items()
    }
    for small, big in _oracle_pairs(tuple(sorted(family, key=Subspace.sort_key))):
        vals_b, vals_s = values[big], values[small]
        for v, w in combinations([v for v in vals_s if any(v)], 2):
            if vals_b[v] * vals_s[w] != vals_b[w] * vals_s[v]:
                return False, (big, small, v, w)
    return True, None


@functools.lru_cache(maxsize=8)
def _oracle_pairs(subs):
    "Every (W', W) with W' < W among subs, by containment of rows, in subs' order."
    return [(small, big) for small in subs for big in subs if big.dim > small.dim and big.contains(small)]


def test_b_two_tests_agree_on_random_perturbations(ctx64, ctx729):
    # the chain certificate that decides b_validate, both scans and the
    # oracle, on every B point and on points with 1-3 functionals replaced
    from drinfeld.points import _chain_certificate

    rng = random.Random(11)
    failed = 0
    # n+1 = 4 has pairs W' < W with W' of dimension 3, more lines than a basis
    for ctx, n_plus_1, m in (
        (ctx64, 2, 2), (ctx64, 3, 1), (ctx64, 3, 2), (ctx729, 2, 1), (ctx729, 2, 2),
        (context_for(2, 1, 4, [1]), 4, 1), (context_for(2, 2, 2, [1]), 2, 1),
    ):
        pts = b_enumerate(ctx, n_plus_1, m)
        subs = all_subspaces(n_plus_1, ctx, include_zero=False)
        families = [x.family for x in pts]
        for _ in range(120):
            fam = dict(rng.choice(pts).family)
            for W in rng.sample(subs, rng.randint(1, 3)):
                fam[W] = rng.choice(enumerate_functionals(W.dim, ctx, m))
            families.append(fam)
        for fam in families:
            y = BPoint(ctx, n_plus_1, fam, validate=False)
            a, wit_a = incidence_minors_ok(y)
            b, _ = restriction_proportional_ok(y)
            assert _chain_certificate(y) == a == b == bool(b_validate(y))
            assert (a, wit_a) == _minors_oracle(fam, ctx)
            # at n+1 = 2 every minor vanishes: a line holds no two independent vectors
            assert a or n_plus_1 > 2
            failed += not a
    assert failed > 0


def test_b_validate_raises_when_the_certificate_refuses_a_compatible_family(ctx64, monkeypatch):
    from drinfeld import points

    x = b_enumerate(ctx64, 3, 1)[0]
    monkeypatch.setattr(points, "_chain_certificate", lambda x: False)
    with pytest.raises(DefectSignal, match="both tests accept"):
        b_validate(x)


def test_b_minors_and_scan_disagreeing_raise(ctx64, monkeypatch):
    from drinfeld import points

    x = b_enumerate(ctx64, 3, 1)[0]
    monkeypatch.setattr(points, "_minors_vanish", lambda *args: False)
    with pytest.raises(DefectSignal):
        incidence_minors_ok(x)


def _kernel_chain_by_elimination(x):
    """The kernel chain found by solving: each member's rational kernel by an
    F_p elimination, its rows mapped back from the member's coordinates."""
    ctx, chain = x.ctx, []
    cur = Subspace.full(x.n_plus_1, ctx)
    while (ker := rational_kernel(x.family[cur], ctx)).dim:
        # reduced echelon coordinates in a reduced echelon basis map to
        # reduced echelon rows, pivots at cur's pivots that ker's pick
        cur = Subspace(x.n_plus_1, tuple(coords_to_ambient(cur, ker.rows, ctx)))
        chain.append(cur)
    return chain


@pytest.mark.parametrize("p, e, n_plus_1, m", [
    (2, 1, 2, 1), (2, 1, 2, 2), (2, 1, 2, 3), (2, 1, 3, 1), (2, 1, 3, 2), (3, 1, 2, 1),
    (3, 1, 2, 2), (2, 1, 4, 1), (3, 1, 3, 1), (2, 2, 2, 1), (2, 2, 3, 1),
])
def test_kernel_chain_is_the_elimination_chain(p, e, n_plus_1, m):
    # the chain read off the line tables, on every B point as built from its
    # flag and as tabulated from its family, and on 200 families with 1-3
    # functionals replaced, compatible or not
    from drinfeld.points import _kernel_chain

    ctx = context_for(p, e, n_plus_1, [m])
    rng = random.Random(n_plus_1 * 100 + p * 10 + m)
    pts = b_enumerate(ctx, n_plus_1, m)
    subs = all_subspaces(n_plus_1, ctx, include_zero=False)
    families = [x.family for x in pts]
    for _ in range(200):
        fam = dict(rng.choice(pts).family)
        for W in rng.sample(subs, rng.randint(1, 3)):
            fam[W] = rng.choice(enumerate_functionals(W.dim, ctx, m))
        families.append(fam)
    for y in pts + [BPoint(ctx, n_plus_1, fam, validate=False) for fam in families]:
        assert _kernel_chain(y) == _kernel_chain_by_elimination(y)


def test_b_classify_requests_solve_no_linear_system(tmp_path, monkeypatch, capsysbinary):
    # decoding, validating and classifying a B point read the kernel chain off
    # the line tables: with both solvers raising, every B point at (2, 3, 2)
    # classifies to the same bytes
    from drinfeld import cli, linalg, points

    ctx = context_for(2, 1, 3, [2])
    files = []
    for i, x in enumerate(b_enumerate(ctx, 3, 2)):
        files.append(tmp_path / f"b{i}.json")
        files[-1].write_text(json.dumps(point_to_obj(x)))

    def classified():
        out = []
        for path in files:
            code = cli.main(["classify", "--input", str(path), "--format", "json"])
            out.append((code, *capsysbinary.readouterr()))
        return out

    def solve(*args):
        raise AssertionError("a linear system was solved on the B read path")

    before = classified()
    for module in (points, linalg):
        monkeypatch.setattr(module, "rational_kernel", solve)
        monkeypatch.setattr(module, "coords_to_ambient", solve, raising=False)
    assert classified() == before
    assert len(before) == 49 and all(b'"valid":true' in out for _, out, _ in before)


def test_pi_map_hits_every_reachable_stratum(ctx64):
    for m in (1, 2):
        images = {p_classify(pi_map(x)) for x in b_enumerate(ctx64, 2, m)}
        strata = {p_classify(x) for x in p_enumerate(ctx64, 2, m)}
        assert images == strata


def test_rho_lands_on_smallest_member(ctx64):
    for m in (1, 2):
        for x in b_enumerate(ctx64, 3, m):
            flag = b_classify(x)
            want = flag.smallest or Subspace.full(3, ctx64)
            assert q_classify(rho_map(x)) == want


# --- serialization ----------------------------------------------------------


def test_point_json_roundtrips(ctx64, omega4):
    l = PPoint(ctx64, (ctx64.one, omega4))
    pts = [l, omega_embed_q(l), omega_embed_b(l), b_enumerate(ctx64, 3, 1)[0]]
    pts += q_enumerate(ctx64, 3, 1)  # table keys with every index of k
    for x in pts:
        obj = json.loads(json.dumps(point_to_obj(x), sort_keys=True))
        assert point_from_obj(obj) == x
    # a family read back in another key order is the same point, same hash
    x = pts[3]
    obj = point_to_obj(x)
    obj["data"]["family"] = dict(reversed(obj["data"]["family"].items()))
    y = point_from_obj(obj)
    assert list(y.family) == list(reversed(x.family))
    assert y == x and hash(y) == hash(x)


def test_point_json_rejects_mismatched_field(ctx64, ctx729):
    obj = point_to_obj(PPoint(ctx64, (ctx64.one, ctx64.zero)))
    with pytest.raises(ValueError):
        point_from_obj(obj, ctx729)


def test_point_json_rejects_unknown_kind(ctx64):
    obj = point_to_obj(PPoint(ctx64, (ctx64.one, ctx64.zero)))
    obj["kind"] = "X"
    with pytest.raises(ValueError):
        point_from_obj(obj)


def test_b_points_decode_to_the_rational_index_subspaces(ctx64):
    from drinfeld.linalg import _subspace_order

    own = {W: W for subs in _subspace_order(ctx64, 3).by_dim for W in subs}
    for x in b_enumerate(ctx64, 3, 2):
        y = point_from_obj(json.loads(json.dumps(point_to_obj(x))))
        assert y == x
        assert all(own[W] is W for W in y.family)


@pytest.mark.parametrize("old, new, message", [
    ("1,0;0,1", "0,1;1,0", "subspace rows are not in canonical echelon form"),
    ("1,1", "1,2", "vector '1,2' is not a list of indices in range(2)"),
])
def test_b_family_key_errors_are_those_of_the_parser(ctx64, old, new, message):
    obj = point_to_obj(b_enumerate(ctx64, 2, 1)[0])
    family = obj["data"]["family"]
    family[new] = family.pop(old)
    with pytest.raises(ValueError) as info:
        point_from_obj(obj)
    assert str(info.value) == message


def test_b_family_of_the_wrong_size_builds_no_index(ctx64, tmp_path, monkeypatch, capsys):
    from drinfeld import cli, points

    def refuse(*args):
        raise AssertionError("the rational index was built")

    monkeypatch.setattr(points, "_subspace_order", refuse)
    key = ",".join(["1"] + ["0"] * 59)
    obj = {"kind": "B", "field": point_to_obj(PPoint(ctx64, (ctx64.one,)))["field"],
           "data": {"n_plus_1": 60, "family": {key: [[1, 0, 0]]}}}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["classify", "--input", str(path)]) == 2
    assert "family must cover" in capsys.readouterr().err


def test_subspace_str_roundtrip(ctx64):
    from drinfeld.points import subspace_from_str, subspace_str

    for sub in all_subspaces(3, ctx64):
        assert subspace_from_str(subspace_str(sub, ctx64), ctx64, 3) == sub
