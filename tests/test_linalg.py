import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import (
    Flag,
    Subspace,
    all_subspaces,
    complement,
    context_for,
    enumerate_flags,
    enumerate_subspaces,
    flag_leq,
    gaussian_binomial,
    quotient_functional,
    rational_kernel,
    rref,
)
from drinfeld.action import GroupElement, _subspace_image, enumerate_pgl
from drinfeld.linalg import (
    _subspace_order,
    apply_functional,
    coords_to_ambient,
    normalize_functional,
    reduce_vector,
    vec_key,
)


def vecs(ctx, *ints):
    "Row of base-field elements from small integers."
    return tuple(ctx.from_int(i) for i in ints)


# --- rref -------------------------------------------------------------------


def test_rref_identity(ctx64):
    one, zero = ctx64.one, ctx64.zero
    rows = [(one, zero), (zero, one)]
    ech, rank = rref(rows)
    assert ech == ((one, zero), (zero, one)) and rank == 2


def test_rref_zero(ctx64):
    ech, rank = rref([(ctx64.zero, ctx64.zero)])
    assert ech == () and rank == 0


def test_rref_dependent_rows(ctx64):
    rows = [vecs(ctx64, 1, 1, 0), vecs(ctx64, 0, 1, 1), vecs(ctx64, 1, 0, 1)]
    _, rank = rref(rows)
    assert rank == 2


def test_rref_rejects_ragged(ctx64):
    with pytest.raises(ValueError):
        rref([vecs(ctx64, 1, 0), vecs(ctx64, 1)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_idempotent(ctx64, data):
    n = data.draw(st.integers(2, 4))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
    mat = [vecs(ctx64, *r) for r in rows]
    ech, rank = rref(mat)
    again, rank2 = rref(list(ech))
    assert ech == again and rank == rank2


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_is_reduced_echelon_with_the_same_span(ctx64, ctx729, data):
    # over k = GF(2) and GF(3), checked without reduce_vector: the shape entry
    # by entry, and the k-spans of input and output by enumeration
    ctx = data.draw(st.sampled_from((ctx64, ctx729)))
    n = data.draw(st.integers(1, 4))
    digits = st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n)
    mat = [vecs(ctx, *r) for r in data.draw(st.lists(digits, min_size=1, max_size=5))]
    ech, rank = rref(mat)
    assert rank == len(ech) and all(any(r) for r in ech)
    pivots = [next(i for i, a in enumerate(r) if a) for r in ech]
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert [r[p] for r in ech] == [ctx.one if j == i else ctx.zero for j in range(rank)]

    def span(rows):
        return {
            tuple(sum((c * r[i] for c, r in zip(combo, rows)), ctx.zero) for i in range(n))
            for combo in product(ctx.k_elements, repeat=len(rows))
        }

    assert span(ech) == span(mat)


# --- rational kernels -------------------------------------------------------


def test_kernel_coordinate_functional(ctx64):
    K = rational_kernel((ctx64.one, ctx64.zero), ctx64)
    assert K == Subspace.span(2, [vecs(ctx64, 0, 1)])


def test_kernel_irrational_functional(ctx64, omega4):
    assert rational_kernel((ctx64.one, omega4), ctx64).dim == 0


def test_kernel_diagonal_functional(ctx64):
    K = rational_kernel((ctx64.one, ctx64.one), ctx64)
    assert K == Subspace.span(2, [vecs(ctx64, 1, 1)])


def test_kernel_of_110_is_two_dimensional(ctx64):
    # l(e3) = 0 as well, so the kernel picks up e3 besides e1+e2
    K = rational_kernel((ctx64.one, ctx64.one, ctx64.zero), ctx64)
    assert K == Subspace.span(3, [vecs(ctx64, 1, 1, 0), vecs(ctx64, 0, 0, 1)])


def test_kernel_of_a_long_covector_in_closed_form():
    # (1, a, ..., a) with a in GF(4) outside GF(2) kills v exactly when v_0 = 0 and
    # v_1 + ... + v_n = 0: the echelon rows are e_i + e_n, 1 <= i <= n - 1.
    # At n+1 = 400 a second elimination of the kernel would take seconds.
    ctx = context_for(2, 1, 400, [2])
    a = next(x for x in ctx.subfield_elements(2) if not ctx.in_subfield(x, 1))
    n = 399
    K = rational_kernel((ctx.one,) + (a,) * n, ctx)
    unit = [tuple(ctx.one if j == i else ctx.zero for j in range(n + 1)) for i in range(n + 1)]
    assert K.dim == 398
    assert K.rows == tuple(
        tuple(b + c for b, c in zip(unit[i], unit[n])) for i in range(1, n)
    )


def test_kernel_check_catches_a_kernel_too_small(monkeypatch):
    # a kernel missing a row is still killed by l and still smaller than V:
    # only the count of the vectors l kills shows it
    from drinfeld import verify

    cfg = verify.VerifyConfig(max_n_plus_1=3, max_m=1)
    assert verify.check_linalg_kernel(cfg) == (True, "")

    def short(coords, ctx):
        K = rational_kernel(coords, ctx)
        return Subspace(K.n_plus_1, K.rows[:-1])

    monkeypatch.setattr(verify, "rational_kernel", short)
    ok, detail = verify.check_linalg_kernel(cfg)
    assert not ok and detail.startswith("kernel dimension inconsistent")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_matches_bruteforce(ctx64, data):
    # over k = GF(2) and k = GF(8), the coordinates in any k_m: zeros,
    # unnormalized tuples and the zero functional are all drawn
    ctx = data.draw(st.sampled_from((ctx64, context_for(2, 3, 2, [1, 2]))))
    m = data.draw(st.sampled_from([m for m in (1, 2, 3, 6) if ctx.D % (m * ctx.e) == 0]))
    els = list(ctx.subfield_elements(m))
    n = data.draw(st.integers(1, 3))
    coords = tuple(data.draw(st.sampled_from(els)) for _ in range(n))
    K = rational_kernel(coords, ctx)
    solutions = [
        v
        for v in product(ctx.k_elements, repeat=n)
        if not apply_functional(coords, v)
    ]
    assert K == Subspace.span(n, [v for v in solutions if any(v)])
    assert len(solutions) == ctx.q**K.dim


# --- enumeration ------------------------------------------------------------


def test_zero_dimension_enumeration(ctx64):
    assert enumerate_subspaces(3, 0, ctx64) == [Subspace.zero(3)]


def test_lines_in_dim_three(ctx64):
    assert len(enumerate_subspaces(3, 1, ctx64)) == 7


def test_lines_in_dim_two_over_gf3(ctx729):
    assert len(enumerate_subspaces(2, 1, ctx729)) == 4


def test_counts_match_gaussian_binomial(ctx64, ctx729):
    for ctx, q in ((ctx64, 2), (ctx729, 3)):
        for n_plus_1 in range(1, 5):
            for d in range(n_plus_1 + 1):
                subs = enumerate_subspaces(n_plus_1, d, ctx)
                assert len(subs) == gaussian_binomial(n_plus_1, d, q)
                assert len(set(subs)) == len(subs)
                assert all(s.dim == d for s in subs)


def test_enumeration_rejects_bad_dimension(ctx64):
    with pytest.raises(ValueError):
        enumerate_subspaces(3, 4, ctx64)


def _flag_count_oracle(n_plus_1, q):
    "Chains counted by products of Gaussian binomials over dimension words."
    from itertools import combinations

    total = 0
    for r in range(n_plus_1):
        for word in combinations(range(1, n_plus_1), r):
            prod = 1
            prev = n_plus_1
            for d in reversed(word):
                prod *= gaussian_binomial(prev, d, q)
                prev = d
            total += prod
    return total


def test_flag_counts(ctx64, ctx729):
    assert len(enumerate_flags(2, ctx64)) == 4 == _flag_count_oracle(2, 2)
    assert len(enumerate_flags(2, ctx729)) == 5 == _flag_count_oracle(2, 3)
    flags3 = enumerate_flags(3, ctx64)
    assert len(flags3) == 36 == _flag_count_oracle(3, 2)
    # 1 trivial + 7 + 7 one-member + 21 complete
    by_len = {}
    for f in flags3:
        by_len[len(f)] = by_len.get(len(f), 0) + 1
    assert by_len == {0: 1, 1: 14, 2: 21}


def test_enumerate_flags_returns_a_fresh_list(ctx64):
    # the flags are built once per field and n+1: a caller changing the list
    # it was given does not change what the next call returns
    flags = enumerate_flags(3, ctx64)
    want = list(flags)
    flags.reverse()
    flags.pop()
    assert enumerate_flags(3, ctx64) == want


def test_subspace_order_against_direct_containment(ctx64, ctx729):
    """Slow oracle for the cached containment order: superspaces and flags
    recomputed pair by pair with Subspace.contains."""
    ctx4 = context_for(2, 2, 2, [1, 2])  # k = GF(4), as in test_extension_base
    ctx5 = context_for(5, 1, 3, [1])
    for ctx, n_plus_1 in (
        (ctx64, 2), (ctx64, 3), (ctx729, 3), (ctx64, 4), (ctx4, 2), (ctx4, 3), (ctx5, 3)
    ):
        subs = all_subspaces(n_plus_1, ctx)
        assert subs == sorted(subs, key=Subspace.sort_key)
        index = _subspace_order(ctx, n_plus_1)
        above = index.above
        assert list(above) == subs
        # the ids: subspaces in the order above, lines in their own order
        assert list(index.subspace_id) == subs
        assert all(index.subspace_id[W] == s for s, W in enumerate(subs))
        lines = enumerate_subspaces(n_plus_1, 1, ctx)
        assert list(index.lines) == [L.rows[0] for L in lines]
        assert all(index.line_id[u] == j for j, u in enumerate(index.lines))
        for s, W in enumerate(subs):
            inside = [j for j, L in enumerate(lines) if W.contains(L)]
            assert list(index.line_coords[s]) == inside
            for j, coords in index.line_coords[s].items():
                assert coords == W.coords_of(index.lines[j])
            assert index.by_lines[sum(1 << j for j in inside)] == s
        for a in subs:
            assert list(above[a]) == [
                b for b in subs if b.dim > a.dim and b.contains(a)
            ]
        proper = [s for s in subs if 0 < s.dim < n_plus_1]
        chains = grow = [()]
        while grow:
            grow = [
                c + (s,)
                for c in grow
                for s in proper
                if not c or (s.dim > c[-1].dim and s.contains(c[-1]))
            ]
            chains = chains + grow
        flags = sorted((Flag(n_plus_1, c) for c in chains), key=Flag.sort_key)
        assert enumerate_flags(n_plus_1, ctx) == flags


@pytest.mark.parametrize("q, n_plus_1", [(2, 3), (3, 2), (2, 4), (4, 2)])
def test_superspaces_against_all_pairs(q, n_plus_1):
    "The superspace table, read through each line's subspaces, against the comparison of every pair."
    ctx = context_for(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q], n_plus_1, [1])
    index = _subspace_order(ctx, n_plus_1)
    subs = [W for d in index.by_dim for W in d]
    bits = [sum(1 << j for j in m) for m in index.line_coords]
    assert index.above == {
        a: tuple(b for b, b_bits in zip(subs, bits) if b.dim > a.dim and a_bits & ~b_bits == 0)
        for a, a_bits in zip(subs, bits)
    }


@pytest.mark.parametrize("p, e, n_plus_1", [(2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 3)])
def test_index_rows_covers_pairs_and_plan_against_direct_computation(p, e, n_plus_1):
    "row_ids, covers, pairs and plan of the rational index, each recomputed from its definition."
    ctx = context_for(p, e, n_plus_1, [1])
    index = _subspace_order(ctx, n_plus_1)
    lines = enumerate_subspaces(n_plus_1, 1, ctx)
    for s, W in enumerate(index.subspaces):
        assert index.row_ids[s] == tuple(lines.index(Subspace.span(n_plus_1, [r])) for r in W.rows)
        assert index.covers[s] == tuple(
            b for b in index.subspaces if b.dim == W.dim + 1 and b.contains(W)
        )
    # every nonzero vector is mu * u_j for exactly one line j and one mu in k^x
    by_log = {a.log: a for a in ctx.k_elements if a}
    vectors = [v for v in product(ctx.k_elements, repeat=n_plus_1) if any(v)]
    assert sorted(index.pairs, key=vec_key) == sorted(vectors, key=vec_key)
    assert len(set(index.pairs.values())) == len(vectors) == len(lines) * len(by_log)
    for v, (j, log) in index.pairs.items():
        assert v == tuple(by_log[log] * a for a in index.lines[j])
    # u_j = e_lead, or e_lead + lam * u_k for a line k of larger lead
    unit = Subspace.full(n_plus_1, ctx).rows
    for u, (lead, k, log) in zip(index.lines, index.plan):
        assert lead == next(i for i, a in enumerate(u) if a)
        if k is None:
            assert u == unit[lead] and log is None
        else:
            assert index.plan[k][0] > lead
            assert u == tuple(a + by_log[log] * b for a, b in zip(unit[lead], index.lines[k]))


def _order_by_matrix_powers(g):
    "The order of g in PGL by multiplying matrices until the identity."
    identity = GroupElement.identity(g.n_plus_1, g.ctx)
    power, n = g, 1
    while power != identity:
        power = power.compose(g)
        n += 1
    return n


def test_group_action_against_matrices(ctx64, ctx729):
    """Slow oracle for the line rows of group elements: g.apply on every
    nonzero vector, g.apply_subspace on every subspace, composition and the
    order by matrix products."""
    ctx4 = context_for(2, 2, 2, [1, 2])  # k = GF(4)
    rng = random.Random(0)
    for ctx, n_plus_1 in ((ctx64, 3), (ctx729, 2), (ctx4, 2)):
        index = _subspace_order(ctx, n_plus_1)
        subs = all_subspaces(n_plus_1, ctx)
        units = [c for c in ctx.k_elements if c]
        by_log = {a.log: a for a in ctx.elements()}
        group = enumerate_pgl(n_plus_1, ctx)
        for g in group:
            row = g.row()
            for j, u in enumerate(index.lines):
                image, mu = row[j][0], by_log[row[j][1]]
                for c in units:
                    assert g.apply(tuple(c * a for a in u)) == tuple(
                        c * mu * a for a in index.lines[image]
                    )
            assert [subs[_subspace_image(index, row, s)] for s in range(len(subs))] == [
                g.apply_subspace(W) for W in subs
            ]
            assert g.order() == _order_by_matrix_powers(g)
        assert len({g.permutation() for g in group}) == len(group)
        for g, h in (rng.sample(group, 2) for _ in range(200)):
            # scalars are left out: the product's representative may differ
            # from the product of the representatives by a scalar
            gh, ga, ha = g.compose(h).row(), g.row(), h.row()
            assert g.compose(h).permutation() == tuple(g.permutation()[j] for j in h.permutation())
            assert [_subspace_image(index, gh, s) for s in range(len(subs))] == [
                _subspace_image(index, ga, _subspace_image(index, ha, s)) for s in range(len(subs))
            ]


def test_flag_refinement_order(ctx64):
    flags = enumerate_flags(2, ctx64)
    trivial = Flag.trivial(2)
    for f in flags:
        assert flag_leq(trivial, f)
        assert flag_leq(f, f)
    one_member = [f for f in flags if len(f) == 1]
    assert not flag_leq(one_member[0], one_member[1])


def test_flag_rejects_non_chain(ctx64):
    a = Subspace.span(3, [vecs(ctx64, 1, 0, 0)])
    b = Subspace.span(3, [vecs(ctx64, 0, 1, 0)])
    with pytest.raises(ValueError):
        Flag(3, (a, b))


# --- complements and quotients ----------------------------------------------


def test_complement_extremes(ctx64):
    W = Subspace.full(2, ctx64)
    assert complement(Subspace.zero(2), W) == W
    assert complement(W, W) == Subspace.zero(2)


def test_complement_nonpivot_choice(ctx64):
    W = Subspace.full(2, ctx64)
    V = Subspace.span(2, [vecs(ctx64, 1, 1)])
    assert complement(V, W) == Subspace.span(2, [vecs(ctx64, 0, 1)])


def test_complement_rejects_non_subspace(ctx64):
    V = Subspace.span(2, [vecs(ctx64, 1, 0)])
    W = Subspace.span(2, [vecs(ctx64, 0, 1)])
    with pytest.raises(ValueError):
        complement(V, W)


def test_complement_direct_sum_everywhere(ctx64):
    for n_plus_1 in (2, 3):
        subs = all_subspaces(n_plus_1, ctx64)
        for W in subs:
            for V in subs:
                if not W.contains(V):
                    continue
                C = complement(V, W)
                assert V.sum(C) == W
                assert V.dim + C.dim == W.dim


def test_quotient_functional_identity_cases(ctx64):
    one, zero = ctx64.one, ctx64.zero
    comp, induced = quotient_functional((one, zero), Subspace.zero(2), ctx64)
    assert comp == Subspace.full(2, ctx64) and induced == (one, zero)
    comp, induced = quotient_functional(
        (one, zero), Subspace.span(2, [vecs(ctx64, 0, 1)]), ctx64
    )
    assert comp.dim == 1 and induced == (one,)


def test_quotient_functional_factorization(ctx64):
    one, zero = ctx64.one, ctx64.zero
    coords = (one, one, zero)
    sub = Subspace.span(3, [vecs(ctx64, 1, 1, 0)])
    comp, induced = quotient_functional(coords, sub, ctx64)
    assert any(induced)
    # l = c * (induced o projection) on every vector, one fixed scalar c
    basis = list(sub.rows) + list(comp.rows)
    scalars = set()
    for v in Subspace.full(3, ctx64).vectors(ctx64):
        sol = _decompose(basis, v, ctx64)
        proj = sol[sub.dim :]
        lhs = apply_functional(coords, v)
        rhs = apply_functional(induced, proj)
        if rhs:
            scalars.add(lhs / rhs)
        else:
            assert not lhs
    assert len(scalars) == 1


def _decompose(rows, v, ctx):
    "Coefficients x with sum x_i rows_i = v, rows independent: one rref."
    aug = [[r[i] for r in rows] + [v[i]] for i in range(len(v))]
    ech, _ = rref(aug)
    sol = [ctx.zero] * len(rows)
    for r in ech:
        piv = next(i for i, a in enumerate(r) if a)
        if piv == len(rows):
            raise ValueError("vector not in the span")
        sol[piv] = r[-1]
    return tuple(sol)


@pytest.mark.parametrize("p, n_plus_1", [(2, 3), (3, 3), (2, 4)])
def test_quotient_projection_against_basis_solve(p, n_plus_1):
    # at every nested pair small < big, zero included: small's rows in big's
    # coordinates are their rref, and the projection of each e_j matches the
    # complement part of e_j solved in the basis small + complement, one rref
    from drinfeld.points import _quotient_projection

    ctx = context_for(p, 1, n_plus_1, [1])
    index = _subspace_order(ctx, n_plus_1)
    pairs = 0
    for small in (W for subs in index.by_dim for W in subs):
        for big in index.above[small]:
            small_c, free, by_coordinate = _quotient_projection(big, small, ctx)
            assert small_c == Subspace.span(big.dim, [big.coords_of(r) for r in small.rows])
            full = Subspace.full(big.dim, ctx)
            basis = list(small_c.rows) + [full.rows[i] for i in free]
            assert rref(basis)[1] == big.dim
            # complement keeps big's rows off the pivots of small_c, the rref
            assert complement(small, big).rows == tuple(big.rows[i] for i in free)
            assert by_coordinate == [_decompose(basis, e, ctx)[small_c.dim :] for e in full.rows]
            pairs += 1
    assert pairs == sum(len(above) for above in index.above.values())


def test_quotient_functional_rejects_nonvanishing(ctx64):
    with pytest.raises(ValueError):
        quotient_functional(
            (ctx64.one, ctx64.zero),
            Subspace.span(2, [vecs(ctx64, 1, 0)]),
            ctx64,
        )


# --- canonical forms --------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_form_basis_independent(ctx729, data):
    k_els = list(ctx729.k_elements)
    n = data.draw(st.integers(2, 4))
    nvecs = data.draw(st.integers(1, 3))
    vectors = [
        tuple(data.draw(st.sampled_from(k_els)) for _ in range(n))
        for _ in range(nvecs)
    ]
    sub = Subspace.span(n, vectors)
    # recombine by a random square matrix; equal span implies equal rows
    coeffs = [
        [data.draw(st.sampled_from(k_els)) for _ in range(nvecs)]
        for _ in range(nvecs + 1)
    ]
    mixed = []
    for row in coeffs:
        acc = [ctx729.zero] * n
        for c, v in zip(row, vectors):
            if c:
                acc = [a + c * b for a, b in zip(acc, v)]
        mixed.append(tuple(acc))
    again = Subspace.span(n, mixed)
    assert sub.contains(again)
    if again.dim == sub.dim:
        assert again == sub


def test_normalize_functional(ctx729):
    two = ctx729.from_int(2)
    coords = (ctx729.zero, two, ctx729.one)
    normalized = normalize_functional(coords)
    assert normalized[1] == ctx729.one
    with pytest.raises(ValueError):
        normalize_functional((ctx729.zero, ctx729.zero))


def test_subspace_membership_and_coords(ctx64):
    sub = Subspace.span(3, [vecs(ctx64, 1, 0, 1), vecs(ctx64, 0, 1, 1)])
    v = vecs(ctx64, 1, 1, 0)
    assert sub.contains_vector(v)
    coords = sub.coords_of(v)
    rebuilt = [ctx64.zero] * 3
    for c, row in zip(coords, sub.rows):
        if c:
            rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
    assert tuple(rebuilt) == v
    with pytest.raises(ValueError):
        sub.coords_of(vecs(ctx64, 0, 0, 1))


def test_span_map_and_reduction_on_every_subspace(ctx64, ctx729):
    ctx4 = context_for(2, 2, 2, [1, 2])  # k = GF(4)
    for ctx, n_plus_1 in ((ctx64, 3), (ctx729, 3), (ctx4, 2)):
        space = Subspace.full(n_plus_1, ctx).vectors(ctx)
        for W in all_subspaces(n_plus_1, ctx):
            vectors = W.vectors(ctx)
            assert len(set(vectors)) == len(vectors) == ctx.q**W.dim
            assert (ctx.zero,) * n_plus_1 in vectors
            for v in vectors:
                assert W.contains_vector(v)
                coords = W.coords_of(v)
                assert len(coords) == W.dim
                assert coords_to_ambient(W, [coords], ctx) == [v]
            outside = next((v for v in space if v not in set(vectors)), None)
            assert (outside is None) == (W.dim == n_plus_1)
            if outside is not None:
                assert any(reduce_vector(outside, zip(W.pivots(), W.rows)))
                with pytest.raises(ValueError):
                    W.coords_of(outside)
