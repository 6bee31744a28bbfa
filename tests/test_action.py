import math
import pickle
import random
from itertools import product

import pytest

from drinfeld import (
    Flag,
    PPoint,
    Subspace,
    act,
    act_P,
    act_Q,
    act_B,
    b_enumerate,
    context_for,
    enumerate_pgl,
    field_make,
    fixes,
    fixpoint_check_omega,
    omega_embed_q,
    p_classify,
    p_core,
    p_enumerate,
    pgl_order,
    q_classify,
    q_enumerate,
    stabilizer_bruteforce,
    stabilizer_predicted,
    stratum_flag,
    unipotent_elements,
    unipotent_radical_k,
)
from drinfeld.action import (
    GroupElement,
    _check_subgroup,
    _DenseCovector,
    _unipotent_matrix_criterion,
    is_unipotent,
)
from drinfeld.counts import MAX_GROUP, stabilizer_order, stabilizer_unipotents
from drinfeld.errors import DefectSignal, InvariantViolation
from drinfeld.linalg import (
    _subspace_order,
    apply_functional,
    functional_ratio,
    normalize_functional,
    quotient_functional,
)
from drinfeld.points import (
    QPoint,
    _quotient_projection,
    b_classify,
    enumerate_omega,
    flag_str,
    subspace_str,
    vector_str,
)


def vecs(ctx, *ints):
    return tuple(ctx.from_int(i) for i in ints)


# --- group enumeration ------------------------------------------------------


def test_pgl_orders(ctx64, ctx729):
    assert len(enumerate_pgl(2, ctx64)) == 6 == pgl_order(2, 2)
    assert len(enumerate_pgl(3, ctx64)) == 168 == pgl_order(3, 2)
    assert len(enumerate_pgl(2, ctx729)) == 24 == pgl_order(2, 3)


def _pgl_by_rank(n_plus_1, ctx):
    """The oracle: every matrix with leading entry 1, in row-major
    lexicographic order, kept when its Leibniz determinant, the signed sum
    over permutations, is nonzero.  No echelon form is involved."""
    from itertools import permutations, product

    terms = []
    for perm in permutations(range(n_plus_1)):
        odd = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]) % 2
        terms.append((perm, odd))
    out = []
    for flat in product(ctx.k_elements, repeat=n_plus_1 * n_plus_1):
        if next((a for a in flat if a), None) != ctx.one:
            continue
        rows = tuple(flat[i * n_plus_1 : (i + 1) * n_plus_1] for i in range(n_plus_1))
        det = ctx.zero
        for perm, odd in terms:
            term = ctx.one
            for row, col in zip(rows, perm):
                term = term * row[col]
            det = det - term if odd else det + term
        if det:
            out.append(rows)
    return out


def test_pgl_enumeration_against_rank_filter(ctx64, ctx729):
    # the same elements in the same order, at PGL(3,2), PGL(2,3), PGL(2,4), PGL(3,3)
    ctx4 = context_for(2, 2, 2, [1])
    for n_plus_1, ctx in ((3, ctx64), (2, ctx729), (2, ctx4), (3, ctx729)):
        got = [g.matrix for g in enumerate_pgl(n_plus_1, ctx)]
        assert got == _pgl_by_rank(n_plus_1, ctx)


def test_pgl_order_formula():
    # |GL(n+1, q)| / (q - 1) by the falling product
    assert pgl_order(2, 2) == (4 - 1) * (4 - 2) // 1
    assert pgl_order(3, 2) == (8 - 1) * (8 - 2) * (8 - 4) // 1
    assert pgl_order(2, 3) == (9 - 1) * (9 - 3) // 2


def test_pgl_respects_size_bound(ctx64):
    with pytest.raises(ValueError):
        enumerate_pgl(6, ctx64)


def test_group_element_normalization(ctx729):
    two = ctx729.from_int(2)
    g = GroupElement(ctx729, ((two, ctx729.zero), (ctx729.zero, two)))
    assert g.is_identity()


def test_group_element_rejects_the_zero_matrix(ctx729):
    zero = ((ctx729.zero,) * 2,) * 2
    with pytest.raises(ValueError, match="zero matrix"):
        GroupElement(ctx729, zero)
    # inside a generator a bare StopIteration would surface as RuntimeError
    with pytest.raises(ValueError, match="zero matrix"):
        list(GroupElement(ctx729, m) for m in (zero,))


def test_inverse_and_order(ctx64):
    for g in enumerate_pgl(2, ctx64):
        assert g.compose(g.inverse()).is_identity()
        assert g.order() in (1, 2, 3)


def test_inverse_rejects_a_singular_matrix(ctx729):
    one = ctx729.one
    with pytest.raises(ValueError, match="not invertible"):
        GroupElement(ctx729, ((one, one), (one, one))).inverse()


# --- actions ----------------------------------------------------------------


def test_identity_acts_trivially(ctx64):
    e = GroupElement.identity(2, ctx64)
    for x in (
        p_enumerate(ctx64, 2, 2) + q_enumerate(ctx64, 2, 2) + b_enumerate(ctx64, 2, 2)
    ):
        assert act(x, e) == x


def test_right_action_law(ctx64):
    group = enumerate_pgl(2, ctx64)
    pts = p_enumerate(ctx64, 2, 2) + q_enumerate(ctx64, 2, 2) + b_enumerate(ctx64, 2, 2)
    for g in group:
        for h in group:
            gh = g.compose(h)
            for x in pts:
                assert act(act(x, g), h) == act(x, gh)


def test_strata_transform_inversely(ctx64):
    group = enumerate_pgl(3, ctx64)[:20]
    for g in group:
        gi = g.inverse()
        for x in p_enumerate(ctx64, 3, 2)[:10]:
            assert p_classify(act_P(x, g)) == gi.apply_subspace(p_classify(x))
        for x in q_enumerate(ctx64, 3, 2)[:10]:
            assert q_classify(act_Q(x, g)) == gi.apply_subspace(q_classify(x))
        for x in b_enumerate(ctx64, 3, 1)[:6]:
            moved = b_classify(act_B(x, g))
            want = sorted(
                (gi.apply_subspace(s) for s in b_classify(x).members),
                key=Subspace.sort_key,
            )
            assert list(moved.members) == want


# --- stabilizers ------------------------------------------------------------


def test_omega_point_stabilizer_is_cyclic_of_order_three(ctx64, omega4):
    x = PPoint(ctx64, (ctx64.one, omega4))
    stab = stabilizer_bruteforce(x)
    assert len(stab) == 3
    orders = sorted(g.order() for g in stab)
    assert orders == [1, 3, 3]
    assert stabilizer_predicted(x) == stab


def test_subgroup_check_rejects_non_subgroups(ctx64, omega4):
    stab = stabilizer_bruteforce(PPoint(ctx64, (ctx64.one, omega4)))
    perms = [g.permutation() for g in stab]
    _check_subgroup(perms)
    identity = tuple(range(len(perms[0])))
    a = next(p for g, p in zip(stab, perms) if g.order() == 3)
    assert identity in perms
    with pytest.raises(InvariantViolation, match="identity"):
        _check_subgroup([p for p in perms if p != identity])
    with pytest.raises(InvariantViolation, match="closed"):
        _check_subgroup([identity, a])  # a has order 3: a*a is missing


def test_fixpoint_witness_divisors(ctx64, omega4):
    x = PPoint(ctx64, (ctx64.one, omega4))
    for g in stabilizer_bruteforce(x):
        d = fixpoint_check_omega(x.coords, g.matrix, ctx64)
        assert d == (1 if g.is_identity() else 2)
    for g in enumerate_pgl(2, ctx64):
        if g.order() == 2:
            assert fixpoint_check_omega(x.coords, g.matrix, ctx64) is None


def test_fixpoint_check_requires_dense_point(ctx64, omega4):
    g = GroupElement.identity(2, ctx64)
    with pytest.raises(ValueError):
        fixpoint_check_omega((ctx64.one, ctx64.one), g.matrix, ctx64)
    g3 = GroupElement.identity(3, ctx64)
    with pytest.raises(ValueError):
        fixpoint_check_omega((ctx64.one, omega4, ctx64.zero), g3.matrix, ctx64)


def test_fixes_agrees_with_acting(ctx64, ctx729):
    # the early-exit test against its slow oracle, building x.g in full;
    # P and Q at (2, 3, 3) are where the d = 3 branch fires
    enumerate_kind = {"P": p_enumerate, "Q": q_enumerate, "B": b_enumerate}
    cases = (
        [(ctx64, 3, 1, "PQB")] + [(ctx729, 2, m, "PQB") for m in (1, 2)] + [(ctx64, 3, 3, "PQ")]
    )
    for ctx, n_plus_1, m, kinds in cases:
        group = enumerate_pgl(n_plus_1, ctx)
        points = [x for kind in kinds for x in enumerate_kind[kind](ctx, n_plus_1, m)]
        for x in points:
            for g in group:
                assert fixes(x, g) == (act(x, g) == x)


def _permutation_by_matrix(g):
    "The oracle for the line permutation: one matrix-vector product per line."
    index = _subspace_order(g.ctx, g.n_plus_1)
    return tuple(index.pairs[g.apply(u)][0] for u in index.lines)


def test_kept_basis_images_and_linear_permutation_against_matrices(ctx64, ctx729):
    # every element of PGL(3,2), PGL(2,3) and PGL(2,4): the kept basis images
    # are the line pairs of g(e_i), and the permutation found by linearity
    # from them is the one the matrix gives line by line; each element is
    # made anew, so no line of its row was read before
    gf4 = context_for(2, 2, 2, [1, 2])  # k = GF(4)
    for ctx, n_plus_1 in ((ctx64, 3), (ctx729, 2), (gf4, 2)):
        pairs = _subspace_order(ctx, n_plus_1).pairs
        basis = Subspace.full(n_plus_1, ctx).rows
        for g in (GroupElement(ctx, g.matrix) for g in enumerate_pgl(n_plus_1, ctx)):
            assert g.basis_images() == tuple(pairs[g.apply(e)] for e in basis)
            assert g.permutation() == _permutation_by_matrix(g)


def _plan_depth(plan, j):
    "How many lines a read of line j recurses through before a basis image."
    depth = 0
    while plan[j][1] is not None:
        j, depth = plan[j][1], depth + 1
    return depth


def test_line_row_read_deepest_first_against_matrices(ctx64):
    # each element made anew, its lines read one at a time, those whose plan
    # recurses deepest first: every (j', log mu) is the one g.apply gives;
    # all of PGL(3,2) and PGL(2,4), and a fixed sample of PGL(4,2), where a
    # read recurses 3 deep
    gf4 = context_for(2, 2, 2, [1, 2])  # k = GF(4)
    ctx42 = context_for(2, 1, 4, [1])
    cases = [(ctx64, 3, None), (gf4, 2, None), (ctx42, 4, 300)]
    for ctx, n_plus_1, sample in cases:
        index = _subspace_order(ctx, n_plus_1)
        order = sorted(range(len(index.lines)), key=lambda j: -_plan_depth(index.plan, j))
        assert _plan_depth(index.plan, order[0]) == n_plus_1 - 1
        group = enumerate_pgl(n_plus_1, ctx)
        if sample is not None:
            group = random.Random(0).sample(group, sample)
        for g in (GroupElement(ctx, g.matrix) for g in group):
            row = g.row()
            for j in order:
                assert row[j] == index.pairs[g.apply(index.lines[j])]


def test_unpickled_element_fixes_as_the_cached_one(ctx64):
    # an unpickled element comes with empty caches and must answer fixes as
    # the element whose basis images and line row are already filled
    group = enumerate_pgl(3, ctx64)
    for g in group:
        g.permutation()
    for x in p_enumerate(ctx64, 3, 1) + q_enumerate(ctx64, 3, 1) + b_enumerate(ctx64, 3, 1):
        for g in group:
            fresh = pickle.loads(pickle.dumps(g))
            assert fresh == g and fresh._images is None and fresh._row is None
            assert fixes(x, fresh) == fixes(x, g)


class _QuotientBlock:
    """The oracle's block on big/small: the lines of big's echelon rows that
    span a complement of small, the projection of big's lines onto the
    complement coordinates, and the _DenseCovector of the induced quotient
    covector.  passes(g) is asked only of g leaving big and small invariant."""

    def __init__(self, big, small, coords, ctx):
        small_c, free, by_coordinate = _quotient_projection(big, small, ctx)
        index = _subspace_order(ctx, big.n_plus_1)
        self.basis = [index.line_id[big.rows[i]] for i in free]
        self.to_quotient = {
            j: tuple(apply_functional(r, c) for r in zip(*by_coordinate))
            for j, c in index.line_coords[index.subspace_id[big]].items()
        }
        _, lbar = quotient_functional(coords, small_c, ctx)
        self.dense = _DenseCovector(lbar, ctx)

    def induced_columns(self, g):
        "Images of the complement basis under g, in complement coordinates."
        antilog = g.ctx._antilog
        return [
            tuple(antilog[mu] * a for a in self.to_quotient[image])
            for image, mu in map(g.row().__getitem__, self.basis)
        ]

    def passes(self, g):
        return self.dense.witness(self.induced_columns(g)) is not None


def _predicted_blocks(x):
    """The invariance constraints of the block-triangular stabilizer description,
    (line of r, lines of W) for each echelon row r of each stratum flag member W,
    and its blocks on the flag's chain (P the top one, Q the bottom one, B all)."""
    ctx = x.ctx
    flag = stratum_flag(x)
    chain = flag.chain(ctx)
    if isinstance(x, PPoint):
        blocks = [_QuotientBlock(chain[0], chain[1], x.coords, ctx)]
    elif isinstance(x, QPoint):
        sub = chain[-2]
        # the covector on the support span, recovered from 1/r on its basis
        inv_coords = normalize_functional(
            tuple(x.table[r].inverse() for r in sub.rows)
        )
        blocks = [_QuotientBlock(sub, chain[-1], inv_coords, ctx)]
    else:
        blocks = [
            _QuotientBlock(chain[t], chain[t + 1], x.family[chain[t]], ctx)
            for t in range(len(chain) - 1)
        ]
    index = _subspace_order(ctx, x.n_plus_1)
    invariant = [
        (index.line_id[r], index.line_coords[index.subspace_id[m]])
        for m in flag.members
        for r in m.rows
    ]
    return invariant, blocks


def _stabilizer_by_filter(x, group):
    """The oracle for the built stabilizer: the block-triangular description
    as a filter of the whole group.  P: g preserves the kernel V' and the
    induced map on V/V' passes the dense fixpoint check against the induced
    covector.  Q: g preserves the support span V' and g restricted to V'
    passes the check against 1/r.  B: g fixes the stratum flag and every
    induced diagonal block passes the check against its quotient covector.
    The column check is read first, and only the elements it keeps get line
    rows (test_column_test_keeps_what_the_description_keeps)."""
    invariant, blocks = _predicted_blocks(x)
    on_columns = _column_check(x)
    out = []
    for g in group:
        if not on_columns(g):
            continue
        # g is invertible, so g(W) inside W, read on W's rows, means g(W) = W
        row = g.row()
        if not all(row[j][0] in inside for j, inside in invariant):
            continue
        if all(block.passes(g) for block in blocks):
            out.append(g)
    return sorted(out, key=GroupElement.sort_key)


def _column_check(x):
    """The oracle's V check, from the matrix action: f o g a nonzero multiple
    of f on g's columns, or zero there where f is zero on the whole basis;
    f is x's value on a vector of V (l for P, 1/r for Q, l_V for B)."""
    ctx, basis = x.ctx, Subspace.full(x.n_plus_1, x.ctx).rows
    if isinstance(x, PPoint):
        f = lambda v: apply_functional(x.coords, v)
    elif isinstance(x, QPoint):
        f = lambda v: x.table[v].inverse() if x.table[v] else ctx.zero
    else:
        f = lambda v: apply_functional(x.family[Subspace(x.n_plus_1, basis)], v)
    on_basis = [f(e) for e in basis]

    def check(g):
        pulled = [f(col) for col in zip(*g.matrix)]
        if not any(on_basis):
            return not any(pulled)
        return bool(functional_ratio(pulled, on_basis))

    return check


def test_column_test_keeps_what_the_description_keeps(ctx64, ctx729):
    # the filter oracle reads the column check first: every element that
    # fixes the stratum flag and passes every block check must pass it
    cases = [(ctx64, 3, m, "PQB") for m in (1, 2)] + [(ctx729, 2, m, "PQB") for m in (1, 2)]
    cases.append((ctx64, 3, 3, "P"))
    enumerate_kind = {"P": p_enumerate, "Q": q_enumerate, "B": b_enumerate}
    for ctx, n_plus_1, m, kinds in cases:
        group = enumerate_pgl(n_plus_1, ctx)
        for x in (x for kind in kinds for x in enumerate_kind[kind](ctx, n_plus_1, m)):
            _, blocks = _predicted_blocks(x)
            on_columns, members = _column_check(x), stratum_flag(x).members
            for g in group:
                kept = all(g.apply_subspace(W) == W for W in members) and all(
                    block.passes(g) for block in blocks
                )
                assert on_columns(g) or not kept


_KINDS = {"P": p_enumerate, "Q": q_enumerate, "B": b_enumerate}


def test_stabilizer_theorem_small_sweep(ctx64, ctx729):
    # three routes that share nothing past the point:
    # built from the stratum flag, filtered by the block description, and
    # brute force over fixes
    gf4 = context_for(2, 2, 2, [1, 2])  # k = GF(4)
    cases = [(ctx64, 2, m, "PQB") for m in (1, 2, 3)] + [(ctx729, 2, m, "PQB") for m in (1, 2)]
    cases += [(ctx64, 3, m, "PQB") for m in (1, 2)] + [(gf4, 2, m, "PQB") for m in (1, 2)]
    cases.append((ctx64, 3, 3, "P"))
    for ctx, n_plus_1, m, kinds in cases:
        group = enumerate_pgl(n_plus_1, ctx)
        for x in (x for kind in kinds for x in _KINDS[kind](ctx, n_plus_1, m)):
            built = stabilizer_predicted(x)
            assert built == _stabilizer_by_filter(x, group) == stabilizer_bruteforce(x, group)


def _levels_by_search(x):
    """(d_t, f_t) of x's stratum chain, top level first, f_t None on a free
    level and otherwise found by searching all of GF(p^D) for the mu with
    mu * S inside S, S the k-span of the oracle's quotient covector."""
    ctx = x.ctx
    chain = stratum_flag(x).chain(ctx)
    dims = [big.dim - small.dim for big, small in zip(chain, chain[1:])]
    degrees = []
    for block in _predicted_blocks(x)[1]:
        values = block.dense.twists[0]
        span = {apply_functional(values, c) for c in product(ctx.k_elements, repeat=len(values))}
        units = sum(all(mu * a in span for a in values) for mu in ctx.elements() if mu)
        f = round(math.log(units + 1, ctx.q))
        assert units == ctx.q**f - 1
        degrees.append(f)
    if isinstance(x, PPoint):
        degrees += [None] * (len(dims) - 1)
    elif isinstance(x, QPoint):
        degrees = [None] * (len(dims) - 1) + degrees
    return list(zip(dims, degrees))


def test_stabilizer_orders_in_closed_form(ctx64, ctx729):
    # |Stab| = q^N prod_free |GL(d_t, q)| prod_dense (q^f_t - 1) / (q - 1), and
    # q^N prod_free q^(d_t (d_t - 1)) unipotent elements, against brute force
    gf4 = context_for(2, 2, 2, [1, 2])
    cases = [(ctx64, 3, m) for m in (1, 2)] + [(ctx729, 2, m) for m in (1, 2)]
    cases += [(gf4, 2, m) for m in (1, 2)]
    for ctx, n_plus_1, m in cases:
        group = enumerate_pgl(n_plus_1, ctx)
        for x in (x for enum in _KINDS.values() for x in enum(ctx, n_plus_1, m)):
            stab = stabilizer_bruteforce(x, group)
            levels = _levels_by_search(x)
            assert len(stab) == stabilizer_order(levels, ctx.q)
            assert len(unipotent_elements(stab)) == stabilizer_unipotents(levels, ctx.q)


def test_stabilizer_order_divides_by_q_minus_one_once(ctx729):
    # a B point on a full flag of k^2 over GF(3): two dense blocks k^x, so
    # (q - 1)^2 / (q - 1) Levi elements times the radical's q
    x = next(x for x in b_enumerate(ctx729, 2, 1) if len(b_classify(x)) == 1)
    assert len(stabilizer_predicted(x)) == 6 == stabilizer_order([(1, 1), (1, 1)], 3)


def test_built_stabilizer_past_the_group_bound():
    # PGL(5, 2) has 9,999,360 elements, past the bound; a P point with a
    # two-dimensional kernel and GF(8) values on V/V' has 2^6 |GL(2, 2)| 7
    ctx = context_for(2, 1, 5, [3])
    with pytest.raises(ValueError, match="desk-scale"):
        enumerate_pgl(5, ctx)
    x = PPoint(ctx, enumerate_omega(3, ctx, 3)[0] + (ctx.zero, ctx.zero))
    stab = stabilizer_predicted(x)
    assert len(stab) == 2**6 * 6 * 7 == stabilizer_order([(3, 3), (2, None)], 2)
    assert all(fixes(x, g) for g in stab)
    _check_subgroup([g.permutation() for g in stab])


def test_built_stabilizer_is_refused_by_its_order_before_it_is_built(monkeypatch):
    # the rational P point of k^5 over GF(2): 2^4 |GL(4, 2)| = 322,560 elements;
    # at n+1 = 100 the bound is passed by the bit length of the order alone
    from drinfeld import action

    ctx = context_for(2, 1, 5, [1])
    assert stabilizer_order([(1, 1), (4, None)], 2) == 322_560 > MAX_GROUP
    monkeypatch.setattr(action, "GroupElement", None)  # building one fails
    monkeypatch.setattr(action, "_invertible", None)  # and so does growing GL(4, 2)
    monkeypatch.setattr(action, "_chain_basis", None)  # and making the chain basis
    for n_plus_1 in (5, 100):
        x = PPoint(ctx, (ctx.one,) + (ctx.zero,) * (n_plus_1 - 1))
        with pytest.raises(ValueError, match="stabilizer of more than"):
            stabilizer_predicted(x)


def test_built_stabilizer_of_the_wrong_size_is_a_defect(ctx64, monkeypatch):
    from drinfeld import action

    x = PPoint(ctx64, vecs(ctx64, 1, 0, 0))
    monkeypatch.setattr(action, "stabilizer_order", lambda levels, q: stabilizer_order(levels, q) + 1)
    with pytest.raises(DefectSignal, match="closed form"):
        stabilizer_predicted(x)


def test_rational_point_stabilizer_is_full_parabolic(ctx64):
    # the stabilizer of a rational covector point is the stabilizer of its
    # kernel hyperplane
    x = PPoint(ctx64, (ctx64.one, ctx64.zero, ctx64.zero))
    stab = stabilizer_bruteforce(x)
    kernel = p_classify(x)
    parabolic = [
        g for g in enumerate_pgl(3, ctx64) if g.apply_subspace(kernel) == kernel
    ]
    assert stab == parabolic
    assert len(stab) == 24


def test_group_elements_of_two_fields_keep_their_own_images():
    # a 0/1 matrix over GF(3) and over GF(2) has the same element codes; the
    # two group elements differ, and each field keeps its own images
    ctx3, ctx2 = field_make(3, 1, 1), field_make(2, 1, 1)
    stabilizer_bruteforce(PPoint(ctx3, vecs(ctx3, 1, 0, 0)))
    x = b_enumerate(ctx2, 3, 1)[-1]
    stab = stabilizer_bruteforce(x)
    assert stab and stab == stabilizer_predicted(x)


def test_omega_equivariance(ctx64):
    group = enumerate_pgl(2, ctx64)
    for coords in enumerate_omega(2, ctx64, 2):
        l = PPoint(ctx64, coords)
        for g in group:
            assert act_Q(omega_embed_q(l), g) == omega_embed_q(act_P(l, g))


# --- unipotent structure ----------------------------------------------------


def test_unipotent_radical_trivial_flag(ctx64):
    rad = unipotent_radical_k(Flag.trivial(2), ctx64)
    assert len(rad) == 1 and rad[0].is_identity()


def test_unipotent_radical_one_member(ctx64):
    V1 = Subspace.span(2, [vecs(ctx64, 0, 1)])
    rad = unipotent_radical_k(Flag(2, (V1,)), ctx64)
    assert len(rad) == 2


def test_unipotent_radical_complete_flag(ctx64):
    line = Subspace.span(3, [vecs(ctx64, 0, 0, 1)])
    plane = Subspace.span(3, [vecs(ctx64, 0, 1, 0), vecs(ctx64, 0, 0, 1)])
    rad = unipotent_radical_k(Flag(3, (line, plane)), ctx64)
    assert len(rad) == 8


def test_parabolic_data_blocks_and_radical_order(ctx64):
    # the complement blocks decompose V, and the radical order is q to the
    # number of strictly-below-diagonal block entries
    from drinfeld import complement, enumerate_flags

    full = Subspace.full(3, ctx64)
    for flag in enumerate_flags(3, ctx64):
        chain = flag.chain(ctx64)
        blocks = [complement(chain[t + 1], chain[t]) for t in range(len(chain) - 1)]
        total = Subspace.zero(3)
        for block in blocks:
            total = total.sum(block)
        assert total == full
        dims = [b.dim for b in blocks]
        assert sum(dims) == 3
        exponent = sum(
            d1 * d2 for i, d1 in enumerate(dims) for d2 in dims[i + 1 :]
        )
        assert len(unipotent_radical_k(flag, ctx64)) == 2**exponent


def _nilpotent_along_chain(g, c, chain):
    "(c*M - id) maps chain[t] into chain[t+1] for every step."
    for t in range(len(chain) - 1):
        big, small = chain[t], chain[t + 1]
        for r in big.rows:
            img = g.apply(r)
            shifted = tuple(c * a - b for a, b in zip(img, r))
            if not small.contains_vector(shifted):
                return False
    return True


def _radical_by_filter(flag, ctx, group):
    """The radical as a filter of the whole group, the oracle: g belongs iff
    some scalar multiple c*M of its representative satisfies
    (c*M - id) C_t inside C_(t+1) along the chain."""
    chain = flag.chain(ctx)
    units = [c for c in ctx.k_elements if c]
    return sorted(
        (g for g in group if any(_nilpotent_along_chain(g, c, chain) for c in units)),
        key=GroupElement.sort_key,
    )


def test_radical_built_from_its_flag_equals_the_filter(ctx64, ctx729):
    from drinfeld import enumerate_flags

    ctx4 = context_for(2, 2, 2, [1])  # k = GF(4)
    for ctx, n_plus_1 in ((ctx64, 2), (ctx729, 2), (ctx4, 2), (ctx64, 3)):
        group = enumerate_pgl(n_plus_1, ctx)
        for flag in enumerate_flags(n_plus_1, ctx):
            assert unipotent_radical_k(flag, ctx) == _radical_by_filter(flag, ctx, group)


def test_radical_of_a_full_flag_past_the_group_bound():
    # |PGL(4, 3)| = 12,130,560 is past the bound; its radical has 3^6 elements
    ctx = context_for(3, 1, 4, [1])
    with pytest.raises(ValueError, match="desk-scale"):
        enumerate_pgl(4, ctx)
    rows = Subspace.full(4, ctx).rows
    flag = Flag(4, [Subspace.span(4, rows[4 - d:]) for d in (1, 2, 3)])
    rad = unipotent_radical_k(flag, ctx)
    assert len(rad) == 3**6 == len(set(rad))
    for g in rad:
        assert is_unipotent(g)
        assert all(g.apply_subspace(m) == m for m in flag.members)


def test_radical_past_the_bound_is_refused_before_it_is_built(monkeypatch):
    # a full flag of k^3 over GF(67): 67^3 = 300,763 elements
    from drinfeld import action

    ctx = context_for(67, 1, 3, [1])
    rows = Subspace.full(3, ctx).rows
    flag = Flag(3, [Subspace.span(3, rows[2:]), Subspace.span(3, rows[1:])])
    monkeypatch.setattr(action, "GroupElement", None)  # building one fails
    monkeypatch.setattr(action, "_chain_basis", None)  # and so does making the chain basis
    with pytest.raises(ValueError, match="radical of 67\\^3 elements"):
        unipotent_radical_k(flag, ctx)


def test_unipotent_elements_of_pgl22(ctx64):
    group = enumerate_pgl(2, ctx64)
    uni = unipotent_elements(group)
    assert len(uni) == 4  # identity and the three transvections
    assert unipotent_elements([GroupElement.identity(2, ctx64)]) == [
        GroupElement.identity(2, ctx64)
    ]


def test_kept_unipotent_verdict_equals_both_criteria(ctx64, ctx729):
    for ctx, n_plus_1 in ((ctx64, 3), (ctx729, 2), (context_for(2, 2, 2, [1]), 2)):
        for g in enumerate_pgl(n_plus_1, ctx):
            verdict = is_unipotent(g)
            fresh = GroupElement(ctx, g.matrix)  # no row and no verdict kept yet
            order = fresh.order()
            while order % ctx.p == 0:
                order //= ctx.p
            assert verdict == (order == 1) == _unipotent_matrix_criterion(fresh)
            assert is_unipotent(g) is verdict


def _unipotent_by_every_scalar(g):
    "The oracle: c * M - I nilpotent, M g's matrix, tried for every c in k^x."
    ctx, n = g.ctx, g.n_plus_1
    for c in ctx.k_elements:
        if not c:
            continue
        rows = [[c * a - (ctx.one if i == j else ctx.zero) for j, a in enumerate(row)]
                for i, row in enumerate(g.matrix)]
        power = rows
        for _ in range(n - 1):
            power = [[apply_functional(r, col) for col in zip(*rows)] for r in power]
        if not any(a for r in power for a in r):
            return True
    return False


@pytest.mark.parametrize(
    "p, e, n_plus_1",
    [(3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2), (11, 1, 2), (2, 1, 3), (3, 1, 3)],
)
def test_unipotent_matrix_criterion_against_every_scalar(p, e, n_plus_1):
    # the one scalar (n+1) / tr(M) where p does not divide n+1, every scalar
    # where it does (PGL(2, 4) and PGL(3, 3)): the same verdict on every element
    ctx = context_for(p, e, n_plus_1, [1])
    verdicts = set()
    for g in enumerate_pgl(n_plus_1, ctx):
        verdict = _unipotent_matrix_criterion(g)
        assert verdict == _unipotent_by_every_scalar(g), g
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_semisimple_stabilizer_has_trivial_unipotent_part(ctx64, omega4):
    stab = stabilizer_bruteforce(PPoint(ctx64, (ctx64.one, omega4)))
    uni = unipotent_elements(stab)
    assert len(uni) == 1 and uni[0].is_identity()


def test_p_core_of_full_parabolic(ctx64):
    # unipotent elements overshoot the radical; the normal core recovers it
    x = PPoint(ctx64, (ctx64.one, ctx64.zero, ctx64.zero))
    stab = stabilizer_bruteforce(x)
    rad = unipotent_radical_k(stratum_flag(x), ctx64)
    assert len(unipotent_elements(stab)) == 16
    assert p_core(stab) == rad and len(rad) == 4


def test_p_core_rejects_a_set_that_is_not_a_subgroup(ctx64):
    # two unipotent elements that do not commute, with the identity: their
    # products are missing, and p_core says so instead of raising KeyError
    group = enumerate_pgl(3, ctx64)
    uni = [g for g in unipotent_elements(group) if not g.is_identity()]
    u, v = next((u, v) for u in uni for v in uni if u.compose(v) != v.compose(u))
    with pytest.raises(ValueError, match="not a subgroup"):
        p_core([GroupElement.identity(3, ctx64), u, v])


def test_unipotent_identity_holds_at_dim_two(ctx64):
    group = enumerate_pgl(2, ctx64)
    for m in (1, 2):
        for x in (
            p_enumerate(ctx64, 2, m)
            + q_enumerate(ctx64, 2, m)
            + b_enumerate(ctx64, 2, m)
        ):
            stab = stabilizer_bruteforce(x, group)
            rad = unipotent_radical_k(stratum_flag(x), ctx64)
            assert unipotent_elements(stab) == rad
            assert p_core(stab) == rad


def test_unipotent_identity_fails_for_deep_p_strata(ctx64):
    # documented defect of the element-level restatement: a P stratum with a
    # two-dimensional kernel keeps a free diagonal block, so the stabilizer
    # contains unipotent elements outside the radical
    group = enumerate_pgl(3, ctx64)
    x = PPoint(ctx64, (ctx64.one, ctx64.zero, ctx64.zero))
    stab = stabilizer_bruteforce(x, group)
    rad = unipotent_radical_k(stratum_flag(x), ctx64)
    assert unipotent_elements(stab) != rad
    assert set(rad) < set(unipotent_elements(stab))
    assert p_core(stab) == rad


def test_b_points_satisfy_literal_unipotent_identity(ctx64):
    group = enumerate_pgl(3, ctx64)
    for x in b_enumerate(ctx64, 3, 1):
        stab = stabilizer_bruteforce(x, group)
        rad = unipotent_radical_k(b_classify(x), ctx64)
        assert unipotent_elements(stab) == rad


def _gl_order(d, q):
    order = 1
    for i in range(d):
        order *= q**d - q**i
    return order


def test_stabilizer_orders_factor_through_blocks(ctx64):
    # Levi-style factorization forced by the block-triangular shape:
    # P: |Stab| = q^(d(n+1-d)) |GL(d,q)| |Stab(induced dense point)|,
    # B: |Stab| = q^stars (q-1)^(blocks-1) prod_i |Stab(block point)|
    from drinfeld.linalg import quotient_functional

    q = 2
    groups = {d: enumerate_pgl(d, ctx64) for d in (1, 2, 3)}
    for m in (1, 2):
        for x in p_enumerate(ctx64, 3, m):
            sub = p_classify(x)
            d = sub.dim
            small = sub if d else Subspace.zero(3)
            _, lbar = quotient_functional(x.coords, small, ctx64)
            quora = len(
                stabilizer_bruteforce(PPoint(ctx64, lbar), groups[3 - d])
            )
            want = q ** (d * (3 - d)) * _gl_order(d, q) * quora
            assert len(stabilizer_bruteforce(x, groups[3])) == want
    for x in b_enumerate(ctx64, 3, 1):
        chain = b_classify(x).chain(ctx64)
        dims = [chain[t].dim - chain[t + 1].dim for t in range(len(chain) - 1)]
        stars = sum(d1 * d2 for i, d1 in enumerate(dims) for d2 in dims[i + 1 :])
        prod = 1
        for t in range(len(chain) - 1):
            big, small = chain[t], chain[t + 1]
            small_c = Subspace.span(big.dim, [big.coords_of(r) for r in small.rows])
            _, lbar = quotient_functional(x.family[chain[t]], small_c, ctx64)
            prod *= len(
                stabilizer_bruteforce(PPoint(ctx64, lbar), groups[len(lbar)])
            )
        want = q**stars * (q - 1) ** (len(dims) - 1) * prod
        assert len(stabilizer_bruteforce(x, groups[3])) == want


# --- the ambient degree -----------------------------------------------------


def _strata_and_stabilizers(ctx, n_plus_1, m):
    "Sorted (kind, stratum key, predicted stabilizer) of every point over k_m."
    out = []
    for kind, enum, classify, key in (
        ("P", p_enumerate, p_classify, subspace_str),
        ("Q", q_enumerate, q_classify, subspace_str),
        ("B", b_enumerate, b_classify, flag_str),
    ):
        for x in enum(ctx, n_plus_1, m):
            members = sorted(
                ";".join(vector_str(row, ctx) for row in g.matrix)
                for g in stabilizer_predicted(x)
            )
            out.append((kind, key(classify(x), ctx), members))
    return sorted(out)


@pytest.mark.parametrize(
    "q, n_plus_1, m", [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)]
)
def test_stabilizers_do_not_depend_on_the_ambient_degree(q, n_plus_1, m):
    # context_for takes the smallest field holding k_m; the field that also
    # holds every k_d with d <= n+1, where block eigenvalues could live, gives
    # the same strata and stabilizers
    small = context_for(q, 1, n_plus_1, [m])
    large = field_make(q, 1, math.lcm(*range(1, n_plus_1 + 1), m))
    assert small.D == m
    assert (_strata_and_stabilizers(small, n_plus_1, m)
            == _strata_and_stabilizers(large, n_plus_1, m))
