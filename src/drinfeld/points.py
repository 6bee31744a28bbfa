"""Points of the three compactifications over finite extensions of k.

Three kinds of points, all valued in an extension k_m inside the ambient
field:

* PPoint -- a projective covector: a nonzero functional on V up to scalar.
* QPoint -- a reciprocal map: a table r on the nonzero k-rational vectors
  satisfying r(c*v) = c^(-1) r(v) and r(v) r(v') = r(v+v') (r(v) + r(v')).
* BPoint -- a compatible family of functionals, one per nonzero subspace
  W of V, tied together by the 2x2 incidence minors
  l_W(v) l_W'(v') = l_W(v') l_W'(v) for v, v' in W' subset W.

Classification sends a point to the stratum it lies in: the rational kernel
(P), the support span (Q), or the kernel chain flag (B), read off B's line
tables with no linear solve.

A certificate linear in the input decides each axiom (Q: r = 1/l on the span
of its support; B: l_W the rescaled restriction of the first kernel chain
member not vanishing on W); pair scans only name a failure's witness.  BPoints
tabulate l_W at W's lines, and their JSON keys decode to the index's subspaces.
"""

from itertools import combinations, product

from .counts import MAX_STRATA, check_covers, nonzero_subspaces, nonzero_vectors
from .errors import DefectSignal, InvariantViolation
from .field import per_field
from .linalg import (
    Flag,
    Subspace,
    _subspace_order,
    all_subspaces,
    apply_functional,
    enumerate_flags,
    normalize_functional,
    functional_ratio,
    pivot_row,
    rational_kernel,
    reduce_vector,
    rref,
    vec_key,
)


class PPoint:
    """A point of the projective side: normalized functional coordinates."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = normalize_functional(coords)

    @property
    def n_plus_1(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, PPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __reduce__(self):
        return (PPoint, (self.ctx, self.coords))

    def __repr__(self):
        return f"PPoint{tuple(a for a in self.coords)}"


class QPoint:
    """A reciprocal map on V \\ {0}, normalized at its first supported vector."""

    __slots__ = ("ctx", "n_plus_1", "table")

    def __init__(self, ctx, n_plus_1, table, validate=True):
        if validate:
            result = q_validate(table, ctx, n_plus_1)
            if not result:
                raise ValueError(f"not a reciprocal map: {result.code}")
        self.ctx = ctx
        self.n_plus_1 = n_plus_1
        self.table = _normalize_table(table)

    def __eq__(self, other):
        return isinstance(other, QPoint) and self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))

    def __reduce__(self):
        return (QPoint, (self.ctx, self.n_plus_1, self.table, False))

    def __repr__(self):
        support = sum(1 for v in self.table.values() if v)
        return f"QPoint(support {support} of {len(self.table)})"


class BPoint:
    """A compatible family: one normalized functional per nonzero subspace.

    on_lines[W] maps the id j of each line of W to l_W(u_j), u_j the normalized
    vector spanning line j (its coordinates in W's basis read from the
    rational index).  Built once, it makes the restriction of l_W to any
    W' < W a lookup: W''s echelon rows are such vectors u_j.
    """

    __slots__ = ("ctx", "n_plus_1", "family", "on_lines")

    def __init__(self, ctx, n_plus_1, family, validate=True):
        _check_family_size(len(family), n_plus_1, ctx)
        family = {W: normalize_functional(c) for W, c in family.items()}
        for W, c in family.items():
            if len(c) != W.dim:
                raise ValueError("functional length must match subspace dimension")
        index = _subspace_order(ctx, n_plus_1)
        self._set(ctx, n_plus_1, family, {
            W: {j: apply_functional(func, c) for j, c in index.line_coords[index.subspace_id[W]].items()}
            for W, func in family.items()
        })
        if validate:
            result = b_validate(self)
            if not result:
                raise ValueError(f"incompatible family: {result.code}")

    @classmethod
    def _tabulated(cls, ctx, n_plus_1, family, on_lines):
        """The point of a normalized family covering every nonzero subspace
        whose line table is already made, as the flag builder makes it from
        the chain; nothing is checked."""
        x = cls.__new__(cls)
        x._set(ctx, n_plus_1, family, on_lines)
        return x

    def _set(self, ctx, n_plus_1, family, on_lines):
        "The one place a point's state is set."
        self.ctx = ctx
        self.n_plus_1 = n_plus_1
        self.family = family
        self.on_lines = on_lines

    def value(self, W, v):
        "Evaluate the functional attached to W at a vector v of W."
        return apply_functional(self.family[W], W.coords_of(v))

    def __eq__(self, other):
        return isinstance(other, BPoint) and self.family == other.family

    def __hash__(self):
        return hash(frozenset(self.family.items()))

    def __reduce__(self):
        return (BPoint, (self.ctx, self.n_plus_1, self.family, False))

    def __repr__(self):
        return f"BPoint(n+1={self.n_plus_1}, {len(self.family)} functionals)"


def _check_family_size(entries, n_plus_1, ctx):
    "ValueError unless a family of this many entries can cover k^(n+1) at desk scale."
    check_covers(entries, n_plus_1, nonzero_subspaces, ctx.q,
                 f"family must cover all nonzero subspaces of k^{n_plus_1}, got {entries}")
    if entries > MAX_STRATA:
        raise ValueError(f"{entries} subspaces exceed the desk-scale bound {MAX_STRATA}")


# ---------------------------------------------------------------------------
# enumeration of functionals and points


def canonical_vectors(n_plus_1, ctx):
    """Nonzero k-rational vectors of k^(n+1) in canonical order: k_elements is
    sorted, so product lists them in vec_key order."""
    return [v for v in product(ctx.k_elements, repeat=n_plus_1) if any(v)]


def enumerate_functionals(dim, ctx, m, lo=0, hi=float("inf")):
    """All normalized functionals of length dim with entries in k_m, or those
    at positions lo..hi-1 only, each built from its position.

    Count is (q^(m*dim) - 1)/(q^m - 1); order by leading position, then the
    tail: offset t in its lead's block holds the base-q^m digits of t.
    """
    els = ctx.subfield_elements(m)
    base, out = len(els), []
    for lead in range(dim):
        head = (ctx.zero,) * lead + (ctx.one,)
        weights = [base**i for i in reversed(range(dim - lead - 1))]
        block = base * weights[0] if weights else 1
        for t in range(max(lo, 0), min(hi, block)):
            out.append(head + tuple(els[t // w % base] for w in weights))
        lo, hi = lo - block, hi - block
    return out


def enumerate_omega(dim, ctx, m):
    "Normalized functionals over k_m whose rational kernel is trivial."
    return list(_omega(ctx, dim, m))


@per_field
def _omega(ctx, dim, m):
    return tuple(c for c in enumerate_functionals(dim, ctx, m) if rational_kernel(c, ctx).dim == 0)


def p_enumerate(ctx, n_plus_1, m):
    "All points of the projective side over k_m."
    return [PPoint(ctx, c) for c in enumerate_functionals(n_plus_1, ctx, m)]


# ---------------------------------------------------------------------------
# P


def p_classify(x):
    """The stratum of a PPoint: its k-rational kernel V'.

    V' = {0} exactly on the open dense part (no rational hyperplane
    constraint is hit).
    """
    return rational_kernel(x.coords, x.ctx)


def frobenius_twist(x, i):
    "The i-fold twist: apply the inverse Frobenius to every coordinate."
    if i < 0:
        raise ValueError("twist exponent must be >= 0")
    return PPoint(x.ctx, twist_coords(x.coords, i, x.ctx))


def twist_coords(coords, i, ctx):
    "Raw coordinate twist (no renormalization): F^(-i) entrywise."
    for _ in range(i):
        coords = tuple(ctx.inv_frobenius(a) for a in coords)
    return tuple(coords)


def twist_span_dim(x):
    """Dimension of the span of the twist orbit of x's functional.

    Twists are stacked until the orbit closes, and the rank is taken over
    the ambient field.  Equals n+1 minus the dimension of the rational
    kernel.
    """
    rows = [x.coords]
    cur = twist_coords(x.coords, 1, x.ctx)
    while cur != x.coords:
        rows.append(cur)
        cur = twist_coords(cur, 1, x.ctx)
    _, rank = rref(rows)
    return rank


# ---------------------------------------------------------------------------
# Q


class Validation:
    "Outcome of the Q or B axioms; falsy iff some axiom failed, which code names."

    __slots__ = ("code", "witness")

    def __init__(self, code=None, witness=None):
        self.code = code
        self.witness = witness

    def __bool__(self):
        return self.code is None

    def __repr__(self):
        return "valid" if self else f"invalid({self.code}, witness={self.witness})"


def q_validate(table, ctx, n_plus_1):
    """Check the reciprocal-map axioms on a raw table over V \\ {0}.

    Returns a Validation; on failure the code names the violated axiom
    ('non-generating', 'scaling', 'addition') with witness vectors.  A linear
    certificate decides addition; the scan over pairs only names the witness.
    """
    check_covers(len(table), n_plus_1, nonzero_vectors, ctx.q, "table must be defined on exactly the nonzero vectors")
    vectors = canonical_vectors(n_plus_1, ctx)
    if set(table) != set(vectors):
        raise ValueError("table must be defined on exactly the nonzero vectors")
    if not any(table[v] for v in vectors):
        return Validation("non-generating")
    k_units = [a for a in ctx.k_elements if a]
    for v in vectors:
        rv = table[v]
        for lam in k_units:
            if lam == ctx.one:
                continue
            lv = tuple(lam * a for a in v)
            if table[lv] != lam.inverse() * rv:
                return Validation("scaling", (lam, v))
    if _reciprocal_certificate(table, [v for v in vectors if table[v]], ctx):
        return Validation()
    for v, w in combinations(vectors, 2):
        s = tuple(a + b for a, b in zip(v, w))
        if not any(s):
            continue
        lhs = table[v] * table[w]
        rhs = table[s] * (table[v] + table[w])
        if lhs != rhs:
            return Validation("addition", (v, w))
    raise DefectSignal("the reciprocal certificate failed on a table with no addition witness")


def _reciprocal_certificate(table, support, ctx):
    """Whether a table that satisfies scaling satisfies addition: exactly when
    its support is W minus 0 for W = span(support) and r = 1/l there for a
    linear l.  Each v is reduced against the echelon rows of the span of the
    ones before it, each row carrying l(row) as an extra coordinate, so the
    residual (w, -l(v - w)) carries l along: a v outside fixes l on a new row
    by l(v) = 1/r(v), and the first v inside with r(v) l(v) != 1 ends the scan."""
    rows = []  # (pivot, row scaled to 1 there, with l(row) appended)
    for v in support:
        w = reduce_vector([*v, ctx.zero], rows)
        if not any(w[:-1]):
            if table[v] * w[-1] != -ctx.one:
                return False
        else:  # l(w) = l(v) - l(v - w)
            w[-1] = table[v].inverse() + w[-1]
            rows.append(pivot_row(w))
    return len(support) == nonzero_vectors(len(rows), ctx.q)


def _normalize_table(table):
    items = sorted(table.items(), key=lambda kv: vec_key(kv[0]))
    lead = next((val for _, val in items if val), None)
    if lead is None:
        raise ValueError("identically zero table")
    inv = lead.inverse()
    return {v: inv * val for v, val in items}


def q_classify(x):
    """The stratum of a QPoint: the span V' of its support.

    The support together with zero must itself be a subspace; anything else
    means the point was never validated.
    """
    support = [v for v, val in x.table.items() if val]
    span = Subspace.span(x.n_plus_1, support)
    # the support lies in span minus 0, so it is all of it iff it is as large
    if len(support) != nonzero_vectors(span.dim, x.ctx.q):
        raise InvariantViolation("support of a reciprocal map is not a subspace")
    return span


def q_from_omega(coords, sub, ctx, n_plus_1):
    """The reciprocal map supported on sub with values 1/l there.

    coords is a functional on sub's coordinate space with trivial rational
    kernel (a dense point of the sub side); the table is its pointwise
    inverse on sub, zero elsewhere.
    """
    if rational_kernel(coords, ctx).dim != 0:
        raise ValueError("functional must have trivial rational kernel")
    return _q_from_dense(coords, sub, ctx, n_plus_1)


def _q_from_dense(coords, sub, ctx, n_plus_1):
    "q_from_omega for coords known to have trivial rational kernel, as _omega's do."
    table = dict.fromkeys(canonical_vectors(n_plus_1, ctx), ctx.zero)
    for v, c in zip(sub.vectors(ctx), product(ctx.k_elements, repeat=sub.dim)):
        if any(c):
            table[v] = apply_functional(coords, c).inverse()
    return QPoint(ctx, n_plus_1, table)


def q_enumerate_stratum(sub, ctx, m):
    "All reciprocal maps over k_m supported exactly on the subspace sub."
    return [
        _q_from_dense(coords, sub, ctx, sub.n_plus_1)
        for coords in _omega(ctx, sub.dim, m)
    ]


def q_enumerate(ctx, n_plus_1, m):
    """All reciprocal maps over k_m, built stratum by stratum.

    For each nonzero subspace V' and each dense point l of V' over k_m,
    extend 1/l by zero.  The union over strata is disjoint.
    """
    out = []
    for sub in all_subspaces(n_plus_1, ctx, include_zero=False):
        out.extend(q_enumerate_stratum(sub, ctx, m))
    return out


def q_bruteforce(ctx, n_plus_1, m):
    "All valid tables found by filtering every normalized table; tiny sizes."
    vectors = canonical_vectors(n_plus_1, ctx)
    out = []
    # a normalized table is a normalized functional with one entry per vector
    for values in enumerate_functionals(len(vectors), ctx, m):
        table = dict(zip(vectors, values))
        if q_validate(table, ctx, n_plus_1):
            out.append(QPoint(ctx, n_plus_1, table, validate=False))
    return out


# ---------------------------------------------------------------------------
# B


def _nested_pairs(index):
    """Every (W', W) with W' < W among the nonzero subspaces in the rational
    index: W' in canonical order, then W."""
    return ((small, big) for subs in index.by_dim[1:] for small in subs for big in index.above[small])


def _restrict(x, big, small, index):
    "l_big restricted to small <= big, in small's basis: its values at small's rows."
    return tuple(map(x.on_lines[big].__getitem__, index.row_ids[index.subspace_id[small]]))


def _minors_vanish(big, small):
    """Whether all minors of l_W, l_W' on W' <= W vanish, from their values big
    and small on W''s lines (a minor scales by c*c' with v, v'): whether those
    are proportional, the ratio read at small's first nonzero value."""
    lead = next((j for j, a in small.items() if a), None)
    return lead is None or all(big[j] * small[lead] == big[lead] * a for j, a in small.items())


def incidence_minors_ok(x):
    """Test (a): all 2x2 minors across nested pairs of subspaces vanish in x.

    Returns (ok, witness); the witness is (W, W', v, v') for the first
    violated minor.  Each pair is decided on W''s lines, read from x's line
    table; the scan over its vectors only names the witness, for the first
    pair that fails.
    """
    ctx = x.ctx
    index = _subspace_order(ctx, x.n_plus_1)
    for small, big in _nested_pairs(index):
        # any two vectors of a line are proportional, so its minors vanish
        if small.dim == 1 or _minors_vanish(x.on_lines[big], x.on_lines[small]):
            continue
        restriction = _restrict(x, big, small, index)
        values = [(v, apply_functional(restriction, c), apply_functional(x.family[small], c))
                  for v, c in zip(small.vectors(ctx), product(ctx.k_elements, repeat=small.dim)) if any(c)]
        for (v, big_v, small_v), (w, big_w, small_w) in combinations(values, 2):
            if big_v * small_w != big_w * small_v:
                return False, (big, small, v, w)
        raise DefectSignal("the minors failed on lines but on no pair of vectors")
    return True, None


def restriction_proportional_ok(x):
    """Test (b): in the BPoint x, the restriction of l_W to each W' < W is
    c * l_W' for some scalar c, zero allowed.  Returns (ok, witness)."""
    index = _subspace_order(x.ctx, x.n_plus_1)
    for small, big in _nested_pairs(index):
        restriction = _restrict(x, big, small, index)
        if any(restriction) and functional_ratio(restriction, x.family[small]) is None:
            return False, (big, small)
    return True, None


def b_validate(x):
    """Decide compatibility of a BPoint by the kernel-chain certificate: a
    Validation, truthy iff compatible.  Only once the certificate fails do both
    scans run, to name the minor test's witness, raising DefectSignal if they
    disagree or accept the family."""
    if _chain_certificate(x):
        return Validation()
    minor_ok, witness = incidence_minors_ok(x)
    prop_ok, _ = restriction_proportional_ok(x)
    if minor_ok != prop_ok:
        raise DefectSignal(
            f"minor test ({minor_ok}) and proportionality test ({prop_ok}) disagree"
        )
    if minor_ok:
        raise DefectSignal("the chain certificate failed on a family both tests accept")
    return Validation("incidence-minor", witness)


def _chain_certificate(x):
    """Whether each l_W is the normalized restriction of the first l_(C_t) not
    vanishing on W, C_0 = V > C_1 > ... x's kernel chain; iff x is compatible:
    for W' < W, l_W' restricts the same l_(C_t), or W' < C_(t+1), where l_W is 0."""
    tables = [x.on_lines[C] for C in (Subspace.full(x.n_plus_1, x.ctx), *_kernel_chain(x))]
    return all(x.family[W] == tuple(inv * table[j] for j in rows)
               for W, rows, _, table, inv in _chain_reads(tables, x.ctx, x.n_plus_1))


def _kernel_chain(x):
    """Descending chain V_0 > V_1 > ... ending just above {0}, possibly empty:
    V_(t+1) is the rational kernel of l_(V_t), spanned by the lines where V_t's
    line table is zero, which the rational index maps back to the subspace."""
    index = _subspace_order(x.ctx, x.n_plus_1)
    chain, cur = [], Subspace.full(x.n_plus_1, x.ctx)
    while zeros := sum(1 << j for j, a in x.on_lines[cur].items() if not a):
        cur = index.subspaces[index.by_lines[zeros]]
        chain.append(cur)
    return chain


def b_classify(x):
    """The stratum of a BPoint: the flag cut out by the kernel chain.

    From the whole space, each member is the rational kernel of the one
    before, read off that one's own line table, until {0}.  As a cross-check,
    the members must be exactly the exceptional divisors the point lies on:
    the proper V' with l_W vanishing on V' for every W covering V'
    (dim W = dim V' + 1), read from the covers' tables at V''s rows.  On a
    compatible family that is every strict superspace W: W contains a cover
    W_1 of V', and l_W restricted to W_1 is c * l_W_1, so it vanishes on V'
    when l_W_1 does.
    """
    chain, index = _kernel_chain(x), _subspace_order(x.ctx, x.n_plus_1)
    divisors = {
        small
        for small, rows, covers in zip(index.subspaces[1:], index.row_ids[1:], index.covers[1:])
        if covers and not any(x.on_lines[W][j] for W in covers for j in rows)
    }
    if divisors != set(chain):
        raise InvariantViolation(
            "divisor membership set does not match the kernel chain"
        )
    return Flag(x.n_plus_1, tuple(reversed(chain)))


def _chain_reads(tables, ctx, n_plus_1):
    """(W, row ids, line ids, table, 1/lead) per nonzero subspace W of the
    rational index, in canonical order: table the first chain member's line
    table not zero at W's rows, which lie in each one passed."""
    index = _subspace_order(ctx, n_plus_1)
    for W, rows, lines in zip(index.subspaces[1:], index.row_ids[1:], index.line_coords[1:]):
        for table in tables:
            if lead := next(filter(None, map(table.__getitem__, rows)), None):
                break
        else:
            raise DefectSignal("the last member of a kernel chain vanishes on a subspace")
        yield W, rows, lines, table, lead.inverse()


def b_from_flag_data(flag, parts, ctx):
    """Assemble the unique BPoint with a given flag from dense quotient data.

    With the descending chain V = C_0 > C_1 > ... > C_last = {0} through the
    flag members, parts[t] is a functional on the complement coordinates of
    C_{t+1} inside C_t with trivial rational kernel in that quotient.  The
    member functional on C_t is parts[t] composed with the projection along
    C_{t+1}, evaluated once on C_t's lines; every other subspace W inherits
    the restriction from the last chain member containing it, so l_W and its
    line table are that member's values at W's rows and at W's lines, both
    scaled by the one factor that makes l_W's first entry 1: no functional
    is evaluated per subspace.  The projections and lines of the chain are
    the flag's plan (_flag_plan), which b_enumerate_flag builds once for all
    the points on the flag.
    """
    if any(rational_kernel(part, ctx).dim != 0 for part in parts):
        raise ValueError("part must have trivial rational kernel in its quotient")
    return _b_from_plan(flag, _flag_plan(flag, ctx), parts, ctx)


def _flag_plan(flag, ctx):
    """What every point on flag is built from, besides the rational index: for each
    step C_t > C_(t+1) of its chain, the quotient width, the projection along
    C_(t+1) (row i the projection of e_i, _quotient_projection's) and C_t's
    lines by id with their coordinates."""
    chain = flag.chain(ctx)
    index = _subspace_order(ctx, flag.n_plus_1)
    plan = []
    for big, small in zip(chain, chain[1:]):
        _, free, by_coordinate = _quotient_projection(big, small, ctx)
        plan.append((len(free), by_coordinate, index.line_coords[index.subspace_id[big]]))
    return plan


def _b_from_plan(flag, plan, parts, ctx):
    """The BPoint on flag with quotient data parts, built from flag's plan:
    each chain member's values on its own lines, then one scaling of them per
    subspace.  Its classification is checked against flag."""
    if len(parts) != len(plan):
        raise ValueError(f"need {len(plan)} quotient parts, got {len(parts)}")
    tables = []
    for (width, by_coordinate, member_lines), part in zip(plan, parts):
        if len(part) != width:
            raise ValueError("part length must match the quotient dimension")
        # value on the i-th coordinate basis vector of C_t: project along C_{t+1}
        func = tuple(apply_functional(part, row) for row in by_coordinate)
        tables.append({j: apply_functional(func, c) for j, c in member_lines.items()})
    family, on_lines = {}, {}
    for W, rows, lines, table, inv in _chain_reads(tables, ctx, flag.n_plus_1):
        family[W] = tuple(inv * table[j] for j in rows)
        on_lines[W] = {j: inv * table[j] for j in lines}
    # compatible by construction, which the test suites check with b_validate;
    # the classification roundtrip is checked here, on every point built
    x = BPoint._tabulated(ctx, flag.n_plus_1, family, on_lines)
    if b_classify(x) != flag:
        raise InvariantViolation("a point built on a flag classifies elsewhere")
    return x


def _quotient_projection(big, small, ctx):
    """small in big's coordinates, the positions of the coordinate vectors e_i
    spanning a complement there, and the projection along small onto the
    complement coordinates: row i of the last holds the projection of e_i.

    small's rows in big's coordinates, read from the rational index, are
    already reduced echelon, and the e_i off their pivots span the complement:
    such an e_i projects to itself, and e_i at the pivot of row r, which is r
    minus r's entries at those free positions, to minus those entries.
    """
    index = _subspace_order(ctx, big.n_plus_1)
    inside = index.line_coords[index.subspace_id[big]]
    rows = index.row_ids[index.subspace_id[small]]
    small_c = Subspace(big.dim, tuple(map(inside.__getitem__, rows)))
    at_pivot = dict(zip(small_c.pivots(), small_c.rows))
    free = [i for i in range(big.dim) if i not in at_pivot]
    unit = Subspace.full(big.dim, ctx).rows
    by_coordinate = [
        tuple(-at_pivot[i][f] if i in at_pivot else unit[i][f] for f in free)
        for i in range(big.dim)
    ]
    return small_c, free, by_coordinate


def b_enumerate(ctx, n_plus_1, m):
    "All BPoints over k_m, flag by flag, via the quotient parametrisation."
    out = []
    for flag in enumerate_flags(n_plus_1, ctx):
        out.extend(b_enumerate_flag(flag, ctx, m))
    return out


def b_enumerate_flag(flag, ctx, m):
    """All BPoints over k_m with the given stratum flag, built from one plan
    for the flag; none, and no plan, when some quotient has no dense point."""
    chain = flag.chain(ctx)
    part_choices = [_omega(ctx, big.dim - small.dim, m) for big, small in zip(chain, chain[1:])]
    if not all(part_choices):
        return []
    plan = _flag_plan(flag, ctx)
    return [_b_from_plan(flag, plan, parts, ctx) for parts in product(*part_choices)]


def omega_embed_b(x):
    "The dense embedding of a trivial-stratum PPoint into the family side."
    if p_classify(x).dim != 0:
        raise ValueError("only dense points embed")
    flag = Flag.trivial(x.n_plus_1)
    return _b_from_plan(flag, _flag_plan(flag, x.ctx), [x.coords], x.ctx)


def omega_embed_q(x):
    "The dense embedding l -> 1/l of a trivial-stratum PPoint."
    ctx = x.ctx
    full = Subspace.full(x.n_plus_1, ctx)
    return q_from_omega(x.coords, full, ctx, x.n_plus_1)


def pi_map(x):
    "Forget everything but the functional on the whole space."
    full = Subspace.full(x.n_plus_1, x.ctx)
    return PPoint(x.ctx, x.family[full])


def rho_map(x):
    """Collapse a family to the reciprocal map supported on its last member.

    The table is 1/l_{V_r} on the smallest flag member V_r and zero outside;
    on dense points this is the classical l -> 1/l.  The chain stops where
    a functional has trivial rational kernel, so l_{V_r} has one.
    """
    chain = _kernel_chain(x)
    sub = chain[-1] if chain else Subspace.full(x.n_plus_1, x.ctx)
    return _q_from_dense(x.family[sub], sub, x.ctx, x.n_plus_1)


# ---------------------------------------------------------------------------
# serialization


@per_field
def _k_index(ctx):
    return {a: i for i, a in enumerate(ctx.k_elements)}


def vector_str(v, ctx):
    idx = _k_index(ctx)
    return ",".join(str(idx[a]) for a in v)


@per_field
def _k_by_index_str(ctx):
    return {str(i): a for i, a in enumerate(ctx.k_elements)}


def vector_from_str(s, ctx):
    """Inverse of vector_str: each entry is an index 0..q-1 into ctx.k_elements,
    written as vector_str writes it (no sign, no leading zero)."""
    els = _k_by_index_str(ctx)
    try:
        return tuple(els[t] for t in s.split(","))
    except KeyError:
        raise ValueError(
            f"vector {s!r} is not a list of indices in range({len(els)})"
        ) from None


def subspace_str(sub, ctx):
    if sub.dim == 0:
        return "0"
    return ";".join(vector_str(r, ctx) for r in sub.rows)


@per_field
def _subspace_by_str(ctx, n_plus_1):
    "The rational index's nonzero subspaces of k^(n+1) by their strings."
    return {subspace_str(W, ctx): W for subs in _subspace_order(ctx, n_plus_1).by_dim[1:] for W in subs}


def subspace_from_str(s, ctx, n_plus_1):
    if s == "0":
        return Subspace.zero(n_plus_1)
    rows = tuple(vector_from_str(t, ctx) for t in s.split(";"))
    if any(len(r) != n_plus_1 for r in rows):
        raise ValueError(f"subspace {s!r} has a vector without {n_plus_1} entries")
    # reduced echelon form: pivots increase, and at them the rows are the identity
    pivots = [next((i for i, a in enumerate(r) if a), 0) for r in rows]
    if pivots != sorted(pivots) or any(
        r[p] != (ctx.one if i == t else ctx.zero)
        for i, r in enumerate(rows) for t, p in enumerate(pivots)
    ):
        raise ValueError("subspace rows are not in canonical echelon form")
    return Subspace(n_plus_1, rows)


def flag_str(flag, ctx):
    if not flag.members:
        return "()"
    return "<".join(subspace_str(m, ctx) for m in flag.members)


def field_to_obj(ctx):
    return {"p": ctx.p, "e": ctx.e, "D": ctx.D, "modulus": list(ctx.modulus)}


def element_to_obj(a):
    return list(a.coeffs)


def point_to_obj(x):
    "JSON-ready dict for any of the three point kinds."
    if isinstance(x, PPoint):
        return {
            "kind": "P",
            "field": field_to_obj(x.ctx),
            "data": {"coords": [element_to_obj(a) for a in x.coords]},
        }
    if isinstance(x, QPoint):
        table = {
            vector_str(v, x.ctx): element_to_obj(val)
            for v, val in x.table.items()
        }
        return {
            "kind": "Q",
            "field": field_to_obj(x.ctx),
            "data": {"n_plus_1": x.n_plus_1, "table": table},
        }
    if isinstance(x, BPoint):
        family = {
            subspace_str(W, x.ctx): [element_to_obj(a) for a in coords]
            for W, coords in x.family.items()
        }
        return {
            "kind": "B",
            "field": field_to_obj(x.ctx),
            "data": {"n_plus_1": x.n_plus_1, "family": family},
        }
    raise TypeError(f"not a point: {x!r}")


_JSON_NAMES = {int: "integer", str: "string", list: "array", dict: "object"}


def _json_fields(obj, keys, what):
    """The values of keys in obj; ValueError unless obj is a JSON object holding
    them.  keys maps each key to the type its value must have."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")
        # the exact type: a JSON true decodes to a bool, which is an int
        if type(obj[key]) is not kind:
            raise ValueError(f"{what} {key!r} must be a JSON {_JSON_NAMES[kind]}")
    return [obj[key] for key in keys]


def _int_list(value, what):
    "value itself; ValueError unless it is a JSON array of integers."
    if type(value) is not list or any(type(c) is not int for c in value):
        raise ValueError(f"{what} must be a JSON array of integers")
    return value


def _element(value, ctx):
    "A field element from its JSON array of coefficients."
    return ctx.element(_int_list(value, "a field element"))


def _elements(values, ctx, what):
    "Field elements from a JSON array of coefficient arrays."
    if type(values) is not list:
        raise ValueError(f"{what} must be a JSON array")
    return tuple(_element(c, ctx) for c in values)


def _point_header(obj, ctx):
    "Kind, field context and data of a point's JSON dict; the field is verified."
    from .field import FieldCtx

    kind, fld, data = _json_fields(
        obj, {"kind": str, "field": dict, "data": dict}, "point"
    )
    p, e, D, modulus = _json_fields(
        fld, {"p": int, "e": int, "D": int, "modulus": list}, "field"
    )
    _int_list(modulus, "field 'modulus'")
    if ctx is None:
        ctx = FieldCtx(p, e, D, tuple(modulus))
    elif (ctx.p, ctx.e, ctx.D, ctx.modulus) != (p, e, D, tuple(modulus)):
        raise ValueError("field of the point does not match the context")
    return kind, ctx, data


def _q_table(data, ctx):
    "n_plus_1 and the table of a Q point's data object, axioms unchecked."
    n_plus_1, table = _json_fields(data, {"n_plus_1": int, "table": dict}, "data")
    table = {vector_from_str(k, ctx): _element(v, ctx) for k, v in table.items()}
    return n_plus_1, table


def q_table_from_obj(obj):
    """(ctx, n_plus_1, table) of a Q point's JSON dict, the table as given:
    the reciprocal-map axioms are not checked and no normalization is done."""
    _, ctx, data = _point_header(obj, None)
    return (ctx, *_q_table(data, ctx))


def point_from_obj(obj, ctx=None, validate=True):
    """Rebuild a point from its JSON dict; the field context is verified.

    A dict of the wrong shape (not an object, or missing a key) raises
    ValueError.  With validate=False the reciprocal/compatibility axioms are
    not enforced, so a caller can inspect an invalid table and report on it.
    B keys are looked up in the rational index once their count is checked.
    """
    kind, ctx, data = _point_header(obj, ctx)
    if kind == "P":
        (coords,) = _json_fields(data, {"coords": list}, "data")
        return PPoint(ctx, _elements(coords, ctx, "data 'coords'"))
    if kind == "Q":
        n_plus_1, table = _q_table(data, ctx)
        return QPoint(ctx, n_plus_1, table, validate=validate)
    if kind == "B":
        n_plus_1, family = _json_fields(data, {"n_plus_1": int, "family": dict}, "data")
        try:
            _check_family_size(len(family), n_plus_1, ctx)
        except ValueError:  # the constructor reports it, after any bad key
            by_str = {}
        else:
            by_str = _subspace_by_str(ctx, n_plus_1)
        family = {
            by_str.get(k) or subspace_from_str(k, ctx, n_plus_1): _elements(v, ctx, "a family value")
            for k, v in family.items()
        }
        return BPoint(ctx, n_plus_1, family, validate=validate)
    raise ValueError(f"unknown point kind {kind!r}")
