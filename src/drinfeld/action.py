"""The action of PGL(V)(k) on points and the structure of stabilizers.

All three point kinds carry right actions: covectors pull back along g,
reciprocal maps precompose with g, families move by
(family . g)_W = l_{g(W)} o g|_W.  Stabilizers are computed twice and
compared: once by sheer brute force over the whole group, and once through
the block-triangular description, whose diagonal blocks act as Galois-twisted
scalars on the twist span of a dense quotient point (fixpoint_check_omega).

Brute force asks fixes(x, g) of every g, which answers act(x, g) == x
without building the moved point and stops at the first mismatch.  The
predicted route builds everything that depends only on the point once per
call: the density check, twist orbit and closing divisors of each quotient
covector, and the projection onto each block's complement coordinates.
"""

from functools import lru_cache
from itertools import product

from .errors import DefectSignal
from .linalg import (
    Flag,
    Subspace,
    apply_functional,
    coords_to_ambient,
    enumerate_subspaces,
    normalize_functional,
    functional_ratio,
    quotient_functional,
    rational_kernel,
    rref,
)
from .points import (
    BPoint,
    PPoint,
    QPoint,
    _quotient_projection,
    b_classify,
    p_classify,
    q_classify,
    twist_coords,
)


class GroupElement:
    """An element of PGL(n+1, k): an invertible matrix over k, scaled so the
    first nonzero entry in row-major order is 1."""

    __slots__ = ("ctx", "matrix", "_hash")

    def __init__(self, ctx, matrix):
        matrix = tuple(tuple(r) for r in matrix)
        lead = next(a for row in matrix for a in row if a)
        if lead != ctx.one:
            inv = lead.inverse()
            matrix = tuple(tuple(inv * a for a in row) for row in matrix)
        self.ctx = ctx
        self.matrix = matrix
        self._hash = hash(tuple(tuple(a.code for a in r) for r in matrix))

    @classmethod
    def identity(cls, n_plus_1, ctx):
        rows = [
            [ctx.one if i == j else ctx.zero for j in range(n_plus_1)]
            for i in range(n_plus_1)
        ]
        return cls(ctx, rows)

    @property
    def n_plus_1(self):
        return len(self.matrix)

    def apply(self, v):
        "g(v): matrix times column vector."
        return tuple(
            apply_functional(row, v) for row in self.matrix
        )

    def apply_subspace(self, sub):
        return Subspace.span(sub.n_plus_1, [self.apply(r) for r in sub.rows])

    def compose(self, other):
        "Matrix product self * other, so (self*other)(v) = self(other(v))."
        return GroupElement(self.ctx, _mat_mul(self.matrix, other.matrix))

    def inverse(self):
        "Inverse by Gauss-Jordan on the augmented matrix."
        n = self.n_plus_1
        ctx = self.ctx
        aug = [
            list(self.matrix[i])
            + [ctx.one if j == i else ctx.zero for j in range(n)]
            for i in range(n)
        ]
        ech, rank = rref(aug)
        if rank < n:
            raise ValueError("matrix not invertible")
        return GroupElement(ctx, [r[n:] for r in ech])

    def order(self):
        e = GroupElement.identity(self.n_plus_1, self.ctx)
        g = self
        n = 1
        while g != e:
            g = g.compose(self)
            n += 1
        return n

    def is_identity(self):
        return self == GroupElement.identity(self.n_plus_1, self.ctx)

    def sort_key(self):
        return tuple(tuple(a.code for a in r) for r in self.matrix)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (GroupElement, (self.ctx, self.matrix))

    def __repr__(self):
        return f"GroupElement({self.matrix})"


def pgl_order(n_plus_1, q):
    "Product formula for |PGL(n+1, q)| = |GL(n+1, q)| / (q - 1)."
    order = 1
    for i in range(n_plus_1):
        order *= q**n_plus_1 - q**i
    return order // (q - 1)


@lru_cache(maxsize=None)
def _enumerate_pgl_cached(n_plus_1, ctx):
    bound = 10**5
    if pgl_order(n_plus_1, ctx.q) > bound:
        raise ValueError(
            f"|PGL({n_plus_1}, {ctx.q})| exceeds the desk-scale bound {bound}"
        )
    k_els = ctx.k_elements
    out = []
    for flat in product(k_els, repeat=n_plus_1 * n_plus_1):
        lead = next((a for a in flat if a), None)
        if lead != ctx.one:
            continue  # one representative per scalar coset
        rows = [flat[i * n_plus_1 : (i + 1) * n_plus_1] for i in range(n_plus_1)]
        _, rank = rref(rows)
        if rank == n_plus_1:
            out.append(GroupElement(ctx, rows))
    assert len(out) == pgl_order(n_plus_1, ctx.q)
    return tuple(out)


def enumerate_pgl(n_plus_1, ctx):
    "All elements of PGL(n+1)(k) as canonical representatives, sorted."
    return list(_enumerate_pgl_cached(n_plus_1, ctx))


# ---------------------------------------------------------------------------
# actions (all right actions)


def act_P(x, g):
    "Pull back the covector: coordinates of l o g."
    cols = list(zip(*g.matrix))
    coords = tuple(apply_functional(x.coords, col) for col in cols)
    return PPoint(x.ctx, coords)


def act_Q(x, g):
    "(r . g)(v) = r(g(v))."
    table = {v: x.table[g.apply(v)] for v in x.table}
    return QPoint(x.ctx, x.n_plus_1, table, validate=False)


def act_B(x, g):
    "(family . g)_W = l_{g(W)} o g restricted to W."
    family = {}
    for W in x.family:
        gW = g.apply_subspace(W)
        coords = tuple(x.value(gW, g.apply(r)) for r in W.rows)
        family[W] = normalize_functional(coords)
    return BPoint(x.ctx, x.n_plus_1, family, validate=False)


def act(x, g):
    if isinstance(x, PPoint):
        return act_P(x, g)
    if isinstance(x, QPoint):
        return act_Q(x, g)
    if isinstance(x, BPoint):
        return act_B(x, g)
    raise TypeError(f"not a point: {x!r}")


def fixes(x, g):
    """Exactly act(x, g) == x, without building act(x, g).

    Each kind compares x.g with x piece by piece and stops at the first
    piece that differs: the covector up to scale (P), the table against
    lam * r with lam = r(g(v0)) at the vector v0 where r is normalized to 1
    (Q), and the family subspace by subspace, largest first (B).
    """
    if isinstance(x, PPoint):
        cols = zip(*g.matrix)
        pulled = tuple(apply_functional(x.coords, col) for col in cols)
        return functional_ratio(pulled, x.coords) is not None
    if isinstance(x, QPoint):
        table = x.table
        v0 = next(v for v, val in table.items() if val)
        lam = table[g.apply(v0)]
        return all(table[g.apply(v)] == lam * val for v, val in table.items())
    if isinstance(x, BPoint):
        # Large subspaces carry the most constraints, so most group elements
        # fail on the first few.  Lines are skipped: a normalized functional
        # on a line is (1,), whatever the point and g.
        for d in range(x.n_plus_1, 1, -1):
            for W in enumerate_subspaces(x.n_plus_1, d, x.ctx):
                gW = W if d == x.n_plus_1 else g.apply_subspace(W)
                coords = tuple(x.value(gW, g.apply(r)) for r in W.rows)
                if normalize_functional(coords) != x.family[W]:
                    return False
        return True
    raise TypeError(f"not a point: {x!r}")


# ---------------------------------------------------------------------------
# stabilizers


def stabilizer_bruteforce(x, group=None):
    """All g with x.g = x, found by testing every element of the group.

    Each element is tested with fixes(x, g), which stops at the first
    mismatch instead of building x.g; nothing of the predicted route is
    consulted.  The result is asserted to be a subgroup.
    """
    if group is None:
        group = enumerate_pgl(x.n_plus_1, x.ctx)
    stab = [g for g in group if fixes(x, g)]
    members = set(stab)
    for g in stab:
        assert g.inverse() in members, "stabilizer not closed under inverse"
        for h in stab:
            assert g.compose(h) in members, "stabilizer not closed under product"
    return sorted(members, key=GroupElement.sort_key)


def fixpoint_check_omega(coords, g_matrix_rows, ctx):
    """Characterize when g fixes a dense point, without acting on it.

    coords: a functional with trivial rational kernel on a space of
    dimension s; g given by matrix rows over k on the same space.  For each
    divisor d of s, test

      (i)  the span U of the d-step twists l, l^(F^d), ..., l^(F^(s-d))
           is closed under further d-step twisting, and
      (ii) the transpose of g scales every twist l^(F^t) by F^(-t)(lam)
           for one lam fixed by F^d (lam in k_d).

    Returns the smallest witnessing divisor d, or None if g does not fix
    the point.  Test (i) does not involve g; _DenseCovector makes it once
    per covector and leaves test (ii) for each g.
    """
    return _DenseCovector(coords, ctx).witness(list(zip(*g_matrix_rows)))


class _DenseCovector:
    """The g-independent half of fixpoint_check_omega for one covector l.

    Built once: the density check, the twists l^(F^t) for t < s, and the
    divisors d of s whose d-step twist span is closed (test (i)).
    witness(cols) runs test (ii) for one g, given by the images of the
    basis vectors.
    """

    __slots__ = ("ctx", "twists", "divisors")

    def __init__(self, coords, ctx):
        s = len(coords)
        if rational_kernel(coords, ctx).dim != 0:
            raise ValueError("not a dense point: rational kernel is nontrivial")
        twists = [tuple(coords)]
        for _ in range(s):
            twists.append(twist_coords(twists[-1], 1, ctx))
        closing = []
        for d in range(1, s + 1):
            if s % d:
                continue
            u_basis = [twists[j] for j in range(0, s, d)]
            _, rank_u = rref(u_basis)
            _, rank_ext = rref(u_basis + [twists[s]])
            if rank_ext == rank_u:
                closing.append(d)
        self.ctx = ctx
        self.twists = tuple(twists[:s])
        self.divisors = tuple(closing)

    def witness(self, cols):
        "The smallest witnessing divisor for the map with these columns, or None."
        ctx = self.ctx
        # ratios mu_t with l^(F^t) o g = mu_t * l^(F^t); all must exist and
        # follow mu_t = F^(-t)(mu_0)
        for t, lt in enumerate(self.twists):
            mu = functional_ratio(tuple(apply_functional(lt, col) for col in cols), lt)
            if mu is None:
                return None
            if t == 0:
                if not mu:
                    return None
                lam = cur = mu
            else:
                cur = ctx.inv_frobenius(cur)
                if mu != cur:
                    return None
        # lam must live in k_d
        return next((d for d in self.divisors if ctx.in_subfield(lam, d)), None)


class _QuotientBlock:
    """Precomputed data for inducing a group element on big/small and testing
    whether the induced map fixes the attached dense quotient point.

    coords is a functional on big's coordinate space vanishing on small.
    Built once per point: the complement of small in big's coordinates, the
    projection of big's coordinates onto the complement coordinates, and
    the _DenseCovector of the induced quotient covector.  Only call
    passes(g) for g leaving big (and small) invariant.
    """

    __slots__ = ("pivots", "amb_basis", "projection", "dense")

    def __init__(self, big, small, coords, ctx):
        small_c, comp_c, by_coordinate = _quotient_projection(big, small, ctx)
        self.pivots = big.pivots()
        self.amb_basis = coords_to_ambient(big, comp_c.rows)
        self.projection = tuple(zip(*by_coordinate))
        _, lbar = quotient_functional(coords, small_c, ctx)
        self.dense = _DenseCovector(lbar, ctx)

    def induced_columns(self, g):
        "Images of the complement basis under g, in complement coordinates."
        cols = []
        for amb in self.amb_basis:
            img = g.apply(amb)
            img_c = tuple(img[p] for p in self.pivots)
            cols.append(tuple(apply_functional(row, img_c) for row in self.projection))
        return cols

    def passes(self, g):
        return self.dense.witness(self.induced_columns(g)) is not None


def _predicted_blocks(x):
    """The invariance constraints and quotient blocks of the block-triangular
    stabilizer description: the members of the stratum flag, and blocks on
    its chain (P the top one, Q the bottom one, B every one)."""
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
    return flag.members, blocks


def stabilizer_predicted(x, group=None):
    """Membership test for Stab(x) through the block-triangular description.

    P: g preserves the kernel V' and the induced map on V/V' passes the
    dense fixpoint check against the induced covector.  Q: g preserves the
    support span V' and g restricted to V' passes the check against 1/r.
    B: g fixes the stratum flag and every induced diagonal block passes the
    check against its quotient covector.
    """
    if group is None:
        group = enumerate_pgl(x.n_plus_1, x.ctx)
    invariant, blocks = _predicted_blocks(x)
    out = []
    for g in group:
        # g is invertible, so g(m) inside m already means g(m) = m
        if not all(m.contains_vector(g.apply(r)) for m in invariant for r in m.rows):
            continue
        if all(block.passes(g) for block in blocks):
            out.append(g)
    return sorted(out, key=GroupElement.sort_key)


# ---------------------------------------------------------------------------
# unipotent radicals


def stratum_flag(x):
    "The flag indexing the stratum of any point kind."
    if isinstance(x, PPoint):
        sub = p_classify(x)
        return Flag(x.n_plus_1, (sub,) if sub.dim else ())
    if isinstance(x, QPoint):
        sub = q_classify(x)
        return Flag(x.n_plus_1, (sub,) if sub.dim < x.n_plus_1 else ())
    if isinstance(x, BPoint):
        return b_classify(x)
    raise TypeError(f"not a point: {x!r}")


def unipotent_radical_k(flag, ctx, group=None):
    """The k-points of the unipotent radical of the parabolic fixing flag.

    g belongs iff some scalar multiple c*M of its representative satisfies
    (c*M - id) V_{i-1} inside V_i along the full chain; the order is q to
    the number of free block entries.
    """
    n_plus_1 = flag.n_plus_1
    if group is None:
        group = enumerate_pgl(n_plus_1, ctx)
    chain = flag.chain(ctx)
    k_units = [a for a in ctx.k_elements if a]
    out = []
    for g in group:
        if any(_nilpotent_along_chain(g, c, chain) for c in k_units):
            out.append(g)
    return sorted(out, key=GroupElement.sort_key)


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


def is_unipotent(g):
    """Order is a power of the characteristic; cross-checked against the
    matrix criterion that some scalar multiple of the representative is
    id + nilpotent."""
    p = g.ctx.p
    n = g.order()
    while n % p == 0:
        n //= p
    by_order = n == 1
    by_matrix = _unipotent_matrix_criterion(g)
    if by_order != by_matrix:
        raise DefectSignal(
            f"order criterion ({by_order}) and matrix criterion ({by_matrix}) disagree"
        )
    return by_order


def _unipotent_matrix_criterion(g):
    ctx = g.ctx
    n = g.n_plus_1
    for c in ctx.k_elements:
        if not c:
            continue
        rows = [
            [c * a - (ctx.one if i == j else ctx.zero) for j, a in enumerate(row)]
            for i, row in enumerate(g.matrix)
        ]
        # (cM - id)^(n) = 0 iff the matrix is nilpotent
        power = rows
        for _ in range(n - 1):
            power = _mat_mul(power, rows)
        if all(not a for r in power for a in r):
            return True
    return False


def _mat_mul(a, b):
    "Product of square matrices given by rows."
    cols = list(zip(*b))
    return [[apply_functional(row, col) for col in cols] for row in a]


def unipotent_elements(group_subset):
    "The unipotent members of a subgroup (identity always included)."
    return sorted(
        (g for g in group_subset if is_unipotent(g)), key=GroupElement.sort_key
    )


def p_core(subgroup):
    """The largest normal p-subgroup of a finite matrix subgroup.

    An element belongs iff its normal closure inside the subgroup is a
    p-group.  For the block-shaped stabilizers here this recovers the
    k-points of the unipotent radical of the algebraic stabilizer, which the
    plain unipotent-element set overshoots whenever a stratum leaves an
    unconstrained diagonal block of dimension at least two.
    """
    subgroup = list(subgroup)
    if not subgroup:
        return []
    out = []
    for x in subgroup:
        if not is_unipotent(x):
            continue
        conj = {h.compose(x).compose(h.inverse()) for h in subgroup}
        closure = set(conj)
        frontier = list(conj)
        is_p_group = True
        while frontier and is_p_group:
            a = frontier.pop()
            if not is_unipotent(a):
                is_p_group = False
                break
            for b in conj:
                c = a.compose(b)
                if c not in closure:
                    closure.add(c)
                    frontier.append(c)
        if is_p_group:
            out.append(x)
    return sorted(out, key=GroupElement.sort_key)
