"""The action of PGL(V)(k) on points and the structure of stabilizers.

All three point kinds carry right actions: covectors pull back along g,
reciprocal maps precompose with g, families move by
(family . g)_W = l_{g(W)} o g|_W.  Stabilizers are computed twice and
compared: once by sheer brute force over the whole group, and once built
from the point's stratum flag, as the Levi part times the unipotent radical
of the flag's parabolic in the basis running down the flag's chain: any
GL block on a free quotient, and on a dense quotient the blocks of
multiplication by the multiplier field of the span of the point's values,
which the dense fixpoint check (fixpoint_check_omega) characterizes.  The
built route never enumerates the group, so its cost grows with |Stab(x)|;
the closed form of its order, counts.stabilizer_order, bounds it before it
is built and checks it after.

Brute force asks fixes(x, g) of every g, which answers act(x, g) == x
without building the moved point and stops at the first mismatch.  Each
element keeps its basis images, g(e_i) = mu_i * u_(j_i) as (j_i, log mu_i),
read off its columns on first use, and the first check reads them in a
list of the point's logs on V's lines (l, 1/r or l_V), which for most
points rejects most elements at once.  What an element that passes is
asked about other lines is read from its line row: for each line j of V,
the id of g(j) and the log of the scalar carrying j's normalized vector
there, found by linearity from the basis images on first read and kept on
the element, and the line permutation reads every line of it.  Points
turn their values into logs once, so every check is the same loop over
integers in _fixes_test, and g(W) = W is read off the images of W's
echelon rows.  The group is enumerated a row at a time, each candidate
row reduced against the rows above it by linalg.reduce_vector, and so is
each GL block of a built stabilizer.  The brute-force subgroup check and
the normal p-core grow one product closure of line permutations,
_closure; the unipotent radical of a flag's parabolic is the built route
with the identity as its Levi part.  act, apply, compose and inverse stay
on matrices as the oracle the tests compare with.
"""

import math
from itertools import product

from .counts import check_group, check_radical, check_stabilizer, pgl_order, stabilizer_order
from .errors import DefectSignal, InvariantViolation
from .field import per_field
from .linalg import (
    Flag,
    Subspace,
    _subspace_order,
    apply_functional,
    complement,
    normalize_functional,
    functional_ratio,
    pivot_row,
    rational_kernel,
    reduce_vector,
    rref,
)
from .points import (
    BPoint,
    PPoint,
    QPoint,
    canonical_vectors,
    b_classify,
    p_classify,
    q_classify,
    twist_coords,
)


class GroupElement:
    """An element of PGL(n+1, k): an invertible matrix over k, scaled so the
    first nonzero entry in row-major order is 1; its basis images, sort key,
    line row and unipotent verdict are kept on it once found."""

    __slots__ = ("ctx", "matrix", "_hash", "_images", "_key", "_row", "_unipotent")

    def __init__(self, ctx, matrix):
        matrix = tuple(tuple(r) for r in matrix)
        lead = next((a for row in matrix for a in row if a), None)
        if lead is None:
            raise ValueError("zero matrix")
        if lead != ctx.one:
            inv = lead.inverse()
            matrix = tuple(tuple(inv * a for a in row) for row in matrix)
        self.ctx = ctx
        self.matrix = matrix
        self._hash = hash(matrix)
        self._images = self._key = self._row = self._unipotent = None

    @classmethod
    def identity(cls, n_plus_1, ctx):
        return cls(ctx, Subspace.full(n_plus_1, ctx).rows)

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
        n, ctx = self.n_plus_1, self.ctx
        ech, _ = rref(r + e for r, e in zip(self.matrix, Subspace.full(n, ctx).rows))
        # [M | I] has rank n whatever M is: M is invertible iff every pivot
        # lies in the left half, on the diagonal
        if any(ech[i][i] != ctx.one for i in range(n)):
            raise ValueError("matrix not invertible")
        return GroupElement(ctx, [r[n:] for r in ech])

    def basis_images(self):
        """g(e_i) = mu_i * u_(j_i) as (j_i, log mu_i), u_j as in _LineRow: the
        columns are the images, so they are looked up in the rational index's
        pairs, on first use, and kept on g."""
        if self._images is None:
            pairs = _subspace_order(self.ctx, len(self.matrix)).pairs
            self._images = tuple(map(pairs.__getitem__, zip(*self.matrix)))
        return self._images

    def row(self):
        "g's _LineRow, made on first use and kept on g."
        if self._row is None:
            self._row = _LineRow(self)
        return self._row

    def permutation(self):
        """The line permutation j -> j', read off every line of the row.  It is
        faithful on PGL, so it stands in for g in products and membership."""
        row = self.row()
        return tuple(row[j][0] for j in range(len(row.lines)))

    def order(self):
        "The order in PGL: the lcm of the cycle lengths of the line permutation."
        perm, n = self.permutation(), 1
        for start in range(len(perm)):
            length, i = 1, perm[start]
            while i != start:
                length, i = length + 1, perm[i]
            n = math.lcm(n, length)
        return n

    def is_identity(self):
        return self == GroupElement.identity(self.n_plus_1, self.ctx)

    def sort_key(self):
        "The matrix by entry codes, found once and kept on g."
        if self._key is None:
            self._key = tuple(tuple(a.code for a in r) for r in self.matrix)
        return self._key

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (GroupElement, (self.ctx, self.matrix))

    def __repr__(self):
        return f"GroupElement({self.matrix})"


class _LineRow(dict):
    """A group element's line row, filled line by line: row[j] = (j', log mu)
    with g(u_j) = mu * u_j', u_j the normalized vector spanning line j of
    _subspace_order(ctx, n+1).  A line is found on its first read, by
    linearity from the rational index's plan: it is g's basis image when
    u_j = e_lead, and otherwise u_j = e_lead + lam * u_k gives
    g(u_j) = g(e_lead) + lam * g(u_k), g(e_lead) g's column and g(u_k) the
    row's own entry for k, a line of larger lead, so the reads recurse at
    most n deep.  Lines are kept for as long as g lives, with no size bound;
    the lines a test never reads are never computed, so an element rejected
    after a few lines costs a few vector sums."""

    __slots__ = ("columns", "images", "lines", "pairs", "plan", "antilog")

    def __init__(self, g):
        index = _subspace_order(g.ctx, g.n_plus_1)
        self.columns = tuple(zip(*g.matrix))
        self.images = g.basis_images()
        self.lines, self.pairs, self.plan = index.lines, index.pairs, index.plan
        self.antilog = g.ctx._antilog

    def __missing__(self, j):
        lead, k, lam = self.plan[j]
        if k is None:
            pair = self.images[lead]
        else:
            image, mu = self[k]
            c = self.antilog[lam + mu]
            v = tuple(a + c * b for a, b in zip(self.columns[lead], self.lines[image]))
            pair = self.pairs[v]
        self[j] = pair
        return pair


@per_field
def _enumerate_pgl_cached(ctx, n_plus_1):
    """PGL(n+1)(k) grown by _invertible, the first row a normalized vector.
    Each row runs in vec_key order, so the matrices come out in sort_key order."""
    check_group(n_plus_1, ctx.q)
    vectors = canonical_vectors(n_plus_1, ctx)
    heads = [v for v in vectors if next(a for a in v if a) == ctx.one]
    out = tuple(GroupElement(ctx, rows) for rows in _invertible(vectors, heads, n_plus_1))
    assert len(out) == pgl_order(n_plus_1, ctx.q)
    return out


def _invertible(vectors, heads, d):
    """The invertible d x d matrices, as lists of rows, with the first row
    among heads and the others among vectors: built a row at a time, depth
    first, each later row kept when it reduces to a nonzero vector against
    the echelon rows of the rows above it."""
    out = []

    def grow(rows, echelon):
        if len(rows) == d:
            out.append(rows)
            return
        for v in vectors if rows else heads:
            new = pivot_row(reduce_vector(v, echelon))
            if new is not None:
                grow(rows + [v], echelon + [new])

    grow([], [])
    return out


def enumerate_pgl(n_plus_1, ctx):
    "All elements of PGL(n+1)(k) as canonical representatives, sorted."
    return list(_enumerate_pgl_cached(ctx, n_plus_1))


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
    piece that differs: l o g with l up to scale, read on g's basis images
    (P); 1/r o g with 1/r up to scale on them, then on the vector
    spanning each line of the support, which by the scaling axiom
    r(c v) = r(v) / c compares them on every vector (Q); and the family
    subspace by subspace, V on the basis images first, then largest first
    (B).
    """
    return _fixes_test(x)(g)


def _fixes_test(x):
    """fixes(x, .), with what depends only on x built once, values as logs.

    Every check is one loop over a triple (entries, image, func): the
    pulled values mu * image[j], logs mu + image[j] for the (j, log mu) in
    entries, must be c * func for one nonzero c, so they vanish exactly
    where func does, and all of them when func does.  The first check is
    V's, f = f_V: entries g's kept basis images g(e_i) = mu_i * u_(j_i),
    image f's logs on V's lines (a list by line id: l for P, 1/r for Q,
    l_V for B) and func f on the basis, so an element that fails it gets no
    line row; where f vanishes on the whole basis (1/r of a Q point can), it
    asks that f o g does too.  The others are (s, lines, func): f_{g(W)} o g
    a nonzero multiple of func = f_W on those lines of W = W_s, entries read
    from g's line row and image f_{g(W)}'s logs.  P has none.  Q has one, 1/r
    on the lines of its support S, as 1/r scales like a functional and
    r o g = lam * r iff 1/r o g = 1/lam * 1/r: once g maps S's lines into
    S, it maps every other line off S, where both are 0.  B has one per
    subspace of dimension n down to 2, largest first, since most elements
    fail on the first few (on a line any point's functional is (1,)).
    """
    ctx, V = x.ctx, Subspace.full(x.n_plus_1, x.ctx)
    index, order = _subspace_order(ctx, x.n_plus_1), ctx._order
    full, zero = len(index.line_coords) - 1, 2 * order
    if isinstance(x, PPoint):
        on_v = [apply_functional(x.coords, u).log for u in index.lines]
    elif isinstance(x, QPoint):
        on_v = [-x.table[u].log % order if x.table[u] else zero for u in index.lines]
    elif isinstance(x, BPoint):
        on = x.on_lines[V]
        on_v = [on[j].log for j in range(len(index.lines))]
    else:
        raise TypeError(f"not a point: {x!r}")
    base = [on_v[j] for j in index.row_ids[full]]
    values, checks = {full: on_v}, []
    if isinstance(x, QPoint):
        support = [j for j, a in enumerate(on_v) if a < zero]
        checks.append((full, support, [on_v[j] for j in support]))
    elif isinstance(x, BPoint):
        ids = index.subspace_id
        for W, on in x.on_lines.items():
            values[ids[W]] = {j: a.log for j, a in on.items()}
        checks = [
            (ids[W], index.row_ids[ids[W]], [a.log for a in x.family[W]])
            for subs in index.by_dim[-2:1:-1]
            for W in subs
        ]
    steps = [(None, None, base)] + checks

    def test(g):
        row = None
        for s, lines, func in steps:
            if s is None:
                entries, image = g.basis_images(), on_v
            else:
                if row is None:
                    row = g.row()
                entries, image = map(row.__getitem__, lines), values[_subspace_image(index, row, s)]
            c = None
            for (j, mu), b in zip(entries, func):
                a = mu + image[j]
                if a >= zero or b >= zero:
                    if a < zero or b < zero:
                        return False
                elif c is None:
                    c = (a - b) % order
                elif (a - b) % order != c:
                    return False
        return True

    return test


def _subspace_image(index, row, s):
    "The id of g(W_s), given g's line row: W_s is the span of its lines."
    members = index.line_coords[s]
    if len(members) in (0, len(index.lines)):
        return s  # every element fixes the zero space and V
    return index.by_lines[sum(1 << row[j][0] for j in members)]


# ---------------------------------------------------------------------------
# stabilizers


def stabilizer_bruteforce(x, group=None):
    """All g with x.g = x, found by testing every element of the group.

    Each element is tested with fixes(x, g), which stops at the first
    mismatch instead of building x.g; nothing of the predicted route is
    consulted.  The result is checked to be a subgroup, on line permutations.
    """
    if group is None:
        group = enumerate_pgl(x.n_plus_1, x.ctx)
    stab = list(filter(_fixes_test(x), group))
    _check_subgroup([g.permutation() for g in stab])
    return sorted(set(stab), key=GroupElement.sort_key)


def _check_subgroup(perms):
    """InvariantViolation unless the permutations (tuples, i -> perm[i])
    form a group.

    Generators are chosen greedily, each member not yet in the group the
    chosen ones generate, and _closure grows that group from the old one
    times the new generator.  A finite set holding the identity that contains
    every such product, and every member, is the group they generate: about
    |perms| * log|perms| compositions instead of |perms|^2.
    """
    members = set(perms)
    identity = tuple(range(len(perms[0]))) if perms else None
    if identity not in members:
        raise InvariantViolation("stabilizer does not contain the identity")
    error = InvariantViolation("stabilizer not closed under product")
    generated, gens = {identity}, []
    for a in perms:
        if a not in generated:
            gens.append(a)
            seeds = [tuple(h[i] for i in a) for h in generated]
            for _ in _closure(generated, seeds, gens, members, error):
                pass


def _closure(generated, seeds, gens, members, error):
    """Grow generated, a set of line permutations, by the seeds and then by
    every new element times each of gens on the right, until nothing is new;
    yield each element as it is added, and raise error at the first one that
    is not in members."""
    stack = list(seeds)
    while stack:
        a = stack.pop()
        if a in generated:
            continue
        if a not in members:
            raise error
        generated.add(a)
        yield a
        stack.extend(tuple(a[i] for i in g) for g in gens)


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
    basis vectors.  The largest divisor is the degree f of the multiplier
    field k_f of the k-span of l's entries, which the closed form of a built
    stabilizer reads: d passes test (i) exactly when d divides f.
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
            # the first s twists are independent (the twist-span lemma)
            u_basis = [twists[j] for j in range(0, s, d)]
            if rref(u_basis + [twists[s]])[1] == len(u_basis):
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


def stabilizer_predicted(x, group=None):
    """Stab(x) built from its stratum flag: the Levi part times the unipotent
    radical of the flag's parabolic, in the basis running down the flag's
    chain (_ChainBasis.elements).

    A free level takes any block of GL(d, q): V' for P, V/V' for Q.  A dense
    level takes, for every mu with mu * S inside S, S the k-span of x's values
    a_i on the level's basis, the block of multiplication by mu on S: each
    level for B, V/V' for P, V' for Q (_dense_blocks).  Those mu are k_f^x,
    k_f the multiplier field of S.  The order in closed form,
    counts.stabilizer_order, with f read off the twist spans of the dense
    check (_DenseCovector), is held against counts.MAX_GROUP before anything
    is built, and against the size of the built set after.

    group is accepted, for callers that pass what brute force tests, and not
    read: the route never enumerates PGL(V)(k).
    """
    ctx = x.ctx
    flag = stratum_flag(x)
    dims, chain = _quotient_dims(flag), flag.chain(ctx)
    free = _free_levels(x, len(dims))
    # k lies in every k_f, so f_t = 1 bounds the order from below: a request
    # past the bound is refused before the chain basis is made
    check_stabilizer([(d, None if fr else 1) for d, fr in zip(dims, free)], ctx.q)
    basis = _chain_basis(ctx, flag)
    values = [None if fr else _level_values(x, C, rows) for fr, C, rows in zip(free, chain, basis.levels)]
    levels = [(d, None if a is None else _DenseCovector(a, ctx).divisors[-1]) for d, a in zip(dims, values)]
    check_stabilizer(levels, ctx.q)
    stab = basis.elements([
        _gl_blocks(ctx, d) if a is None else _dense_blocks(a, ctx)
        for (d, _), a in zip(levels, values)
    ])
    order = stabilizer_order(levels, ctx.q)
    if len(stab) != order:
        raise DefectSignal(f"built {len(stab)} stabilizing elements, the closed form gives {order}")
    return stab


def _quotient_dims(flag):
    "The dimensions of the quotients C_t / C_(t+1) of flag's chain, top first."
    dims = [flag.n_plus_1] + [m.dim for m in reversed(flag.members)] + [0]
    return [a - b for a, b in zip(dims, dims[1:])]


def _free_levels(x, r):
    """Whether each of the r levels of x's stratum chain is free, any block
    of GL(d, q) on it fixing x: V' for P, V/V' for Q, none for B."""
    if isinstance(x, PPoint):
        return [t > 0 for t in range(r)]
    if isinstance(x, QPoint):
        return [t < r - 1 for t in range(r)]
    return [False] * r


def _level_values(x, C, rows):
    """x's values on rows, the basis of a dense level of its stratum chain
    inside the chain member C: l for P, 1/r for Q, l_C for B."""
    if isinstance(x, PPoint):
        return [apply_functional(x.coords, b) for b in rows]
    if isinstance(x, QPoint):
        return [x.table[b].inverse() for b in rows]
    line_id = _subspace_order(x.ctx, x.n_plus_1).line_id
    return [x.on_lines[C][line_id[b]] for b in rows]


@per_field
def _gl_blocks(ctx, d):
    "GL(d, q) by rows, grown as PGL is but from any nonzero first row."
    vectors = canonical_vectors(d, ctx)
    return tuple(_invertible(vectors, vectors, d))


def _dense_blocks(values, ctx):
    """The blocks of a dense level whose basis x takes to values: for each mu
    with every mu * a_i in S, the k-span of the a_i, the matrix whose column i
    holds the k-coordinates of mu * a_i.  S is tabulated once, q^s entries
    from value to coordinates; as mu * a_0 lies in S, the candidates are the
    s / a_0 for s in S \\ 0."""
    span = {apply_functional(values, c): c for c in product(ctx.k_elements, repeat=len(values))}
    inv, blocks = values[0].inverse(), []
    for s in span:
        if s:
            mu = s * inv
            columns = [span.get(mu * a) for a in values]
            if None not in columns:
                blocks.append(list(zip(*columns)))
    return blocks


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


def unipotent_radical_k(flag, ctx):
    """The k-points of the unipotent radical of the parabolic fixing flag.

    In the basis running down the flag's chain (_ChainBasis) it is I + N
    for every N mapping each level only into deeper levels: q^e elements,
    e = sum_{s<t} d_s d_t, the built stabilizer with the identity as its
    Levi part.  I + N has identity diagonal blocks, so distinct N are
    distinct in PGL.
    """
    dims = _quotient_dims(flag)
    check_radical(dims, ctx.q)
    return _chain_basis(ctx, flag).elements([[Subspace.full(d, ctx).rows] for d in dims])


@per_field
def _chain_basis(ctx, flag):
    "flag's _ChainBasis, made once per field and flag."
    return _ChainBasis(flag, ctx)


class _ChainBasis:
    """The basis running down a flag's chain V = C_0 > C_1 > ... > 0: level t
    holds the rows of C_t off C_(t+1)'s pivots, top level first, and C_t is
    spanned by levels t and deeper.  g fixes the flag exactly when its matrix
    in this basis maps each level into itself and the deeper ones.  radical
    holds, flat by rows in the standard basis, the maps sending one basis
    vector to one of a deeper level and the others to 0."""

    __slots__ = ("ctx", "levels", "columns", "dual", "radical")

    def __init__(self, flag, ctx):
        chain, n = flag.chain(ctx), flag.n_plus_1
        self.ctx = ctx
        self.levels = [complement(small, big).rows for big, small in zip(chain, chain[1:])]
        self.columns = [b for rows in self.levels for b in rows]
        # the dual basis: the rows of the inverse of the matrix with these columns
        ech, _ = rref(r + e for r, e in zip(zip(*self.columns), Subspace.full(n, ctx).rows))
        self.dual = [r[n:] for r in ech]
        depth = [t for t, rows in enumerate(self.levels) for _ in rows]
        self.radical = [
            [a * b for a in self.columns[i] for b in self.dual[j]]
            for i in range(n) for j in range(n) if depth[i] > depth[j]
        ]

    def elements(self, blocks):
        """Every L + N, as distinct GroupElements in sort_key order: L block
        diagonal, its block on level t any of blocks[t] (matrices by rows in
        the level's basis), and N any map of each level into the deeper ones.
        L + N = L (I + L^-1 N) runs over L times the radical.  The blocks of
        the top level are taken 1 at their first nonzero entry, so that L
        meets each class of k^x once, and each L is carried to the standard
        basis by linearity; N grows one radical entry at a time, c times its
        map for every c in k."""
        ctx, n = self.ctx, len(self.columns)
        mats, above = [[ctx.zero] * (n * n)], 0
        top = [M for M in blocks[0] if next(a for row in M for a in row if a) == ctx.one]
        for rows, choices in zip(self.levels, [top] + blocks[1:]):
            parts = [self._carried(M, above) for M in choices]
            mats = [_add(m, part) for m in mats for part in parts]
            above += len(rows)
        for unit in self.radical:
            steps = [[c * u for u in unit] for c in ctx.k_elements if c]
            mats += [_add(m, step) for m in mats for step in steps]
        stab = {GroupElement(ctx, [m[r * n:(r + 1) * n] for r in range(n)]) for m in mats}
        return sorted(stab, key=GroupElement.sort_key)

    def _carried(self, block, above):
        """The map that is block on the level starting at basis vector above,
        in the level's basis, and 0 on the others: sum_c image_c (x) dual_c,
        flat by rows in the standard basis, image_c the image of basis vector
        above + c."""
        n, zero = len(self.columns), self.ctx.zero
        out = [zero] * (n * n)
        for c, dual in enumerate(self.dual[above:above + len(block)]):
            image = [zero] * n
            for a, col in zip((row[c] for row in block), self.columns[above:]):
                if a:
                    image = [u + a * v for u, v in zip(image, col)]
            out = _add(out, [u * v for u in image for v in dual])
        return out


def _add(u, v):
    "The entrywise sum of two flat matrices."
    return [a + b for a, b in zip(u, v)]


def is_unipotent(g):
    """Order is a power of the characteristic; cross-checked against the
    matrix criterion that some scalar multiple of the representative is
    id + nilpotent.  Both are computed once per element and the verdict kept."""
    if g._unipotent is None:
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
        g._unipotent = by_order
    return g._unipotent


def _unipotent_matrix_criterion(g):
    """Whether c * M, M g's matrix, is the identity plus a nilpotent for some
    c in k^x.  Its trace is then n+1, so c * tr(M) = n+1: where p does not
    divide n+1, c can only be (n+1) / tr(M), and tr(M) = 0 rules every c out;
    only where p divides n+1 is every c tried."""
    n, ctx = g.n_plus_1, g.ctx
    unit = Subspace.full(n, ctx).rows
    if n % ctx.p:
        trace = sum((row[i] for i, row in enumerate(g.matrix)), ctx.zero)
        scalars = [ctx.from_int(n) * trace.inverse()] if trace else []
    else:
        scalars = [c for c in ctx.k_elements if c]
    for c in scalars:
        rows = [[c * a - b for a, b in zip(row, e)] for row, e in zip(g.matrix, unit)]
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
    return sorted((g for g in group_subset if is_unipotent(g)), key=GroupElement.sort_key)


def p_core(subgroup):
    """The largest normal p-subgroup of a finite matrix subgroup.

    An element belongs iff its normal closure inside the subgroup is a
    p-group.  For the block-shaped stabilizers here this recovers the
    k-points of the unipotent radical of the algebraic stabilizer, which the
    plain unipotent-element set overshoots whenever a stratum leaves an
    unconstrained diagonal block of dimension at least two.

    Conjugates share their normal closure, so the verdict is decided once
    per conjugacy class and given to the whole class; a closure that is a
    p-group is a normal p-subgroup, so all its members belong and none of
    them is decided again.  Conjugates and products are taken on line
    permutations by _closure and read back from the subgroup, so each
    member's unipotent verdict is found once; ValueError says when one of
    them is not a member.
    """
    by_perm = {g.permutation(): g for g in subgroup}
    inverses = [(h, tuple(sorted(range(len(h)), key=h.__getitem__))) for h in by_perm]
    error = ValueError("not a subgroup: a conjugate or product is not a member")
    core, outside = set(), set()
    for x, g in by_perm.items():
        if x in core or x in outside or not is_unipotent(g):
            continue
        conj = {tuple(h[x[i]] for i in h_inv) for h, h_inv in inverses}
        closure = set()
        if all(is_unipotent(by_perm[a]) for a in _closure(closure, conj, conj, by_perm, error)):
            core |= closure
        else:
            outside |= conj
    return sorted((by_perm[x] for x in core), key=GroupElement.sort_key)
