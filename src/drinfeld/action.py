"""The action of PGL(V)(k) on points and the structure of stabilizers.

All three point kinds carry right actions: covectors pull back along g,
reciprocal maps precompose with g, families move by
(family . g)_W = l_{g(W)} o g|_W.  Stabilizers are computed twice and
compared: once by sheer brute force over the whole group, and once through
the block-triangular description, whose diagonal blocks act as Galois-twisted
scalars on the twist span of a dense quotient point (fixpoint_check_omega).

Brute force asks fixes(x, g) of every g, which answers act(x, g) == x
without building the moved point and stops at the first mismatch.  Both
routes first read g's columns, the images of V's basis, in a table of the
point's values on V's vectors (l, 1/r or l_V), which for most points
rejects most elements at once.  What an element that passes is asked
about other lines is read from its line row: for each line j of V, the id
of g(j) and the log of the scalar carrying j's normalized vector there,
found from the matrix on first read and kept on the element.  Points turn
their values into logs once, so each test is linalg.logs_proportional over
integers, and g(W) = W is read off the images of W's echelon rows.  The
group is enumerated a row at a time, each candidate row reduced against the
rows above it by linalg.reduce_vector.  The brute-force subgroup check and
the normal p-core grow one product closure of line permutations, _closure;
the unipotent radical of a flag's parabolic is built from the flag as
I + N, with no group enumeration.  act, apply, compose and inverse stay on
matrices as the oracle the tests compare with.
"""

import math

from .counts import check_group, check_radical, pgl_order
from .errors import DefectSignal, InvariantViolation
from .field import per_field
from .linalg import (
    Flag,
    Subspace,
    _subspace_order,
    apply_functional,
    complement,
    logs_proportional,
    normalize_functional,
    functional_ratio,
    pivot_row,
    quotient_functional,
    rational_kernel,
    reduce_vector,
    rref,
)
from .points import (
    BPoint,
    PPoint,
    QPoint,
    _quotient_projection,
    canonical_vectors,
    b_classify,
    p_classify,
    q_classify,
    twist_coords,
)


class GroupElement:
    """An element of PGL(n+1, k): an invertible matrix over k, scaled so the
    first nonzero entry in row-major order is 1; its line row and unipotent
    verdict are kept on it once found."""

    __slots__ = ("ctx", "matrix", "_hash", "_row", "_unipotent")

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
        self._row = self._unipotent = None

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

    def row(self):
        "g's _LineRow, made on first use and kept on g."
        if self._row is None:
            self._row = _LineRow(self.ctx, self.matrix)
        return self._row

    def permutation(self):
        """The line permutation j -> j', every line read from the row.  It is
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
        return tuple(tuple(a.code for a in r) for r in self.matrix)

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
    _subspace_order(ctx, n+1).  A line is found from the matrix on its first
    read, by one matrix-vector product, and kept for as long as g lives, with
    no size bound; the lines a test never reads are never computed, so an
    element rejected after a few lines costs a few products."""

    __slots__ = ("matrix", "lines", "pairs")

    def __init__(self, ctx, matrix):
        self.matrix = matrix
        self.lines = _subspace_order(ctx, len(matrix)).lines
        self.pairs = _line_pairs(ctx, len(matrix))

    def __missing__(self, j):
        u = self.lines[j]
        pair = self[j] = self.pairs[tuple(apply_functional(r, u) for r in self.matrix)]
        return pair


@per_field
def _line_pairs(ctx, n_plus_1):
    "Each nonzero vector mu * u_j of k^(n+1) to (j, log mu), u_j as in _LineRow."
    return {
        tuple(c * a for a in u): (j, c.log)
        for j, u in enumerate(_subspace_order(ctx, n_plus_1).lines)
        for c in ctx.k_elements
        if c
    }


@per_field
def _enumerate_pgl_cached(ctx, n_plus_1):
    """PGL(n+1)(k) built a row at a time, depth first: the first row a
    normalized vector, each later one a nonzero vector kept when it reduces
    to a nonzero vector against the echelon rows of the rows above it.  Each
    row runs in vec_key order, so the matrices come out in sort_key order."""
    check_group(n_plus_1, ctx.q)
    vectors = canonical_vectors(n_plus_1, ctx)
    heads = [v for v in vectors if next(a for a in v if a) == ctx.one]
    out = []

    def grow(rows, echelon):
        if len(rows) == n_plus_1:
            out.append(GroupElement(ctx, rows))
            return
        for v in vectors if rows else heads:
            new = pivot_row(reduce_vector(v, echelon))
            if new is not None:
                grow(rows + [v], echelon + [new])

    grow([], [])
    assert len(out) == pgl_order(n_plus_1, ctx.q)
    return tuple(out)


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
    piece that differs: l o g with l up to scale, read on the columns of g
    (P); 1/r o g with 1/r up to scale on the columns, then on the vector
    spanning each line of the support, which by the scaling axiom
    r(c v) = r(v) / c compares them on every vector (Q); and the family
    subspace by subspace, V on the columns first, then largest first (B).
    """
    return _fixes_test(x)(g)


def _fixes_test(x):
    """fixes(x, .), with what depends only on x built once, values as logs.

    The first check, f = f_V, reads g's columns in a table of f on the
    vectors of V, so an element that fails it gets no line row.  The others
    are (s, lines, f): f_{g(W)} o g a nonzero multiple of f = f_W on those
    lines of W = W_s, f_{g(W)}(g(u_j)) being mu_j * f_{g(W)}(u_j').  P has
    none.  Q has one, 1/r on the lines of its support S, as 1/r scales like
    a functional and r o g = lam * r iff 1/r o g = 1/lam * 1/r: once g maps
    S's lines into S, it maps every other line off S, where both are 0.  B
    has one per subspace of dimension n down to 2, largest first, since most
    elements fail on the first few (on a line any point's functional is (1,)).
    """
    ctx = x.ctx
    index, order = _subspace_order(ctx, x.n_plus_1), ctx._order
    full = len(index.line_coords) - 1
    values, checks = {}, []
    if isinstance(x, QPoint):
        values[full] = [
            -x.table[u].log % order if x.table[u] else 2 * order for u in index.lines
        ]
        support = [j for j, u in enumerate(index.lines) if x.table[u]]
        checks.append((full, support, [values[full][j] for j in support]))
    elif isinstance(x, BPoint):
        for W, on in x.on_lines.items():
            values[index.subspace_id[W]] = {j: a.log for j, a in on.items()}
        checks = [
            (
                index.subspace_id[W],
                [index.line_id[r] for r in W.rows],
                [a.log for a in x.family[W]],
            )
            for subs in index.by_dim[-2:1:-1]
            for W in subs
        ]
    on_columns = _column_test(x)

    def test(g):
        if not on_columns(g):
            return False
        if not checks:
            return True
        row = g.row()
        for s, rows, func in checks:
            image = values[_subspace_image(index, row, s)]
            pulled = [mu + image[j] for j, mu in map(row.__getitem__, rows)]
            if not logs_proportional(pulled, func, order):
                return False
        return True

    return test


def _column_test(x):
    """The test that f o g is a nonzero multiple of f on V's basis, f the
    values of x on V (l for P, 1/r for Q, l_V for B): read on g's columns
    g(e_i) in a table of f's logs on the nonzero vectors of V, so it needs
    no line row.  Where f vanishes on the whole basis (1/r of a Q point
    can), the test is that f o g does too."""
    ctx, order = x.ctx, x.ctx._order
    full = Subspace.full(x.n_plus_1, ctx)
    if isinstance(x, QPoint):
        logs = {v: -r.log % order if r else 2 * order for v, r in x.table.items()}
    elif isinstance(x, (PPoint, BPoint)):
        coords = x.coords if isinstance(x, PPoint) else x.family[full]
        logs = {v: apply_functional(coords, v).log for v in canonical_vectors(x.n_plus_1, ctx)}
    else:
        raise TypeError(f"not a point: {x!r}")
    base = [logs[e] for e in full.rows]
    if min(base) >= 2 * order:
        return lambda g: min(logs[c] for c in zip(*g.matrix)) >= 2 * order
    return lambda g: logs_proportional([logs[c] for c in zip(*g.matrix)], base, order)


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


class _QuotientBlock:
    """Precomputed data for inducing a group element on big/small and testing
    whether the induced map fixes the attached dense quotient point.

    coords is a functional on big's coordinate space vanishing on small.
    Built once per point: the lines of big's echelon rows that span a
    complement of small, the projection of big's lines onto the complement
    coordinates, and the _DenseCovector of the induced quotient covector.
    Only call passes(g) for g leaving big (and small) invariant.
    """

    __slots__ = ("basis", "to_quotient", "dense")

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


def stabilizer_predicted(x, group=None):
    """Membership test for Stab(x) through the block-triangular description.

    P: g preserves the kernel V' and the induced map on V/V' passes the
    dense fixpoint check against the induced covector.  Q: g preserves the
    support span V' and g restricted to V' passes the check against 1/r.
    B: g fixes the stratum flag and every induced diagonal block passes the
    check against its quotient covector.

    Every element the description keeps passes _column_test(x), f o g =
    mu * f on V's basis for f = l, 1/r or l_V: g fixes V' (P, Q) or the
    flag (B), and the check of the block on V / V' (Q: on V'; B: the top
    block) holds at its first step, t = 0.  That is read on g's columns
    first, and only the elements it keeps get line rows.
    """
    if group is None:
        group = enumerate_pgl(x.n_plus_1, x.ctx)
    invariant, blocks = _predicted_blocks(x)
    on_columns = _column_test(x)
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

    In a basis running down the chain V = C_0 > C_1 > ... > 0, the rows of
    C_t off C_(t+1)'s pivots, top level first, the radical is I + N for every
    N mapping each level only into deeper levels: q^e elements, e =
    sum_{s<t} d_s d_t, each conjugated back to the standard basis.  I + N
    has identity diagonal blocks, so distinct N are distinct in PGL.
    """
    chain = flag.chain(ctx)
    levels = [complement(small, big).rows for big, small in zip(chain, chain[1:])]
    check_radical([len(rows) for rows in levels], ctx.q)
    depth = [t for t, rows in enumerate(levels) for _ in rows]
    basis = GroupElement(ctx, list(zip(*(r for rows in levels for r in rows))))
    columns, dual = list(zip(*basis.matrix)), basis.inverse().matrix
    mats = [Subspace.full(flag.n_plus_1, ctx).rows]
    for i, j in [(i, j) for i, s in enumerate(depth) for j, t in enumerate(depth) if s > t]:
        # the N sending basis vector j to basis vector i, in the standard basis
        unit = [[a * b for b in dual[j]] for a in columns[i]]
        mats = [[[a + c * e for a, e in zip(r, u)] for r, u in zip(m, unit)]
                for m in mats for c in ctx.k_elements]
    return sorted((GroupElement(ctx, m) for m in mats), key=GroupElement.sort_key)


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
    n = g.n_plus_1
    unit = Subspace.full(n, g.ctx).rows
    for c in g.ctx.k_elements:
        if not c:
            continue
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
