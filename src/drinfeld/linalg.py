"""Exact linear algebra over k and its extensions inside one ambient field.

Subspaces of V = k^(n+1) are kept in reduced row-echelon form, which is the
unique canonical basis: subspace equality is plain tuple equality and every
subspace is hashable.  Flags are strictly increasing chains of proper nonzero
subspaces, ordered ascending (smallest member first).  All of it runs over
GF(p^D), with one elimination.  One reduction, reduce_vector, takes a vector
against echelon rows for every caller, and one step, pivot_row, scales a
nonzero residual into a new row: rref and the rational kernel, the row test
of the PGL(V)(k) enumeration and the reciprocal-map certificate all grow
their rows so, and membership and coordinates reduce against a subspace's.
"""

from collections import namedtuple
from itertools import combinations, product

from .field import per_field


def rref(rows):
    """Reduced row-echelon form over the elements' field.

    Returns (tuple of nonzero echelon rows, rank).  Rows must all have the
    same length.  Each row is reduced against the echelon rows so far, and
    a nonzero residual joins them as a pivot row whose pivot is taken off the
    earlier rows; the scan stops once the rows span.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return (), 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    echelon = []
    for v in rows:
        if len(echelon) == width:
            break
        _insert_reduced(echelon, reduce_vector(v, echelon))
    out = tuple(tuple(r) for _, r in sorted(echelon, key=lambda pr: pr[0]))
    return out, len(out)


def _insert_reduced(echelon, w):
    """Add the residual w of a vector against the reduced echelon rows
    echelon, (pivot, row) pairs, as a new pivot row and take its pivot off
    the rows before it, so they stay reduced; whether w was nonzero."""
    new = pivot_row(w)
    if new is None:
        return False
    pivot, row = new
    for i, (p, r) in enumerate(echelon):
        c = r[pivot]
        if c:
            echelon[i] = (p, [a - c * b for a, b in zip(r, row)])
    echelon.append(new)
    return True


def reduce_vector(v, echelon):
    """The residual of v against echelon, a list of (pivot, row) pairs, each
    row 1 at its pivot and 0 at the pivots of the rows before it: the row
    times the residual's entry at its pivot is taken off, row by row."""
    for pivot, row in echelon:
        c = v[pivot]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def pivot_row(w):
    """(pivot, w scaled to 1 there) for w's first nonzero entry, the pivot:
    how a residual of reduce_vector joins echelon rows; None for w zero."""
    for pivot, a in enumerate(w):
        if a:
            inv = a.inverse()
            return pivot, [inv * b for b in w]
    return None


def vec_key(v):
    "Deterministic sort key for a vector of field elements."
    return tuple(a.code for a in v)


class Subspace:
    """A k-rational subspace of k^(n+1) in canonical echelon form."""

    __slots__ = ("n_plus_1", "rows", "_hash")

    def __init__(self, n_plus_1, rows):
        self.n_plus_1 = n_plus_1
        self.rows = rows
        self._hash = hash((n_plus_1, rows))

    @classmethod
    def span(cls, n_plus_1, vectors):
        rows, _ = rref(vectors)
        return cls(n_plus_1, rows)

    @classmethod
    def zero(cls, n_plus_1):
        return cls(n_plus_1, ())

    @classmethod
    def full(cls, n_plus_1, ctx):
        rows = []
        for i in range(n_plus_1):
            row = [ctx.zero] * n_plus_1
            row[i] = ctx.one
            rows.append(tuple(row))
        return cls(n_plus_1, tuple(rows))

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return tuple(next(i for i, a in enumerate(r) if a) for r in self.rows)

    def contains_vector(self, v):
        "Membership test by reduction against the echelon rows."
        return not any(reduce_vector(v, zip(self.pivots(), self.rows)))

    def contains(self, other):
        return all(self.contains_vector(r) for r in other.rows)

    def coords_of(self, v):
        """Coordinates of v with respect to the echelon basis; v must lie here.

        Echelon form makes this a lookup: the coefficient of row i is the
        entry of v at row i's pivot column, the multiple reduce_vector takes
        off, since the other rows are zero there.
        """
        pivots = self.pivots()
        if any(reduce_vector(v, zip(pivots, self.rows))):
            raise ValueError("vector not in subspace")
        return tuple(v[p] for p in pivots)

    def vectors(self, ctx):
        "All q^dim k-rational vectors of the subspace (including zero)."
        return coords_to_ambient(self, product(ctx.k_elements, repeat=self.dim), ctx)

    def nonzero_vectors(self, ctx):
        return [v for v in self.vectors(ctx) if any(v)]

    def sum(self, other):
        return Subspace.span(self.n_plus_1, list(self.rows) + list(other.rows))

    def sort_key(self):
        return (self.dim, tuple(tuple(a.code for a in r) for r in self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n_plus_1 == other.n_plus_1
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Subspace, (self.n_plus_1, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.n_plus_1})"


class Flag:
    """A strictly increasing chain of proper nonzero subspaces of k^(n+1).

    Members are stored ascending; the empty chain is the trivial flag.
    """

    __slots__ = ("n_plus_1", "members", "_hash")

    def __init__(self, n_plus_1, members):
        members = tuple(members)
        for a, b in zip(members, members[1:]):
            if not (b.contains(a) and a.dim < b.dim):
                raise ValueError("flag members must strictly increase")
        for m in members:
            if m.dim == 0 or m.dim == n_plus_1:
                raise ValueError("flag members must be proper and nonzero")
        self.n_plus_1 = n_plus_1
        self.members = members
        self._hash = hash((n_plus_1, members))

    @classmethod
    def trivial(cls, n_plus_1):
        return cls(n_plus_1, ())

    def __len__(self):
        return len(self.members)

    @property
    def smallest(self):
        "Smallest member, or None for the trivial flag."
        return self.members[0] if self.members else None

    @property
    def largest(self):
        return self.members[-1] if self.members else None

    def chain(self, ctx):
        "The full descending chain V = C_0 > C_1 > ... > C_last = 0."
        full = Subspace.full(self.n_plus_1, ctx)
        zero = Subspace.zero(self.n_plus_1)
        return [full] + list(reversed(self.members)) + [zero]

    def sort_key(self):
        return (len(self.members), tuple(m.sort_key() for m in self.members))

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and self.n_plus_1 == other.n_plus_1
            and self.members == other.members
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Flag, (self.n_plus_1, self.members))

    def __repr__(self):
        dims = tuple(m.dim for m in self.members)
        return f"Flag(dims {dims} in k^{self.n_plus_1})"


def flag_leq(f, g):
    "Refinement order: every member of f is a member of g."
    if f.n_plus_1 != g.n_plus_1:
        raise ValueError("flags in different ambient spaces")
    gset = set(g.members)
    return all(m in gset for m in f.members)


def normalize_functional(coords):
    "Scale so the first nonzero coordinate is 1; rejects the zero vector."
    coords = tuple(coords)
    lead = next((a for a in coords if a), None)
    if lead is None:
        raise ValueError("zero functional")
    inv = lead.inverse()
    return tuple(inv * a for a in coords)


def functional_ratio(u, v):
    "Scalar c with u = c*v, or None if the vectors are not proportional."
    lead = next((i for i, a in enumerate(v) if a), None)
    if lead is None:
        raise ValueError("ratio against the zero vector")
    c = u[lead] * v[lead].inverse()
    if all(a == c * b for a, b in zip(u, v)):
        return c
    return None


def apply_functional(coords, v):
    "Evaluate sum coords_i * v_i."
    ctx = coords[0].ctx
    acc = ctx.zero
    for a, b in zip(coords, v):
        if a and b:
            acc = acc + a * b
    return acc


def rational_kernel(coords, ctx):
    """The k-rational kernel {v in k^(n+1) : sum coords_i v_i = 0}, in
    canonical echelon form over k, read off the twists of coords.

    The common kernel over GF(p^D) of l and its twists F^(-i)(l) is stable
    under F^(-1) entrywise, so its reduced echelon rows, unique, are fixed by
    it: they lie in k^(n+1) and span the rational kernel.  The twists, their
    columns reversed, grow reduced echelon rows until one reduces to zero,
    after which the span is closed under twisting, or they span.  The
    solution of a free column f, 1 at f and 0 at the other free columns, is
    then nonzero elsewhere only at pivots right of f: these are the reduced
    echelon rows of the kernel.
    """
    n_plus_1, zero, one = len(coords), ctx.zero, ctx.one
    last, twist, echelon = n_plus_1 - 1, coords[::-1], []
    while len(echelon) < n_plus_1 and _insert_reduced(echelon, reduce_vector(twist, echelon)):
        twist = [ctx.inv_frobenius(a) for a in twist]
    pivots = {last - p for p, _ in echelon}
    rows = []
    for f in range(n_plus_1):
        if f in pivots:
            continue
        row = [zero] * n_plus_1
        row[f] = one
        for p, r in echelon:
            if c := r[last - f]:
                row[last - p] = -c
        rows.append(tuple(row))
    return Subspace(n_plus_1, tuple(rows))


_RationalIndex = namedtuple(
    "_RationalIndex",
    "by_dim above subspace_id lines line_id line_coords by_lines subspaces"
    " row_ids covers pairs plan",
)


@per_field
def _subspace_order(ctx, n_plus_1):
    """The subspaces of k^(n+1) as a _RationalIndex: by_dim[d] the d-dimensional
    ones, canonical and sorted; above[W] W's strict superspaces in that order;
    subspace_id[W] W's position in by_dim read in order.  Line j (in by_dim[1]'s
    order) is spanned by the normalized lines[j] (line_id inverts it), and
    line_coords[s] maps the lines in subspace s, in order, to their
    coordinates in W_s's echelon basis (entries at its pivots); by_lines
    inverts their bitset to s, and subspaces[s] is W_s.  Echelon rows are
    normalized line vectors, so a row r of W' <= W_s has coordinates
    line_coords[s][line_id[r]], with no solving; row_ids[s] holds the line
    ids of W_s's rows, and covers[s] the subspaces one dimension above W_s.
    W_s's rows being reduced echelon, sum c_i r_i is a normalized line vector
    exactly when c is, and c is then its coordinates: W_s's lines come from c.
    pairs maps each nonzero vector mu * u_j, u_j = lines[j], to (j, log mu);
    plan[j] is (lead, k, log lam) with u_j = e_lead + lam * u_k, lead u_j's
    first nonzero position and k a line of larger lead, or (lead, None, None)
    when u_j = e_lead.

    Echelon parametrisation: choose pivot columns, then fill every entry
    that sits right of its row's pivot and is not itself a pivot column.
    """
    k_els = ctx.k_elements
    by_dim = []
    for d in range(n_plus_1 + 1):
        subs = []
        for pivs in combinations(range(n_plus_1), d):
            free = []
            for i in range(d):
                for col in range(pivs[i] + 1, n_plus_1):
                    if col not in pivs:
                        free.append((i, col))
            for values in product(k_els, repeat=len(free)):
                rows = [[ctx.zero] * n_plus_1 for _ in range(d)]
                for i, pcol in enumerate(pivs):
                    rows[i][pcol] = ctx.one
                for (i, col), val in zip(free, values):
                    rows[i][col] = val
                subs.append(Subspace(n_plus_1, tuple(tuple(r) for r in rows)))
        subs.sort(key=Subspace.sort_key)
        by_dim.append(tuple(subs))
    # an echelon row is normalized: its first nonzero entry is its pivot, 1
    lines = tuple(L.rows[0] for L in by_dim[1])
    line_id = {u: j for j, u in enumerate(lines)}
    subspaces = tuple(W for subs in by_dim for W in subs)
    # the normalized c of length d: ends of the lines of k^(n+1) zero before them
    tails = [[]] + [[u[-d:] for u in lines if not any(u[:-d])] for d in range(1, n_plus_1 + 1)]
    line_coords = tuple(
        dict(sorted(zip(map(line_id.get, coords_to_ambient(W, tails[W.dim], ctx)), tails[W.dim])))
        for W in subspaces
    )
    # a subspace is the span of its lines, so a < b iff a's lines are b's: b is
    # among the subspaces through the line of a's first row, listed in order
    bits = [sum(1 << j for j in m) for m in line_coords]
    through = [[] for _ in lines]
    for s, members in enumerate(line_coords):
        for j in members:
            through[j].append(s)
    above = {
        a: tuple(
            subspaces[b]
            for b in through[line_id[a.rows[0]]]
            if b != s and bits[b] & bits[s] == bits[s]
        )
        if a.rows
        else subspaces[1:]
        for s, a in enumerate(subspaces)
    }
    pairs = {tuple(c * a for a in u): (j, c.log) for j, u in enumerate(lines) for c in k_els if c}
    plan = []
    for u in lines:
        lead = next(i for i, a in enumerate(u) if a)
        # the rest of u past its lead is zero, or lam * u_k for the pair (k, log lam)
        rest = (ctx.zero,) * (lead + 1) + u[lead + 1:]
        plan.append((lead, *pairs[rest]) if any(rest) else (lead, None, None))
    return _RationalIndex(
        tuple(by_dim), above, {W: s for s, W in enumerate(subspaces)}, lines,
        line_id, line_coords, {b: s for s, b in enumerate(bits)}, subspaces,
        tuple(tuple(map(line_id.__getitem__, W.rows)) for W in subspaces),
        tuple(tuple(b for b in above[W] if b.dim == W.dim + 1) for W in subspaces),
        pairs, tuple(plan),
    )


def enumerate_subspaces(n_plus_1, d, ctx):
    "All d-dimensional k-subspaces of k^(n+1), canonical and sorted."
    if d < 0 or d > n_plus_1:
        raise ValueError(f"dimension {d} out of range")
    return list(_subspace_order(ctx, n_plus_1).by_dim[d])


def all_subspaces(n_plus_1, ctx, include_zero=True, include_full=True):
    lo = 0 if include_zero else 1
    hi = n_plus_1 if include_full else n_plus_1 - 1
    by_dim = _subspace_order(ctx, n_plus_1).by_dim
    return [W for d in range(lo, hi + 1) for W in by_dim[d]]


def enumerate_flags(n_plus_1, ctx):
    """All flags of k^(n+1): strictly increasing chains of proper nonzero
    subspaces, the empty chain included.  Deterministic order.

    The flags are built once per field and n+1, on the first call; each call
    returns a fresh list of them, which the caller may change.
    """
    return list(_flags(ctx, n_plus_1))


@per_field
def _flags(ctx, n_plus_1):
    by_dim, above = _subspace_order(ctx, n_plus_1)[:2]
    chains = [()]
    grow = [(s,) for subs in by_dim[1:n_plus_1] for s in subs]
    while grow:
        chains.extend(grow)
        grow = [c + (s,) for c in grow for s in above[c[-1]] if s.dim < n_plus_1]
    return tuple(sorted((Flag(n_plus_1, c) for c in chains), key=Flag.sort_key))


def complement(sub, within):
    """The deterministic complement of sub inside within.

    Each pivot column of sub is one of within's, and in the coordinates of
    within's echelon basis sub is again reduced echelon, its pivots at those
    rows of within; the complement is spanned by within's other rows, so
    sub + result = within, directly.
    """
    if not within.contains(sub):
        raise ValueError("sub is not contained in within")
    taken = set(sub.pivots())
    rows = tuple(r for r, p in zip(within.rows, within.pivots()) if p not in taken)
    return Subspace(within.n_plus_1, rows)


def quotient_functional(coords, sub, ctx):
    """Induced functional on the quotient by sub, in complement coordinates.

    coords is a functional on the full coordinate space k^s that must vanish
    on sub (a subspace of k^s).  Returns (complement of sub in k^s, induced
    normalized coords on that complement).
    """
    s = len(coords)
    for r in sub.rows:
        if apply_functional(coords, r):
            raise ValueError("functional does not vanish on the subspace")
    comp = complement(sub, Subspace.full(s, ctx))
    induced = tuple(apply_functional(coords, r) for r in comp.rows)
    return comp, normalize_functional(induced)


def coords_to_ambient(within, coord_rows, ctx):
    "Map vectors of within's coordinate space back into the ambient space."
    out = []
    for cr in coord_rows:
        acc = [ctx.zero] * within.n_plus_1
        for c, row in zip(cr, within.rows):
            if c:
                acc = [a + c * b for a, b in zip(acc, row)]
        out.append(tuple(acc))
    return out
