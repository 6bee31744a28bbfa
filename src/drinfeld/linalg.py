"""Exact linear algebra over k and its extensions inside one ambient field.

Subspaces of V = k^(n+1) are kept in reduced row-echelon form, which is the
unique canonical basis: subspace equality is plain tuple equality and every
subspace is hashable.  Flags are strictly increasing chains of proper nonzero
subspaces, ordered ascending (smallest member first).  One reduction,
reduce_vector, takes a vector against echelon rows for every caller:
membership and coordinates here, the row test of the PGL(V)(k) enumeration
and the reciprocal-map certificate.
"""

from collections import namedtuple
from itertools import combinations, product

from .field import _int_rref_mod_p, per_field


def rref(rows):
    """Reduced row-echelon form over the elements' field.

    Returns (tuple of nonzero echelon rows, rank).  Rows must all have the
    same length.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return (), 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    rank = 0
    for col in range(width):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * v for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    out = tuple(tuple(r) for r in rows[:rank] if any(r))
    return out, len(out)


def reduce_vector(v, echelon):
    """The residual of v against echelon, a list of (pivot, row) pairs, each
    row 1 at its pivot and 0 at the pivots of the rows before it: the row
    times the residual's entry at its pivot is taken off, row by row."""
    for pivot, row in echelon:
        c = v[pivot]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


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
        if not self.rows:
            return [(ctx.zero,) * self.n_plus_1]
        return coords_to_ambient(self, product(ctx.k_elements, repeat=self.dim))

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


def logs_proportional(u, v, order):
    """Whether u = c*v for a nonzero c, the entries given by logs in a field of
    order + 1 elements: any log from 2*order on, zero's, stands for zero, so
    a sum of two logs is the log of the product."""
    zero, c = 2 * order, None
    for a, b in zip(u, v):
        if a >= zero or b >= zero:
            if a < zero or b < zero:
                return False
        elif c is None:
            c = (a - b) % order
        elif (a - b) % order != c:
            return False
    return c is not None


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
    canonical echelon form over k, read off one elimination of its F_p system.

    The unknowns are the F_p-coordinates u = j*e + t of v_j = sum_t c_{j,t}
    beta_t, with beta_0 = 1.  Reduced with its columns in reverse order, the
    system pivots from the last unknown, so the solution b_f of a free
    unknown f is 1 at f and nonzero elsewhere only at pivots right of f; the
    b_f with f >= j*e span K_j, the solutions zero before v_j.  K_j is a
    k-space and v -> v_j embeds K_j / K_(j+1) in k, so each block of e
    unknowns is all free or all pivots.  The b_(j*e) of the free blocks, read
    as k-vectors, are then zero before v_j, 1 at v_j and zero at every other
    free block: they are the reduced echelon rows.
    """
    n_plus_1, e, p = len(coords), ctx.e, ctx.p
    # column last - u holds unknown u's coefficient coords[j] * beta_t
    cols = [(a * beta).coeffs for a in reversed(coords) for beta in reversed(ctx.k_basis)]
    last, digits = len(cols) - 1, _k_digits(ctx)
    ech, pivots = _int_rref_mod_p(list(zip(*cols)), p)
    rows = []
    for f in range(0, last + 1, e):  # the first unknown of each block
        if last - f in pivots:
            continue
        b = [0] * (last + 1)  # b_f by unknown
        b[f] = 1
        for r, c in zip(ech, pivots):
            b[last - c] = -r[last - f] % p
        rows.append(tuple(digits[tuple(b[i : i + e])] for i in range(0, last + 1, e)))
    return Subspace(n_plus_1, tuple(rows))


@per_field
def _k_digits(ctx):
    "Each element sum_t c_t beta_t of k by its F_p-coordinates (c_0, ..., c_(e-1))."
    return {
        c: sum((ctx.from_int(a) * beta for a, beta in zip(c, ctx.k_basis)), ctx.zero)
        for c in product(range(ctx.p), repeat=ctx.e)
    }


_RationalIndex = namedtuple(
    "_RationalIndex", "by_dim above subspace_id lines line_id line_coords by_lines"
)


@per_field
def _subspace_order(ctx, n_plus_1):
    """The subspaces of k^(n+1) as a _RationalIndex: by_dim[d] the d-dimensional
    ones, canonical and sorted; above[W] W's strict superspaces in that order;
    subspace_id[W] W's position in by_dim read in order.  Line j (in by_dim[1]'s
    order) is spanned by the normalized lines[j] (line_id inverts it), and
    line_coords[s] maps the lines in subspace s, in order, to their
    coordinates in W_s's echelon basis (entries at its pivots); by_lines
    inverts their bitset.  Echelon rows are normalized line vectors, so a row
    r of W' <= W_s has coordinates line_coords[s][line_id[r]], with no solving.
    W_s's rows being reduced echelon, sum c_i r_i is a normalized line vector
    exactly when c is, and c is then its coordinates: W_s's lines come from c.

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
    subspaces = [W for subs in by_dim for W in subs]
    # the normalized c of length d: ends of the lines of k^(n+1) zero before them
    tails = [[]] + [[u[-d:] for u in lines if not any(u[:-d])] for d in range(1, n_plus_1 + 1)]
    line_coords = tuple(
        dict(sorted(zip(map(line_id.get, coords_to_ambient(W, tails[W.dim])), tails[W.dim])))
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
        else tuple(subspaces[1:])
        for s, a in enumerate(subspaces)
    }
    return _RationalIndex(
        tuple(by_dim), above, {W: s for s, W in enumerate(subspaces)}, lines,
        line_id, line_coords, {b: s for s, b in enumerate(bits)},
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
    subspaces, the empty chain included.  Deterministic order."""
    by_dim, above = _subspace_order(ctx, n_plus_1)[:2]
    chains = [()]
    grow = [(s,) for subs in by_dim[1:n_plus_1] for s in subs]
    while grow:
        chains.extend(grow)
        grow = [c + (s,) for c in grow for s in above[c[-1]] if s.dim < n_plus_1]
    flags = [Flag(n_plus_1, c) for c in chains]
    flags.sort(key=Flag.sort_key)
    return flags


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


def coords_to_ambient(within, coord_rows):
    "Map vectors of within's coordinate space back into the ambient space."
    out = []
    for cr in coord_rows:
        acc = [within.rows[0][0].ctx.zero] * within.n_plus_1
        for c, row in zip(cr, within.rows):
            if c:
                acc = [a + c * b for a, b in zip(acc, row)]
        out.append(tuple(acc))
    return out
