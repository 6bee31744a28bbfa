"""How many of anything there are, and how many is too many.

Closed forms for k^(n+1) over k = GF(q), for the points of the three
varieties over k_m and for the orders of their stabilizers, and the
desk-scale bounds that refuse a request too large to build.  Each bound is
compared with a free lower bound before its exact count is formed: k^(n+1)
has at least 2^(n+1) - 1 nonzero vectors, lines, subspaces and flags, and
each variety at least as many points over k_m, so an n+1 past a bound's bit
length is refused at once; |PGL(n+1, q)| >= 2^(n(n+1)), and a stabilizer has
at least as many elements as its unipotent ones.
"""

import math

# The most strata (subspaces, or flags for B) of an atlas, and the most nonzero
# subspaces of a B point: the rational index's `above` is quadratic in this count.
MAX_STRATA = 4_000
MAX_POINTS = 200_000  # of an atlas over one k_m
MAX_GROUP = 10**5  # elements of an enumerated PGL(n+1)(k)
MAX_JOBS = 64  # worker processes of one count, which a pool starts all at once


def gaussian_binomial(n, d, q):
    "Number of d-dimensional subspaces of an n-dimensional space over F_q."
    if d < 0 or d > n:
        return 0
    num = math.prod(q ** (n - i) - 1 for i in range(d))
    den = math.prod(q ** (d - i) - 1 for i in range(d))
    assert num % den == 0
    return num // den


def gl_order(d, q):
    "Product formula for |GL(d, q)|: the ordered bases of k^d."
    return math.prod(q**d - q**i for i in range(d))


def pgl_order(n_plus_1, q):
    "|PGL(n+1, q)| = |GL(n+1, q)| / (q - 1)."
    return gl_order(n_plus_1, q) // (q - 1)


def nonzero_vectors(n_plus_1, q):
    return q**n_plus_1 - 1


def nonzero_subspaces(n_plus_1, q):
    return sum(gaussian_binomial(n_plus_1, d, q) for d in range(1, n_plus_1 + 1))


def flags(n_plus_1, q, weight=lambda d: 1):
    """The flags of k^(n+1), the trivial one included, each counted with the
    product of weight(d) over the steps of codimension d of its chain
    V = C_0 > C_1 > ... > 0: S(k) = sum_d [k choose d]_q weight(d) S(k-d).
    With weight = dense it counts B(V) by the fibration rho: B -> Q over the
    d-dimensional supports V', fibre B(V/V'), and as [k choose d]_q =
    [k choose k-d]_q, by pi: B -> P over the (k-d)-dimensional kernels V',
    fibre B(V')."""
    totals = [1]
    for k in range(1, n_plus_1 + 1):
        totals.append(sum(
            gaussian_binomial(k, d, q) * weight(d) * totals[k - d] for d in range(1, k + 1)
        ))
    return totals[-1]


def dense(d, q, m):
    """The dense points over k_m of a d-dimensional space, prod_{i=1..d-1} (q^m - q^i):
    k-linearly independent d-tuples in k_m up to k_m^x."""
    return math.prod(q**m - q**i for i in range(1, d))


def variety_total(variety, n_plus_1, q, m):
    """The number of points over k_m in closed form: for P and Q the normalized
    covectors of length n+1, for B one dense point of each quotient of its flag's
    chain."""
    if variety != "B":
        return (q ** (m * n_plus_1) - 1) // (q**m - 1)
    return flags(n_plus_1, q, lambda d: dense(d, q, m))


def stratum_total(variety, node, n_plus_1, q, m):
    """The number of points over k_m in one stratum in closed form: one dense
    point of V/V' (P), of V' (Q), or of each quotient of the flag's chain (B)."""
    if variety == "P":
        return dense(n_plus_1 - node.dim, q, m)
    if variety == "Q":
        return dense(node.dim, q, m)
    dims = [n_plus_1] + [s.dim for s in reversed(node.members)] + [0]
    return math.prod(dense(a - b, q, m) for a, b in zip(dims, dims[1:]))


def check_covers(entries, n_plus_1, count, q, what):
    """ValueError(what) unless entries == count(n_plus_1, q), for a count of at
    least 2^(n+1) - 1: the nonzero vectors or subspaces of k^(n+1)."""
    if n_plus_1 < 1:
        raise ValueError(f"n_plus_1 must be at least 1, got {n_plus_1}")
    if n_plus_1 > entries.bit_length() or count(n_plus_1, q) != entries:
        raise ValueError(what)


def check_desk_scale(variety, n_plus_1, q, m_list):
    """ValueError, before anything is built, for too many strata (subspaces, or flags
    for B) or points over some k_m."""
    strata = flags if variety == "B" else nonzero_subspaces
    if n_plus_1 > MAX_STRATA.bit_length() or strata(n_plus_1, q) > MAX_STRATA:
        raise ValueError("stratum count exceeds the desk-scale bound")
    if any(n_plus_1 > MAX_POINTS.bit_length() or variety_total(variety, n_plus_1, q, m) > MAX_POINTS
           for m in m_list):
        raise ValueError("point count exceeds the desk-scale bound")


def check_group(n_plus_1, q):
    "ValueError, before PGL(n+1)(k) is enumerated, if it has too many elements."
    if n_plus_1 * (n_plus_1 - 1) > MAX_GROUP.bit_length() or pgl_order(n_plus_1, q) > MAX_GROUP:
        raise ValueError(f"|PGL({n_plus_1}, {q})| exceeds the desk-scale bound {MAX_GROUP}")


def _radical_exponent(dims):
    "e = sum_{s<t} d_s d_t over the dimensions of a flag chain's quotients."
    return sum(a * b for s, a in enumerate(dims) for b in dims[s + 1:])


def check_radical(dims, q):
    """ValueError, before a flag's unipotent radical is built, if its q^e elements,
    e = sum_{s<t} d_s d_t over the dimensions of its chain's quotients, are too many."""
    e = _radical_exponent(dims)
    if e > MAX_GROUP.bit_length() or q**e > MAX_GROUP:
        raise ValueError(f"a radical of {q}^{e} elements exceeds the desk-scale bound {MAX_GROUP}")


def stabilizer_order(levels, q):
    """|Stab(x)| in PGL(V)(k) for a point whose stratum flag's chain has the
    quotients levels, (d_t, f_t) top first: f_t the degree over k of the
    multiplier field of a dense quotient's values, None on a free quotient.

    Stab(x) is the Levi part times the radical, q^N elements with
    N = sum_{s<t} d_s d_t.  In GL the Levi part is prod_free GL(d_t, q) times
    prod_dense k_(f_t)^x, and PGL divides out the one k^x of the scalars:
    q^N prod_free |GL(d_t, q)| prod_dense (q^(f_t) - 1) / (q - 1).
    """
    dims = [d for d, _ in levels]
    free = math.prod(gl_order(d, q) for d, f in levels if f is None)
    dense = math.prod(q**f - 1 for _, f in levels if f is not None)
    return q ** _radical_exponent(dims) * free * dense // (q - 1)


def _unipotent_exponent(levels):
    "N + sum_free d_t (d_t - 1), the exponent of q in stabilizer_unipotents."
    return _radical_exponent([d for d, _ in levels]) + sum(d * (d - 1) for d, f in levels if f is None)


def stabilizer_unipotents(levels, q):
    """The unipotent elements of that Stab(x), q^N prod_free q^(d_t (d_t - 1)):
    the radical times the unipotent elements of each GL(d_t, q) (Steinberg);
    the k_(f_t)^x, of order prime to p, add none."""
    return q ** _unipotent_exponent(levels)


def check_stabilizer(levels, q):
    """ValueError, before Stab(x) is built, if stabilizer_order(levels, q) is
    too large; its unipotent elements, at least 2^(N + sum_free d_t (d_t - 1)),
    give the free lower bound."""
    if _unipotent_exponent(levels) > MAX_GROUP.bit_length() or stabilizer_order(levels, q) > MAX_GROUP:
        raise ValueError(f"a stabilizer of more than {MAX_GROUP} elements exceeds the desk-scale bound")
