"""Exact arithmetic in one ambient field GF(p^D).

The base field k = GF(q), q = p^e, and every working extension k_m of
degree m over k (with m*e dividing D) live inside a single quotient ring
GF(p^D) = F_p[x]/(modulus).  Subfields are never materialised as separate
towers: membership in k_m is the Frobenius fixed-point test a^(q^m) = a.

An element's code is the int whose base-p digits are its coefficients in
the power basis 1, x, ..., x^(D-1), constant term most significant, so codes
sort as coefficient tuples do.  Each context holds one Element per code, so
elements compare and hash by identity: two elements of one field are equal
exactly when their codes are, and elements of two fields never are.  It also
holds, over a primitive element g, log tables and Zech's logarithms
log(1 + g^n) (Lidl & Niederreiter, Finite Fields, ch. 9): every operation is
one table step, the Frobenius and its inverse included, so linear algebra
needs no other element type.  Polynomial arithmetic is left to the
irreducibility test and the table build.  Whatever else is built for a
field, by a @per_field function, is kept on its context and freed with it.
"""

import math
import weakref
from functools import lru_cache, wraps
from itertools import product


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(coeffs):
    "Drop trailing zero coefficients."
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_divmod(num, den, p):
    "Quotient and remainder of coefficient tuples over F_p; den nonzero."
    num = list(num)
    dden = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            quot[i - dden] = c
            for j, dj in enumerate(den):
                num[i - dden + j] = (num[i - dden + j] - c * dj) % p
    return tuple(quot), _poly_trim(num)


def _poly_mulmod(a, b, f, p):
    "a * b mod f over F_p, as coefficient tuples; f monic."
    out = [0] * (len(a) + len(b))
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % p
    return _poly_divmod(out, f, p)[1]


def _poly_is_irreducible(poly, p):
    """Ben-Or's test (FOCS 1981): a monic f of degree n is irreducible iff
    gcd(x^(p^i) - x mod f, f) = 1 for every i <= n/2.  x^(p^i) - x is the
    product of the monic irreducibles of degree dividing i, and a reducible f
    has an irreducible factor of degree at most n/2.  x^(p^i) is the p-th
    power of x^(p^(i-1)), by squaring and multiplying mod f.
    """
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg > 1 and not poly[0]:
        # x divides f; this turns away the first p^(n-1) candidates of
        # smallest_irreducible's scan at once
        return False
    power = (0, 1)  # x
    for _ in range(deg // 2):
        acc = power
        for bit in bin(p)[3:]:
            acc = _poly_mulmod(acc, acc, poly, p)
            if bit == "1":
                acc = _poly_mulmod(acc, power, poly, p)
        power = acc
        # gcd(x^(p^i) - x, f) by Euclid
        a, b = poly, _poly_trim([(c - (i == 1)) % p for i, c in enumerate(power + (0, 0))])
        while b:
            a, b = b, _poly_divmod(a, b, p)[1]
        if len(a) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p, degree):
    """Lexicographically smallest monic irreducible of given degree over F_p.

    Coefficients are compared low-degree-first, so the scan order is
    (c_0, c_1, ..., c_{degree-1}) with c_0 most significant.
    """
    for tail in product(range(p), repeat=degree):
        poly = tuple(tail) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _code(coeffs, p, D):
    "The code of up to D coefficients (low degree first, zeros implied)."
    code = 0
    for c in coeffs:
        code = code * p + c
    return code * p ** (D - len(coeffs))


def _coeffs(code, p, D):
    "The D coefficients of a code, low degree first."
    out = [0] * D
    for i in range(D - 1, -1, -1):
        code, out[i] = divmod(code, p)
    return out


def _primitive_powers(p, D, modulus):
    """The codes of g^0, g^1, ..., g^(p^D - 2), g primitive.

    Elements are coefficient lists here.  Multiplying by x is one shift, so
    the powers of x are walked.  If x only generates a subgroup H of index
    s > 1, the first g in code order that passes the order test gives the
    cosets g^i H, i < s, each walked by x: with g^s = x^w, g^i x^k = g^(i + sk/w).
    """
    order = p**D - 1
    red = [-c % p for c in modulus[:-1]]  # x^D = sum of red[i] x^i

    def times_x(a):
        return [a[-1] * red[0] % p] + [(c + a[-1] * r) % p for c, r in zip(a, red[1:])]

    def mul(a, b):
        out = [0] * D
        for c in b:
            out = [(s + c * t) % p for s, t in zip(out, a)]
            a = times_x(a)
        return out

    def power(a, n):
        out = one
        for bit in bin(n)[2:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, a)
        return out

    one = _coeffs(p ** (D - 1), p, D)
    primes = [l for l in range(2, order + 1) if order % l == 0 and is_prime(l)]
    g = next(
        a for a in (_coeffs(c, p, D) for c in range(1, order + 1))
        if all(power(a, order // l) != one for l in primes)
    )
    # over F_p, x may be 0: walk by g instead
    step = times_x if D > 1 else (lambda a: mul(a, g))
    walk = [one]
    while (a := step(walk[-1])) != one:
        walk.append(a)
    r, s = len(walk), order // len(walk)
    if s == 1:
        return [_code(a, p, D) for a in walk]
    x_log = {_code(a, p, D): k for k, a in enumerate(walk)}
    log_x = s * pow(x_log[_code(power(g, s), p, D)], -1, r)
    codes = [0] * order
    g_i = one
    for i in range(s):
        a = g_i
        for k in range(r):
            codes[(i + log_x * k) % order] = _code(a, p, D)
            a = times_x(a)
        g_i = mul(g_i, g)
    return codes


# The largest ambient field is GF(p^D) with p^D <= 2^_MAX_FIELD_BITS: the
# budget of the tables every context builds, one entry per element.
_MAX_FIELD_BITS = 16


def _field_key(p, e, D, modulus):
    """(p, e, D, modulus) with the modulus as a tuple of residues, the
    smallest irreducible standing in for None; ValueError for a field out of
    range or a modulus of the wrong shape.  Irreducibility is left to the
    build."""
    if e < 1 or D < 1 or D % e != 0:
        raise ValueError(f"need 1 <= e | D, got e={e}, D={D}")
    # D first: p >= 2 for any field, so D > _MAX_FIELD_BITS is already
    # too large, and p**D is formed only for D <= _MAX_FIELD_BITS
    if D > _MAX_FIELD_BITS or p**D > 2**_MAX_FIELD_BITS:
        raise ValueError(f"field size p^D must be at most 2^{_MAX_FIELD_BITS}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if modulus is None:
        return p, e, D, smallest_irreducible(p, D)
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) != D + 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree D")
    return p, e, D, modulus


def per_field(build):
    "build(ctx, *args), never None, made once and kept in the context's memo: freed with it."
    def cached(ctx, *args):
        key = (build, *args)
        if (found := ctx._memo.get(key)) is None:
            found = ctx._memo[key] = build(ctx, *args)
        return found
    return wraps(build)(cached)


# The live contexts by _field_key: FieldCtx(...) returns the one already
# built for a field while anything still holds it.
_LIVE = weakref.WeakValueDictionary()


class FieldCtx:
    """The ambient field GF(p^D) together with k = GF(p^e) sitting inside it.

    D must be a multiple of e and p^D at most 2^16.  The modulus defaults to
    the lexicographically smallest monic irreducible of degree D; a
    caller-supplied modulus is verified irreducible.

    There is one live context per field per process: FieldCtx(...) returns
    the context already built for (p, e, D, modulus), the default modulus
    included, so equal contexts are the same object, equality is identity,
    and so are their elements.  The tables are built once, by the first
    call; a call that raises builds and keeps nothing.  Unpickling, in a
    worker process too, returns that process's live context.  What
    @per_field functions build for the field is kept on it and freed with it.
    """

    def __new__(cls, p, e, D, modulus=None):
        key = _field_key(p, e, D, modulus)
        ctx = _LIVE.get(key)
        if ctx is None:
            ctx = super().__new__(cls)
            ctx.p, ctx.e, ctx.D, ctx.modulus = key
        return ctx

    def __init__(self, p, e, D, modulus=None):
        "Build the tables of a new context, whose key __new__ has set."
        if hasattr(self, "_els"):
            return  # a live context, built before
        # the default modulus is irreducible by construction
        if modulus is not None and not _poly_is_irreducible(self.modulus, p):
            raise ValueError("modulus is not irreducible over F_p")
        modulus = self.modulus
        self.q = p**e
        self._order = order = p**D - 1
        # nonzero logs lie in range(order) and zero's is 2*order, so a sum of
        # two logs indexes _antilog: g^(sum) below 2*order, zero from there on
        codes = _primitive_powers(p, D, modulus)
        log = [2 * order] * (order + 1)
        for i, c in enumerate(codes):
            log[c] = i
        self._els = tuple(Element(self, c, log[c]) for c in range(order + 1))
        top = p ** (D - 1)  # the code of 1
        self.zero, self.one = self._els[0], self._els[top]
        self._antilog = [self._els[c] for c in codes] * 2 + [self.zero] * (2 * order + 1)
        # 1 + a adds 1 to a's most significant digit
        self._zech = [log[c + top if c < (p - 1) * top else c - (p - 1) * top] for c in codes]
        # -1 = g^half; 1 - g^n = 1 + g^(n + half)
        self._half = order // 2 if p > 2 else 0
        self._zech_minus = self._zech[self._half:] + self._zech[: self._half]
        self._inv_q = pow(self.q, D // e - 1, order)
        self._memo = {}
        self.k_elements = self.subfield_elements(1)
        _LIVE[p, e, D, modulus] = self

    def element(self, coeffs):
        "Element from an iterable of up to D residues (low degree first)."
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) > self.D:
            raise ValueError("too many coefficients")
        return self._els[_code(coeffs, self.p, self.D)]

    def from_int(self, n):
        "The image of the integer n, i.e. n * 1."
        return self.element((n,))

    def elements(self):
        "All p^D elements, sorted by coefficient tuple."
        return list(self._els)

    def frobenius(self, a):
        "a^q: the log times q."
        return self._antilog[a.log * self.q % self._order] if a.code else a

    def inv_frobenius(self, a):
        "The inverse of a -> a^q on GF(p^D): the log times q^(D/e - 1)."
        return self._antilog[a.log * self._inv_q % self._order] if a.code else a

    def in_subfield(self, a, m):
        "Whether a lies in k_m, a^(q^m) = a: whether log * (q^m - 1) = 0 mod p^D - 1."
        order = self._order
        return not a.code or a.log * (pow(self.q, m, order) - 1) % order == 0

    @per_field
    def subfield_elements(self, m):
        "All q^m elements of k_m, sorted: 0 and the powers of g^((p^D-1)/(q^m-1))."
        if self.D % (m * self.e) != 0:
            raise ValueError(f"k_{m} does not embed in GF({self.p}^{self.D})")
        step = self._order // (self.q**m - 1)
        return tuple(sorted([self.zero] + self._antilog[: self._order : step]))

    def __reduce__(self):
        return (FieldCtx, (self.p, self.e, self.D, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, D={self.D})"


class Element:
    """An element of GF(p^D): its code and its log over the context's
    primitive element.  Each context holds exactly one Element per code, so
    equality and hashing are identity, and elements of two fields never
    compare equal; codes only order them."""

    __slots__ = ("ctx", "code", "log")

    def __init__(self, ctx, code, log):
        self.ctx = ctx
        self.code = code
        self.log = log

    @property
    def coeffs(self):
        "The coefficients in the power basis, low degree first."
        return tuple(_coeffs(self.code, self.ctx.p, self.ctx.D))

    def __add__(self, other):
        if not (self.code and other.code):
            return other if other.code else self
        i = self.log
        return self.ctx._antilog[i + self.ctx._zech[other.log - i]]

    def __sub__(self, other):
        if not (self.code and other.code):
            return -other if other.code else self
        i = self.log
        return self.ctx._antilog[i + self.ctx._zech_minus[other.log - i]]

    def __neg__(self):
        return self.ctx._antilog[self.log + self.ctx._half]

    def __mul__(self, other):
        return self.ctx._antilog[self.log + other.log]

    def __pow__(self, n):
        if self.code:
            return self.ctx._antilog[self.log * n % self.ctx._order]
        if n < 0:
            raise ZeroDivisionError("inverse of zero")
        return self if n else self.ctx.one

    def inverse(self):
        "The multiplicative inverse: the log negated."
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        return self.ctx._antilog[self.ctx._order - self.log]

    def __truediv__(self, other):
        return self * other.inverse()

    def __bool__(self):
        return self.code != 0

    def __lt__(self, other):
        return self.code < other.code

    def __reduce__(self):
        return (_interned_element, (self.ctx, self.code))

    def __repr__(self):
        coeffs = self.coeffs
        if all(c == 0 for c in coeffs[1:]):
            return str(coeffs[0])
        return "poly" + str(_poly_trim(coeffs))


def _interned_element(ctx, code):
    "The element of ctx with this code: how an Element unpickles."
    return ctx._els[code]


def field_make(p, e, lcm_degrees):
    """Ambient context for k = GF(p^e) and all extensions k_m, m | lcm_degrees.

    D = e * lcm_degrees, modulus the lexicographically smallest monic
    irreducible of degree D over F_p.
    """
    if lcm_degrees < 1:
        raise ValueError("lcm_degrees must be >= 1")
    return FieldCtx(p, e, e * lcm_degrees)


def context_for(p, e, n_plus_1, m_list):
    """The ambient field for V = k^(n+1) over the extensions k_m, m in
    m_list: the smallest one containing them all, D = e * lcm(m_list).

    Nothing needs more.  Points, their twists and the scalars lambda of a
    stabilizer block all lie in k_m; whether lambda lies in some k_d is a
    fixed-point test, exact in any field containing k_m; and ranks over k_m
    do not depend on the field they are computed in.  n_plus_1 is kept for
    callers and does not enter D."""
    return field_make(p, e, math.lcm(*m_list))


def frobenius_k(a):
    "The Frobenius a -> a^q relative to the base field k."
    return a.ctx.frobenius(a)


def subfield_degree(a, m):
    "Minimal d | m with a^(q^d) = a; requires a in k_m."
    if not a.ctx.in_subfield(a, m):
        raise ValueError("element does not lie in k_m")
    for d in sorted(_divisors(m)):
        if a.ctx.in_subfield(a, d):
            return d
    raise AssertionError("unreachable: m itself always works")


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]
