"""Exact arithmetic in one ambient field GF(p^D).

The base field k = GF(q), q = p^e, and every working extension k_m of
degree m over k (with m*e dividing D) live inside a single quotient ring
GF(p^D) = F_p[x]/(modulus).  Subfields are never materialised as separate
towers: membership in k_m is the Frobenius fixed-point test a^(q^m) = a.

Elements are dense coefficient vectors with respect to the power basis
1, x, ..., x^(D-1).  No discrete-log tables; all products are polynomial
products reduced mod (modulus, p).
"""

import math
from functools import lru_cache
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


def _poly_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2.

    Feasible at desk scale; degree-1 polynomials are irreducible outright.
    """
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = tuple(tail) + (1,)
            if not _poly_divmod(poly, den, p)[1]:
                return False
    return True


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


# The largest ambient field is GF(p^D) with p^D <= 2^_MAX_FIELD_BITS.  Above
# it, primality and irreducibility by trial division stop being cheap.
_MAX_FIELD_BITS = 24


class FieldCtx:
    """The ambient field GF(p^D) together with k = GF(p^e) sitting inside it.

    D must be a multiple of e and p^D at most 2^24.  The modulus
    defaults to the lexicographically smallest monic irreducible of degree
    D; a caller-supplied modulus is verified irreducible.
    """

    def __init__(self, p, e, D, modulus=None):
        if e < 1 or D < 1 or D % e != 0:
            raise ValueError(f"need 1 <= e | D, got e={e}, D={D}")
        # D first: p >= 2 for any field, so D > _MAX_FIELD_BITS is already
        # too large, and p**D is formed only for D <= _MAX_FIELD_BITS
        if D > _MAX_FIELD_BITS or p**D > 2**_MAX_FIELD_BITS:
            raise ValueError(f"field size p^D must be at most 2^{_MAX_FIELD_BITS}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if modulus is None:
            modulus = smallest_irreducible(p, D)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != D + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree D")
            if not _poly_is_irreducible(modulus, p):
                raise ValueError("modulus is not irreducible over F_p")
        self.p = p
        self.e = e
        self.D = D
        self.q = p**e
        self.modulus = modulus
        # x^(D+t) mod modulus, for t = 0..D-2: enough to reduce any product.
        red = []
        cur = tuple((-c) % p for c in modulus[:-1])
        red.append(cur)
        for _ in range(D - 2):
            nxt = [0] * D
            for i, c in enumerate(cur[: D - 1]):
                nxt[i + 1] = c
            top = cur[D - 1]
            if top:
                for i, c in enumerate(red[0]):
                    nxt[i] = (nxt[i] + top * c) % p
            cur = tuple(nxt)
            red.append(cur)
        self._reduction = tuple(red)
        self.zero = Element(self, (0,) * D)
        self.one = Element(self, (1,) + (0,) * (D - 1))
        # a -> a^q is F_p-linear; tabulate the images of the power basis.
        self._frob_basis = tuple(
            self._reduce_powers({j * self.q: 1}) for j in range(D)
        )
        self._inv_cache = {}

    def _reduce_powers(self, sparse):
        "Reduce a sparse {exponent: coeff} polynomial mod (modulus, p)."
        out = [0] * self.D
        pending = dict(sparse)
        while pending:
            exp, c = pending.popitem()
            c %= self.p
            if not c:
                continue
            if exp < self.D:
                out[exp] = (out[exp] + c) % self.p
            elif exp - self.D < len(self._reduction):
                for i, r in enumerate(self._reduction[exp - self.D]):
                    if r:
                        out[i] = (out[i] + c * r) % self.p
            else:
                # split exponent; only needed while tabulating x^(jq)
                half = exp // 2
                a = self._reduce_powers({half: 1})
                b = self._reduce_powers({exp - half: 1})
                prod = self._mul_coeffs(a, b)
                for i, r in enumerate(prod):
                    if r:
                        out[i] = (out[i] + c * r) % self.p
        return tuple(out)

    def _mul_coeffs(self, a, b):
        p, D = self.p, self.D
        conv = [0] * (2 * D - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = [c % p for c in conv[:D]]
        for t in range(D - 1):
            c = conv[D + t] % p
            if c:
                for i, r in enumerate(self._reduction[t]):
                    if r:
                        out[i] = (out[i] + c * r) % p
        return tuple(out)

    def element(self, coeffs):
        "Element from an iterable of up to D residues (low degree first)."
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.D:
            raise ValueError("too many coefficients")
        return Element(self, coeffs + (0,) * (self.D - len(coeffs)))

    def from_int(self, n):
        "The image of the integer n, i.e. n * 1."
        return self.element((n,))

    def elements(self):
        "All p^D elements, sorted by coefficient tuple."
        return [
            Element(self, tail) for tail in product(range(self.p), repeat=self.D)
        ]

    def frobenius(self, a):
        "a^q, computed as an F_p-linear map via the tabulated basis images."
        out = [0] * self.D
        for j, c in enumerate(a.coeffs):
            if c:
                for i, r in enumerate(self._frob_basis[j]):
                    if r:
                        out[i] = (out[i] + c * r) % self.p
        return Element(self, tuple(out))

    def inv_frobenius(self, a):
        "The inverse of a -> a^q on GF(p^D); frobenius iterated D/e - 1 times."
        for _ in range(self.D // self.e - 1):
            a = self.frobenius(a)
        return a

    def in_subfield(self, a, m):
        "Whether a lies in k_m, i.e. is fixed by m applications of a -> a^q."
        b = a
        for _ in range(m):
            b = self.frobenius(b)
        return b == a

    @lru_cache(maxsize=None)
    def subfield_elements(self, m):
        """All q^m elements of k_m, sorted; requires m*e | D.

        Computed as the F_p-kernel of (Frob^m - id), not by scanning GF(p^D).
        """
        if self.D % (m * self.e) != 0:
            raise ValueError(f"k_{m} does not embed in GF({self.p}^{self.D})")
        p, D = self.p, self.D
        cols = []
        for j in range(D):
            v = [0] * D
            v[j] = 1
            a = Element(self, tuple(v))
            for _ in range(m):
                a = self.frobenius(a)
            col = list(a.coeffs)
            col[j] = (col[j] - 1) % p
            cols.append(col)
        # kernel of the D x D matrix with the above columns, over F_p
        rows = [[cols[j][i] for j in range(D)] for i in range(D)]
        basis = _int_kernel_mod_p(rows, p)
        elems = set()
        for combo in product(range(p), repeat=len(basis)):
            acc = [0] * D
            for c, vec in zip(combo, basis):
                if c:
                    for i, v in enumerate(vec):
                        acc[i] = (acc[i] + c * v) % p
            elems.add(Element(self, tuple(acc)))
        out = sorted(elems, key=lambda a: a.coeffs)
        assert len(out) == self.q**m
        return tuple(out)

    @property
    def k_elements(self):
        return self.subfield_elements(1)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.D, self.modulus)
            == (other.p, other.e, other.D, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.D, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, D={self.D})"


class Element:
    """An element of GF(p^D) as a dense coefficient vector; immutable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    def __add__(self, other):
        p = self.ctx.p
        return Element(
            self.ctx,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        p = self.ctx.p
        return Element(
            self.ctx,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        p = self.ctx.p
        return Element(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        return Element(self.ctx, self.ctx._mul_coeffs(self.coeffs, other.coeffs))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        "Multiplicative inverse by the extended Euclidean algorithm."
        if not self:
            raise ZeroDivisionError("inverse of zero")
        cached = self.ctx._inv_cache.get(self.coeffs)
        if cached is not None:
            return cached
        p = self.ctx.p
        r0, r1 = self.ctx.modulus, _poly_trim(self.coeffs)
        s0, s1 = (), (1,)
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            # s = s0 - q*s1
            s = list(s0) + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s[i + j] = (s[i + j] - qi * sj) % p
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        # r0 is a nonzero constant gcd
        c = pow(r0[0], p - 2, p)
        inv = self.ctx.element(tuple((c * si) % p for si in s0))
        self.ctx._inv_cache[self.coeffs] = inv
        return inv

    def __truediv__(self, other):
        return self * other.inverse()

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return self.coeffs < other.coeffs

    def __reduce__(self):
        return (Element, (self.ctx, self.coeffs))

    def __repr__(self):
        if all(c == 0 for c in self.coeffs[1:]):
            return str(self.coeffs[0])
        return "poly" + str(_poly_trim(self.coeffs))


def _int_rref_mod_p(rows, p):
    """Gauss-Jordan elimination of an integer matrix mod p.

    Returns (the nonzero reduced rows, their pivot columns), entries in
    range(p).
    """
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(inv * v) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _int_kernel_mod_p(rows, p):
    "Basis of the right kernel of an integer matrix mod p, as int vectors."
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = _int_rref_mod_p(rows, p)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-ech[i][f]) % p
        basis.append(vec)
    return basis


def field_make(p, e, lcm_degrees):
    """Ambient context for k = GF(p^e) and all extensions k_m, m | lcm_degrees.

    D = e * lcm_degrees, modulus the lexicographically smallest monic
    irreducible of degree D over F_p.
    """
    if lcm_degrees < 1:
        raise ValueError("lcm_degrees must be >= 1")
    return FieldCtx(p, e, e * lcm_degrees)


def context_for(p, e, n_plus_1, m_list):
    """The ambient field needed to work with V = k^(n+1) over the given
    extensions: it must contain every k_m and every k_d with d <= n+1
    (eigenvalues of stabilizer blocks live there)."""
    degrees = 1
    for d in range(1, n_plus_1 + 1):
        degrees = math.lcm(degrees, d)
    for m in m_list:
        degrees = math.lcm(degrees, m)
    return field_make(p, e, degrees)


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
