"""Closed-form oracles that the benchmark checks the program's answers against.

Nothing here enumerates points or calls into the library.  Counts are
products over the dimensions that a stratum key spells out, so every check
depends only on q, n+1 and m, and stays valid when the ambient degree D or
the modulus of the field changes.
"""

import math


def omega_count(d, q, m):
    """|Omega^d(k_m)|: normalized functionals of length d over k_m whose
    k-rational kernel is trivial, prod_{i<d} (q^m - q^i) / (q^m - 1)."""
    if d < 1:
        raise ValueError("Omega^d needs d >= 1")
    qm = q**m
    num = 1
    for i in range(d):
        num *= qm - q**i
    return num // (qm - 1)


def gauss_binomial(n, d, q):
    "Number of d-dimensional subspaces of F_q^n."
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (d - i) - 1
    return num // den


def pgl_order(n_plus_1, q):
    "|PGL(n+1, q)| = |GL(n+1, q)| / (q - 1)."
    order = 1
    for i in range(n_plus_1):
        order *= q**n_plus_1 - q**i
    return order // (q - 1)


def p_part(n, p):
    "Largest power of p dividing n."
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def compositions(n):
    "All ordered tuples of positive integers summing to n."
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def flag_type_count(n_plus_1, members_dims, q):
    "Number of flags of F_q^(n+1) whose members have the given ascending dims."
    count = 1
    prev = n_plus_1
    for d in reversed(members_dims):
        count *= gauss_binomial(prev, d, q)
        prev = d
    return count


def subspace_key_dim(key, n_plus_1):
    "Dimension spelled out by a subspace key ('0' or rows joined by ';')."
    if key == "0":
        return 0
    rows = key.split(";")
    for row in rows:
        if len(row.split(",")) != n_plus_1:
            raise ValueError(f"row {row!r} of key {key!r} has the wrong length")
    return len(rows)


def flag_key_dims(key, n_plus_1):
    "Ascending member dimensions of a flag key ('()' or members joined by '<')."
    if key == "()":
        return ()
    dims = tuple(subspace_key_dim(member, n_plus_1) for member in key.split("<"))
    if any(b <= a for a, b in zip(dims, dims[1:])) or dims[0] < 1 or dims[-1] > n_plus_1 - 1:
        raise ValueError(f"flag key {key!r} is not a chain of proper nonzero subspaces")
    return dims


def key_type(variety, key, n_plus_1):
    "The stratum type a key spells out: a dimension (P, Q) or a dims tuple (B)."
    if variety == "B":
        return flag_key_dims(key, n_plus_1)
    return subspace_key_dim(key, n_plus_1)


def type_count(variety, typ, q, n_plus_1, m):
    """Number of k_m-points in one stratum of the given type.

    P: functionals vanishing exactly on a subspace of dim typ, i.e. dense
    functionals on the quotient.  Q: dense functionals on a support of dim
    typ.  B: one dense functional on each quotient of the flag's chain.
    """
    if variety == "P":
        return omega_count(n_plus_1 - typ, q, m)
    if variety == "Q":
        return omega_count(typ, q, m)
    dims = (0,) + typ + (n_plus_1,)
    return math.prod(omega_count(hi - lo, q, m) for lo, hi in zip(dims, dims[1:]))


def stratum_count(variety, key, q, n_plus_1, m):
    "Number of k_m-points in the stratum named by key."
    return type_count(variety, key_type(variety, key, n_plus_1), q, n_plus_1, m)


def strata_by_type(variety, q, n_plus_1):
    "{stratum type: number of strata of that type}, from Gaussian binomials."
    if variety == "P":
        return {d: gauss_binomial(n_plus_1, d, q) for d in range(n_plus_1)}
    if variety == "Q":
        return {d: gauss_binomial(n_plus_1, d, q) for d in range(1, n_plus_1 + 1)}
    out = {}
    for comp in compositions(n_plus_1):
        dims = tuple(sum(comp[: i + 1]) for i in range(len(comp) - 1))
        out[dims] = flag_type_count(n_plus_1, dims, q)
    return out


def variety_total(variety, q, n_plus_1, m):
    "Total number of k_m-points of the variety."
    return sum(
        n_strata * type_count(variety, typ, q, n_plus_1, m)
        for typ, n_strata in strata_by_type(variety, q, n_plus_1).items()
    )


def check_count(variety, q, n_plus_1, m, obj):
    """Errors in a `count --format json` answer, checked against the closed forms.

    The keys must be exactly as many, per stratum type, as there are strata
    of that type; every per-stratum count must equal its product formula;
    the total must equal the sum of the formulas over all strata.  For P the total is also the size of
    projective space, (q^(m(n+1)) - 1)/(q^m - 1).
    """
    errors = []
    if (obj.get("variety"), obj.get("q"), obj.get("n")) != (variety, q, n_plus_1 - 1):
        errors.append(f"header {obj.get('variety')},{obj.get('q')},{obj.get('n')} is wrong")
    strata = obj.get("strata", {})
    seen = {}
    for key, per_m in strata.items():
        try:
            typ = key_type(variety, key, n_plus_1)
            want = type_count(variety, typ, q, n_plus_1, m)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        seen[typ] = seen.get(typ, 0) + 1
        got = per_m.get(str(m))
        if got != want:
            errors.append(f"{variety} stratum {key}: count {got}, closed form {want}")
    if seen != strata_by_type(variety, q, n_plus_1):
        errors.append(f"{variety} strata per type {seen} do not match the Gaussian binomials")
    want_total = variety_total(variety, q, n_plus_1, m)
    if variety == "P" and want_total != (q ** (m * n_plus_1) - 1) // (q**m - 1):
        errors.append("P total does not fill projective space")
    if obj.get("totals", {}).get(str(m)) != want_total:
        errors.append(f"total {obj.get('totals')} != closed form {want_total}")
    return errors


def dot_node_keys(text):
    "Node keys declared in a DOT export (lines '  \"key\" [label=...];')."
    keys = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith('"') and "[label=" in line and "->" not in line:
            keys.append(line[1 : line.index('" [label=')].replace('\\"', '"').replace("\\\\", "\\"))
    return keys
