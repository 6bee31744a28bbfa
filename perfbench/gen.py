"""Seeded input generator for the benchmark's workloads.

It runs in a process of its own before the measured one starts, so the
library caches it fills stay out of the measured set-up time.  It writes
inputs.json, and for classify one point file per request, into --out.
The same seed gives the same files.

    python3 perfbench/gen.py --workload classify --seed 3 --out DIR --src src
"""

import argparse
import json
import os
import random
import sys

import oracle

# (variety, q, n+1, m) grid of the atlas workload.  B at n+1 = 4 is left
# out: its cold count alone takes about 37 s, more than one run may last.
# The small grid at n+1 = 2 puts the median request inside a dense block of
# requests instead of on the edge of one.
ATLAS_GRID = (
    [(v, 2, 3, m) for v in "PQB" for m in (1, 2, 3)]
    + [(v, 3, 2, m) for v in "PQB" for m in (1, 2, 3)]
    + [(v, 3, 3, 1) for v in "PQB"]
    + [(v, 2, 4, m) for v in "PQ" for m in (1, 2)]
    + [(v, 2, 2, m) for v in "PQB" for m in (1, 2, 3)]
)

# Complete input sets of the stabilizer workload: Burnside's lemma needs all
# points of a (variety, q, n+1, m).  The mix puts the median request inside
# the 73 P points at (2, 3, 3) and the tail percentile inside the 21 B points
# at (2, 3, 1), so neither lands on the edge between two kinds of request.
STABILIZER_SETS = (
    [(v, 2, 3, 1) for v in "PQB"]
    + [("P", 2, 3, 3)]
    + [(v, 3, 2, m) for m in (1, 2) for v in "PQB"]
)

CLASSIFY_FULL = ((2, 3, 2), (3, 2, 2))  # every P, Q and B point
# Sampled B points at (q=2, n+1=4, m=1): enough that the tail percentile
# falls inside them.
CLASSIFY_B4_VALID = 20
CLASSIFY_B4_PERTURBED = 6
CLASSIFY_PERTURBED = 20  # perturbed Q and B inputs per (q, n+1, m) above


def atlas_inputs(rng):
    grid = [{"variety": v, "q": q, "n_plus_1": n1, "m": m} for v, q, n1, m in ATLAS_GRID]
    rng.shuffle(grid)
    return {"grid": grid}


def stabilizer_inputs(rng, dr):
    sets = []
    errors = []
    enum = {"P": dr.points.p_enumerate, "Q": dr.points.q_enumerate, "B": dr.points.b_enumerate}
    for v, q, n1, m in STABILIZER_SETS:
        ctx = dr.field.context_for(q, 1, n1, [m])
        pts = enum[v](ctx, n1, m)
        if len(pts) != oracle.variety_total(v, q, n1, m):
            errors.append(f"{v} at q={q} n+1={n1} m={m}: {len(pts)} points enumerated")
        sets.append({
            "variety": v, "q": q, "n_plus_1": n1, "m": m,
            "points": [dr.points.point_to_obj(x) for x in pts],
        })
    order = [(s, i) for s, st in enumerate(sets) for i in range(len(st["points"]))]
    rng.shuffle(order)
    return {"sets": sets, "order": order, "errors": errors}


def _family_key(family_obj):
    "A B point's JSON family as a hashable key."
    return tuple(tuple(map(tuple, family_obj[k])) for k in sorted(family_obj))


def _table_key(table, vectors):
    "Values of a raw Q table scaled so its first nonzero value is 1."
    lead = next((table[v] for v in vectors if table[v]), None)
    if lead is None:
        return None
    inv = lead.inverse()
    return tuple((inv * table[v]).coeffs for v in vectors)


def _add(stream, obj, expect):
    "Append a classify request: (file body, expected answer)."
    stream.append((json.dumps(obj, sort_keys=True), expect))


def _classify_full(stream, rng, dr, q, n1, m, errors):
    """Every P, Q and B point at (q, n+1, m), and perturbed Q and B inputs
    judged by membership in the enumerated sets."""
    P, L = dr.points, dr.linalg
    ctx = dr.field.context_for(q, 1, n1, [m])
    vectors = P.canonical_vectors(n1, ctx)
    key_of = {
        frozenset(S.nonzero_vectors(ctx)): P.subspace_str(S, ctx)
        for S in L.all_subspaces(n1, ctx)
    }
    # P: the stratum is the rational kernel, found by evaluating at every
    # k-rational vector.
    per_key = {}
    for coords in P.enumerate_functionals(n1, ctx, m):
        ker = frozenset(v for v in vectors if not L.apply_functional(coords, v))
        key = key_of[ker]
        per_key[key] = per_key.get(key, 0) + 1
        _add(stream, P.point_to_obj(P.PPoint(ctx, coords)),
                   {"exit": 0, "variety": "P", "valid": True, "stratum": key})
    for key, n in per_key.items():
        if n != oracle.stratum_count("P", key, q, n1, m):
            errors.append(f"P stratum {key} at q={q} n+1={n1} m={m} has {n} functionals")
    # Q: the stratum is the support the point was built on.
    q_members = {}
    q_points = []
    for sub in L.all_subspaces(n1, ctx, include_zero=False):
        key = P.subspace_str(sub, ctx)
        pts = P.q_enumerate_stratum(sub, ctx, m)
        if len(pts) != oracle.stratum_count("Q", key, q, n1, m):
            errors.append(f"Q stratum {key} at q={q} n+1={n1} m={m} has {len(pts)} points")
        for x in pts:
            q_members[_table_key(x.table, vectors)] = key
            q_points.append(x)
            _add(stream, P.point_to_obj(x), {"exit": 0, "variety": "Q", "valid": True, "stratum": key})
    # B: the stratum is the flag the point was built on.
    b_members = {}
    b_points = []
    for flag in L.enumerate_flags(n1, ctx):
        key = P.flag_str(flag, ctx)
        pts = P.b_enumerate_flag(flag, ctx, m)
        if len(pts) != oracle.stratum_count("B", key, q, n1, m):
            errors.append(f"B stratum {key} at q={q} n+1={n1} m={m} has {len(pts)} points")
        for x in pts:
            obj = P.point_to_obj(x)
            b_members[_family_key(obj["data"]["family"])] = key
            b_points.append(obj)
            _add(stream, obj, {"exit": 0, "variety": "B", "valid": True, "stratum": key})
    els = ctx.subfield_elements(m)
    for _ in range(CLASSIFY_PERTURBED):
        x = rng.choice(q_points)
        table = dict(x.table)
        v = rng.choice(vectors)
        table[v] = rng.choice([a for a in els if a != table[v]])
        key = q_members.get(_table_key(table, vectors))
        obj = {
            "kind": "Q", "field": P.field_to_obj(ctx),
            "data": {"n_plus_1": n1,
                     "table": {P.vector_str(w, ctx): list(val.coeffs) for w, val in table.items()}},
        }
        expect = {"exit": 0, "variety": "Q", "valid": key is not None}
        if key is not None:
            expect["stratum"] = key
        _add(stream, obj, expect)
    for _ in range(CLASSIFY_PERTURBED):
        obj = json.loads(json.dumps(rng.choice(b_points)))
        family = obj["data"]["family"]
        wkey = rng.choice(sorted(k for k in family if oracle.subspace_key_dim(k, n1) >= 2))
        current = family[wkey]
        choices = [
            [list(a.coeffs) for a in c]
            for c in P.enumerate_functionals(len(current), ctx, m)
        ]
        family[wkey] = rng.choice([c for c in choices if c != current])
        key = b_members.get(_family_key(family))
        expect = {"exit": 0, "variety": "B", "valid": key is not None}
        if key is not None:
            expect["stratum"] = key
        _add(stream, obj, expect)
    return ctx


def _random_complete_flag(rng, dr, ctx, n1):
    L = dr.linalg
    vecs = dr.points.canonical_vectors(n1, ctx)
    members = []
    span = L.Subspace.zero(n1)
    rows = []
    while len(rows) < n1 - 1:
        v = rng.choice(vecs)
        if span.contains_vector(v):
            continue
        rows.append(v)
        span = L.Subspace.span(n1, rows)
        members.append(span)
    return L.Flag(n1, members)


def _classify_b4(stream, rng, dr):
    """Sampled B points at (q=2, n+1=4, m=1), and perturbed ones that the
    construction makes invalid: l_W is replaced by another normalized
    functional, with dim W >= 2 and W not inside the largest flag member, so
    the restriction of l_V to W is nonzero and no longer proportional."""
    P = dr.points
    n1 = 4
    ctx = dr.field.context_for(2, 1, n1, [1])
    one = (ctx.one,)
    seen = set()
    valid = []
    while len(valid) < CLASSIFY_B4_VALID + CLASSIFY_B4_PERTURBED:
        flag = _random_complete_flag(rng, dr, ctx, n1)
        key = P.flag_str(flag, ctx)
        if key in seen:
            continue
        seen.add(key)
        x = P.b_from_flag_data(flag, [one] * n1, ctx)
        valid.append((flag, key, x))
    for flag, key, x in valid[:CLASSIFY_B4_VALID]:
        _add(stream, P.point_to_obj(x), {"exit": 0, "variety": "B", "valid": True, "stratum": key})
    for flag, key, x in valid[CLASSIFY_B4_VALID:]:
        largest = flag.largest
        cands = sorted(
            (W for W in x.family if 2 <= W.dim < n1 and not largest.contains(W)),
            key=lambda W: W.sort_key(),
        )
        W = rng.choice(cands)
        current = x.family[W]
        repl = rng.choice([c for c in P.enumerate_functionals(W.dim, ctx, 1) if c != current])
        family = dict(x.family)
        family[W] = repl
        bad = P.BPoint(ctx, n1, family, validate=False)
        _add(stream, P.point_to_obj(bad), {"exit": 0, "variety": "B", "valid": False})
    return ctx


def classify_inputs(rng, dr, out_dir):
    stream = []
    errors = []
    ctxs = [_classify_full(stream, rng, dr, q, n1, m, errors) for q, n1, m in CLASSIFY_FULL]
    ctxs.append(_classify_b4(stream, rng, dr))
    P = dr.points
    ctx = ctxs[0]
    fld = P.field_to_obj(ctx)
    zero = [[0] * ctx.D] * 3
    # bad inputs that must give exit 2 and one "error:" line
    stream.append(('{"kind": "P", "field": {"p": 2, "e": 1,', {"exit": 2}))
    _add(stream, {"kind": "P", "field": fld, "data": {"coords": zero}}, {"exit": 2})
    _add(stream, {"kind": "R", "field": fld, "data": {}}, {"exit": 2})
    rng.shuffle(stream)
    requests = []
    in_dir = os.path.join(out_dir, "in")
    os.makedirs(in_dir)
    for i, (body, expect) in enumerate(stream):
        path = os.path.join(in_dir, f"{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        requests.append({"file": path, "expect": expect})
    # Inputs that raise out of cli.main today instead of exiting 2.  They
    # are probed once per run, outside the timed stream.
    probes = []
    coords = [[1] + [0] * (ctx.D - 1)] * 3
    for what, obj in (
        ("missing field key", {"kind": "P", "data": {"coords": coords}}),
        ("non-object top level", [{"kind": "P", "field": fld, "data": {"coords": coords}}]),
    ):
        path = os.path.join(in_dir, f"probe{len(probes)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        probes.append({"file": path, "what": what})
    fields = [P.field_to_obj(c) for c in ctxs]
    return {"requests": requests, "probes": probes, "fields": fields, "errors": errors}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("atlas", "stabilizer", "classify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True, help="directory holding the drinfeld package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import drinfeld as dr

    rng = random.Random(args.seed)
    if args.workload == "atlas":
        inputs = atlas_inputs(rng)
    elif args.workload == "stabilizer":
        inputs = stabilizer_inputs(rng, dr)
    else:
        inputs = classify_inputs(rng, dr, args.out)
    inputs["workload"] = args.workload
    inputs["seed"] = args.seed
    inputs.setdefault("errors", [])
    with open(os.path.join(args.out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
