"""Stratification atlases: nodes, closure order, and point counts.

An atlas for one of the three varieties holds the stratum keys (subspaces
for P and Q, flags for B), the closure relation between strata, and the
number of points in each stratum over every requested extension k_m.
A request past the desk-scale bounds of `counts` is refused before anything
is built.  Counts come from full enumeration plus classification, or from a
cache file whose counts equal the closed forms of `counts`; a fresh count
that differs from them raises InvariantViolation.

Exports are byte-deterministic: identical inputs give identical bytes,
independent of the worker count used for counting.
"""

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

from .counts import MAX_JOBS, check_desk_scale, stratum_total, variety_total
from .errors import InvariantViolation
from .linalg import _subspace_order, all_subspaces, enumerate_flags
from .points import (
    b_enumerate_flag,
    enumerate_functionals,
    flag_str,
    p_classify,
    q_classify,
    q_enumerate_stratum,
    subspace_str,
    PPoint,
)

SCHEMA_VERSION = 1
VARIETIES = ("P", "Q", "B")


class StrataAtlas:
    """Stratification data for one variety at fixed (q, n+1).

    nodes: list of (key string, stratum dimension index) in canonical order.
    closure: list of key-string pairs (a, b) with stratum b contained in the
    closure of stratum a.  counts: {m: {key string: count}}.
    """

    def __init__(self, variety, ctx, n_plus_1, nodes, closure, counts):
        self.variety = variety
        self.ctx = ctx
        self.n_plus_1 = n_plus_1
        self.nodes = nodes
        self.closure = closure
        self.counts = counts

    @property
    def q(self):
        return self.ctx.q

    @property
    def n(self):
        return self.n_plus_1 - 1

    def total(self, m):
        return sum(self.counts[m].values())


def _node_objects(variety, n_plus_1, ctx):
    if variety == "P":
        return all_subspaces(n_plus_1, ctx, include_zero=True, include_full=False)
    if variety == "Q":
        return all_subspaces(n_plus_1, ctx, include_zero=False, include_full=True)
    if variety == "B":
        return enumerate_flags(n_plus_1, ctx)
    raise ValueError(f"unknown variety {variety!r}")


def _node_key(variety, node, ctx):
    return flag_str(node, ctx) if variety == "B" else subspace_str(node, ctx)


def _dim_index(variety, node, n_plus_1):
    if variety == "P":
        return n_plus_1 - 1 - node.dim
    if variety == "Q":
        return node.dim - 1
    return n_plus_1 - 1 - len(node.members)


def _closure_pairs(variety, nodes, n_plus_1, ctx):
    "Irreflexive pairs (a, b) with stratum b inside the closure of stratum a."
    if variety == "B":
        flag = {f.members: f for f in nodes}  # a < b iff a's members are a proper sub-chain of b's
        return [(flag[c], b) for b in nodes for r in range(len(b.members))
                for c in combinations(b.members, r)]
    above = _subspace_order(ctx, n_plus_1).above
    if variety == "P":
        return [(a, b) for a in nodes for b in above[a] if b.dim < n_plus_1]
    return [(a, b) for b in nodes for a in above[b]]


# --- counting workers -------------------------------------------------------

_WORKER = {}


def _worker_init(ctx, variety, n_plus_1):
    "A worker's context, unpickled to its live one, and strata to count."
    _WORKER["ctx"] = ctx
    _WORKER["variety"] = variety
    _WORKER["n_plus_1"] = n_plus_1
    _WORKER["strata"] = _node_objects(variety, n_plus_1, ctx)


def _count_task(task):
    "Classify one slice of the enumeration; returns {key string: count}."
    m, index, lo, hi = task
    ctx = _WORKER["ctx"]
    variety = _WORKER["variety"]
    n_plus_1 = _WORKER["n_plus_1"]
    if variety == "P":
        funcs = enumerate_functionals(n_plus_1, ctx, m, lo, hi)
        keys = (subspace_str(p_classify(PPoint(ctx, c)), ctx) for c in funcs)
    elif variety == "Q":
        points = q_enumerate_stratum(_WORKER["strata"][index], ctx, m)
        keys = (subspace_str(q_classify(x), ctx) for x in points)
    else:
        flag = _WORKER["strata"][index]  # b_from_flag_data classifies what it builds
        keys = [flag_str(flag, ctx)] * len(b_enumerate_flag(flag, ctx, m))
    return Counter(keys)


def _tasks_for(variety, n_plus_1, ctx, m):
    if variety == "P":
        total = variety_total(variety, n_plus_1, ctx.q, m)
        step = 512
        return [(m, 0, lo, min(lo + step, total)) for lo in range(0, total, step)]
    strata = _node_objects(variety, n_plus_1, ctx)
    return [(m, i, 0, 0) for i in range(len(strata))]


def count_stratum_points(variety, n_plus_1, ctx, m, jobs=1):
    "Counts per stratum key over k_m by enumeration + classification."
    tasks = _tasks_for(variety, n_plus_1, ctx, m)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_worker_init, initargs=(ctx, variety, n_plus_1)
        ) as pool:
            results = list(pool.map(_count_task, tasks))
    else:
        _worker_init(ctx, variety, n_plus_1)
        results = [_count_task(t) for t in tasks]
        _WORKER.clear()  # so the last count does not keep its context alive
    counts = Counter()
    for result in results:
        counts.update(result)  # every count is positive: empty strata stay absent
    return dict(counts)


# --- cache ------------------------------------------------------------------


def _cache_path(cache_dir, variety, ctx, n_plus_1, m):
    name = f"{variety}_q{ctx.q}_n{n_plus_1 - 1}_m{m}.json"
    return os.path.join(cache_dir, name)


def _cache_load(cache_dir, variety, ctx, n_plus_1, m, forms):
    """The cached counts, or None for a miss: no readable file, another
    header, or counts other than forms, the closed form of every nonempty
    stratum by key."""
    path = _cache_path(cache_dir, variety, ctx, n_plus_1, m)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):  # JSON or UTF-8 that does not decode
        return None
    expected = _cache_header(variety, ctx, n_plus_1, m)
    if type(obj) is not dict or any(obj.get(k) != v for k, v in expected.items()):
        return None
    counts = obj.get("counts")
    # JSON true and 2.0 compare equal to ints, so the type is checked too
    if type(counts) is not dict or counts != forms or any(type(c) is not int for c in counts.values()):
        return None
    return counts


def _cache_header(variety, ctx, n_plus_1, m):
    "What a cache file must record besides its counts to be read back."
    return {
        "schema_version": SCHEMA_VERSION,
        "variety": variety,
        "p": ctx.p,
        "e": ctx.e,
        "q": ctx.q,
        "n": n_plus_1 - 1,
        "m": m,
        "modulus": list(ctx.modulus),
    }


def _cache_store(cache_dir, variety, ctx, n_plus_1, m, counts):
    "Write the counts; ValueError naming the file if it cannot be written."
    obj = {**_cache_header(variety, ctx, n_plus_1, m), "counts": counts}
    path = _cache_path(cache_dir, variety, ctx, n_plus_1, m)
    # written beside the target and renamed into place, so a reader sees
    # either the old file or the whole new one, never a partial write
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write the count cache {path}: {exc.strerror or exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# --- building and exporting -------------------------------------------------


def build_atlas(variety, n_plus_1, ctx, m_list, jobs=1, cache_dir=None):
    """Assemble the atlas: stratum nodes, closure pairs, per-m counts.

    The cache (one JSON file per variety/q/n/m under cache_dir) is an
    optimization only; counts are recomputed whenever it is absent or
    stale, and cache_dir=None neither reads nor writes it.  A count that
    differs from its stratum's closed form raises InvariantViolation; more
    than MAX_JOBS jobs raise ValueError before anything is built.
    """
    if variety not in VARIETIES:
        raise ValueError(f"variety must be one of {VARIETIES}")
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    check_desk_scale(variety, n_plus_1, ctx.q, m_list)
    node_objs = _node_objects(variety, n_plus_1, ctx)
    nodes = [
        (_node_key(variety, s, ctx), _dim_index(variety, s, n_plus_1))
        for s in node_objs
    ]
    key_of = {s: k for s, (k, _) in zip(node_objs, nodes)}
    closure = sorted(
        (key_of[a], key_of[b])
        for a, b in _closure_pairs(variety, node_objs, n_plus_1, ctx)
    )
    counts = {}
    for m in m_list:
        forms = {}
        for s, (key, _) in zip(node_objs, nodes):
            if total := stratum_total(variety, s, n_plus_1, ctx.q, m):
                forms[key] = total
        raw = _cache_load(cache_dir, variety, ctx, n_plus_1, m, forms) if cache_dir else None
        if raw is None:
            raw = count_stratum_points(variety, n_plus_1, ctx, m, jobs=jobs)
            if raw != forms:
                raise InvariantViolation(f"{variety} stratum counts over k_{m} differ from their closed forms")
            if cache_dir:
                _cache_store(cache_dir, variety, ctx, n_plus_1, m, raw)
        counts[m] = {key: raw.get(key, 0) for key, _ in nodes}
    return StrataAtlas(variety, ctx, n_plus_1, nodes, closure, counts)


def transitive_reduction(nodes, pairs):
    """Cover pairs of a finite partial order given as irreflexive pairs
    between the keys of nodes: (a, b) is kept iff no c has (a, c) and (c, b)."""
    succ = {k: set() for k, _ in nodes}
    pred = {k: set() for k, _ in nodes}
    for a, b in pairs:
        succ[a].add(b)
        pred[b].add(a)
    return [(a, b) for a, b in pairs if succ[a].isdisjoint(pred[b])]


def atlas_to_obj(atlas):
    return {
        "variety": atlas.variety,
        "q": atlas.q,
        "n": atlas.n,
        "strata": [
            {
                "key": key,
                "dim_ambient_index": dim,
                "counts": {str(m): atlas.counts[m][key] for m in sorted(atlas.counts)},
            }
            for key, dim in atlas.nodes
        ],
        "closure": [list(pair) for pair in atlas.closure],
    }


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export(atlas, fmt):
    "Serialize the atlas to bytes: 'json', 'dot' (Hasse diagram) or 'text'."
    if fmt == "json":
        body = json.dumps(atlas_to_obj(atlas), sort_keys=True, separators=(",", ":"))
        return (body + "\n").encode("utf-8")
    if fmt == "dot":
        covers = transitive_reduction(atlas.nodes, atlas.closure)
        lines = [f"digraph {atlas.variety}_strata {{", "  rankdir=BT;"]
        for key, dim in atlas.nodes:
            label = _dot_escape(f"{key} (dim {dim})")
            lines.append(f'  "{_dot_escape(key)}" [label="{label}"];')
        for a, b in sorted(covers):
            lines.append(f'  "{_dot_escape(a)}" -> "{_dot_escape(b)}";')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "text":
        ms = sorted(atlas.counts)
        header = ["stratum", "dim"] + [f"count(m={m})" for m in ms]
        rows = [header]
        for key, dim in atlas.nodes:
            rows.append([key, str(dim)] + [str(atlas.counts[m][key]) for m in ms])
        totals = ["total", ""] + [str(atlas.total(m)) for m in ms]
        rows.append(totals)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [
            f"{atlas.variety} strata over GF({atlas.q}), dim V = {atlas.n_plus_1},"
            f" {len(atlas.nodes)} strata, {len(atlas.closure)} closure pairs"
        ]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
