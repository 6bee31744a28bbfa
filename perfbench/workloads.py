"""The three workloads: set-up, one request, and the check of its answer.

Each workload object is built by its set-up (timed as setup_s) and then
serves requests.  `run` is the only part that is timed per request; `check`
compares the answer with the oracles afterwards, outside the clock.  A
request is sent only after the previous one has returned (one client,
closed loop, no threads, jobs=1).
"""

import io
import json
import os
import sys

import oracle


def warm_field(dr, ctx, m_list):
    "Fill the lazy per-field caches that every request would otherwise fill."
    for m in set(m_list) | {1}:
        ctx.subfield_elements(m)
    for mod, name in ((dr.linalg, "_k_basis"), (dr.points, "_k_index")):
        fn = getattr(mod, name, None)
        if fn is not None:
            fn(ctx)


def call_cli(dr, argv):
    "Run drinfeld.cli.main in-process; returns (exit code, stdout, stderr)."
    out, err = io.BytesIO(), io.BytesIO()
    out_t = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    err_t = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out_t, err_t
    try:
        code = dr.cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def cli_digest(answer):
    code, out, err = answer
    return repr(code).encode() + b"\0" + out + b"\0" + err


class Atlas:
    """`count --format json` into an empty cache dir, then `strata --format
    dot` from the same dir, for each (variety, q, n+1, m) of the grid."""

    def __init__(self, dr, inputs, workdir):
        self.dr = dr
        self.cache_root = os.path.join(workdir, "cache")
        self.fields = {}
        for g in inputs["grid"]:
            ctx = dr.field.context_for(g["q"], 1, g["n_plus_1"], [g["m"]])
            warm_field(dr, ctx, [g["m"]])
            self.fields[ctx] = ctx
        self.requests = [(kind, g) for g in inputs["grid"] for kind in ("count", "strata")]
        self.cold_keys = {}

    def run(self, req, tag):
        kind, g = req
        v, q, n1, m = g["variety"], g["q"], g["n_plus_1"], g["m"]
        cache = os.path.join(self.cache_root, tag, f"{v}_q{q}_n{n1 - 1}_m{m}")
        fmt = "json" if kind == "count" else "dot"
        return call_cli(self.dr, [kind, "--variety", v, "--p", str(q), "--n", str(n1 - 1),
                                  "--m", str(m), "--format", fmt, "--cache-dir", cache])

    digest = staticmethod(cli_digest)

    def check(self, req, answer, tag):
        "Returns (errors, points handled)."
        kind, g = req
        v, q, n1, m = g["variety"], g["q"], g["n_plus_1"], g["m"]
        code, out, err = answer
        where = f"{kind} {v} q={q} n+1={n1} m={m}"
        if code != 0:
            return [f"{where}: exit {code}: {err.decode(errors='replace').strip()}"], 0
        slot = (tag, v, q, n1, m)
        if kind == "count":
            obj = json.loads(out)
            errors = oracle.check_count(v, q, n1, m, obj)
            self.cold_keys[slot] = set(obj.get("strata", {}))
            return [f"{where}: {e}" for e in errors], obj.get("totals", {}).get(str(m), 0)
        keys = oracle.dot_node_keys(out.decode())
        if len(keys) != len(set(keys)) or set(keys) != self.cold_keys.pop(slot, None):
            return [f"{where}: DOT nodes differ from the count's stratum keys"], 0
        return [], 0

    def end_pass(self, tag):
        return []


class Stabilizer:
    """stabilizer_bruteforce, stabilizer_predicted and unipotent_elements on
    every point of complete (variety, q, n+1, m) sets."""

    def __init__(self, dr, inputs, workdir):
        self.dr = dr
        self.errors = []
        ctxs, groups = {}, {}
        self.fields = ctxs
        self.sets = []
        for st in inputs["sets"]:
            n1 = st["n_plus_1"]
            fld = st["points"][0]["field"]
            fkey = (fld["p"], fld["e"], fld["D"], tuple(fld["modulus"]))
            if fkey not in ctxs:
                ctxs[fkey] = dr.field.FieldCtx(*fkey)
            ctx = ctxs[fkey]
            warm_field(dr, ctx, [st["m"]])
            if (fkey, n1) not in groups:
                group = dr.action.enumerate_pgl(n1, ctx)
                if len(group) != oracle.pgl_order(n1, st["q"]):
                    self.errors.append(f"|PGL({n1},{st['q']})| enumerated as {len(group)}")
                groups[(fkey, n1)] = (group, dr.action.GroupElement.identity(n1, ctx))
            group, ident = groups[(fkey, n1)]
            points = [dr.points.point_from_obj(obj, ctx=ctx) for obj in st["points"]]
            self.sets.append({"spec": st, "group": group, "ident": ident, "points": points,
                              "p": ctx.p})
        self.requests = [tuple(r) for r in inputs["order"]]
        self.done = {}  # tag -> {set index: (points done, sum of |Stab|)}

    def run(self, req, tag):
        st = self.sets[req[0]]
        x, group = st["points"][req[1]], st["group"]
        action = self.dr.action
        brute = action.stabilizer_bruteforce(x, group)
        predicted = action.stabilizer_predicted(x, group)
        return brute, predicted, action.unipotent_elements(brute)

    @staticmethod
    def digest(answer):
        return repr([[g.sort_key() for g in part] for part in answer]).encode()

    def check(self, req, answer, tag):
        st = self.sets[req[0]]
        spec = st["spec"]
        where = f"{spec['variety']} q={spec['q']} n+1={spec['n_plus_1']} m={spec['m']} #{req[1]}"
        brute, predicted, uni = answer
        order, group_order = len(brute), len(st["group"])
        errors = []
        if brute != predicted:
            errors.append("brute force and predicted stabilizers differ")
        if order == 0 or group_order % order:
            errors.append(f"|Stab| = {order} does not divide |PGL| = {group_order}")
        members = set(brute)
        if st["ident"] not in members or st["ident"] not in set(uni) or not members >= set(uni):
            errors.append("identity missing, or unipotent part not inside the stabilizer")
        # Frobenius: the p-elements of a group number a multiple of its p-part.
        if order and len(uni) % oracle.p_part(order, st["p"]):
            errors.append(f"{len(uni)} unipotent elements in a group of order {order}")
        sums = self.done.setdefault(tag, {})
        count, total = sums.get(req[0], (0, 0))
        sums[req[0]] = (count + 1, total + order)
        return [f"{where}: {e}" for e in errors], 1

    def end_pass(self, tag):
        "Burnside: over a complete set, the sum of |Stab| is a multiple of |PGL|."
        errors = []
        for s, (count, total) in self.done.pop(tag, {}).items():
            st = self.sets[s]
            if count == len(st["points"]) and total % len(st["group"]):
                spec = st["spec"]
                errors.append(f"Burnside: sum |Stab| = {total} over {spec['variety']} q={spec['q']}"
                              f" n+1={spec['n_plus_1']} m={spec['m']} is not a multiple of"
                              f" {len(st['group'])}")
        return errors


class Classify:
    "`classify --input FILE --format json` on a seeded stream of point files."

    def __init__(self, dr, inputs, workdir):
        self.dr = dr
        self.fields = {}
        for fld in inputs["fields"]:
            ctx = dr.field.FieldCtx(fld["p"], fld["e"], fld["D"], tuple(fld["modulus"]))
            warm_field(dr, ctx, [1])
            self.fields[ctx] = ctx
        self.requests = [(r["file"], r["expect"]) for r in inputs["requests"]]
        self.probes = inputs["probes"]

    def run(self, req, tag):
        return call_cli(self.dr, ["classify", "--input", req[0], "--format", "json"])

    digest = staticmethod(cli_digest)

    def check(self, req, answer, tag):
        expect = req[1]
        code, out, err = answer
        where = os.path.basename(req[0])
        if expect["exit"] == 2:
            lines = err.decode(errors="replace").splitlines()
            if code != 2 or out or len(lines) != 1 or not lines[0].startswith("error:"):
                return [f"{where}: bad input gave exit {code}, stderr {lines!r}"], 1
            return [], 1
        if code != 0:
            return [f"{where}: exit {code}: {err.decode(errors='replace').strip()}"], 1
        got = json.loads(out)
        want = {k: expect[k] for k in ("variety", "valid", "stratum") if k in expect}
        have = {k: got[k] for k in ("variety", "valid", "stratum") if k in got}
        if have != want:
            return [f"{where}: answered {have}, expected {want}"], 1
        return [], 1

    def end_pass(self, tag):
        return []

    def probe_known_defects(self):
        """Inputs that should give exit 2 but raise out of cli.main today.

        Returns (report lines, errors): raising is the known defect and is
        reported, not counted; any other answer than exit 2 with one
        `error:` line is a wrong answer."""
        lines, errors = [], []
        for probe in self.probes:
            try:
                code, out, err = call_cli(self.dr, ["classify", "--input", probe["file"],
                                                    "--format", "json"])
            except Exception as exc:  # noqa: BLE001  (the defect being probed)
                lines.append(f"known defect: {probe['what']}: raises {type(exc).__name__}")
                continue
            err_lines = err.decode(errors="replace").splitlines()
            if code == 2 and not out and len(err_lines) == 1 and err_lines[0].startswith("error:"):
                lines.append(f"fixed: {probe['what']}: exit 2")
            else:
                errors.append(f"{probe['what']}: exit {code}, stderr {err_lines!r}")
        return lines, errors


WORKLOADS = {"atlas": Atlas, "stabilizer": Stabilizer, "classify": Classify}
