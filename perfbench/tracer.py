"""Tracing from outside the program: rebinding its public functions.

Each traced function is replaced, in every drinfeld module that holds it,
by a wrapper that records a span (name, start, end, parent span, request
id); methods are replaced on their class.  Field operations get call
counts only, no spans, to keep the overhead small.  Self time is a span's
duration minus the time its child spans cover, aggregated as calls return;
the spans themselves stay in memory, up to SPAN_CAP of them, and are
written out when the run ends.
"""

import json
import time
from array import array

# (metric stem, module, attribute) traced with spans.
SPANS = (
    ("field.ctx_build", "field", "FieldCtx.__init__"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.rational_kernel", "linalg", "rational_kernel"),
    ("linalg.contains", "linalg", "Subspace.contains"),
    ("linalg.contains_vector", "linalg", "Subspace.contains_vector"),
    ("linalg.all_subspaces", "linalg", "all_subspaces"),
    ("linalg.enumerate_flags", "linalg", "enumerate_flags"),
    ("points.bpoint_init", "points", "BPoint.__init__"),
    ("points.b_classify", "points", "b_classify"),
    ("points.b_from_flag_data", "points", "b_from_flag_data"),
    ("points.b_validate", "points", "b_validate"),
    ("points.q_validate", "points", "q_validate"),
    ("points.enumerate_omega", "points", "enumerate_omega"),
    ("points.point_from_obj", "points", "point_from_obj"),
    ("action.act", "action", "act"),
    ("action.stabilizer_bruteforce", "action", "stabilizer_bruteforce"),
    ("action.stabilizer_predicted", "action", "stabilizer_predicted"),
    ("action.unipotent_elements", "action", "unipotent_elements"),
    ("action.fixpoint_check_omega", "action", "fixpoint_check_omega"),
    ("action.enumerate_pgl", "action", "enumerate_pgl"),
    ("atlas.count_stratum_points", "atlas", "count_stratum_points"),
    ("atlas.build_atlas", "atlas", "build_atlas"),
    ("atlas.export", "atlas", "export"),
    ("atlas.cache_load", "atlas", "_cache_load"),
    ("cli.main", "cli", "main"),
)

# (metric stem, module, attribute) counted only.
COUNTS = (
    ("field.mul", "field", "Element.__mul__"),
    ("field.inverse", "field", "Element.inverse"),
    ("field.frobenius", "field", "FieldCtx.frobenius"),
    ("field.inv_frobenius", "field", "FieldCtx.inv_frobenius"),
)

# (child, ancestor): calls of child made while ancestor is running.
INSIDE = (
    ("action.act", "action.stabilizer_bruteforce"),
    ("linalg.rational_kernel", "action.stabilizer_predicted"),
)

SPAN_CAP = 300_000


def _resolve(modules, module, attr):
    "(owner, name, function) for module + attr, or None if it does not exist."
    owner = modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None) if owner is not None else None
    if fn is None or not callable(fn):
        return None
    return owner, name, fn


class Tracer:
    "Spans and counters for one run; install() and uninstall() swap the bindings."

    def __init__(self, modules):
        """modules: {short name: module} of the drinfeld package, such as
        {"field": drinfeld.field}; the package itself under ""."""
        self.modules = modules
        self.names = [stem for stem, _, _ in SPANS]
        self.calls = {stem: 0 for stem, _, _ in SPANS + COUNTS}
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.total_s = dict.fromkeys(self.names, 0.0)
        self.active = dict.fromkeys(self.names, 0)
        self.inside = dict.fromkeys(INSIDE, 0)
        self.extra = {"stab_sum": 0, "points_counted": 0, "cache_hits": 0,
                      "cache_misses": 0, "exit2": 0, "export_json_s": 0.0,
                      "export_dot_s": 0.0}
        self.request = -1
        self.origin = time.perf_counter()
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.spans_total = 0
        self._stack = []
        self._bindings = []
        self._targets = []  # (owner, attribute name, original, wrapper, stem)
        for i, (stem, module, attr) in enumerate(SPANS):
            found = _resolve(modules, module, attr)
            if found:
                self._targets.append(found + (self._span_wrapper(i, stem, found[2]), stem))
        for stem, module, attr in COUNTS:
            found = _resolve(modules, module, attr)
            if found:
                self._targets.append(found + (self._count_wrapper(stem, found[2]), stem))

    def originals(self):
        "{code object: metric stem} of every traced function."
        return {fn.__code__: stem for _, _, fn, _, stem in self._targets}

    def install(self):
        """Rebind every traced function in every drinfeld module that holds
        it, and on its class for methods."""
        for owner, name, fn, wrapper, _ in self._targets:
            if isinstance(owner, type):
                self._bindings.append((owner, name, fn))
                setattr(owner, name, wrapper)
                continue
            for mod in self.modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._bindings:
            owner, name, value = self._bindings.pop()
            setattr(owner, name, value)

    def snapshot(self):
        "Copies of the aggregates, to tell the set-up from the passes."
        return {key: dict(getattr(self, key))
                for key in ("calls", "self_s", "total_s", "inside", "extra")}

    def per_pass(self, base, passes):
        "Aggregates of the set-up plus one pass: base + (now - base) / passes."
        out = {}
        for key, before in base.items():
            now = getattr(self, key)
            out[key] = {k: before[k] + (now[k] - before[k]) / passes for k in now}
        return out

    def _count_wrapper(self, stem, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[stem] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, index, stem, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, total_s, active = self.calls, self.self_s, self.total_s, self.active
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, requests = self.span_parent, self.span_request
        origin = self.origin
        inside = [pair for pair in INSIDE if pair[0] == stem]
        on_result = {
            "action.stabilizer_bruteforce": self._on_bruteforce,
            "atlas.count_stratum_points": self._on_count,
            "atlas.cache_load": self._on_cache_load,
            "atlas.export": self._on_export,
            "cli.main": self._on_main,
        }.get(stem)

        def traced(*args, **kwargs):
            for pair in inside:
                if active[pair[1]]:
                    self.inside[pair] += 1
            self.spans_total += 1
            slot = len(starts)
            if slot < SPAN_CAP:
                names.append(index)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(stack[-1][1] if stack else -1)
                requests.append(self.request)
            else:
                slot = -1
            frame = [0.0, slot]  # time covered by child spans, own slot
            stack.append(frame)
            active[stem] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[stem] -= 1
                stack.pop()
                dur = end - start
                calls[stem] += 1
                self_s[stem] += dur - frame[0]
                total_s[stem] += dur
                if stack:
                    stack[-1][0] += dur
                if slot >= 0:
                    starts[slot] = start - origin
                    ends[slot] = end - origin
            if on_result is not None:
                on_result(result, args, kwargs, dur)
            return result

        return traced

    def _on_bruteforce(self, result, args, kwargs, dur):
        self.extra["stab_sum"] += len(result)

    def _on_count(self, result, args, kwargs, dur):
        self.extra["points_counted"] += sum(result.values())

    def _on_cache_load(self, result, args, kwargs, dur):
        self.extra["cache_misses" if result is None else "cache_hits"] += 1

    def _on_export(self, result, args, kwargs, dur):
        fmt = kwargs.get("fmt", args[1] if len(args) > 1 else None)
        key = f"export_{fmt}_s"
        if key in self.extra:
            self.extra[key] += dur

    def _on_main(self, result, args, kwargs, dur):
        if result == 2:
            self.extra["exit2"] += 1

    def nesting_errors(self, limit=5):
        "Stored spans that do not lie inside their parent span."
        out = []
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i, parent in enumerate(parents):
            if parent >= 0 and not (starts[parent] <= starts[i] <= ends[i] <= ends[parent]):
                out.append(f"span {i} ({self.names[self.span_name[i]]}) is not inside span {parent}")
                if len(out) >= limit:
                    break
        return out

    def write(self, path, report):
        """Write the report and the stored spans, times in ns from the trace
        start, as one JSON object; rows are streamed to keep memory small."""
        head = {
            "names": self.names,
            "spans_total": self.spans_total,
            "spans_stored": len(self.span_start),
            "columns": ["name", "start_ns", "end_ns", "parent", "request"],
            "report": report,
        }
        rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent,
                   self.span_request)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"spans":[')
            for i, (n, start, end, parent, request) in enumerate(rows):
                fh.write(f'{"," if i else ""}[{n},{round(start * 1e9)},{round(end * 1e9)},'
                         f'{parent},{request}]')
            fh.write("]}\n")
