"""Verification driver: module invariant suites and the acceptance criteria.

Each check runs at the ranges given by a VerifyConfig and reports pass/fail
with a witness and wall-clock time.  The acceptance criteria are fixed-range
checks (their ranges are pinned here, not configurable) and print one line
each through the CLI and the test suite.

One check is expected to fail and is left to fail honestly:
``action.corollary_restated`` (and acceptance criterion 5), which asserts
that the plain unipotent-element subset of a stabilizer equals the unipotent
radical of the stratum parabolic.  That identity is false for P-strata with
kernel dimension >= 2 and Q-strata with support codimension >= 2: the full
stabilizer keeps an unconstrained diagonal block there, and any transvection
inside that block is a unipotent stabilizer element outside the radical.
The corrected element-level identity, with the largest normal p-subgroup in
place of the unipotent-element subset, is verified by
``action.corollary_normal_core``.
"""

import random
import time
from collections import Counter
from dataclasses import dataclass

from .counts import gaussian_binomial, pgl_order, stratum_total, variety_total
from .field import context_for, frobenius_k
from .linalg import (
    Subspace,
    all_subspaces,
    apply_functional,
    complement,
    enumerate_flags,
    enumerate_subspaces,
    flag_leq,
    rational_kernel,
)
from .points import (
    BPoint,
    PPoint,
    b_classify,
    b_enumerate,
    b_enumerate_flag,
    enumerate_functionals,
    enumerate_omega,
    incidence_minors_ok,
    omega_embed_b,
    omega_embed_q,
    p_classify,
    p_enumerate,
    pi_map,
    q_bruteforce,
    q_classify,
    q_enumerate,
    restriction_proportional_ok,
    rho_map,
    twist_span_dim,
)
from .action import (
    GroupElement,
    act,
    act_P,
    act_Q,
    enumerate_pgl,
    fixpoint_check_omega,
    p_core,
    stabilizer_bruteforce,
    stabilizer_predicted,
    stratum_flag,
    unipotent_elements,
    unipotent_radical_k,
)


@dataclass
class VerifyConfig:
    qs: tuple = (2,)
    max_n_plus_1: int = 3
    max_m: int = 2
    seed: int = 0
    perturbations: int = 1000
    jobs: int = 1
    suites: tuple = ()  # empty means all


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str = ""


def _ctx_for(q, n_plus_1, max_m):
    return context_for(q, 1, n_plus_1, range(1, max_m + 1))


def _configs(cfg):
    for q in cfg.qs:
        for n_plus_1 in range(2, cfg.max_n_plus_1 + 1):
            ctx = _ctx_for(q, n_plus_1, cfg.max_m)
            for m in range(1, cfg.max_m + 1):
                yield q, n_plus_1, m, ctx


def _all_points(ctx, n_plus_1, m):
    return (
        p_enumerate(ctx, n_plus_1, m)
        + q_enumerate(ctx, n_plus_1, m)
        + b_enumerate(ctx, n_plus_1, m)
    )


# --------------------------------------------------------------------------
# field suite


def check_field_ring_axioms(cfg):
    for q in cfg.qs:
        ctx = _ctx_for(q, cfg.max_n_plus_1, cfg.max_m)
        els = ctx.elements()
        for a in els:
            if a and not (a * a.inverse() == ctx.one):
                return False, f"inverse failed for {a!r} in {ctx!r}"
        for a in els:
            for b in els:
                if (a + b) - b != a or a * b != b * a:
                    return False, f"ring axiom failed at ({a!r}, {b!r})"
    return True, ""


def check_field_frobenius(cfg):
    for q in cfg.qs:
        ctx = _ctx_for(q, cfg.max_n_plus_1, cfg.max_m)
        els = ctx.elements()
        for a in els:
            if frobenius_k(a) != a**ctx.q:
                return False, f"frobenius != q-power at {a!r}"
        for a in els:
            fa = frobenius_k(a)
            for b in els:
                if frobenius_k(a + b) != fa + frobenius_k(b):
                    return False, f"additivity failed at ({a!r}, {b!r})"
                if frobenius_k(a * b) != fa * frobenius_k(b):
                    return False, f"multiplicativity failed at ({a!r}, {b!r})"
    return True, ""


def check_field_subfield_counts(cfg):
    for q in cfg.qs:
        ctx = _ctx_for(q, cfg.max_n_plus_1, cfg.max_m)
        els = ctx.elements()
        for d in range(1, ctx.D // ctx.e + 1):
            if ctx.D % (d * ctx.e):
                continue
            count = sum(1 for a in els if ctx.in_subfield(a, d))
            if count != ctx.q**d:
                return False, f"|k_{d}| = {count} != {ctx.q ** d}"
    return True, ""


# --------------------------------------------------------------------------
# linalg suite


def check_linalg_subspace_counts(cfg):
    for q in cfg.qs:
        ctx = _ctx_for(q, 2, 1)
        for n_plus_1 in range(1, 5):
            for d in range(n_plus_1 + 1):
                subs = enumerate_subspaces(n_plus_1, d, ctx)
                want = gaussian_binomial(n_plus_1, d, q)
                if len(subs) != want or len(set(subs)) != len(subs):
                    return False, f"count({n_plus_1},{d},q={q}) = {len(subs)} != {want}"
    return True, ""


def check_linalg_kernel(cfg):
    for q, n_plus_1, m, ctx in _configs(cfg):
        for coords in enumerate_functionals(n_plus_1, ctx, m):
            ker = rational_kernel(coords, ctx)
            for v in ker.vectors(ctx):
                if apply_functional(coords, v):
                    return False, f"l nonzero on its kernel at {coords}"
            # the kernel's q^dim vectors are killed, so it is all of them
            # exactly when there are as many
            killed = sum(
                not apply_functional(coords, v)
                for v in Subspace.full(n_plus_1, ctx).vectors(ctx)
            )
            if killed != ctx.q**ker.dim:
                return False, f"kernel dimension inconsistent at {coords}"
    return True, ""


def check_linalg_complement(cfg):
    ctx = _ctx_for(2, 3, 1)
    for n_plus_1 in (2, 3):
        subs = all_subspaces(n_plus_1, ctx)
        for W in subs:
            for V in subs:
                if not W.contains(V):
                    continue
                C = complement(V, W)
                if V.sum(C) != W or V.dim + C.dim != W.dim:
                    return False, f"complement failed for dims ({V.dim},{W.dim})"
    return True, ""


def check_linalg_canonical_uniqueness(cfg):
    rng = random.Random(cfg.seed)
    for q in cfg.qs:
        ctx = _ctx_for(q, 3, 1)
        k_els = list(ctx.k_elements)
        for _ in range(1000 // len(cfg.qs)):
            n_plus_1 = rng.choice([2, 3, 4])
            nvecs = rng.randint(1, n_plus_1)
            vecs = [
                tuple(rng.choice(k_els) for _ in range(n_plus_1))
                for _ in range(nvecs)
            ]
            sub = Subspace.span(n_plus_1, vecs)
            # a different generating set: random invertible combinations
            mixed = []
            for _ in range(nvecs + 1):
                acc = [ctx.zero] * n_plus_1
                for v in vecs:
                    c = rng.choice(k_els)
                    if c:
                        acc = [a + c * b for a, b in zip(acc, v)]
                mixed.append(tuple(acc))
            again = Subspace.span(n_plus_1, mixed)
            if not sub.contains(again):
                return False, "span of combinations escaped the subspace"
            if again.dim == sub.dim and again != sub:
                return False, "two bases of one subspace canonicalized differently"
    return True, ""


# --------------------------------------------------------------------------
# points suite


def check_points_partition_p(cfg):
    for q, n_plus_1, m, ctx in _configs(cfg):
        pts = p_enumerate(ctx, n_plus_1, m)
        want = variety_total("P", n_plus_1, q, m)
        if len(pts) != want:
            return False, f"|P| = {len(pts)} != {want} at q={q} n+1={n_plus_1} m={m}"
        if sum(Counter(p_classify(x) for x in pts).values()) != want:
            return False, "classification lost points"
    return True, ""


def check_points_q_support(cfg):
    for q in cfg.qs:
        ctx = _ctx_for(q, 2, min(cfg.max_m, 2))
        for m in range(1, min(cfg.max_m, 2) + 1):
            if q**m > 4:
                # brute force over all tables is infeasible above GF(4)
                # values; fall back to the constructed points
                for x in q_enumerate(ctx, 2, m):
                    q_classify(x)
                continue
            brute = q_bruteforce(ctx, 2, m)
            for x in brute:
                q_classify(x)  # raises InvariantViolation on a bad support
            if set(brute) != set(q_enumerate(ctx, 2, m)):
                return False, f"brute force != construction at q={q} m={m}"
    return True, ""


def _b_two_tests(cfg):
    """Both compatibility tests on every constructed family, then on
    cfg.perturbations families with one functional replaced at random, per
    configuration.  Returns (ok, detail, number of families checked)."""
    rng = random.Random(cfg.seed)
    checked = 0
    for q, n_plus_1, m, ctx in _configs(cfg):
        pts = b_enumerate(ctx, n_plus_1, m)
        subs = all_subspaces(n_plus_1, ctx, include_zero=False)
        for x in pts:
            a, _ = incidence_minors_ok(x)
            b, _ = restriction_proportional_ok(x)
            if not a or not b:
                return False, "constructed family failed validation", checked
        for _ in range(cfg.perturbations):
            x = rng.choice(pts)
            W = rng.choice(subs)
            fam = dict(x.family)
            fam[W] = rng.choice(enumerate_functionals(W.dim, ctx, m))
            y = BPoint(ctx, n_plus_1, fam, validate=False)
            a, wit_a = incidence_minors_ok(y)
            b, wit_b = restriction_proportional_ok(y)
            if a != b:
                detail = f"tests disagree ({a} vs {b}) at witness {wit_a or wit_b}"
                return False, detail, checked
        checked += len(pts) + cfg.perturbations
    return True, "", checked


def check_points_b_two_tests(cfg):
    ok, detail, _ = _b_two_tests(cfg)
    return ok, detail


def check_points_b_closure_index(cfg):
    for q, n_plus_1, m, ctx in _configs(cfg):
        flags = enumerate_flags(n_plus_1, ctx)
        for fl in flags:
            pts = b_enumerate_flag(fl, ctx, m)
            for x in pts:
                got = b_classify(x)
                if got != fl:
                    return False, "classification does not return the built flag"
            if stratum_total("B", fl, n_plus_1, q, m) != len(pts):
                return False, f"product formula mismatch for {fl!r}"
        # the closure-index set of each stratum is its refinement up-set;
        # reflexivity, antisymmetry and transitivity of the order
        for fl in flags:
            if not flag_leq(fl, fl):
                return False, "refinement order is not reflexive"
            for g in flags:
                if flag_leq(fl, g) and flag_leq(g, fl) and fl != g:
                    return False, "refinement order is not antisymmetric"
    return True, ""


def check_points_roundtrips(cfg):
    for q, n_plus_1, m, ctx in _configs(cfg):
        for x in b_enumerate(ctx, n_plus_1, m):
            fl = b_classify(x)
            top = fl.largest
            bottom = fl.smallest
            p_stratum = p_classify(pi_map(x))
            want_top = top if top is not None else Subspace.zero(n_plus_1)
            if p_stratum != want_top:
                return False, "pi does not land in the expected stratum"
            q_stratum = q_classify(rho_map(x))
            want_bot = bottom if bottom is not None else Subspace.full(n_plus_1, ctx)
            if q_stratum != want_bot:
                return False, "rho does not land in the expected stratum"
    return True, ""


# --------------------------------------------------------------------------
# action suite


def check_action_group_laws(cfg):
    for q in cfg.qs:
        ctx = _ctx_for(q, 2, min(cfg.max_m, 2))
        group = enumerate_pgl(2, ctx)
        e = GroupElement.identity(2, ctx)
        for m in range(1, min(cfg.max_m, 2) + 1):
            pts = _all_points(ctx, 2, m)
            for x in pts:
                if act(x, e) != x:
                    return False, "identity does not act trivially"
            for g in group:
                for h in group:
                    gh = g.compose(h)
                    for x in pts:
                        if act(act(x, g), h) != act(x, gh):
                            return False, "right-action law failed"
    return True, ""


def check_action_classify_equivariance(cfg):
    for q, n_plus_1, m, ctx in _configs(cfg):
        if q != 2 or m > 2 or pgl_order(n_plus_1, q) > _GROUP_SIZE_CAP:
            continue
        group = enumerate_pgl(n_plus_1, ctx)
        for g in group:
            gi = g.inverse()
            for x in p_enumerate(ctx, n_plus_1, m):
                if p_classify(act_P(x, g)) != gi.apply_subspace(p_classify(x)):
                    return False, "P stratum equivariance failed"
            for x in q_enumerate(ctx, n_plus_1, m):
                if q_classify(act_Q(x, g)) != gi.apply_subspace(q_classify(x)):
                    return False, "Q stratum equivariance failed"
    return True, ""


_THEOREM_RANGES = ((2, 2, (1, 2, 3)), (2, 3, (1, 2)))

_GROUP_SIZE_CAP = 1000  # suite-level guard; PGL(3,3) and larger are skipped


def _cfg_theorem_ranges(cfg):
    out = []
    for q in cfg.qs:
        for n_plus_1 in range(2, cfg.max_n_plus_1 + 1):
            if pgl_order(n_plus_1, q) > _GROUP_SIZE_CAP:
                continue
            out.append((q, n_plus_1, tuple(range(1, cfg.max_m + 1))))
    return tuple(out)


def _theorem_sweep(shared, ranges):
    "Stabilizers two ways for every point at the given (q, n+1, ms) ranges."
    key = ("stabs", ranges)
    if key in shared:
        return shared[key]
    stabs = {}
    ok, detail = True, ""
    for q, n_plus_1, ms in ranges:
        ctx = _ctx_for(q, n_plus_1, max(ms))
        group = enumerate_pgl(n_plus_1, ctx)
        for m in ms:
            entries = []
            for x in _all_points(ctx, n_plus_1, m):
                bf = stabilizer_bruteforce(x, group)
                pr = stabilizer_predicted(x, group)
                if bf != pr and ok:
                    ok = False
                    detail = (
                        f"bruteforce ({len(bf)}) != predicted ({len(pr)}) at "
                        f"q={q} n+1={n_plus_1} m={m} for {x!r}"
                    )
                entries.append((x, bf))
            stabs[(q, n_plus_1, m, ctx)] = entries
    shared[key] = stabs, (ok, detail)
    return shared[key]


def check_action_stabilizer_theorem(cfg, shared):
    _, (ok, detail) = _theorem_sweep(shared, _cfg_theorem_ranges(cfg))
    return ok, detail


def _sweep_with_radicals(shared, ranges):
    """(q, n+1, m, x, Stab(x), radical of x's stratum parabolic) over the
    theorem sweep; each radical is computed once per shared dict."""
    stabs, _ = _theorem_sweep(shared, ranges)
    radicals = shared.setdefault("radicals", {})
    for (q, n_plus_1, m, ctx), entries in stabs.items():
        for x, stab in entries:
            fl = stratum_flag(x)
            if (fl, ctx) not in radicals:
                group = enumerate_pgl(n_plus_1, ctx)
                radicals[(fl, ctx)] = unipotent_radical_k(fl, ctx, group)
            yield q, n_plus_1, m, x, stab, radicals[(fl, ctx)]


def check_action_corollary_restated(cfg, shared, ranges=None):
    """The literal restatement: unipotent elements of Stab(x) equal the
    radical of the stratum parabolic.  Fails for strata with a free diagonal
    block of dimension >= 2; see the module note."""
    ranges = ranges or _cfg_theorem_ranges(cfg)
    for q, n_plus_1, m, x, stab, radical in _sweep_with_radicals(shared, ranges):
        uni = unipotent_elements(stab)
        if uni != radical:
            return False, (
                f"unipotent elements ({len(uni)}) != radical "
                f"({len(radical)}) at q={q} n+1={n_plus_1} m={m} "
                f"for a {type(x).__name__} in a stratum with an "
                f"unconstrained block"
            )
    return True, ""


def check_action_corollary_normal_core(cfg, shared, ranges=None):
    "Corrected identity: the largest normal p-subgroup equals the radical."
    ranges = ranges or _cfg_theorem_ranges(cfg)
    for q, n_plus_1, m, x, stab, radical in _sweep_with_radicals(shared, ranges):
        if p_core(stab) != radical:
            return False, f"normal core mismatch at q={q} n+1={n_plus_1} m={m}"
    return True, ""


def check_action_separation(cfg, shared, ranges=None):
    stabs, _ = _theorem_sweep(shared, ranges or _cfg_theorem_ranges(cfg))
    for (q, n_plus_1, m, ctx), entries in stabs.items():
        by_kind = {}
        for x, stab in entries:
            key = type(x).__name__
            sig = tuple(unipotent_elements(stab))
            by_kind.setdefault(key, {}).setdefault(sig, set()).add(stratum_flag(x))
        for kind, groups in by_kind.items():
            for sig, flags in groups.items():
                if len(flags) != 1:
                    return False, f"{kind}: one unipotent set covers {len(flags)} strata"
    return True, ""


def check_action_twist_lemma(cfg):
    for q, n_plus_1, ms in _THEOREM_RANGES:
        ctx = _ctx_for(q, n_plus_1, max(max(ms), 3))
        for m in range(1, max(ms) + 1):
            for x in p_enumerate(ctx, n_plus_1, m):
                if twist_span_dim(x) != n_plus_1 - p_classify(x).dim:
                    return False, f"twist span lemma failed at {x!r}"
    return True, ""


def check_action_omega_equivariance(cfg):
    for q, n_plus_1, ms in _THEOREM_RANGES:
        ctx = _ctx_for(q, n_plus_1, max(ms))
        group = enumerate_pgl(n_plus_1, ctx)
        for m in ms:
            for coords in enumerate_omega(n_plus_1, ctx, m):
                l = PPoint(ctx, coords)
                ql = omega_embed_q(l)
                for g in group:
                    if act_Q(ql, g) != omega_embed_q(act_P(l, g)):
                        return False, "omega equivariance failed"
    return True, ""


# --------------------------------------------------------------------------
# atlas suite


def check_atlas_partitions(cfg):
    from .atlas import VARIETIES, build_atlas

    for q in cfg.qs:
        for n_plus_1 in range(2, cfg.max_n_plus_1 + 1):
            ctx = _ctx_for(q, n_plus_1, cfg.max_m)
            ms = list(range(1, cfg.max_m + 1))
            for variety in VARIETIES:
                atlas = build_atlas(variety, n_plus_1, ctx, ms, jobs=cfg.jobs)
                for m in ms:
                    want = variety_total(variety, n_plus_1, q, m)
                    if atlas.total(m) != want:
                        return False, f"{variety} total {atlas.total(m)} != {want}"
    return True, ""


def check_atlas_closure_duality(cfg):
    from .atlas import build_atlas
    from .points import subspace_str

    for q in cfg.qs:
        for n_plus_1 in range(2, cfg.max_n_plus_1 + 1):
            ctx = _ctx_for(q, n_plus_1, 1)
            ap = build_atlas("P", n_plus_1, ctx, [], jobs=1)
            aq = build_atlas("Q", n_plus_1, ctx, [], jobs=1)
            ab = build_atlas("B", n_plus_1, ctx, [], jobs=1)
            for atlas in (ap, aq, ab):
                edges = set(map(tuple, atlas.closure))
                for a, b in edges:
                    if (b, a) in edges:
                        return False, "closure relation is not antisymmetric"
                    for c, d in edges:
                        if b == c and (a, d) not in edges:
                            return False, "closure relation is not transitive"
            # duality on shared nodes: P edges are exactly the reversed Q edges
            proper = {
                subspace_str(s, ctx)
                for s in all_subspaces(
                    n_plus_1, ctx, include_zero=False, include_full=False
                )
            }
            p_on = {
                (a, b) for a, b in map(tuple, ap.closure)
                if a in proper and b in proper
            }
            q_on = {
                (a, b) for a, b in map(tuple, aq.closure)
                if a in proper and b in proper
            }
            if p_on != {(b, a) for a, b in q_on}:
                return False, "P and Q closure orders are not mutually dual"
            # embedding into B: a one-member flag key equals its subspace key,
            # and a P edge a -> b is witnessed by the two-member flag a < b
            # refining both one-member flags
            b_edges = set(map(tuple, ab.closure))
            b_nodes = {k for k, _ in ab.nodes}
            for a, b in p_on:
                two = f"{a}<{b}"
                if two not in b_nodes:
                    return False, f"missing two-member flag node {two}"
                if (a, two) not in b_edges or (b, two) not in b_edges:
                    return False, f"flag {two} does not refine both members"
            for key in b_nodes:
                if key.count("<") == 1:
                    a, b = key.split("<")
                    if (a, b) not in p_on:
                        return False, f"two-member flag {key} without a P edge"
    return True, ""


def check_atlas_export_determinism(cfg):
    from .atlas import build_atlas, export

    ctx = _ctx_for(2, 3, 2)
    for variety in ("P", "Q", "B"):
        a1 = build_atlas(variety, 3, ctx, [1, 2], jobs=1)
        a2 = build_atlas(variety, 3, ctx, [1, 2], jobs=2)
        for fmt in ("json", "dot", "text"):
            if export(a1, fmt) != export(a2, fmt):
                return False, f"{variety}/{fmt} differs between jobs=1 and jobs=2"
    return True, ""


# --------------------------------------------------------------------------
# registry and driver

CHECKS = (
    ("field.ring_axioms", check_field_ring_axioms),
    ("field.frobenius_automorphism", check_field_frobenius),
    ("field.subfield_counts", check_field_subfield_counts),
    ("linalg.subspace_counts", check_linalg_subspace_counts),
    ("linalg.kernel_functional", check_linalg_kernel),
    ("linalg.complement_decomposition", check_linalg_complement),
    ("linalg.canonical_uniqueness", check_linalg_canonical_uniqueness),
    ("points.partition_P", check_points_partition_p),
    ("points.q_support_subspace", check_points_q_support),
    ("points.b_two_tests_agree", check_points_b_two_tests),
    ("points.b_closure_index", check_points_b_closure_index),
    ("points.roundtrips", check_points_roundtrips),
    ("action.group_laws", check_action_group_laws),
    ("action.classify_equivariance", check_action_classify_equivariance),
    ("action.stabilizer_theorem", check_action_stabilizer_theorem),
    ("action.corollary_restated", check_action_corollary_restated),
    ("action.corollary_normal_core", check_action_corollary_normal_core),
    ("action.stratum_separation", check_action_separation),
    ("action.twist_lemma", check_action_twist_lemma),
    ("action.omega_equivariance", check_action_omega_equivariance),
    ("atlas.partition_identities", check_atlas_partitions),
    ("atlas.closure_duality", check_atlas_closure_duality),
    ("atlas.export_determinism", check_atlas_export_determinism),
)

_SHARED_CHECKS = {
    "action.stabilizer_theorem",
    "action.corollary_restated",
    "action.corollary_normal_core",
    "action.stratum_separation",
}


def _timed(name, run):
    "The CheckResult of run(), which returns (ok, detail), with its seconds."
    t0 = time.time()
    try:
        ok, detail = run()
    except Exception as exc:  # a crash is a failing check, not a crash
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, ok, time.time() - t0, detail)


def verify_all(cfg=None):
    "Run the configured invariant suites; returns a list of CheckResult."
    cfg = cfg or VerifyConfig()
    wanted = set(cfg.suites) if cfg.suites else None
    shared = {}
    results = []
    for name, fn in CHECKS:
        suite = name.split(".")[0]
        if wanted is not None and suite not in wanted and name not in wanted:
            continue
        args = (cfg, shared) if name in _SHARED_CHECKS else (cfg,)
        results.append(_timed(name, lambda: fn(*args)))
    return results


# --------------------------------------------------------------------------
# acceptance criteria (pinned ranges)


def criterion_1(shared):
    "Stratification partitions with exact totals, q in {2,3}."
    detail = []
    ranges = []
    for q in (2, 3):
        for n_plus_1 in (2, 3):
            max_m = 2 if (q == 3 and n_plus_1 == 3) else 3
            ranges.append((q, n_plus_1, tuple(range(1, max_m + 1))))
    for q, n_plus_1, ms in ranges:
        ctx = _ctx_for(q, n_plus_1, max(ms))
        for m in ms:
            p_pts = p_enumerate(ctx, n_plus_1, m)
            p_want = variety_total("P", n_plus_1, q, m)
            if len(p_pts) != p_want or len(set(p_pts)) != len(p_pts):
                return False, f"P partition failed at q={q} n+1={n_plus_1} m={m}"
            per_p = Counter(p_classify(x) for x in p_pts)
            # every stratum holds exactly the dense points of its quotient
            for sub in all_subspaces(n_plus_1, ctx, include_full=False):
                if per_p.get(sub, 0) != stratum_total("P", sub, n_plus_1, q, m):
                    return False, f"P stratum count failed at q={q} n+1={n_plus_1} m={m}"
            q_pts = q_enumerate(ctx, n_plus_1, m)
            per = Counter(q_classify(x) for x in q_pts)
            for sub in all_subspaces(n_plus_1, ctx, include_zero=False):
                if per.get(sub, 0) != stratum_total("Q", sub, n_plus_1, q, m):
                    return False, f"Q stratum count failed at q={q} n+1={n_plus_1} m={m}"
            if len(set(q_pts)) != len(q_pts):
                return False, "Q enumeration repeated a point"
            b_pts = b_enumerate(ctx, n_plus_1, m)
            per_b = Counter(b_classify(x) for x in b_pts)
            for fl in enumerate_flags(n_plus_1, ctx):
                if per_b.get(fl, 0) != stratum_total("B", fl, n_plus_1, q, m):
                    return False, f"B stratum count failed at q={q} n+1={n_plus_1} m={m}"
            b_want = variety_total("B", n_plus_1, q, m)
            if len(b_pts) != b_want or len(set(b_pts)) != len(b_pts):
                return False, f"B partition failed at q={q} n+1={n_plus_1} m={m}"
            detail.append(f"q={q} n+1={n_plus_1} m={m}: |P|=|Q|={len(p_pts)} |B|={len(b_pts)}")
    return True, "; ".join(detail[:4]) + " ..."


def criterion_2(shared):
    """Reciprocal-map brute force at q=2, n+1=2, m in {1,2}.

    Set equality between the filtered brute force and the stratum-wise
    construction.  The counts come out as 3 and 5, matching the partition
    identity of criterion 1: each of the three lines of k^2 (including
    the one spanned by e_1 + e_2) contributes exactly one point at m = 1.
    """
    ctx = _ctx_for(2, 2, 2)
    counts = {}
    for m in (1, 2):
        brute = q_bruteforce(ctx, 2, m)
        built = q_enumerate(ctx, 2, m)
        if set(brute) != set(built):
            return False, f"brute force and construction differ at m={m}"
        want = variety_total("Q", 2, 2, m)
        if not (len(brute) == len(built) == want):
            return False, f"count {len(brute)} != partition identity {want} at m={m}"
        counts[m] = len(brute)
    if (counts[1], counts[2]) != (3, 5):
        return False, f"counts {counts} changed; expected (3, 5)"
    return True, "counts 3 (m=1) and 5 (m=2), set-equal to the construction"


_CRITERION_3_CONFIG = VerifyConfig(
    qs=(2,), max_n_plus_1=3, max_m=2, seed=0, perturbations=1000
)


def criterion_3(shared):
    "Incidence equivalence: minors vs proportionality, bit for bit."
    ok, detail, checked = _b_two_tests(_CRITERION_3_CONFIG)
    if not ok:
        return False, detail
    return True, f"{checked} families checked, tests always agree"


def criterion_4(shared):
    "Stabilizer theorem: brute force equals prediction for every point."
    stabs, (ok, detail) = _theorem_sweep(shared, _THEOREM_RANGES)
    if ok:
        total = sum(len(v) for v in stabs.values())
        detail = f"{total} points, brute force == predicted throughout"
    return ok, detail


def criterion_5(shared):
    """Unipotent-radical corollary, literal restatement.

    Asserts unipotent_elements(Stab(x)) == unipotent_radical_k(F(x)) and
    stratum separation.  The first identity is mathematically false for
    P strata with dim V' >= 2 and Q strata with dim V' <= n-1 (the theorem
    leaves one diagonal block unconstrained there), so this criterion fails
    at n+1 = 3; the corrected identity via the largest normal p-subgroup is
    reported by the supplementary check.
    """
    ok1, detail1 = check_action_corollary_restated(None, shared, _THEOREM_RANGES)
    ok2, detail2 = check_action_separation(None, shared, _THEOREM_RANGES)
    if not ok1:
        return False, detail1 + "; separation sub-claim: " + ("ok" if ok2 else detail2)
    return ok2, detail2


def criterion_5_supplement(shared):
    "Corrected corollary: largest normal p-subgroup equals the radical."
    ok1, detail1 = check_action_corollary_normal_core(None, shared, _THEOREM_RANGES)
    ok2, detail2 = check_action_separation(None, shared, _THEOREM_RANGES)
    return ok1 and ok2, detail1 or detail2


def criterion_6(shared):
    "Twist-span lemma for every covector point in range."
    return check_action_twist_lemma(VerifyConfig())


def criterion_7(shared):
    "Hand-verifiable spot check in PGL(2, 2) acting on a quartic point."
    ctx = _ctx_for(2, 2, 3)
    gf4 = ctx.subfield_elements(2)
    w = next(a for a in gf4 if a not in (ctx.zero, ctx.one))
    x = PPoint(ctx, (ctx.one, w))
    stab = stabilizer_bruteforce(x)
    if len(stab) != 3:
        return False, f"|Stab| = {len(stab)} != 3"
    for g in stab:
        d = fixpoint_check_omega(x.coords, g.matrix, ctx)
        want = 1 if g.is_identity() else 2
        if d != want:
            return False, f"witness divisor {d} != {want}"
    if stabilizer_predicted(x) != stab:
        return False, "prediction disagrees on the spot check"
    return True, "|Stab| = 3 with the d = 2 branch firing on both 3-cycles"


def criterion_8(shared):
    "Map compatibilities on dense points, with equivariance."
    for q, n_plus_1, ms in _THEOREM_RANGES:
        ctx = _ctx_for(q, n_plus_1, max(ms))
        for m in ms:
            for coords in enumerate_omega(n_plus_1, ctx, m):
                l = PPoint(ctx, coords)
                xb = omega_embed_b(l)
                if pi_map(xb) != l:
                    return False, "pi does not invert the dense embedding"
                if rho_map(xb) != omega_embed_q(l):
                    return False, "rho does not match 1/l on dense points"
    return check_action_omega_equivariance(None)


def criterion_9(shared):
    "Byte-identical exports across different worker counts."
    return check_atlas_export_determinism(VerifyConfig())


ACCEPTANCE = (
    ("1 stratification partitions", criterion_1),
    ("2 reciprocal brute force", criterion_2),
    ("3 incidence equivalence", criterion_3),
    ("4 stabilizer theorem", criterion_4),
    ("5 unipotent corollary (restated)", criterion_5),
    ("5s unipotent corollary (normal core)", criterion_5_supplement),
    ("6 twist-span lemma", criterion_6),
    ("7 spot check PGL(2,2)", criterion_7),
    ("8 map compatibilities", criterion_8),
    ("9 export determinism", criterion_9),
)


def run_acceptance():
    "Run the acceptance criteria; returns a list of CheckResult."
    shared = {}
    return [_timed(f"criterion {name}", lambda: fn(shared)) for name, fn in ACCEPTANCE]
