"""Command-line surface: classify, stabilizer, strata, count, verify.

Points travel as JSON ({"kind": "P"|"Q"|"B", "field": {...}, "data": ...});
atlases export as canonical JSON, DOT (Hasse diagram of the closure order)
or a plain text table.  All outputs are byte-deterministic for fixed inputs,
whatever --jobs is.
"""

import argparse
import json
import sys
from functools import lru_cache

from .atlas import build_atlas, export
from .counts import check_desk_scale
from .errors import InvariantViolation
from .field import FieldCtx, context_for
from .points import (
    PPoint,
    QPoint,
    b_classify,
    b_validate,
    flag_str,
    p_classify,
    point_from_obj,
    q_classify,
    q_table_from_obj,
    q_validate,
    subspace_str,
    vector_str,
)
from .action import (
    stabilizer_bruteforce,
    stabilizer_predicted,
    unipotent_elements,
)
from .verify import CHECKS, VerifyConfig, run_acceptance, verify_all


def _at_least(args, name, low):
    "ValueError unless the option --name is at least low."
    value = getattr(args, name)
    if value < low:
        option = "--" + name.replace("_", "-")
        raise ValueError(f"{option} must be at least {low}, got {value}")


def _out_json(obj):
    "obj as one line of canonical JSON."
    _out(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n")


def _out(data):
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _read_obj(args):
    if args.input and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --input {args.input}: {exc.strerror or exc}") from None
    else:
        obj = json.load(sys.stdin)
    if not isinstance(obj, dict):
        raise ValueError("point JSON must be an object")
    return obj


def cmd_classify(args):
    # validity is part of the report, so the axioms are checked on the raw
    # data instead of being enforced by the constructors
    obj = _read_obj(args)
    if obj.get("kind") == "Q":
        ctx, n_plus_1, table = q_table_from_obj(obj)
        check = q_validate(table, ctx, n_plus_1)
        result = {"variety": "Q", "valid": bool(check)}
        if check:
            point = QPoint(ctx, n_plus_1, table, validate=False)
            result["stratum"] = subspace_str(q_classify(point), ctx)
        else:
            result["reason"] = check.code
            if check.witness:
                result["witness"] = repr(check.witness)
    else:
        point = point_from_obj(obj, validate=False)
        ctx = point.ctx
        if isinstance(point, PPoint):
            result = {"variety": "P", "valid": True,
                      "stratum": subspace_str(p_classify(point), ctx)}
        else:
            check = b_validate(point)
            result = {"variety": "B", "valid": bool(check)}
            if check:
                result["stratum"] = flag_str(b_classify(point), ctx)
            else:
                result["reason"] = check.code
    if args.format == "json":
        _out_json(result)
    else:
        for key in ("variety", "valid", "stratum", "reason", "witness"):
            if key in result:
                print(f"{key}: {str(result[key]).lower() if key == 'valid' else result[key]}")
    return 0


def _matrix_str(g):
    return ";".join(vector_str(row, g.ctx) for row in g.matrix)


def cmd_stabilizer(args):
    point = point_from_obj(_read_obj(args))
    brute = stabilizer_bruteforce(point)
    predicted = stabilizer_predicted(point)
    uni = unipotent_elements(brute)
    result = {
        "order": len(brute),
        "members": [_matrix_str(g) for g in brute],
        "unipotent": [_matrix_str(g) for g in uni],
        "bruteforce_equals_predicted": brute == predicted,
    }
    if args.format == "json":
        _out_json(result)
    else:
        print(f"order: {result['order']}")
        print(f"bruteforce_equals_predicted: {str(result['bruteforce_equals_predicted']).lower()}")
        print("members:")
        for s in result["members"]:
            print(f"  {s}")
        print("unipotent:")
        for s in result["unipotent"]:
            print(f"  {s}")
    return 0 if result["bruteforce_equals_predicted"] else 1


def _parse_m_list(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(int(part))
    if not out or any(m < 1 for m in out):
        raise ValueError(f"bad extension list {text!r}")
    return sorted(set(out))


def _build(args):
    _at_least(args, "n", 1)
    _at_least(args, "jobs", 1)
    m_list = _parse_m_list(args.m) if args.m else []
    ctx = context_for(args.p, args.e, args.n + 1, m_list or [1])
    cache_dir = None if args.no_cache else args.cache_dir
    return build_atlas(
        args.variety,
        args.n + 1,
        ctx,
        m_list,
        jobs=args.jobs,
        cache_dir=cache_dir,
    )


def cmd_strata(args):
    atlas = _build(args)
    _out(export(atlas, args.format))
    return 0


def cmd_count(args):
    atlas = _build(args)
    if args.format == "json":
        obj = {
            "variety": atlas.variety,
            "q": atlas.q,
            "n": atlas.n,
            "totals": {str(m): atlas.total(m) for m in sorted(atlas.counts)},
            "strata": {
                key: {str(m): atlas.counts[m][key] for m in sorted(atlas.counts)}
                for key, _ in atlas.nodes
            },
        }
        _out_json(obj)
    else:
        _out(export(atlas, "text"))
    return 0


def cmd_verify(args):
    exit_code = 0
    if args.acceptance:
        results = run_acceptance()
    else:
        try:
            for name, low in (
                ("max_n", 1), ("max_m", 1), ("perturbations", 0), ("jobs", 1)
            ):
                _at_least(args, name, low)
            qs = tuple(int(t) for t in args.q.split(","))
            for q in qs:
                # the suites run over prime fields (the field's size bound is
                # checked before primality) and build every B point in range
                FieldCtx(q, 1, 1)
                check_desk_scale("B", args.max_n + 1, q, range(1, args.max_m + 1))
            suites = tuple(t for t in args.suites.split(",") if t) if args.suites else ()
            cfg = VerifyConfig(
                qs=qs,
                max_n_plus_1=args.max_n + 1,
                max_m=args.max_m,
                seed=args.seed,
                perturbations=args.perturbations,
                jobs=args.jobs,
                suites=suites,
            )
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        names = [name for name, _ in CHECKS]
        known = set(names) | {name.split(".")[0] for name in names}
        for s in cfg.suites:
            if s not in known:
                print(f"configuration error: unknown suite {s!r}", file=sys.stderr)
                return 2
        results = verify_all(cfg)
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        line = f"[{mark}] {r.name} ({r.seconds:.2f}s)"
        if not r.ok and r.detail:
            line += f"\n       {r.detail}"
        print(line)
        if not r.ok:
            exit_code = 1
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} checks passed")
    return exit_code


@lru_cache(maxsize=None)
def _parser():
    "The argument parser, built on first use and shared by every main call."
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description=(
            "Exact points, strata and stabilizers for the three "
            "compactifications of the Drinfeld half space over a finite field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # allow_abbrev=False: a prefix of one option must not silently stand in
    # for another (verify --p would otherwise read as --perturbations)
    for name, fn, help_text in (
        ("classify", cmd_classify, "classify a point read as JSON"),
        ("stabilizer", cmd_stabilizer, "stabilizer of a point read as JSON"),
    ):
        p_cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p_cmd.add_argument("--input", default="-", help="point JSON file, - for stdin")
        p_cmd.add_argument("--format", choices=("text", "json"), default="text")
        p_cmd.set_defaults(fn=fn)

    for name, fn, help_text in (
        ("strata", cmd_strata, "stratification poset with counts"),
        ("count", cmd_count, "per-stratum point counts"),
    ):
        p_cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p_cmd.add_argument("--variety", choices=("P", "Q", "B"), required=True)
        p_cmd.add_argument("--n", type=int, required=True, help="dim V = n+1")
        p_cmd.add_argument("--m", default="", help="extension degrees, e.g. 1,2")
        p_cmd.add_argument(
            "--format",
            choices=("json", "dot", "text"),
            default="text" if name == "count" else "json",
        )
        p_cmd.add_argument("--cache-dir", default=None)
        p_cmd.add_argument("--no-cache", action="store_true")
        p_cmd.add_argument("--p", type=int, default=2, help="field characteristic")
        p_cmd.add_argument("--e", type=int, default=1, help="base degree, q = p^e")
        p_cmd.add_argument("--jobs", type=int, default=1, help="worker processes")
        p_cmd.set_defaults(fn=fn)

    p_verify = sub.add_parser(
        "verify", help="run invariant suites / acceptance", allow_abbrev=False
    )
    p_verify.add_argument("--acceptance", action="store_true",
                          help="run the pinned acceptance criteria instead")
    p_verify.add_argument("--q", default="2", help="comma list of field sizes")
    p_verify.add_argument("--max-n", type=int, default=2, help="largest n (dim V = n+1)")
    p_verify.add_argument("--max-m", type=int, default=2)
    p_verify.add_argument("--perturbations", type=int, default=1000)
    p_verify.add_argument("--suites", default="", help="comma list, e.g. field,points")
    p_verify.add_argument(
        "--seed", type=int, default=0,
        help="seed for randomized perturbation tests (results stay deterministic)",
    )
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, InvariantViolation, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
