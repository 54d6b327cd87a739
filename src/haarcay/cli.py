"""Command-line front end.

Groups are given as inline FamilySpec JSON ('{"family":"MpMN1","p":3,...}'),
as @path-to-json, or as compact names like MpMN1(3,1,1), Dihedral(7), Q8.
Connection sets are comma-separated words over the group's named generators
("1,a,a-1,b,ab").  HAARCAY_BUDGET, a positive integer, sets the node budgets of
aut, status, enumerate.

Exit status is 0 only when every executed check passed, 1 when a check
failed or a verdict is unknown, 2 for bad input, which prints one line to
stderr, and 141 (128 + SIGPIPE), silently, when the reader closes stdout.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
from pathlib import Path

from .automorphisms import IR_BUDGET, REGULAR_BUDGET, automorphism_group, cayley_status
from .bicayley import BiCayleyHints
from .cases import (
    CASE_INDEX,
    check_quotient_obstruction,
    enumerate_haar,
    inner_abelian_scan,
    reproduce,
    reproduce_all,
)
from .graphs import haar_graph, is_connected, read_edge_list, write_edge_list
from .groups import (
    GroupTable,
    connection_set,
    elements_of,
    group_from_name,
    group_from_spec,
    quotient,
    subgroup_generated,
)
from .perms import BudgetExceeded


def _budget(default: int) -> int:
    raw = os.environ.get("HAARCAY_BUDGET")
    if not raw:
        return default
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"HAARCAY_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _load_group(spec: str) -> GroupTable:
    spec = spec.strip()
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text(encoding="utf-8")
    if not spec.lstrip().startswith("{"):
        return group_from_name(spec)
    try:
        return group_from_spec(json.loads(spec))
    except RecursionError:
        raise ValueError("FamilySpec nested too deeply") from None


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_build_group(args) -> int:
    H = _load_group(args.group)
    _emit({
        "tag": H.tag,
        "order": H.order,
        "generators": {lbl: e for lbl, e in H.gens},
        "abelian": H.is_abelian(),
    })
    return 0


def cmd_haar(args) -> int:
    H = _load_group(args.group)
    S = connection_set(H, args.set)
    graph, _ = haar_graph(H, S)
    text = write_edge_list(graph)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_aut(args) -> int:
    graph = read_edge_list(Path(args.edges).read_text(encoding="utf-8"))
    try:
        result = automorphism_group(graph, budget=_budget(IR_BUDGET))
    except BudgetExceeded as exc:
        _emit({"verdict": "unknown", "vertices": graph.n, "nodes": exc.nodes,
               "budget_report": {"stage": exc.what, "budget": exc.budget}})
        return 1
    _emit({
        "vertices": graph.n,
        "aut_order": str(decimal.Decimal(result.order)),  # exact past the int-to-str limit
        "orbit_sizes": sorted(len(o) for o in result.orbits),
        "vertex_transitive": len(result.orbits) == 1,
        "generators": [list(p) for p in result.generators],
        "nodes": result.nodes,
    })
    return 0


def cmd_status(args) -> int:
    H = _load_group(args.group)
    S = connection_set(H, args.set)
    graph, _ = haar_graph(H, S)
    cert = cayley_status(graph, hints=BiCayleyHints(H, S),
                         ir_budget=_budget(IR_BUDGET),
                         regular_budget=_budget(REGULAR_BUDGET))
    out = cert.to_json_dict()
    out["group"] = H.tag
    out["set"] = sorted(elements_of(S))
    out["connected"] = is_connected(graph)
    _emit(out)
    return 0 if cert.verdict in ("cayley", "non_cayley") else 1


def cmd_obstruct(args) -> int:
    H = _load_group(args.group)
    normal = subgroup_generated(H, connection_set(H, args.normal))
    Q, _ = quotient(H, normal)
    qset = connection_set(Q, args.qset)
    report = check_quotient_obstruction(H, normal, qset)
    _emit(report.to_json_dict())
    return 0 if report.conclusion == "not_in_bc" else 1


def cmd_reproduce(args) -> int:
    if args.all:
        reports = reproduce_all()
    elif args.case_id:
        try:
            reports = [reproduce(args.case_id)]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        print("give a case id or --all; known cases:", file=sys.stderr)
        for cid in sorted(CASE_INDEX):
            print(f"  {cid}", file=sys.stderr)
        return 2
    ok = True
    for report in reports:
        _emit(report)
        ok = ok and report["pass"]
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    H = _load_group(args.group)
    ok = True
    for S, cert in enumerate_haar(H, connected_only=args.connected, dedupe=args.dedupe,
                                  ir_budget=_budget(IR_BUDGET),
                                  regular_budget=_budget(REGULAR_BUDGET)):
        row = cert.to_json_dict()
        row["set"] = sorted(elements_of(S))
        _emit(row)
        ok = ok and cert.verdict != "unknown"
    return 0 if ok else 1


def cmd_scan_inner_abelian(args) -> int:
    for row in inner_abelian_scan(args.max_order):
        _emit(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarcay",
        description="Haar/bi-Cayley graph construction and Cayley-ness verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-group", help="build a group and print a summary")
    p.add_argument("group")
    p.set_defaults(func=cmd_build_group)

    p = sub.add_parser("haar", help="write a Haar graph as an edge list")
    p.add_argument("group")
    p.add_argument("--set", required=True, help="comma-separated generator words")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("aut", help="automorphism group of an edge-list graph")
    p.add_argument("edges")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("status", help="Cayley/NonCayley certificate for a Haar graph")
    p.add_argument("group")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("obstruct", help="quotient obstruction check")
    p.add_argument("group")
    p.add_argument("--normal", required=True, help="words generating the normal subgroup")
    p.add_argument("--qset", required=True, help="spoke words over the quotient")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("reproduce", help="re-run catalog cases")
    p.add_argument("case_id", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("enumerate", help="classify Haar graphs over all anchored spoke sets")
    p.add_argument("group")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--dedupe", action="store_true",
                   help="one representative per equivalence class")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("scan-inner-abelian",
                       help="inner-abelian groups in the constructor catalog")
    p.add_argument("--max-order", type=int, default=30)
    p.set_defaults(func=cmd_scan_inner_abelian)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout: stop quietly, as a program killed by
        # SIGPIPE would, and keep the flush at exit from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:  # bad input: GroupConstructionError, bad JSON, bad words
        print(f"haarcay: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
