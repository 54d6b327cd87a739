"""Golden digests of the program's outputs.

Each section is a SHA-256 over canonical JSON (sorted keys, no spaces) of
a fixed set of outputs, with every ``millis`` field stripped; everything
else, node counts included, must stay byte-identical.  A change that alters
an output on purpose updates the digest of its section and says why in
CHANGES.md.
"""

import hashlib
import json
import random

from haarcay import automorphisms
from haarcay.automorphisms import automorphism_group, cayley_status
from haarcay.bicayley import BiCayleyHints
from haarcay.cases import (
    CATALOG,
    anchored_class_representatives,
    constructor_catalog,
    reproduce_all,
)
from haarcay.graphs import (
    Graph,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    haar_graph,
    lex_product,
)
from haarcay.groups import connection_set, group_from_spec
from haarcay.perms import BudgetExceeded, PermGroup

GOLDEN = {
    "reproduce": "03a279ec6d6fa77fdad6274cf5e732635ee8edab0c23eb13d79436421c33502e",
    "hinted": "c39a27554668bace337acd30c1b6be31a0ec388f1d707d88a1278d317b62bb80",
    "generic": "eb85081ee051e41b73cdc8583424d2186978370e00662f995aa1c22d764f5d01",
}


def _strip_millis(obj):
    if isinstance(obj, dict):
        return {k: _strip_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, (list, tuple)):
        return [_strip_millis(v) for v in obj]
    return obj


def _digest(obj) -> str:
    text = json.dumps(_strip_millis(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _hinted():
    """Hinted status at budgets 1000/1000 on every anchored class of the
    catalog groups of order 4 to 11, one group per tag."""
    out = []
    seen = set()
    for H in constructor_catalog(11):
        if H.order < 4 or H.tag in seen:
            continue
        seen.add(H.tag)
        for S in anchored_class_representatives(H):
            graph, _ = haar_graph(H, S)
            cert = cayley_status(graph, hints=BiCayleyHints(H, S), ir_budget=1000,
                                 regular_budget=1000)
            out.append([H.tag, S, cert.to_json_dict()])
    return out


def _minus_matching(n: int) -> Graph:
    g = complete_bipartite(n, n)
    for i in range(n):
        g.rows[i] &= ~(1 << (n + i))
        g.rows[n + i] &= ~(1 << i)
    return g


def _generic_graphs():
    """(name, graph, whether generic status runs): complete bipartite graphs,
    K6,6 and K8,8 minus a matching, empty graphs, the catalog's intransitive
    Haar graphs (but m2221-not-vt, whose search is slow) and their [E2]
    blow-ups up to order 14, Petersen, C24, 4C6, 3C8, 50C5 and 20 Petersens
    (one part level over many isomorphic parts); then K8,8 minus a matching
    under the relabellings ``random.Random(s).shuffle``, s < 16.  Generic
    status runs up to 24 vertices (not on K10,10), on Petersen, the cycles
    and the copies."""
    base = [(f"K{n},{n}", complete_bipartite(n, n)) for n in (6, 8, 10)]
    base += [(f"K{n},{n}-M", _minus_matching(n)) for n in (6, 8)]
    base += [(f"E{n}", empty_graph(n)) for n in (8, 12)]
    for case in CATALOG:
        if case.kind != "not_vertex_transitive" or case.case_id == "m2221-not-vt":
            continue
        H = group_from_spec(case.group)
        graph, _ = haar_graph(H, connection_set(H, case.words))
        base.append((case.case_id, graph))
        if H.order <= 14:
            base.append((f"{case.case_id}[E2]", lex_product(graph, empty_graph(2))))
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)] +
                                [(5 + i, 5 + (i + 2) % 5) for i in range(5)] +
                                [(i, i + 5) for i in range(5)])
    cycles = [("C24", cycle_graph(24)), ("4C6", disjoint_union([cycle_graph(6)] * 4)),
              ("3C8", disjoint_union([cycle_graph(8)] * 3)),
              ("50C5", disjoint_union([cycle_graph(5)] * 50)),
              ("20petersen", disjoint_union([petersen] * 20))]
    for name, graph in base:
        yield name, graph, graph.n <= 24 and name != "K10,10"
    for name, graph in [("petersen", petersen)] + cycles:
        yield name, graph, True
    k88 = _minus_matching(8)
    for s in range(16):
        perm = list(range(16))
        random.Random(s).shuffle(perm)
        yield f"K8,8-M/{s}", k88.relabel(perm), True


def _generic():
    """The automorphism search at budget 5000 and generic status at budgets
    5000/1000 on ``_generic_graphs``."""
    out = []
    for name, graph, generic in _generic_graphs():
        try:
            res = automorphism_group(graph, budget=5000)
            aut = [str(res.order), res.generators, res.orbits, res.canonical, res.base, res.nodes]
        except BudgetExceeded as exc:
            aut = ["unknown", exc.what, exc.budget]
        status = cayley_status(graph, ir_budget=5000, regular_budget=1000).to_json_dict() \
            if generic else None
        out.append([name, aut, status])
    return out


def test_outputs_match_the_golden_digests():
    """Every section's digest is the recorded one; a mismatch names the
    section."""
    got = {"reproduce": _digest(reproduce_all()), "hinted": _digest(_hinted()),
           "generic": _digest(_generic())}
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, f"outputs changed in section(s) {changed}: {got}"


def test_the_exit_check_of_generic_status_builds_no_perm_group(monkeypatch):
    """The certificate check at the exit of ``cayley_status`` closes the
    generators and reads the partition itself: on every generic verdict of
    the golden section it passes with ``PermGroup`` refused.  Only the
    check is patched, since the regular search still walks a stabilizer."""
    check = automorphisms.verify_certificate
    verdicts = []

    def refuse(self, *args, **kwargs):
        raise AssertionError("the certificate check built a PermGroup")

    def guarded(graph, cert):
        with monkeypatch.context() as m:
            m.setattr(PermGroup, "__init__", refuse)
            ok = check(graph, cert)
        verdicts.append(cert.verdict)
        return ok

    monkeypatch.setattr(automorphisms, "verify_certificate", guarded)
    unknown = 0
    for _, graph, generic in _generic_graphs():
        if generic:
            unknown += cayley_status(graph, ir_budget=5000, regular_budget=1000).verdict == "unknown"
    assert (verdicts.count("cayley"), verdicts.count("non_cayley"), unknown) == (20, 4, 6)
