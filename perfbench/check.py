"""Independent checks of every answer, without haarcay.

Certificates are re-checked with this file's own code (edge preservation,
closure of the generators to a group acting regularly), intransitivity with
networkx (``vf2pp_is_isomorphic`` on two copies of the graph rooted at
vertices of different parts), and automorphism group orders against closed
forms or sympy's order of the returned generators.  Graphs with group
provenance are rebuilt here from the multiplication table: vertex h of part 0
is joined to vertex n + s*h of part 1 for each spoke s.

Each ``check_<workload>`` returns a list of (input id, reason) failures.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

import networkx as nx
from sympy.combinatorics import Permutation, PermutationGroup

# The catalog's verdicts, written out here rather than read from haarcay.
CATALOG_EXPECTED = {
    "a4-not-vt": "not_vertex_transitive",
    "d14-not-vt": "not_vertex_transitive",
    "d22-not-vt": "not_vertex_transitive",
    "d26-not-vt": "not_vertex_transitive",
    "m2211-not-vt": "not_vertex_transitive",
    "m222-not-vt": "not_vertex_transitive",
    "m2221-not-vt": "not_vertex_transitive",
    "m3111-not-vt": "not_vertex_transitive",
    "z3-z4-not-vt": "not_vertex_transitive",
    "z5-z4-not-vt": "not_vertex_transitive",
    "z23-z7-not-vt": "not_vertex_transitive",
    "z24-z5-not-vt": "not_vertex_transitive",
    "q8-all-connected-cayley": "all_cayley",
    "dihedral-bc-4": "all_cayley",
    "dihedral-bc-6": "all_cayley",
    "dihedral-bc-8": "all_cayley",
    "dihedral-bc-10": "all_cayley",
    "obstruct-m232": "not_in_bc",
    "obstruct-z22-z9": "inconclusive",
    "obstruct-z22-z9-repaired": "not_in_bc",
    "obstruct-z7-z4": "not_in_bc",
    "obstruct-z5-z8": "not_in_bc",
}
# classes found by the catalog's enumeration cases
CATALOG_CLASSES = {"q8-all-connected-cayley": 9, "dihedral-bc-4": 4, "dihedral-bc-6": 9,
                   "dihedral-bc-8": 20, "dihedral-bc-10": 23}

# Anchored spoke-set classes per group (invariant under relabelling).
ENUMERATE_CLASSES = {
    "Cyclic(4)": 5, "Cyclic(5)": 5, "Cyclic(6)": 12, "Cyclic(7)": 9, "Cyclic(8)": 23,
    "Cyclic(9)": 21, "Cyclic(10)": 44, "Cyclic(11)": 29,
    "Dihedral(2)": 4, "Dihedral(3)": 9, "Dihedral(4)": 20, "Dihedral(5)": 23,
    "Q8": 14, "MpMN(2,2,1)": 20, "MillerMoreno(3,1,2,1)": 9, "MillerMoreno(5,1,2,1)": 23,
    "Cyclic(2)xCyclic(2)": 4, "Cyclic(2)xCyclic(4)": 21, "Cyclic(3)xCyclic(3)": 13,
    "Cyclic(2)xCyclic(2)xCyclic(2)": 9,
}


def haar_adjacency(mult, spokes) -> list[set[int]]:
    n = len(mult)
    adj = [set() for _ in range(2 * n)]
    for s in spokes:
        for h in range(n):
            adj[h].add(n + mult[s][h])
            adj[n + mult[s][h]].add(h)
    return adj


def rows_adjacency(rows) -> list[set[int]]:
    return [{u for u in range(len(rows)) if (row >> u) & 1} for row in rows]


def is_automorphism(adj: list[set[int]], p) -> bool:
    n = len(adj)
    if sorted(p) != list(range(n)):
        return False
    return all({p[u] for u in adj[v]} == adj[p[v]] for v in range(n))


def is_regular_group(gens, n: int) -> bool:
    """The generators close to exactly n permutations and move 0 everywhere."""
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in elements:
                elements.add(h)
                if len(elements) > n:
                    return False
                frontier.append(h)
    return len(elements) == n and {g[0] for g in elements} == set(range(n))


def rooted_apart(adj: list[set[int]], u: int, v: int) -> bool:
    """No automorphism maps u to v: the copies rooted at u and at v differ."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    graph.add_edges_from((a, b) for a in range(len(adj)) for b in adj[a] if a < b)
    g1, g2 = graph.copy(), graph.copy()
    g1.nodes[u]["root"] = 1
    g2.nodes[v]["root"] = 1
    return not nx.vf2pp_is_isomorphic(g1, g2, node_label="root", default_label=0)


def sympy_order(gens, n: int) -> int:
    if not gens:
        return 1
    return PermutationGroup([Permutation(list(g), size=n) for g in gens]).order()


def translate_fixers(mult, spokes) -> list[int]:
    """Non-identity t with S t = S or t S = S."""
    S = set(spokes)
    return [t for t in range(1, len(mult))
            if {mult[s][t] for s in S} == S or {mult[t][s] for s in S} == S]


def check_certificate(adj: list[set[int]], out: dict, exhausted_ok: bool = False) -> str | None:
    """Reason a status answer fails, or None.  Unknown needs a budget report.
    An exhausted-search NonCayley verdict cannot be re-derived here; it is
    accepted only where the caller knows the graph is not Cayley."""
    verdict = out.get("verdict")
    if verdict == "cayley":
        gens = out.get("gens") or []
        if not gens or not all(is_automorphism(adj, p) for p in gens):
            return "a Cayley generator is not an automorphism"
        if not is_regular_group(gens, len(adj)):
            return "the Cayley generators do not close to a regular group"
        return None
    if verdict == "non_cayley":
        orbits = out.get("orbits")
        if orbits is None:
            return None if out.get("exhausted") and exhausted_ok else \
                "NonCayley without a witness that can be checked"
        if len(orbits) < 2 or sorted(v for o in orbits for v in o) != list(range(len(adj))):
            return "the orbit partition does not split the vertices"
        if not rooted_apart(adj, orbits[0][0], orbits[1][0]):
            return "two orbits of the partition are joined by an automorphism"
        return None
    if verdict == "unknown":
        return None if out.get("budget") else "unknown without a budget report"
    return f"unexpected answer {out!r}"


def check_catalog(data: dict, outputs: dict) -> list[tuple[str, str]]:
    failures = []
    for case_id, out in outputs.items():
        expected = CATALOG_EXPECTED.get(case_id)
        if out.get("verdict") != expected or not out.get("pass"):
            failures.append((case_id, f"verdict {out.get('verdict')!r}, expected {expected!r}"))
            continue
        if case_id in CATALOG_CLASSES:
            cert = out["certificate"]
            if cert.get("classes") != CATALOG_CLASSES[case_id] or cert.get("cayley") != cert.get("classes"):
                failures.append((case_id, f"class counts {cert}"))
            continue
        case = data.get(case_id)
        if case is None:
            continue
        mult, spokes = case["mult"], case["spokes"]
        adj = haar_adjacency(mult, spokes)
        apart = rooted_apart(adj, 0, len(mult))
        fixers = translate_fixers(mult, spokes)
        if expected == "not_vertex_transitive" and not apart:
            failures.append((case_id, "an automorphism swaps the two parts"))
        elif expected == "not_in_bc" and (not apart or fixers):
            failures.append((case_id, "quotient graph transitive or spoke set not translate-free"))
        elif expected == "inconclusive" and not (apart and fixers):
            failures.append((case_id, "the witness should be intransitive with a translate fixer"))
    return failures


def check_enumerate(data: dict, outputs: dict) -> list[tuple[str, str]]:
    failures = []
    for group_id, group in data["groups"].items():
        expected = ENUMERATE_CLASSES.get(group["tag"])
        if group["classes"] != expected or not group["anchored"]:
            failures.append((group_id, f"{group['classes']} classes, expected {expected}"))
    for input_id, out in outputs.items():
        item = data["inputs"][input_id]
        adj = haar_adjacency(data["groups"][item["group"]]["mult"], item["spokes"])
        reason = check_certificate(adj, out)
        if reason:
            failures.append((input_id, reason))
    return failures


def check_status(data: dict, outputs: dict) -> list[tuple[str, str]]:
    failures = []
    for input_id, out in outputs.items():
        item = data["inputs"][input_id]
        reason = check_certificate(haar_adjacency(item["mult"], item["spokes"]), out)
        if reason:
            failures.append((input_id, reason))
    return failures


def _closed_form(item: dict, orders: dict, base_rows: dict) -> int | None:
    family = item["family"]
    if family == "Knn":
        return 2 * factorial(item["n"]) ** 2
    if family == "Knn-M":
        return 2 * factorial(item["n"])
    if family == "E":
        return factorial(item["n"])
    if family == "petersen":
        return 120
    if family == "cycles":
        k, n = item["k"], item["n"]
        return (2 * n) ** k * factorial(k)
    if family == "blowup" and item["of"] in orders:
        # Sabidussi: Aut(X[E2]) = S2 wr Aut(X) when no two vertices of X share
        # an open neighbourhood.  Where some do, Aut is the product of the
        # symmetric groups on those twin classes extended by the same
        # quotient group, and blowing up doubles every class: c! -> (2c)!.
        order = orders[item["of"]]
        for c in Counter(base_rows[item["of"]]).values():
            order = order * factorial(2 * c) // factorial(c)
        return order
    return None


def check_edgelist(data: dict, outputs: dict) -> list[tuple[str, str]]:
    failures = []
    inputs = data["inputs"]
    orders = {}
    base_rows = {input_id: item["rows"] for input_id, item in inputs.items()}
    for input_id, item in inputs.items():
        out = outputs.get(f"{input_id}:aut")
        if out and "order" in out:
            orders[input_id] = int(out["order"])
    for key, out in outputs.items():
        input_id, call = key.rsplit(":", 1)
        item = inputs[input_id]
        adj = rows_adjacency(item["rows"])
        if "error" in out:
            failures.append((key, out["error"]))
            continue
        if call == "aut":
            if out.get("verdict") == "unknown":
                continue
            gens = out["gens"]
            if not all(is_automorphism(adj, p) for p in gens):
                failures.append((key, "a generator is not an automorphism"))
                continue
            order = int(out["order"])
            if order != sympy_order(gens, len(adj)):
                failures.append((key, "order differs from sympy's order of the generators"))
            expected = _closed_form(item, orders, base_rows)
            if expected is not None and order != expected:
                failures.append((key, f"order {order}, closed form {expected}"))
            continue
        reason = check_certificate(adj, out, exhausted_ok=item["family"] == "petersen")
        truth = {"intransitive": "non_cayley", "petersen": "non_cayley"}.get(item["family"], "cayley")
        if reason is None and out.get("verdict") not in (truth, "unknown"):
            reason = f"verdict {out.get('verdict')!r} on a graph that is {truth}"
        if reason:
            failures.append((key, reason))
    return failures


CHECKS = {"catalog": check_catalog, "enumerate": check_enumerate,
          "status": check_status, "edgelist": check_edgelist}
