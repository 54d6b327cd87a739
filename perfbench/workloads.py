"""The four workloads: inputs built from a seed, and one pass over them.

A workload builds its inputs once (``build``, timed as set-up) and then runs
passes over them (``run_pass``).  The seeded workloads draw ``VARIANTS``
relabelled copies of their inputs, and pass ``i`` runs copy ``i %
VARIANTS``; where a copy is the same input under other labels, its id
carries ``#<copy>``, and ``run.py`` pools the copies of an input into one
median.  The program's cost depends on the labels it is given (the IR
search on K8,8 minus a matching took 27 to 162 ms across five
relabellings), so with one draw per run a run's figures depended on its
seed by up to a fifth.  Every call into a haarcay entry point goes
through ``call(input_id, fn, summarize)``, which the worker times under the
per-verdict time limit; ``summarize`` turns the result into plain JSON data
and says whether the verdict is definitive.  ``check_data`` hands the checker
what it needs to re-derive each answer without haarcay.

Group tables are copied afresh at the start of every pass, so the group
automorphisms that haarcay caches on a table are paid once per pass, as one
CLI invocation pays them.
"""

from __future__ import annotations

import random
from typing import Callable

from haarcay.automorphisms import automorphism_group, cayley_status
from haarcay.bicayley import BiCayleyHints
from haarcay.cases import CATALOG, anchored_class_representatives, constructor_catalog, run_case
from haarcay.graphs import (
    Graph,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    haar_graph,
    lex_product,
)
from haarcay.groups import (
    GroupTable,
    connection_set,
    elements_of,
    group_from_spec,
    mask_of,
    quotient,
    subgroup_generated,
)
from haarcay.perms import BudgetExceeded

Call = Callable[[str, Callable[[], object], Callable[[object], tuple[dict, bool]]], object]
VARIANTS = 4


def fresh_table(H: GroupTable) -> GroupTable:
    """A copy of the table with an empty automorphism cache."""
    return GroupTable(H.mult, gens=H.gens, tag=H.tag, validate=False)


def relabel_group(H: GroupTable, rng: random.Random) -> tuple[GroupTable, list[int]]:
    """An isomorphic table whose non-identity elements are renamed at random,
    and the renaming (old element -> new element)."""
    n = H.order
    new = [0] + rng.sample(range(1, n), n - 1)
    mult = [[0] * n for _ in range(n)]
    for x in range(n):
        out, row = mult[new[x]], H.mult[x]
        for y in range(n):
            out[new[y]] = new[row[y]]
    return GroupTable(mult, gens=[(lbl, new[e]) for lbl, e in H.gens], tag=H.tag), new


def relabel_graph(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def certificate_summary(cert) -> tuple[dict, bool]:
    out: dict = {"verdict": cert.verdict}
    if cert.regular_generators is not None:
        out["gens"] = [list(p) for p in cert.regular_generators]
    if cert.orbit_partition is not None:
        out["orbits"] = cert.orbit_partition
    if cert.exhausted_search:
        out["exhausted"] = True
    if cert.budget_report is not None:
        out["budget"] = cert.budget_report
    return out, cert.verdict != "unknown"


class Workload:
    name = ""
    limit_s = 0.0

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, call: Call, index: int) -> None:
        raise NotImplementedError

    def check_data(self) -> dict:
        raise NotImplementedError


class Catalog(Workload):
    name = "catalog"
    limit_s = 15.0

    def build(self, seed: int) -> None:
        self.cases = list(CATALOG)
        random.Random(seed).shuffle(self.cases)

    def run_pass(self, call: Call, index: int) -> None:
        for case in self.cases:
            call(case.case_id, lambda case=case: run_case(case),
                 lambda r: ({"verdict": r["verdict"], "pass": r["pass"],
                             "certificate": r["certificate"]}, True))

    def check_data(self) -> dict:
        data = {}
        for case in self.cases:
            H = group_from_spec(case.group)
            if case.kind == "not_vertex_transitive":
                data[case.case_id] = {"mult": H.mult,
                                      "spokes": elements_of(connection_set(H, case.words))}
            elif case.kind == "obstruction":
                normal = subgroup_generated(H, connection_set(H, case.normal_words))
                Q, _ = quotient(H, normal)
                data[case.case_id] = {"mult": Q.mult,
                                      "spokes": elements_of(connection_set(Q, case.quotient_words))}
        return data


ENUMERATE_MAX_ORDER = 11


class Enumerate(Workload):
    name = "enumerate"
    limit_s = 5.0
    ir_budget, regular_budget = 1000, 1000

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        seen: dict[str, GroupTable] = {}
        for H in constructor_catalog(ENUMERATE_MAX_ORDER):
            if H.order >= 4 and H.tag not in seen:
                seen[H.tag] = H
        # per copy: group id "<tag>/<copy>" -> relabelled table.  The class
        # representatives depend on the labels, so the copies' inputs are
        # distinct and their ids carry no "#" to pool them by.
        self.variants = [{f"{tag}/{k}": relabel_group(H, rng)[0] for tag, H in seen.items()}
                         for k in range(VARIANTS)]
        self.reps: dict[str, list[int]] = {}
        self.tables: dict[str, GroupTable] = {}

    def run_pass(self, call: Call, index: int) -> None:
        ir, reg = self.ir_budget, self.regular_budget
        for group_id, table in self.variants[index % VARIANTS].items():
            H = fresh_table(table)
            reps = anchored_class_representatives(H)
            self.reps[group_id], self.tables[group_id] = reps, table
            for S in reps:
                graph, _ = haar_graph(H, S)
                call(f"{group_id}:{S:x}",
                     lambda graph=graph, S=S: cayley_status(
                         graph, hints=BiCayleyHints(H, S), ir_budget=ir, regular_budget=reg),
                     certificate_summary)

    def check_data(self) -> dict:
        """The groups of the copies that ran."""
        data = {"groups": {group_id: {"tag": self.tables[group_id].tag,
                                      "mult": self.tables[group_id].mult,
                                      "classes": len(reps), "anchored": all(S & 1 for S in reps)}
                           for group_id, reps in self.reps.items()}}
        data["inputs"] = {f"{group_id}:{S:x}": {"group": group_id, "spokes": elements_of(S)}
                          for group_id, reps in self.reps.items() for S in reps}
        return data


STATUS_GROUPS = [
    {"family": "MpMN1", "p": 3, "m": 1, "n": 1},
    {"family": "MpMN1", "p": 2, "m": 2, "n": 2},
    {"family": "DirectProduct", "factors": [{"family": "Quaternion"}, {"family": "Cyclic", "n": 2}]},
    {"family": "DirectProduct", "factors": [{"family": "Cyclic", "n": 2}, {"family": "Cyclic", "n": 2},
                                            {"family": "Cyclic", "n": 4}]},
    {"family": "MillerMoreno", "p": 2, "n": 2, "q": 3, "m": 2},
    {"family": "Dihedral", "n": 8},
]
STATUS_SIZES = (3, 4, 5, 6)


class Status(Workload):
    name = "status"
    limit_s = 5.0
    ir_budget, regular_budget = 5000, 5000

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        bases = [group_from_spec(spec) for spec in STATUS_GROUPS]
        # the spoke-set classes are fixed; the run's seed draws, for every
        # copy, the group labels and a two-sided translate x S y of every set
        templates = {}
        for base in bases:
            classes = random.Random(f"status:{base.tag}")
            templates[base.tag] = [classes.sample(range(base.order), size) for size in STATUS_SIZES]
        self.variants = []        # per copy: (input id, relabelled table, spokes, graph)
        for k in range(VARIANTS):
            inputs = []
            for base in bases:
                H, new = relabel_group(base, rng)
                for size, template in zip(STATUS_SIZES, templates[base.tag]):
                    x, y = rng.randrange(base.order), rng.randrange(base.order)
                    S = mask_of(H.mult[H.mult[x][new[s]]][y] for s in template)
                    graph, _ = haar_graph(H, S)
                    inputs.append((f"{H.tag}#{k}:{size}", H, S, graph))
            self.variants.append(inputs)

    def run_pass(self, call: Call, index: int) -> None:
        ir, reg = self.ir_budget, self.regular_budget
        tables: dict[int, GroupTable] = {}
        for input_id, table, S, graph in self.variants[index % VARIANTS]:
            H = tables.setdefault(id(table), fresh_table(table))
            call(input_id,
                 lambda H=H, S=S, graph=graph: cayley_status(
                     graph, hints=BiCayleyHints(H, S), ir_budget=ir, regular_budget=reg),
                 certificate_summary)

    def check_data(self) -> dict:
        return {"inputs": {input_id: {"mult": H.mult, "spokes": elements_of(S)}
                           for inputs in self.variants for input_id, H, S, _ in inputs}}


def _minus_matching(n: int) -> Graph:
    g = complete_bipartite(n, n)
    for i in range(n):
        g.rows[i] &= ~(1 << (n + i))
        g.rows[n + i] &= ~(1 << i)
    return g


def _petersen() -> Graph:
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)] +
                            [(5 + i, 5 + (i + 2) % 5) for i in range(5)] +
                            [(i, i + 5) for i in range(5)])


GENERIC_STATUS_MAX_VERTICES = 24
# the IR search on this catalog graph costs 0.17 to 1.7 s depending on the
# relabelling, which alone took the p90 spread over ten seeds from 13% to 23%
RELABELLING_SENSITIVE = ("m2221-not-vt",)
# generic status would only spend its regular-search budget here
GENERIC_SKIP = ("K10,10",)


class Edgelist(Workload):
    name = "edgelist"
    limit_s = 1.5
    ir_budget, regular_budget = 5000, 1000

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        base: list[tuple[str, dict, Graph]] = []
        for n in (6, 8, 10):
            base.append((f"K{n},{n}", {"family": "Knn", "n": n}, complete_bipartite(n, n)))
        for n in (6, 8):
            base.append((f"K{n},{n}-M", {"family": "Knn-M", "n": n}, _minus_matching(n)))
        for n in (8, 12):
            base.append((f"E{n}", {"family": "E", "n": n}, empty_graph(n)))
        for case in CATALOG:
            if case.kind != "not_vertex_transitive" or case.case_id in RELABELLING_SENSITIVE:
                continue
            H = group_from_spec(case.group)
            graph, _ = haar_graph(H, connection_set(H, case.words))
            base.append((case.case_id, {"family": "intransitive"}, graph))
            if H.order <= 14:
                base.append((f"{case.case_id}[E2]", {"family": "blowup", "of": case.case_id},
                             lex_product(graph, empty_graph(2))))
        base += [("petersen", {"family": "petersen"}, _petersen()),
                 ("C24", {"family": "cycles", "k": 1, "n": 24}, cycle_graph(24)),
                 ("4C6", {"family": "cycles", "k": 4, "n": 6},
                  disjoint_union([cycle_graph(6)] * 4)),
                 ("3C8", {"family": "cycles", "k": 3, "n": 8},
                  disjoint_union([cycle_graph(8)] * 3))]
        self.variants = []        # per copy: (input id, info, relabelled graph, generic)
        for k in range(VARIANTS):
            inputs = []
            for input_id, info, graph in base:
                generic = (graph.n <= GENERIC_STATUS_MAX_VERTICES and input_id not in GENERIC_SKIP) \
                    or info["family"] in ("petersen", "cycles")
                if "of" in info:
                    info = dict(info, of=f"{info['of']}#{k}")
                inputs.append((f"{input_id}#{k}", info, relabel_graph(graph, rng), generic))
            self.variants.append(inputs)

    def run_pass(self, call: Call, index: int) -> None:
        ir, reg = self.ir_budget, self.regular_budget
        for input_id, _, graph, generic in self.variants[index % VARIANTS]:
            call(f"{input_id}:aut", lambda graph=graph: _aut_with_order(graph, ir), _aut_summary)
            if generic:
                call(f"{input_id}:status",
                     lambda graph=graph: cayley_status(graph, ir_budget=ir, regular_budget=reg),
                     certificate_summary)

    def check_data(self) -> dict:
        return {"inputs": {input_id: dict(info, rows=graph.rows)
                           for inputs in self.variants for input_id, info, graph, _ in inputs}}


def _aut_with_order(graph: Graph, budget: int):
    """What ``haarcay aut`` computes; an exhausted budget is returned."""
    try:
        result = automorphism_group(graph, budget=budget)
    except BudgetExceeded as exc:
        return exc
    return result, result.group.order


def _aut_summary(out) -> tuple[dict, bool]:
    if isinstance(out, BudgetExceeded):
        return {"verdict": "unknown", "budget": {"stage": out.what, "budget": out.budget}}, False
    result, order = out
    return {"order": str(order), "gens": [list(p) for p in result.generators],
            "orbits": len(result.orbits)}, True


WORKLOADS = {w.name: w for w in (Catalog, Enumerate, Status, Edgelist)}
