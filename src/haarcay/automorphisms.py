"""Graph automorphism groups via individualization-refinement, isomorphism
through canonical forms, and Cayley-ness certificates.

The search is a partition-backtrack in the McKay style, simplified for desk
scale: start from the uniform colouring (never from a known bipartition, so
part-swapping automorphisms stay discoverable), refine to an equitable
partition with a splitter worklist, branch on the lowest-index vertex of the
first smallest non-singleton cell, and prune sibling branches that a
discovered automorphism fixing the branch prefix maps onto an explored one.
Automorphisms are read off leaf pairs whose relabelled graphs coincide; every
emitted generator is verified edge-preserving before use.  The minimal leaf
key doubles as a canonical form.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bicayley import (
    BiCayleyHints,
    cayley_certificate_from_swaps,
    right_translation_group_perms,
)
from .graphs import Graph
from .groups import mask_of
from .perms import BudgetExceeded, Perm, PermGroup, identity_perm, is_identity, pinv, pmul

IR_BUDGET = 10 ** 7
REGULAR_BUDGET = 10 ** 7


def _twin_swaps(graph: Graph) -> list[Perm]:
    """Transpositions of twin vertices (equal open or closed neighbourhoods)
    are always automorphisms; seeding them collapses the blow-up blocks of
    lexicographic-product-like graphs."""
    open_classes: dict[int, list[int]] = {}
    closed_classes: dict[int, list[int]] = {}
    for v in range(graph.n):
        open_classes.setdefault(graph.rows[v], []).append(v)
        closed_classes.setdefault(graph.rows[v] | (1 << v), []).append(v)
    ident = list(range(graph.n))
    out = []
    for classes in (open_classes, closed_classes):
        for members in classes.values():
            rep = members[0]
            for v in members[1:]:
                p = list(ident)
                p[rep], p[v] = v, rep
                out.append(tuple(p))
    return out


def _refine(rows: Sequence[int], cells: list[list[int]],
            splitters: Iterable[int]) -> list[list[int]]:
    """Equitable refinement: split cells by neighbour counts into splitter
    masks until stable.  Deterministic and relabelling-equivariant (cells are
    kept in sequence order, sub-cells ordered by count key)."""
    queue = deque(splitters)
    live = sum(1 for c in cells if len(c) > 1)
    while queue and live:
        w_mask = queue.popleft()
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((rows[v] & w_mask).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                live -= 1
                for key in sorted(buckets):
                    part = buckets[key]
                    out.append(part)
                    if len(part) > 1:
                        live += 1
                    queue.append(mask_of(part))
        cells = out
    return cells


class _OrbitCache:
    """Union-find over the discovered generators that fix a node's prefix.
    Updates are incremental: only generators added since the last call are
    inspected (the prefix is fixed for the cache's lifetime)."""

    def __init__(self, n: int, prefix: tuple[int, ...]):
        self.n = n
        self.prefix = prefix
        self.gen_count = 0
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def update(self, gens: list[Perm]) -> None:
        for g in gens[self.gen_count:]:
            if all(g[x] == x for x in self.prefix):
                for x in range(self.n):
                    rx, ry = self.find(x), self.find(g[x])
                    if rx != ry:
                        self.parent[ry] = rx
        self.gen_count = len(gens)


@dataclass
class AutResult:
    degree: int
    generators: list[Perm]
    orbits: list[list[int]]
    canonical: Perm          # vertex -> canonical position
    canonical_key: tuple
    nodes: int
    _group: Optional[PermGroup] = field(default=None, repr=False)

    @property
    def group(self) -> PermGroup:
        """Base-and-strong-generating-set view with vertex 0 as the first
        base point, so the regular search can use it as it is; built on first
        use (orbits and canonical data never need it)."""
        if self._group is None:
            self._group = PermGroup(self.degree, self.generators,
                                    base_prefix=[0] if self.degree else [])
        return self._group


class _AutSearch:
    def __init__(self, graph: Graph, seeds: Sequence[Perm], budget: int):
        self.graph = graph
        self.rows = graph.rows
        self.n = graph.n
        self.budget = budget
        self.nodes = 0
        self.gens: list[Perm] = []
        for s in list(seeds) + _twin_swaps(graph):
            s = tuple(s)
            if not is_identity(s) and s not in self.gens:
                if not graph.is_automorphism(s):
                    raise ValueError("seed permutation is not an automorphism")
                self.gens.append(s)
        self.first: Optional[tuple[Perm, tuple]] = None
        self.best: Optional[tuple[Perm, tuple]] = None

    def run(self) -> AutResult:
        if self.n == 0:
            return AutResult(0, [], [], (), (), 0)
        cells = _refine(self.rows, [list(range(self.n))], [(1 << self.n) - 1])
        self._search(cells, ())
        root = _OrbitCache(self.n, ())
        root.update(self.gens)
        buckets: dict[int, list[int]] = {}
        for v in range(self.n):
            buckets.setdefault(root.find(v), []).append(v)
        orbits = [buckets[k] for k in sorted(buckets)]
        return AutResult(self.n, list(self.gens), orbits,
                         self.best[0], self.best[1], self.nodes)

    def _search(self, cells: list[list[int]], prefix: tuple[int, ...]) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded("automorphism search", self.budget)
        target = -1
        size = self.n + 1
        for idx, cell in enumerate(cells):
            if 1 < len(cell) < size:
                target = idx
                size = len(cell)
        if target < 0:
            self._leaf(cells)
            return
        cell = cells[target]
        orbit_cache = _OrbitCache(self.n, prefix)
        explored: list[int] = []
        for v in cell:
            orbit_cache.update(self.gens)
            if any(orbit_cache.find(v) == orbit_cache.find(u) for u in explored):
                continue
            child = cells[:target] + [[v], [u for u in cell if u != v]] + cells[target + 1:]
            child = _refine(self.rows, child,
                            [1 << v, mask_of(u for u in cell if u != v)])
            self._search(child, prefix + (v,))
            explored.append(v)

    def _leaf(self, cells: list[list[int]]) -> None:
        order = [c[0] for c in cells]
        pos = [0] * self.n
        for idx, v in enumerate(order):
            pos[v] = idx
        key_rows = []
        for idx in range(self.n):
            row = 0
            w = self.rows[order[idx]]
            while w:
                low = w & -w
                row |= 1 << pos[low.bit_length() - 1]
                w ^= low
            key_rows.append(row)
        key = tuple(key_rows)
        perm = tuple(pos)
        if self.first is None:
            self.first = (perm, key)
            self.best = (perm, key)
            return
        for other_perm, other_key in (self.first, self.best):
            if key == other_key:
                g = pmul(perm, pinv(other_perm))
                if not is_identity(g) and g not in self.gens:
                    if self.graph.is_automorphism(g):
                        self.gens.append(g)
                break
        if key < self.best[1]:
            self.best = (perm, key)


def automorphism_group(graph: Graph, seeds: Sequence[Perm] = (),
                       budget: int = IR_BUDGET) -> AutResult:
    """Full automorphism group with orbit partition and canonical labelling.
    ``seeds`` may carry already-known automorphisms (they are verified); they
    only speed up pruning and never change the result."""
    return _AutSearch(graph, seeds, budget).run()


def is_vertex_transitive(graph: Graph, seeds: Sequence[Perm] = (),
                         budget: int = IR_BUDGET) -> tuple[bool, list[list[int]]]:
    """Whether Aut has at most one vertex orbit, plus the orbit partition."""
    orbits = automorphism_group(graph, seeds, budget).orbits
    return len(orbits) <= 1, orbits


def are_isomorphic(g1: Graph, g2: Graph,
                   budget: int = IR_BUDGET) -> Optional[Perm]:
    """A vertex bijection g1 -> g2 when the canonical forms agree, else None."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    if sorted(r.bit_count() for r in g1.rows) != sorted(r.bit_count() for r in g2.rows):
        return None
    r1 = automorphism_group(g1, budget=budget)
    r2 = automorphism_group(g2, budget=budget)
    if r1.canonical_key != r2.canonical_key:
        return None
    mapping = pmul(r1.canonical, pinv(r2.canonical))
    if g1.relabel(mapping) != g2:
        raise RuntimeError("canonical forms agreed but mapping fails")
    return mapping


@dataclass
class RegularSearchOutcome:
    group: Optional[PermGroup]   # a regular subgroup, when one was found
    exhausted: bool              # True: the search space was fully explored
    nodes: int


def regular_subgroup_search(aut: PermGroup, budget: int = REGULAR_BUDGET,
                            vertex_order: Optional[Sequence[int]] = None) -> RegularSearchOutcome:
    """Search for a subgroup acting regularly on all points.

    Transversal-based backtracking: walk the vertices in the given order
    (breadth-first from the base vertex by default), and for the first vertex
    v outside the current orbit of the base, try every automorphism mapping
    base -> v, closing the partial subgroup under products and pruning as
    soon as a non-identity element has a fixed point or the order exceeds the
    degree.  Exhausting the search space is a definitive "no regular
    subgroup"; running out of budget is not.
    """
    n = aut.degree
    if n == 0 or not aut.is_transitive():
        return RegularSearchOutcome(None, True, 0)
    if aut.order % n != 0:
        return RegularSearchOutcome(None, True, 0)
    if aut.order == n:
        return RegularSearchOutcome(aut, True, 0)
    order = list(vertex_order) if vertex_order is not None else list(range(n))
    if order[0] != 0:
        raise ValueError("vertex order must start at the base vertex 0")
    if aut.base[0] != 0:
        aut = PermGroup(n, aut.generators, base_prefix=[0])
    transversal = aut._levels[0].transversal
    stab0 = aut.stabilizer(0)
    nodes = 0
    ident = identity_perm(n)

    def closed_with(elems: frozenset, g: Perm) -> Optional[frozenset]:
        nonlocal nodes
        result = set(elems)
        frontier = [g]
        while frontier:
            p = frontier.pop()
            if p in result:
                continue
            fixed = any(p[x] == x for x in range(n))
            if fixed and not is_identity(p):
                return None
            result.add(p)
            if len(result) > n:
                return None
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("regular subgroup search", budget)
            for q in list(result):
                frontier.append(pmul(p, q))
                frontier.append(pmul(q, p))
        return frozenset(result)

    def extend(elems: frozenset, gens: tuple[Perm, ...]) -> Optional[tuple[Perm, ...]]:
        orbit = {p[0] for p in elems}
        if len(elems) == n:
            return gens if len(orbit) == n else None
        v = next((u for u in order if u not in orbit), None)
        if v is None:
            return None  # transitive but order < n: cannot become regular
        for s in stab0.elements():
            cand = pmul(s, transversal[v])
            grown = closed_with(elems, cand)
            if grown is not None:
                hit = extend(grown, gens + (cand,))
                if hit is not None:
                    return hit
        return None

    try:
        found = extend(frozenset([ident]), ())
    except BudgetExceeded:
        return RegularSearchOutcome(None, False, nodes)
    if found is None:
        return RegularSearchOutcome(None, True, nodes)
    group = PermGroup(n, found)
    if not group.is_regular():
        raise RuntimeError("regular search returned a non-regular group")
    return RegularSearchOutcome(group, True, nodes)


@dataclass
class Certificate:
    """Verdict record for one graph: Cayley with a verifying regular
    subgroup, NonCayley with an intransitivity or exhausted-search witness,
    or Unknown with the budget report."""

    verdict: str                                 # "cayley" | "non_cayley" | "unknown"
    regular_generators: Optional[list[Perm]] = None
    swap_witness: Optional[dict] = None          # bi-Cayley provenance of the witness
    orbit_partition: Optional[list[list[int]]] = None
    exhausted_search: bool = False
    budget_report: Optional[dict] = None
    nodes: int = 0
    millis: float = 0.0

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "nodes": self.nodes, "millis": round(self.millis, 3)}
        if self.regular_generators is not None:
            out["regular_generators"] = [list(p) for p in self.regular_generators]
        if self.swap_witness is not None:
            out["swap_witness"] = self.swap_witness
        if self.orbit_partition is not None:
            out["orbit_partition"] = self.orbit_partition
        if self.exhausted_search:
            out["exhausted_search"] = True
        if self.budget_report is not None:
            out["budget_report"] = self.budget_report
        return out


def _bfs_vertex_order(graph: Graph) -> list[int]:
    order = [0]
    seen = 1
    queue = deque([0])
    while queue:
        v = queue.popleft()
        w = graph.rows[v] & ~seen
        while w:
            low = w & -w
            u = low.bit_length() - 1
            seen |= low
            order.append(u)
            queue.append(u)
            w ^= low
    for v in range(graph.n):
        if not (seen >> v) & 1:
            order.append(v)
    return order


def cayley_status(graph: Graph, hints: Optional[BiCayleyHints] = None,
                  ir_budget: int = IR_BUDGET,
                  regular_budget: int = REGULAR_BUDGET) -> Certificate:
    """Decide whether the graph is a Cayley graph (some regular subgroup of
    automorphisms), with an explicit certificate either way.

    Three stages: one automorphism search, whose orbits decide
    vertex-transitivity (intransitive means NonCayley); then, when provenance
    hints are present, the part-swap certificate (the right translations and
    a part-swapping map whose square is a translation); then the exhaustive
    regular-subgroup search in the same automorphism group.  Unknown only on
    budget exhaustion.
    """
    t0 = time.perf_counter()
    seeds: list[Perm] = []
    if hints is not None:
        seeds = right_translation_group_perms(hints.table)
    try:
        aut = automorphism_group(graph, seeds, ir_budget)
    except BudgetExceeded as exc:
        return Certificate("unknown", budget_report={"stage": exc.what, "budget": exc.budget},
                           millis=(time.perf_counter() - t0) * 1000)
    if len(aut.orbits) > 1:
        return Certificate("non_cayley", orbit_partition=aut.orbits,
                           millis=(time.perf_counter() - t0) * 1000)
    if hints is not None:
        swap = cayley_certificate_from_swaps(hints.table, hints.spokes)
        if swap is not None:
            group, witness = swap
            return Certificate("cayley", regular_generators=list(group.generators),
                               swap_witness=witness,
                               millis=(time.perf_counter() - t0) * 1000)
    outcome = regular_subgroup_search(aut.group, budget=regular_budget,
                                      vertex_order=_bfs_vertex_order(graph))
    millis = (time.perf_counter() - t0) * 1000
    if outcome.group is not None:
        if not all(graph.is_automorphism(p) for p in outcome.group.generators):
            raise RuntimeError("regular subgroup generator is not an automorphism")
        return Certificate("cayley", regular_generators=list(outcome.group.generators),
                           nodes=aut.nodes + outcome.nodes, millis=millis)
    if outcome.exhausted:
        return Certificate("non_cayley", exhausted_search=True,
                           nodes=aut.nodes + outcome.nodes, millis=millis)
    return Certificate("unknown",
                       budget_report={"stage": "regular subgroup search",
                                      "budget": regular_budget},
                       nodes=aut.nodes + outcome.nodes, millis=millis)
