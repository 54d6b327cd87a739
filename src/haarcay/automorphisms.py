"""Graph automorphism groups via individualization-refinement, isomorphism
through canonical forms, and Cayley-ness certificates.

The search is a partition-backtrack in the McKay style, simplified for desk
scale: start from the uniform colouring (never from a known bipartition, so
part-swapping automorphisms stay discoverable), refine to an equitable
partition with a splitter worklist, branch on the first smallest
non-singleton cell, and prune sibling branches that a discovered
automorphism fixing the branch prefix maps onto an explored one.  The tree
is walked with an explicit stack, one frame per branching node on the
current path, so its depth is bounded by the vertex count, not by Python's
recursion limit.  Automorphisms are read off leaves whose relabelled graph
equals that of the first or the best leaf; every new generator is verified
edge-preserving before use.  Such an automorphism fixes the prefix the two
paths share and maps the finished sibling subtree below it onto the current
one, so the search jumps back to that common ancestor (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  The labelling of the leaf with
the least key is canonical: two graphs are isomorphic exactly when their
canonical relabellings are equal.  Once the subtree of a node on the first
path is done, the automorphisms found generate its stabilizer, so the orbit
of its first child under those fixing its prefix is one factor of |Aut|: the
search reads the group order off the first path, and no Schreier-Sims run is
needed for it.  For the same reason the vertices individualised along the
first path are a base and the automorphisms found a strong generating set
for it, so ``AutResult.group`` is built from them without a sift.  Seeds,
automorphisms known in advance, are verified and join those found from the
start: they prune the search and lie in the group, and change neither the
group, the orbits nor the canonical labelling.

Refinement works on one ordered partition held in position arrays (the
vertices listed cell by cell, the start of each vertex's cell, the size of
the cell at each start, a mask of the vertices in non-singleton cells), and
each branching node keeps a copy.  A splitter visits only the non-singleton
cells its neighbourhood meets and splits them in place.  When a cell
splits, every part but the first largest is queued (Hopcroft, 1971; McKay &
Piperno, 2014): the cell itself is still queued or was already used as a
splitter, so the counts into the part left out are the counts into the cell
minus those into the other parts, and the result stays equitable.  For the
same reason a child refines from its individualised vertex alone, since its
parent's partition is equitable and the rest of the old cell is that cell
minus the vertex.

Twins come out before the search: vertices of one colour with equal open
(else equal closed) neighbourhoods are interchangeable, so each twin class
merges into one vertex coloured by (colour, class size), until no twins are
left.  Aut of the graph is the lift of Aut of that coloured quotient times
the symmetric group of every class (Sabidussi, Duke Math. J. 28, 1961).
The quotient's base lifts to the first members of its classes, followed by
all but the last member of every class.  A strong generating set for it is
the quotient's, lifted member by member, with the adjacent transpositions
(m_i m_i+1) of every class, which are strong for Sym(class) on the base
m_0, ..., m_k-2 (Holt, Eick & O'Brien, Handbook of Computational Group
Theory, 2005, section 4.1).  A lifted generator that fixes a quotient base
point fixes its class pointwise, and one that fixes the whole quotient base
is the identity, so past the quotient's base only the transpositions of the
classes not yet fixed move anything: every basic orbit is full, and the
group needs no sift at any class size.  Seeds are projected to the
innermost quotient once and searched there; each outer level is built from
its quotient's result alone, so on a graph with twins a seed lies in the
group without being one of its generators.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

from .bicayley import (
    BiCayleyHints,
    cayley_certificate_from_swaps,
    right_translation_group_perms,
)
from .graphs import Graph, components, haar_graph
from .groups import _dimino_closure, _generated, elements_of, mask_of
from .perms import (BudgetExceeded, Perm, PermGroup, _OrbitCache, _schreier_tree, identity_perm,
                    is_identity, pinv, pmul)

IR_BUDGET = 10 ** 7
REGULAR_BUDGET = 10 ** 7


class _Partition:
    """An ordered partition of the vertices in position arrays, kept for
    the whole search: ``lab`` lists the vertices cell by cell, ``start[v]``
    is the position where the cell of v begins, ``size[s]`` is the size of
    the cell beginning at position s (entries at other positions are stale),
    and ``live`` is the mask of the vertices in non-singleton cells.  A cell
    splits in place, so no other cell moves; once every cell is a
    singleton, ``start`` sends each vertex to its position."""

    __slots__ = ("lab", "start", "size", "live")

    def __init__(self, lab: list[int], start: list[int], size: list[int], live: int):
        self.lab = lab
        self.start = start
        self.size = size
        self.live = live

    @classmethod
    def from_cells(cls, n: int, cells: list[list[int]]) -> _Partition:
        lab: list[int] = []
        start = [0] * n
        size = [0] * n
        live = 0
        for cell in cells:
            s = len(lab)
            size[s] = len(cell)
            for v in cell:
                start[v] = s
            if len(cell) > 1:
                live |= mask_of(cell)
            lab += cell
        return cls(lab, start, size, live)

    def copy(self) -> _Partition:
        return _Partition(self.lab[:], self.start[:], self.size[:], self.live)

    def target(self) -> int:
        """The start of the first smallest non-singleton cell; -1 when every
        cell is a singleton."""
        size = self.size
        best, best_size = -1, len(size) + 1
        s = 0
        while s < len(size):
            k = size[s]
            if 1 < k < best_size:
                best, best_size = s, k
                if k == 2:
                    break
            s += k
        return best

    def individualise(self, s: int, v: int) -> None:
        """Split v off the front of the cell beginning at s; the others keep
        their order behind it."""
        lab, start = self.lab, self.start
        k = self.size[s]
        i = lab.index(v, s, s + k)
        lab[s + 1:i + 1] = lab[s:i]
        lab[s] = v
        self.size[s] = 1
        self.size[s + 1] = k - 1
        for u in lab[s + 1:s + k]:
            start[u] = s + 1
        self.live &= ~(1 << v) if k > 2 else ~((1 << v) | (1 << lab[s + 1]))

    def refine(self, rows: Sequence[int], splitters: Iterable[int]) -> None:
        """Equitable refinement: split cells by neighbour counts into the
        splitter masks, first ``splitters`` and then the parts split off,
        until the queue is empty.  A splitter visits only the non-singleton
        cells that its neighbourhood meets, in position order; each splits
        in place into sub-cells ordered by count.  Every part but the first
        largest is queued (Hopcroft's rule): its cell was either queued or
        already used as a splitter, so the counts into the unqueued part are
        those into the cell minus those into the other parts, and the result
        is still equitable.  The result does not depend on the labels: it is
        relabelling-equivariant, cell order included."""
        lab, start, size = self.lab, self.start, self.size
        live = self.live
        queue = deque(splitters)
        while queue and live:
            w = queue.popleft()
            # the bits are walked inline, not by elements_of: this is the
            # search's innermost loop, and building the list slowed it
            hit = 0
            m = w
            while m:
                low = m & -m
                hit |= rows[low.bit_length() - 1]
                m ^= low
            hit &= live
            starts = set()
            while hit:
                low = hit & -hit
                starts.add(start[low.bit_length() - 1])
                hit ^= low
            for s in sorted(starts):
                k = size[s]
                buckets: dict[int, list[int]] = {}
                for v in lab[s:s + k]:
                    buckets.setdefault((rows[v] & w).bit_count(), []).append(v)
                if len(buckets) == 1:
                    continue
                parts = [buckets[key] for key in sorted(buckets)]
                largest = max(map(len, parts))
                for part in parts:
                    k = len(part)
                    size[s] = k
                    lab[s:s + k] = part
                    mask = 0
                    for v in part:
                        start[v] = s
                        mask |= 1 << v
                    if k == 1:
                        live &= ~mask
                    if k == largest:
                        largest = 0
                    else:
                        queue.append(mask)
                    s += k
        self.live = live


def _refine(rows: Sequence[int], cells: list[list[int]],
            splitters: Iterable[int]) -> list[list[int]]:
    """``_Partition.refine`` on the ordered ``cells``, read back as a list of
    cells in position order."""
    part = _Partition.from_cells(len(rows), cells)
    part.refine(rows, splitters)
    out = []
    s = 0
    while s < len(part.lab):
        out.append(part.lab[s:s + part.size[s]])
        s += part.size[s]
    return out


@dataclass
class AutResult:
    """The automorphism group of a graph as the search found it.  ``base``
    is the search's first path (lifted through the twin levels).
    ``generators`` stay compact, a transposition per twin class and a cycle
    per class of three or more; they are a strong generating set for the
    base once every class's adjacent transpositions join them, as they do in
    ``group``, seeded or not.  Vertex 0 comes first only when the graph is
    vertex-transitive: the root cell is then the whole vertex set, and the
    search branches on its first vertex."""
    degree: int
    generators: list[Perm]
    orbits: list[list[int]]
    canonical: Perm          # vertex -> canonical position
    nodes: int
    order: int               # |Aut|, read off the search
    base: list[int]          # the first path, lifted through the twin levels
    # the twin classes, the coloured quotient and its result, when there are twins
    twin_quotient: Optional[tuple[list[list[int]], Graph, AutResult]] = \
        field(default=None, repr=False)
    _group: Optional[PermGroup] = field(default=None, repr=False)

    @property
    def group(self) -> PermGroup:
        """Base and strong generating set read off the search: ``base``, and
        ``generators`` followed by the adjacent transpositions of every twin
        class (``_class_transpositions``), handed to ``PermGroup`` with
        ``order``, which sifts only while the product of the basic orbits is
        below it.  It never is, whatever the seeds or the class sizes, so
        nothing is sifted.  Built on first use (orbits, order and canonical
        data never need it); on a vertex-transitive graph vertex 0 is the
        first base point, so the regular search uses it as it is."""
        if self._group is None:
            self._group = PermGroup(self.degree, self.generators + _class_transpositions(self),
                                    base_prefix=self.base, order=self.order)
        return self._group


@dataclass
class _Frame:
    """A branching node on the current path: its equitable partition, the
    start of the cell it branches on, the children left to try and those
    explored (the last is on the path), the orbits of found automorphisms
    fixing its prefix, and whether it lies on the first path."""
    part: _Partition
    target: int
    children: Iterator[int]
    orbits: _OrbitCache
    on_first_path: bool
    explored: list[int] = field(default_factory=list)


class _AutSearch:
    """The search on a graph with an initial colouring (ordered cells) and
    seeds that are already known to be colour-preserving automorphisms."""

    def __init__(self, graph: Graph, cells: list[list[int]], seeds: Sequence[Perm],
                 budget: int):
        self.graph = graph
        self.n = graph.n
        self.cells = cells
        self.budget = budget
        self.nodes = 0
        self.order = 1
        self.gens: list[Perm] = list(seeds)
        self.first: Optional[tuple[Perm, tuple, list[int]]] = None
        self.best: Optional[tuple[Perm, tuple, list[int]]] = None

    def run(self) -> AutResult:
        if self.n == 0:
            return AutResult(0, [], [], (), 0, 1, [])
        part: Optional[_Partition] = _Partition.from_cells(self.n, self.cells)
        part.refine(self.graph.rows, [mask_of(c) for c in self.cells])
        stack: list[_Frame] = []
        while part is not None:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded("automorphism search", self.budget)
            target = part.target()
            if target < 0:
                self._leaf(tuple(part.start), stack)
            else:
                prefix = [f.explored[-1] for f in stack]
                cell = part.lab[target:target + part.size[target]]
                stack.append(_Frame(part, target, iter(cell),
                                    _OrbitCache(self.n, prefix), self.first is None))
            part = self._next_child(stack)
        root = _OrbitCache(self.n, ())
        root.update(self.gens)
        return AutResult(self.n, list(self.gens), root.partition(),
                         self.best[0], self.nodes, self.order, self.first[2])

    def _next_child(self, stack: list[_Frame]) -> Optional[_Partition]:
        """The partition of the next unpruned child of the deepest unfinished
        frame, popping finished frames; None once the stack is empty.  The
        child individualises v and refines from ``1 << v`` alone: the
        frame's partition is equitable, and the rest of v's old cell is that
        cell minus v, so it needs no queueing of its own.  A finished
        frame on the first path multiplies the order by the orbit of its
        first child (jumps back never remove such a frame: every leaf they
        compare with lies below it)."""
        while stack:
            top = stack[-1]
            for v in top.children:
                if top.explored:
                    top.orbits.update(self.gens)
                    if any(top.orbits.find(v) == top.orbits.find(u) for u in top.explored):
                        continue
                top.explored.append(v)
                child = top.part.copy()
                child.individualise(top.target, v)
                child.refine(self.graph.rows, [1 << v])
                return child
            if top.on_first_path:
                top.orbits.update(self.gens)
                self.order *= top.orbits.size[top.orbits.find(top.explored[0])]
            stack.pop()
        return None

    def _leaf(self, perm: Perm, stack: list[_Frame]) -> None:
        """Compare the leaf with the first and the best leaf.  An equal key
        gives an automorphism that fixes the c vertices both paths share and
        maps the finished sibling subtree at depth c onto the current one, so
        the search jumps back to depth c."""
        path = [f.explored[-1] for f in stack]
        key = tuple(self.graph.relabel(perm).rows)
        if self.first is None:
            self.first = self.best = (perm, key, path)
            return
        for other_perm, other_key, other_path in (self.first, self.best):
            if key == other_key:
                g = pmul(perm, pinv(other_perm))
                if g not in self.gens:
                    if not self.graph.is_automorphism(g):
                        raise RuntimeError("equal leaf keys but no automorphism")
                    self.gens.append(g)
                c = next(i for i, (u, v) in enumerate(zip(path, other_path)) if u != v)
                del stack[c + 1:]
                return
        if key < self.best[1]:
            self.best = (perm, key, path)


def _twin_classes(rows: Sequence[int], colours: Sequence) -> Optional[list[list[int]]]:
    """The classes of vertices of one colour with equal open neighbourhoods,
    or, when those are all singletons, with equal closed ones; each class in
    increasing order, the classes in order of their smallest member.  None
    when there are no twins."""
    for closed in (0, 1):
        hoods = [row | (closed << v) for v, row in enumerate(rows)] if closed else rows
        if len(set(hoods)) == len(rows):
            continue
        classes: dict[tuple, list[int]] = {}
        for v, hood in enumerate(hoods):
            classes.setdefault((colours[v], hood), []).append(v)
        if len(classes) < len(rows):
            return list(classes.values())
    return None


def _twin_quotient(graph: Graph, classes: list[list[int]]) -> tuple[Graph, list[int]]:
    """The graph with each twin class merged into one vertex (vertex i is
    class i), and the class of every vertex."""
    class_of = [0] * graph.n
    for i, members in enumerate(classes):
        for v in members:
            class_of[v] = i
    rows = [mask_of(class_of[u] for u in elements_of(graph.rows[members[0]])) & ~(1 << i)
            for i, members in enumerate(classes)]
    return Graph(len(classes), rows, validate=False), class_of


def _lift_quotient_perms(gens: Sequence[Perm], classes: list[list[int]]) -> list[Perm]:
    """Quotient permutations lifted so that member k of a class goes to
    member k of its image class."""
    n = sum(len(members) for members in classes)
    lifted = []
    for q in gens:
        p = [0] * n
        for c, members in enumerate(classes):
            for x, y in zip(members, classes[q[c]]):
                p[x] = y
        lifted.append(tuple(p))
    return lifted


def _cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """The permutation of 0..n-1 with the given disjoint cycles."""
    p = list(range(n))
    for cycle in cycles:
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            p[x] = y
    return tuple(p)


def _class_permutations(classes: list[list[int]]) -> list[Perm]:
    """A transposition and a full cycle of each class of two or more
    members; together they generate the symmetric group of every class."""
    n = sum(len(members) for members in classes)
    out = []
    for members in classes:
        if len(members) > 1:
            out.append(_cycles(n, [members[:2]]))
        if len(members) > 2:
            out.append(_cycles(n, [members]))
    return out


def _class_transpositions(result: AutResult) -> list[Perm]:
    """The adjacent transpositions (m_i m_i+1) of every twin class at every
    level of the result, an inner level's lifted member by member through
    the levels outside it."""
    if result.twin_quotient is None:
        return []
    classes, _, inner = result.twin_quotient
    return _lift_quotient_perms(_class_transpositions(inner), classes) + \
        [_cycles(result.degree, [members[i:i + 2]])
         for members in classes for i in range(len(members) - 1)]


def automorphism_group(graph: Graph, seeds: Sequence[Perm] = (),
                       budget: int = IR_BUDGET) -> AutResult:
    """Full automorphism group with orbit partition, order and canonical
    labelling.  ``seeds`` may carry already-known automorphisms.  They are
    verified (a non-automorphism raises ``ValueError``), prune the search and
    lie in the group, but they change neither the group, nor the orbits, nor
    the canonical labelling.  They join the innermost search's generators,
    projected to its quotient; on a graph without twins that is the graph
    itself, so they lead ``generators``, the identity and repeats dropped.

    Twin classes are merged first, recursively; the search runs on the
    coloured quotient, whose nodes ``nodes`` counts.  Each outer level is
    built from its quotient's result alone: the quotient's generators are
    lifted member by member and joined by a transposition and a cycle per
    class, the order gains m! per class of size m, and the canonical
    labelling and the orbits are expanded class by class.  The base becomes
    the first members of the classes of the quotient's base points, in that
    order, then all but the last member of every class, skipping points
    already in it.  Each level's result keeps the classes, the quotient and
    the quotient's result in ``twin_quotient``.  A graph without twins gets
    the search's own result."""
    gens: list[Perm] = []
    for s in seeds:
        s = tuple(s)
        if not is_identity(s) and s not in gens:
            if not graph.is_automorphism(s):
                raise ValueError("seed permutation is not an automorphism")
            gens.append(s)
    levels: list[tuple[Graph, list[list[int]]]] = []
    quotient, colours = graph, [0] * graph.n
    while (classes := _twin_classes(quotient.rows, colours)) is not None:
        levels.append((quotient, classes))
        quotient, class_of = _twin_quotient(quotient, classes)
        images = (tuple(class_of[s[members[0]]] for members in classes) for s in gens)
        gens = [q for q in dict.fromkeys(images) if not is_identity(q)]
        colours = [(colours[members[0]], len(members)) for members in classes]
    cells: dict = {}
    for v, colour in enumerate(colours):
        cells.setdefault(colour, []).append(v)
    result = _AutSearch(quotient, [cells[c] for c in sorted(cells)], gens, budget).run()
    for g, classes in reversed(levels):
        order = result.order
        for members in classes:
            order *= factorial(len(members))
        pos = [0] * g.n
        nxt = 0
        for c in pinv(result.canonical):
            for v in classes[c]:
                pos[v] = nxt
                nxt += 1
        base = [classes[c][0] for c in result.base]
        in_base = set(base)
        base += [v for members in classes for v in members[:-1] if v not in in_base]
        result = AutResult(
            g.n, _lift_quotient_perms(result.generators, classes) + _class_permutations(classes),
            [sorted(v for c in orbit for v in classes[c]) for orbit in result.orbits],
            tuple(pos), result.nodes, order, base, (classes, quotient, result))
        quotient = g
    return result


def is_vertex_transitive(graph: Graph, seeds: Sequence[Perm] = (),
                         budget: int = IR_BUDGET) -> tuple[bool, list[list[int]]]:
    """Whether Aut has at most one vertex orbit, plus the orbit partition."""
    orbits = automorphism_group(graph, seeds, budget).orbits
    return len(orbits) <= 1, orbits


def are_isomorphic(g1: Graph, g2: Graph,
                   budget: int = IR_BUDGET) -> Optional[Perm]:
    """A vertex bijection g1 -> g2 when the canonical forms agree, else None.
    The canonical labellings give the only candidate, and its check is that
    equality: g1 relabelled by it is g2 exactly when both canonical forms are
    the same graph."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    if sorted(r.bit_count() for r in g1.rows) != sorted(r.bit_count() for r in g2.rows):
        return None
    r1 = automorphism_group(g1, budget=budget)
    r2 = automorphism_group(g2, budget=budget)
    mapping = pmul(r1.canonical, pinv(r2.canonical))
    return mapping if g1.relabel(mapping) == g2 else None


@dataclass
class RegularSearchOutcome:
    generators: Optional[list[Perm]]   # of a regular subgroup, when one was found
    exhausted: bool                    # True: the search space was fully explored
    nodes: int

    @property
    def group(self) -> Optional[PermGroup]:
        """The regular subgroup found as a ``PermGroup``, built on each read;
        its order is its degree, so it sifts nothing."""
        if self.generators is None:
            return None
        n = len(self.generators[0]) if self.generators else 1
        return PermGroup(n, self.generators, order=n)


def _is_semiregular(p: Perm) -> bool:
    """Whether every cycle of p has the same length; only such elements
    (the identity among them) can lie in a regular group."""
    n = len(p)
    seen = bytearray(n)
    length = 0
    for start in range(n):
        if seen[start]:
            continue
        x, k = start, 0
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            k += 1
        if length and k != length:
            return False
        length = k
    return True


def _generates_regular(gens: Sequence[Perm], n: int) -> bool:
    """Whether the permutations of degree n generate a group acting
    regularly: its closure, stopped once it would pass n elements, has n
    of them, and they send vertex 0 to n different points."""
    closed = _generated(gens, identity_perm(n), pmul, cap=n)
    return closed is not None and len(closed[0]) == n == len({p[0] for p in closed[0]})


def _transversal_of_0(gens: Sequence[Perm], n: int) -> dict[int, Perm]:
    """Vertex v -> an element of <gens> carrying 0 to v: the breadth-first
    Schreier tree of vertex 0, which is the base-point-0 transversal of any
    BSGS built from ``gens`` with base point 0 first."""
    return _schreier_tree(0, [(g, pinv(g)) for g in gens], identity_perm(n))[0]


def regular_subgroup_search(graph: Graph, aut: AutResult,
                            budget: int = REGULAR_BUDGET) -> RegularSearchOutcome:
    """Search Aut of the graph, given as its ``AutResult``, for a subgroup
    acting regularly on the vertices.

    Transversal-based backtracking: walk the vertices breadth-first from 0,
    and for the first vertex v outside the current orbit of 0, try every
    automorphism mapping 0 -> v as a new generator of the partial subgroup,
    grown by Dimino's closure.  Every element of a regular group is
    semiregular (all its cycles have one length), so a candidate that is not
    is rejected before closure, and a closure fails as soon as it meets such
    an element or would outgrow the degree.  A closure that succeeds is a
    semiregular group, so its orbit of 0 has as many vertices as it has
    elements: n of them make it regular, fewer leave a vertex outside.  Each
    rejected candidate counts as one node, as each element a closure admits
    does, so the budget bounds the whole walk.  Exhausting the search space
    is a definitive "no regular subgroup"; running out of budget is not.
    When |Aut| = n, Aut itself is the answer, as ``aut.generators``, and no
    ``PermGroup`` is built; the generators of a group found are checked
    regular by ``_generates_regular``.
    """
    n = graph.n
    if n == 0 or len(aut.orbits) > 1:
        return RegularSearchOutcome(None, True, 0)
    if aut.order == n:
        return RegularSearchOutcome(list(aut.generators), True, 0)
    walk = _bfs_vertex_order(graph)
    transversal = _transversal_of_0(aut.generators, n)
    stab0 = aut.group.stabilizer(0)
    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("regular subgroup search", budget)

    def rejected(p: Perm) -> bool:
        if not _is_semiregular(p):
            return True
        count_node()
        return False

    def extend(elems: list[Perm], gens: tuple[Perm, ...]) -> Optional[tuple[Perm, ...]]:
        if len(elems) == n:
            return gens
        orbit = {p[0] for p in elems}
        v = next(u for u in walk if u not in orbit)
        for s in stab0.elements():
            cand = pmul(s, transversal[v])
            if not _is_semiregular(cand):
                count_node()
                continue
            grown = _dimino_closure(elems, gens, cand, pmul, rejected, n)
            if grown is not None:
                hit = extend(grown, gens + (cand,))
                if hit is not None:
                    return hit
        return None

    try:
        found = extend([identity_perm(n)], ())
    except BudgetExceeded:
        return RegularSearchOutcome(None, False, nodes)
    if found is None:
        return RegularSearchOutcome(None, True, nodes)
    if not _generates_regular(found, n):
        raise RuntimeError("regular search returned a non-regular group")
    return RegularSearchOutcome(list(found), True, nodes)


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


def _copy_level(graph: Graph, aut: AutResult,
                ir_budget: int) -> Optional[tuple[list[list[int]], Graph, AutResult]]:
    """The graph as m copies of one graph Z when it or its complement is
    disconnected (at most one of the two is): the fibres, Z and Z's result,
    as in ``AutResult.twin_quotient``; else None.  Z is the copy of vertex 0,
    relabelled 0, 1, ... in vertex order and searched within ``ir_budget``.
    Fibre v holds the image of Z's vertex v in every copy, each copy reached
    through the element of Aut carrying vertex 0 to its first vertex, an
    automorphism that maps the first copy onto it."""
    for g in (graph, graph.complement()):
        parts = components(g)
        if len(parts) > 1:
            break
    else:
        return None
    first = parts[0]
    index = {v: i for i, v in enumerate(first)}
    keep = mask_of(first)
    copy = Graph(len(first), [mask_of(index[u] for u in elements_of(graph.rows[v] & keep))
                              for v in first], validate=False)
    transversal = _transversal_of_0(aut.generators, graph.n)
    maps = [transversal[part[0]] for part in parts]
    return [[t[v] for t in maps] for v in first], copy, automorphism_group(copy, budget=ir_budget)


def _lift_fibres(gens: Sequence[Perm], fibres: list[list[int]]) -> list[Perm]:
    """Generators of R x Z_m on a graph made of m-member fibres, from
    generators of R on the graph they lie over: each lifted member by
    member, and one cyclic shift of every fibre."""
    shift = _cycles(sum(len(fibre) for fibre in fibres), fibres)
    return _lift_quotient_perms(gens, fibres) + [shift]


def cayley_status(graph: Graph, hints: Optional[BiCayleyHints] = None,
                  ir_budget: int = IR_BUDGET,
                  regular_budget: int = REGULAR_BUDGET) -> Certificate:
    """Decide whether the graph is a Cayley graph (some regular subgroup of
    automorphisms), with an explicit certificate either way.

    Three stages: one automorphism search, whose orbits decide
    vertex-transitivity (intransitive means NonCayley); then, when provenance
    hints are present, the part-swap certificate (the right translations and
    a part-swapping map whose square is a translation); else the regular
    stage, one recursion over fibre levels.  A level sees the graph as m
    fibres over a smaller graph Z and comes with Z's automorphism result.  It
    is a copy level when the graph or its complement is disconnected: m
    copies of Z, the copy of vertex 0, searched within ``ir_budget`` (its
    nodes count).  Else it is the twin level of the graph's own search,
    ``AutResult.twin_quotient`` (no second search, no second count).  Both
    are lexicographic products with E_m or K_m, so a regular group R of Z
    lifts to R x Z_m, member by member with a cyclic shift of every fibre.
    The recursion runs on Z and lifts what it finds; with no level left,
    ``regular_subgroup_search`` runs in Aut of the graph.  Copies are Cayley
    exactly when Z is, so a copy level returns Z's answer; twins are Cayley
    when Z is but not only then (Petersen[E2]), so a twin level whose Z
    yields no regular group searches its own graph.

    Every source hands the one Cayley exit a plain generator list, and the
    exit checks it before it writes the certificate: each generator is an
    automorphism, and ``_generates_regular`` closes them to a regular group.
    A failed check raises ``RuntimeError``.  Only ``swap_witness`` tells
    which source found the group.  Unknown only on budget exhaustion.
    Hints whose Haar graph is not the graph given raise ``ValueError``.
    """
    t0 = time.perf_counter()
    seeds: list[Perm] = []
    if hints is not None:
        if haar_graph(hints.table, hints.spokes)[0] != graph:
            raise ValueError("the hints' Haar graph is not the graph given")
        seeds = right_translation_group_perms(hints.table)
    nodes = 0

    def regular(z: Graph, z_aut: AutResult) -> tuple[Optional[list[Perm]], bool]:
        """Generators of a regular group of z or None, and whether the
        answer is definitive."""
        nonlocal nodes
        if len(z_aut.orbits) > 1:
            raise RuntimeError("a reduction of a vertex-transitive graph is intransitive")
        copies = _copy_level(z, z_aut, ir_budget)
        nodes += copies[2].nodes if copies else 0
        if (level := copies or z_aut.twin_quotient) is not None:
            fibres, y, y_aut = level
            gens, exhausted = regular(y, y_aut)
            if gens is not None:
                return _lift_fibres(gens, fibres), True
            if copies:
                return None, exhausted
        outcome = regular_subgroup_search(z, z_aut, regular_budget)
        nodes += outcome.nodes
        return outcome.generators, outcome.exhausted

    try:
        aut = automorphism_group(graph, seeds, ir_budget)
        nodes = aut.nodes
        if len(aut.orbits) > 1:
            cert = Certificate("non_cayley", orbit_partition=aut.orbits)
        else:
            swap = hints and cayley_certificate_from_swaps(hints.table, hints.spokes)
            gens, exhausted = (swap[0], True) if swap else regular(graph, aut)
            if gens is not None:
                if not (all(graph.is_automorphism(p) for p in gens)
                        and _generates_regular(gens, graph.n)):
                    raise RuntimeError("Cayley generators are not a regular group of automorphisms")
                cert = Certificate("cayley", regular_generators=list(gens),
                                   swap_witness=swap[1] if swap else None)
            elif exhausted:
                cert = Certificate("non_cayley", exhausted_search=True)
            else:
                cert = Certificate("unknown", budget_report={"stage": "regular subgroup search",
                                                             "budget": regular_budget})
    except BudgetExceeded as exc:
        cert = Certificate("unknown", budget_report={"stage": exc.what, "budget": exc.budget})
    cert.nodes = nodes
    cert.millis = (time.perf_counter() - t0) * 1000
    return cert
