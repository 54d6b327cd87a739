"""Simple undirected graphs with bitmask adjacency rows, the Cayley, bi-Cayley,
Haar and lexicographic-product constructions, and the certificate check.

Bi-Cayley vertex numbering: for a group of order n, the right part is
h_0 -> index(h) and the left part h_1 -> n + index(h), so group arithmetic on
vertices is plain index arithmetic and certificates are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import GroupTable, _generated, elements_of, inverse_mask, mask_image, mask_of

VERTEX_CAP = 4096


class Graph:
    """Finite simple undirected graph; ``rows[v]`` is the neighbour bitmask."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int] | None = None, validate: bool = True):
        if n < 0 or n > VERTEX_CAP:
            raise ValueError(f"vertex count {n} outside 0..{VERTEX_CAP}")
        self.n = n
        self.rows = list(rows) if rows is not None else [0] * n
        if validate and rows is not None:
            self._validate()

    def _validate(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        for v, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {v} has bits beyond the vertex range")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in elements_of(row):
                if not (self.rows[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("loops are not allowed")
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            w = self.rows[u] >> (u + 1)
            v = u + 1
            while w:
                if w & 1:
                    out.append((u, v))
                w >>= 1
                v += 1
        return out

    def is_automorphism(self, p: Sequence[int]) -> bool:
        """Whether the vertex map v -> p[v] is a bijection that carries every
        neighbourhood onto the neighbourhood of the image; stops at the first
        row that differs."""
        if len(p) != self.n or set(p) != set(range(self.n)):
            return False
        rows = self.rows
        return all(mask_image(row, p) == rows[p[v]] for v, row in enumerate(rows))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image graph: vertex v becomes perm[v]."""
        rows = [0] * self.n
        for v, row in enumerate(self.rows):
            rows[perm[v]] = mask_image(row, perm)
        return Graph(self.n, rows, validate=False)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [full ^ r ^ (1 << v) for v, r in enumerate(self.rows)],
                     validate=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def verify_certificate(graph: Graph, cert) -> bool:
    """Re-check a certificate against the graph, trusting no search: Cayley
    generators are automorphisms closing to a regular group; non-Cayley is
    an equitable partition into two or more cells, or an exhausted search."""
    if cert.verdict == "cayley":
        gens = cert.regular_generators
        return gens is not None and all(graph.is_automorphism(p) for p in gens) and \
            _generates_regular([tuple(p) for p in gens], graph.n)   # lists when read from JSON
    if cert.verdict == "non_cayley":
        if cert.orbit_partition is not None:
            return len(cert.orbit_partition) >= 2 and all(cert.orbit_partition) and \
                sorted(v for o in cert.orbit_partition for v in o) == list(range(graph.n)) and \
                _is_equitable(graph, cert.orbit_partition)
        return cert.exhausted_search
    return False


def _failed_check(verdict: str) -> RuntimeError:
    """The error raised for a definitive verdict whose certificate
    ``verify_certificate`` refused."""
    return RuntimeError("Cayley generators are not a regular group of automorphisms"
                        if verdict == "cayley" else
                        "the orbit partition is not an equitable partition of the vertices")


def _generates_regular(gens: Sequence[tuple[int, ...]], n: int) -> bool:
    """Whether the permutations of degree n generate a group acting
    regularly: its closure, stopped once it would pass n elements, has n
    of them, and they send vertex 0 to n different points."""
    closed = _generated(gens, tuple(range(n)), lambda p, q: tuple(map(q.__getitem__, p)), cap=n)
    return closed is not None and len(closed[0]) == n == len({p[0] for p in closed[0]})


def _is_equitable(graph: Graph, cells: list[list[int]]) -> bool:
    """Every vertex of a cell has the same number of neighbours in each
    cell, as in every orbit partition."""
    masks = [mask_of(cell) for cell in cells]
    for cell in cells:
        profiles = {tuple((graph.rows[v] & m).bit_count() for m in masks) for v in cell}
        if len(profiles) > 1:
            return False
    return True


@dataclass(frozen=True)
class BipartiteLabeling:
    """The two halves of a bi-Cayley graph: element h sits at vertex
    index(h) in part 0 and at half + index(h) in part 1."""
    half: int

    def part0(self) -> range:
        return range(self.half)

    def part1(self) -> range:
        return range(self.half, 2 * self.half)

    def vertex(self, element: int, part: int) -> int:
        return element + part * self.half

    def element(self, vertex: int) -> int:
        return vertex % self.half

    def part(self, vertex: int) -> int:
        return vertex // self.half


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n, validate=False)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)], validate=False)


def cycle_graph(n: int) -> Graph:
    g = Graph(n)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    g = Graph(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    n = sum(g.n for g in graphs)
    rows = []
    off = 0
    for g in graphs:
        rows.extend(r << off for r in g.rows)
        off += g.n
    return Graph(n, rows, validate=False)


def cayley_graph(H: GroupTable, R: int) -> Graph:
    """Vertices are the group elements, edges {h, x*h} for x in R.
    Requires R symmetric and identity-free."""
    if (R & 1):
        raise ValueError("connection set must not contain the identity")
    if inverse_mask(H, R) != R:
        raise ValueError("connection set must be closed under inverses")
    g = Graph(H.order)
    for x in elements_of(R):
        row = H.mult[x]
        for h in range(H.order):
            g.add_edge(h, row[h])
    return g


def bicayley_graph(H: GroupTable, R: int, L: int, S: int) -> tuple[Graph, BipartiteLabeling]:
    """Right edges {h_0,(xh)_0} for x in R, left edges {h_1,(xh)_1} for x in L,
    spokes {h_0,(xh)_1} for x in S."""
    if (R | L) & 1:
        raise ValueError("R and L must not contain the identity")
    if inverse_mask(H, R) != R or inverse_mask(H, L) != L:
        raise ValueError("R and L must be closed under inverses")
    n = H.order
    g = Graph(2 * n)
    for x in elements_of(R):
        row = H.mult[x]
        for h in range(n):
            g.add_edge(h, row[h])
    for x in elements_of(L):
        row = H.mult[x]
        for h in range(n):
            g.add_edge(n + h, n + row[h])
    for x in elements_of(S):
        row = H.mult[x]
        for h in range(n):
            g.add_edge(h, n + row[h])
    return g, BipartiteLabeling(n)


def haar_graph(H: GroupTable, S: int) -> tuple[Graph, BipartiteLabeling]:
    """The bi-Cayley graph with no right or left edges: h_0 ~ (sh)_1."""
    return bicayley_graph(H, 0, 0, S)


def _vertex_perm(n: int, part0: Iterable[int], part1: Iterable[int], swap: bool) -> tuple[int, ...]:
    """The bi-Cayley vertex map sending h_0 to element part0[h] and h_1 to
    element part1[h], each in the other part when ``swap``, else in its own."""
    to0, to1 = (n, 0) if swap else (0, n)
    return tuple([to0 + x for x in part0] + [to1 + x for x in part1])


def right_translation_vertex_perm(H: GroupTable, g: int) -> tuple[int, ...]:
    """h_i -> (hg)_i on the 2n bi-Cayley vertices; always an automorphism of
    every bi-Cayley graph of H."""
    column = [row[g] for row in H.mult]
    return _vertex_perm(H.order, column, column, False)


def cayley_right_translation(H: GroupTable, g: int) -> tuple[int, ...]:
    """h -> hg on the group itself (the regular action used for Cayley graphs
    and transitivity modules)."""
    return tuple(H.mult[h][g] for h in range(H.order))


def lex_product(g1: Graph, g2: Graph) -> Graph:
    """Lexicographic product: (u1,u2) ~ (v1,v2) iff u1 ~ v1, or u1 = v1 and
    u2 ~ v2.  Vertex (u1,u2) has index u1*|V2| + u2."""
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    if n > VERTEX_CAP:
        raise ValueError("product exceeds the vertex cap")
    full2 = (1 << n2) - 1
    rows = []
    for v1 in range(n1):
        # block u1 filled for every neighbour u1 of v1
        base = sum(full2 << (u1 * n2) for u1 in elements_of(g1.rows[v1]))
        rows.extend(base | (row << (v1 * n2)) for row in g2.rows)
    return Graph(n, rows, validate=False)


def components(g: Graph) -> list[list[int]]:
    """The connected components, each in increasing order, ordered by their
    least vertex: a breadth-first walk from the least vertex not yet
    reached, which reads each vertex's row once."""
    out, left = [], (1 << g.n) - 1
    while left:
        frontier = left & -left
        left ^= frontier
        comp = []
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            comp.append(low.bit_length() - 1)
            reached = left & g.rows[comp[-1]]
            left ^= reached
            frontier |= reached
        out.append(sorted(comp))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def write_edge_list(g: Graph) -> str:
    """Plain-text export: 'n m' header then one 'u v' line per edge,
    ascending."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse what ``write_edge_list`` writes.  Bad input raises
    ``ValueError`` naming the line at fault."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("edge list is empty: it needs an 'n m' header line")
    g, m = None, 0
    for i, ln in lines:
        try:
            u, v = map(int, ln.split())
            if g is None:
                g, m = Graph(u), v
            elif not (0 <= u < g.n and 0 <= v < g.n):
                raise ValueError(f"vertex outside 0..{g.n - 1}")
            elif g.rows[u] >> v & 1:
                raise ValueError(f"repeated edge {u} {v}")
            else:
                g.add_edge(u, v)
        except ValueError as exc:
            raise ValueError(f"edge list line {i} {ln!r}: {exc}") from None
    if g.edge_count() != m:
        raise ValueError(f"edge list header says {m} edges, found {g.edge_count()}")
    return g
