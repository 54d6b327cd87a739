"""Permutation groups with a base and strong generating set.

The Schreier-Sims construction here is the deterministic textbook variant:
base points are the smallest non-fixed points, transversals are built by
breadth-first search with generators in a fixed order, and no randomization
is used anywhere, so identical generator lists always produce identical
bases, transversals and certificates.

Composition convention: ``pmul(p, q)`` applies p first, then q
(image-style actions, x^(pq) = (x^p)^q).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

Perm = tuple  # length-degree tuple of images


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before finishing."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what}: budget of {budget} nodes exhausted")
        self.what = what
        self.budget = budget


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def pmul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_identity(p: Perm) -> bool:
    return all(i == j for i, j in enumerate(p))


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = lcm(order, length)
    return order


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {}


class PermGroup:
    """Permutation group on points 0..degree-1, closed under queries for
    order, membership, orbits and stabilizers."""

    def __init__(self, degree: int, generators: Iterable[Perm] = (),
                 base_prefix: Sequence[int] = ()):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            if not is_identity(g) and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators: list[Perm] = gens
        self._levels: list[_Level] = []
        self._build(base_prefix)

    # -- construction ---------------------------------------------------------

    def _build(self, base_prefix: Sequence[int]) -> None:
        for b in base_prefix:
            self._levels.append(_Level(b))
        for g in self.generators:
            self._ensure_base_covers(g)
        for i, level in enumerate(self._levels):
            level.gens = [g for g in self.generators
                          if all(g[self._levels[j].point] == self._levels[j].point
                                 for j in range(i))]
        i = len(self._levels) - 1
        while i >= 0:
            jump = self._process_level(i)
            i = i - 1 if jump is None else jump

    def _ensure_base_covers(self, g: Perm) -> None:
        for level in self._levels:
            if g[level.point] != level.point:
                return
        for x in range(self.degree):
            if g[x] != x:
                self._levels.append(_Level(x))
                return

    def _orbit_transversal(self, level: _Level) -> None:
        trans = {level.point: identity_perm(self.degree)}
        queue = [level.point]
        while queue:
            a = queue.pop(0)
            ta = trans[a]
            for g in level.gens:
                b = g[a]
                if b not in trans:
                    trans[b] = pmul(ta, g)
                    queue.append(b)
        level.transversal = trans

    def _process_level(self, i: int) -> Optional[int]:
        """Close level i under Schreier generators.  Returns None when the
        level is complete, else the index of the deepest level that received
        a new strong generator (the driver resumes there)."""
        level = self._levels[i]
        self._orbit_transversal(level)
        for beta in sorted(level.transversal):
            t_beta = level.transversal[beta]
            for g in level.gens:
                t_img = level.transversal[g[beta]]
                schreier = pmul(pmul(t_beta, g), pinv(t_img))
                residue, depth = self._sift_from(schreier, i + 1)
                if not is_identity(residue):
                    return self._add_strong_generator(residue, i + 1, depth)
        return None

    def _sift_from(self, p: Perm, start: int) -> tuple[Perm, int]:
        for j in range(start, len(self._levels)):
            level = self._levels[j]
            gamma = p[level.point]
            if gamma not in level.transversal:
                return p, j
            p = pmul(p, pinv(level.transversal[gamma]))
        return p, len(self._levels)

    def _add_strong_generator(self, g: Perm, first: int, depth: int) -> int:
        if depth == len(self._levels):
            for x in range(self.degree):
                if g[x] != x:
                    self._levels.append(_Level(x))
                    break
            depth = len(self._levels) - 1
        for j in range(first, depth + 1):
            self._levels[j].gens.append(g)
            self._orbit_transversal(self._levels[j])
        return depth

    # -- queries ----------------------------------------------------------------

    @property
    def order(self) -> int:
        n = 1
        for level in self._levels:
            n *= len(level.transversal)
        return n

    @property
    def base(self) -> list[int]:
        return [level.point for level in self._levels]

    def sift(self, p: Perm) -> Perm:
        residue, _ = self._sift_from(tuple(p), 0)
        return residue

    def contains(self, p: Perm) -> bool:
        return len(p) == self.degree and is_identity(self.sift(p))

    def orbits(self) -> list[list[int]]:
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for x in range(self.degree):
                rx, ry = find(x), find(g[x])
                if rx != ry:
                    parent[ry] = rx
        buckets: dict[int, list[int]] = {}
        for x in range(self.degree):
            buckets.setdefault(find(x), []).append(x)
        return [buckets[k] for k in sorted(buckets)]

    def orbit_of(self, v: int) -> list[int]:
        seen = {v}
        queue = [v]
        while queue:
            a = queue.pop(0)
            for g in self.generators:
                b = g[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return sorted(seen)

    def is_transitive(self) -> bool:
        return self.degree <= 1 or len(self.orbit_of(0)) == self.degree

    def is_semiregular(self) -> bool:
        order = self.order
        return all(len(o) == order for o in self.orbits())

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order == self.degree

    def stabilizer(self, v: int) -> "PermGroup":
        """Point stabilizer, via a base change putting v first."""
        if not 0 <= v < self.degree:
            raise ValueError("point out of range")
        rebased = self if (self._levels and self._levels[0].point == v) else \
            PermGroup(self.degree, self.generators, base_prefix=[v])
        if not rebased._levels:
            return PermGroup(self.degree)
        gens = [g for g in rebased._strong_generators() if g[v] == v]
        return PermGroup(self.degree, gens)

    def _strong_generators(self) -> list[Perm]:
        seen = set()
        out = []
        for level in self._levels:
            for g in level.gens:
                if g not in seen:
                    seen.add(g)
                    out.append(g)
        return out

    def elements(self) -> Iterator[Perm]:
        """Every element exactly once, lazily, as the product of one
        transversal element per level with the deepest applied first (the
        factorization ``sift`` undoes); the deepest level varies slowest."""
        def walk(i: int, prefix: Perm) -> Iterator[Perm]:
            if i < 0:
                yield prefix
                return
            for t in self._levels[i].transversal.values():
                yield from walk(i - 1, pmul(prefix, t))

        return walk(len(self._levels) - 1, identity_perm(self.degree))

    def normalizes(self, other: "PermGroup") -> bool:
        """Do this group's generators conjugate `other` into itself?"""
        for g in self.generators:
            gi = pinv(g)
            for h in other.generators:
                if not other.contains(pmul(pmul(gi, h), g)):
                    return False
        return True

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def bsgs(generators: Sequence[Perm], degree: Optional[int] = None,
         base_prefix: Sequence[int] = ()) -> PermGroup:
    """Build a PermGroup from generators (degree inferred when omitted)."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree required for the trivial group")
        degree = len(gens[0])
    return PermGroup(degree, gens, base_prefix=base_prefix)
