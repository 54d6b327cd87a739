"""Permutation groups with a base and strong generating set.

The Schreier-Sims construction here is the deterministic textbook variant:
base points are the smallest non-fixed points, transversals are built by
breadth-first search with generators in a fixed order, and no randomization
is used anywhere, so identical generator lists always produce identical
bases, transversals and certificates.

It never redoes a sift.  Each level keeps a cursor over its Schreier pairs
(beta, g), taken in sorted-beta order; coming back to a level whose
generators have not changed, the construction resumes after the pair that
last gave a new strong generator instead of at the first beta, since the
pairs before it still sift to the identity through the grown deeper levels.
Rebuilding a level's transversal resets its cursor.  Each level also stores
the inverse of every transversal element, so sifting inverts nothing, and a
pair with t_beta g = t_(beta g) is the identity and is not sifted at all.
The base, the level generators and the transversals (in insertion order) are
exactly those of the construction that re-sifts every pair, so ``elements``
and everything built on it keep their order (Holt, Eick & O'Brien, Handbook
of Computational Group Theory, 2005, ch. 4).

When the group order is known in advance (``order=``), the construction
stops as soon as the product of the transversal sizes reaches it.  That
product never exceeds |G|, and a partial BSGS whose product equals |G| is
complete: every Schreier pair left would sift to the identity, so the base,
level generators and transversals are again exactly those of the full run.
So a base prefix whose generators are already strong for it (each level's
generators are those fixing the points before it, and the product of their
orbits is the order given) needs no sift at all: that is how a graph's
automorphism group takes the base and strong generators its search found.
Generators that are not strong for the prefix fall back to Schreier-Sims.

Composition convention: ``pmul(p, q)`` applies p first, then q
(image-style actions, x^(pq) = (x^p)^q).
"""

from __future__ import annotations

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
    return p == tuple(range(len(p)))


def _schreier_tree(point: int, pairs: Sequence[tuple[Perm, Perm]],
                   identity: Perm) -> tuple[dict[int, Perm], dict[int, Perm]]:
    """The orbit of ``point`` under (generator, inverse) pairs, by
    breadth-first search in list order, with t_b = t_a g for the first
    generator that reaches b and its inverse t_b^-1 = g^-1 t_a^-1, so only
    the generators are ever inverted."""
    trans = {point: identity}
    inverses = {point: identity}
    queue = [point]
    for a in queue:
        ta, ia = trans[a], inverses[a]
        for g, gi in pairs:
            b = g[a]
            if b not in trans:
                trans[b] = pmul(ta, g)
                inverses[b] = pmul(gi, ia)
                queue.append(b)
    return trans, inverses


class _OrbitCache:
    """Union-find orbits of the generators that fix every point of a prefix
    (all of them for an empty prefix), with the size of each orbit at its
    root.  Updates are incremental: only generators added since the last
    call are inspected (the prefix is fixed for the cache's lifetime)."""

    def __init__(self, n: int, prefix: Sequence[int]):
        self.n = n
        self.prefix = prefix
        self.gen_count = 0
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def update(self, gens: list[Perm]) -> None:
        for g in gens[self.gen_count:]:
            if all(g[x] == x for x in self.prefix):
                for x, y in enumerate(g):
                    if x != y:
                        rx, ry = self.find(x), self.find(y)
                        if rx != ry:
                            self.parent[ry] = rx
                            self.size[rx] += self.size[ry]
        self.gen_count = len(gens)

    def partition(self) -> list[list[int]]:
        """The orbits, each in increasing order, ordered by their roots."""
        buckets: dict[int, list[int]] = {}
        for v in range(self.n):
            buckets.setdefault(self.find(v), []).append(v)
        return [buckets[k] for k in sorted(buckets)]


class _Level:
    """One base point with its strong generators, its orbit transversal, the
    inverse of every transversal element, the sorted orbit and a cursor: the
    index, in (beta, generator) order, of the next Schreier pair to sift."""

    __slots__ = ("point", "gens", "transversal", "inverses", "orbit", "cursor")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {}
        self.inverses: dict[int, Perm] = {}
        self.orbit: list[int] = []
        self.cursor = 0


class PermGroup:
    """Permutation group on points 0..degree-1, closed under queries for
    order, membership, orbits and stabilizers."""

    def __init__(self, degree: int, generators: Iterable[Perm] = (),
                 base_prefix: Sequence[int] = (), order: Optional[int] = None):
        self.degree = degree
        self._identity = identity_perm(degree)
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            if g != self._identity and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators: list[Perm] = gens
        self._levels: list[_Level] = []
        self._gen_inverses: dict[Perm, Perm] = {}
        self._build(base_prefix, order)
        if order is not None and self.order != order:
            raise ValueError(f"group order {self.order} differs from the order {order} given")

    # -- construction ---------------------------------------------------------

    def _build(self, base_prefix: Sequence[int], order: Optional[int]) -> None:
        for b in base_prefix:
            self._levels.append(_Level(b))
        for g in self.generators:
            self._ensure_base_covers(g)
        # level i's generators are those fixing the base points before it,
        # in the order of ``generators``: level i-1's list filtered by its
        # one point, so the levels are built in one linear pass
        gens = list(self.generators)
        for level in self._levels:
            level.gens = gens
            self._orbit_transversal(level)
            gens = [g for g in gens if g[level.point] == level.point]
        i = len(self._levels) - 1
        while i >= 0 and (order is None or self.order < order):
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
        """Rebuild the level's Schreier tree over its generators in list
        order.  Resets the cursor."""
        gen_inverses = self._gen_inverses
        for g in level.gens:
            if g not in gen_inverses:
                gen_inverses[g] = pinv(g)
        level.transversal, level.inverses = _schreier_tree(
            level.point, [(g, gen_inverses[g]) for g in level.gens], self._identity)
        level.orbit = sorted(level.transversal)
        level.cursor = 0

    def _process_level(self, i: int) -> Optional[int]:
        """Close level i under Schreier generators.  Returns None when the
        level is complete, else the index of the deepest level that received
        a new strong generator (the driver resumes there).

        Sifting resumes at the cursor: every earlier pair sifted to the
        identity through the deeper levels, which were then a complete BSGS
        of a group that has only grown since, so it still does.  A pair with
        t_beta g = t_(beta g) is the identity and is not sifted."""
        level = self._levels[i]
        trans, inverses, gens = level.transversal, level.inverses, level.gens
        ngens = len(gens)
        if not ngens:
            return None
        ident = self._identity
        first_beta, first_gen = divmod(level.cursor, ngens)
        for bi in range(first_beta, len(level.orbit)):
            beta = level.orbit[bi]
            t_beta = trans[beta]
            for gi in range(first_gen, ngens):
                g = gens[gi]
                image = g[beta]
                product = pmul(t_beta, g)
                if product == trans[image]:
                    continue
                residue, depth = self._sift_from(pmul(product, inverses[image]), i + 1)
                if residue != ident:
                    level.cursor = bi * ngens + gi + 1
                    return self._add_strong_generator(residue, i + 1, depth)
            first_gen = 0
        level.cursor = len(level.orbit) * ngens
        return None

    def _sift_from(self, p: Perm, start: int) -> tuple[Perm, int]:
        levels = self._levels
        for j in range(start, len(levels)):
            level = levels[j]
            gamma = p[level.point]
            if gamma == level.point:
                continue
            inverse = level.inverses.get(gamma)
            if inverse is None:
                return p, j
            p = pmul(p, inverse)
        return p, len(levels)

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
        return len(p) == self.degree and self.sift(p) == self._identity

    def orbits(self) -> list[list[int]]:
        cache = _OrbitCache(self.degree, ())
        cache.update(self.generators)
        return cache.partition()

    def is_transitive(self) -> bool:
        """Read off the first base point's orbit, which the BSGS stores."""
        return self.degree <= 1 or (
            bool(self._levels) and len(self._levels[0].transversal) == self.degree)

    def is_semiregular(self) -> bool:
        order = self.order
        return all(len(o) == order for o in self.orbits())

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order == self.degree

    def stabilizer(self, v: int) -> "PermGroup":
        """Point stabilizer, via a base change putting v first; both builds
        stop at the order they already know: |G|, and |G| over the orbit of v."""
        if not 0 <= v < self.degree:
            raise ValueError("point out of range")
        rebased = self if (self._levels and self._levels[0].point == v) else \
            PermGroup(self.degree, self.generators, base_prefix=[v], order=self.order)
        if not rebased._levels:
            return PermGroup(self.degree)
        gens = [g for g in rebased._strong_generators() if g[v] == v]
        return PermGroup(self.degree, gens,
                         order=rebased.order // len(rebased._levels[0].transversal))

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

