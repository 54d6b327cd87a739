"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: exhaustive enumeration over all
permutations, all subgroups, or all subsets, with no shared code paths with
the algorithms under test.
"""

from __future__ import annotations

import itertools
from collections import deque

from haarcay.groups import (
    GroupTable,
    elements_of,
    group_automorphisms,
    inverse_mask,
    left_translate_mask,
    mask_image,
    mask_of,
)


def all_subgroups(H: GroupTable) -> list[int]:
    """Every subgroup mask, found by closing each known subgroup under one
    extra generator until nothing new appears."""
    trivial = 1
    found = {trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        members = sub
        for g in range(1, H.order):
            if (members >> g) & 1:
                continue
            new = _closure(H, sub | (1 << g))
            if new not in found:
                found.add(new)
                frontier.append(new)
    return sorted(found)


def _closure(H: GroupTable, mask: int) -> int:
    elems = set(elements_of(mask)) | {0}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                c = H.mult[a][b]
                if c not in elems:
                    elems.add(c)
                    changed = True
            i = H.inv[a]
            if i not in elems:
                elems.add(i)
                changed = True
    return mask_of(elems)


def is_mask_abelian(H: GroupTable, mask: int) -> bool:
    elems = elements_of(mask)
    return all(H.mult[a][b] == H.mult[b][a] for a in elems for b in elems)


def inner_abelian_by_subgroup_enumeration(H: GroupTable) -> bool:
    full = (1 << H.order) - 1
    if is_mask_abelian(H, full):
        return False
    return all(is_mask_abelian(H, sub) for sub in all_subgroups(H) if sub != full)


def brute_force_graph_automorphisms(rows: list[int]) -> list[tuple[int, ...]]:
    """All adjacency-preserving permutations, by trying every permutation."""
    n = len(rows)
    out = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for v in range(n):
            mapped = 0
            r = rows[v]
            while r:
                low = r & -r
                mapped |= 1 << perm[low.bit_length() - 1]
                r ^= low
            if mapped != rows[perm[v]]:
                ok = False
                break
        if ok:
            out.append(perm)
    return out


def brute_force_is_associative(mult) -> bool:
    """(x*y)*z = x*(y*z) for every triple, all n^3 of them."""
    n = len(mult)
    return all(mult[mult[x][y]][z] == mult[x][mult[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def brute_force_group_automorphisms(H: GroupTable) -> list[tuple[int, ...]]:
    n = H.order
    out = []
    for perm in itertools.permutations(range(1, n)):
        images = (0,) + perm
        if all(images[H.mult[x][y]] == H.mult[images[x]][images[y]]
               for x in range(n) for y in range(n)):
            out.append(images)
    return out


def brute_force_part_maps(H: GroupTable, S: int, auts) -> tuple[list, list]:
    """Every part-fixing map h_0 -> (h^a)_0, h_1 -> (g h^a)_1 as (a, g, perm)
    and every part-swapping map h_0 -> (x h^a)_1, h_1 -> (y h^a)_0 as
    (a, x, y, perm) that preserves the edge set h_0 ~ (sh)_1 of Haar(H, S),
    by trying every a in sorted(auts) with every g, and every (x, y)."""
    n = H.order
    mul = H.mult
    edges = {frozenset((h, n + mul[s][h])) for h in range(n) for s in elements_of(S)}

    def preserves(images: tuple) -> bool:  # a bijection, so edges into edges is enough
        return all(frozenset(images[v] for v in e) in edges for e in edges)

    fix, swap = [], []
    for a in sorted(tuple(a) for a in auts):
        for g in range(n):
            images = tuple(a) + tuple(n + mul[g][a[h]] for h in range(n))
            if preserves(images):
                fix.append((a, g, images))
        for x in range(n):
            for y in range(n):
                images = tuple(n + mul[x][a[h]] for h in range(n)) + \
                    tuple(mul[y][a[h]] for h in range(n))
                if preserves(images):
                    swap.append((a, x, y, images))
    return fix, swap


def reference_class(H: GroupTable, S: int) -> set[int]:
    """The equivalence class of the anchored spoke set S: its closure under
    every automorphism of H, inversion, and the re-anchored left translates
    s^-1 S for s in S, each applied to every set one set bit at a time."""
    auts = group_automorphisms(H)
    orbit = {S}
    queue = [S]
    while queue:
        cur = queue.pop()
        images = [mask_image(cur, a) for a in auts]
        images.append(inverse_mask(H, cur))
        images.extend(left_translate_mask(H, H.inv[s], cur)
                      for s in elements_of(cur))
        for img in images:
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return orbit


def reference_class_representatives(H: GroupTable) -> list[int]:
    """The least member of every class of anchored spoke sets, in
    increasing order, by closing each unseen set under all of Aut(H); the
    generator walk of ``anchored_class_representatives`` must return the
    same list."""
    seen: set[int] = set()
    reps: list[int] = []
    for S in range(1, 1 << H.order, 2):
        if S in seen:
            continue
        orbit = reference_class(H, S)
        seen |= orbit
        reps.append(min(orbit))
    return reps


# -- reference Schreier-Sims ---------------------------------------------------
# The textbook construction with no stored inverses and no skip of trivial
# Schreier generators: every return to a level rebuilds its
# transversal and re-sifts every (beta, g) pair from the first.  Slow but
# plainly correct; the production PermGroup must build exactly the same base,
# level generators and transversals.

def _ref_pmul(p, q):
    return tuple(map(q.__getitem__, p))


def _ref_pinv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _ref_is_identity(p):
    return all(i == j for i, j in enumerate(p))


class _RefLevel:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}


class ReferencePermGroup:
    def __init__(self, degree, generators=(), base_prefix=()):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            if not _ref_is_identity(g) and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators = gens
        self._levels = []
        self._build(base_prefix)

    def _build(self, base_prefix):
        for b in base_prefix:
            self._levels.append(_RefLevel(b))
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

    def _ensure_base_covers(self, g):
        for level in self._levels:
            if g[level.point] != level.point:
                return
        for x in range(self.degree):
            if g[x] != x:
                self._levels.append(_RefLevel(x))
                return

    def _orbit_transversal(self, level):
        trans = {level.point: tuple(range(self.degree))}
        queue = [level.point]
        while queue:
            a = queue.pop(0)
            ta = trans[a]
            for g in level.gens:
                b = g[a]
                if b not in trans:
                    trans[b] = _ref_pmul(ta, g)
                    queue.append(b)
        level.transversal = trans

    def _process_level(self, i):
        level = self._levels[i]
        self._orbit_transversal(level)
        for beta in sorted(level.transversal):
            t_beta = level.transversal[beta]
            for g in level.gens:
                t_img = level.transversal[g[beta]]
                schreier = _ref_pmul(_ref_pmul(t_beta, g), _ref_pinv(t_img))
                residue, depth = self._sift_from(schreier, i + 1)
                if not _ref_is_identity(residue):
                    return self._add_strong_generator(residue, i + 1, depth)
        return None

    def _sift_from(self, p, start):
        for j in range(start, len(self._levels)):
            level = self._levels[j]
            gamma = p[level.point]
            if gamma not in level.transversal:
                return p, j
            p = _ref_pmul(p, _ref_pinv(level.transversal[gamma]))
        return p, len(self._levels)

    def _add_strong_generator(self, g, first, depth):
        if depth == len(self._levels):
            for x in range(self.degree):
                if g[x] != x:
                    self._levels.append(_RefLevel(x))
                    break
            depth = len(self._levels) - 1
        for j in range(first, depth + 1):
            self._levels[j].gens.append(g)
            self._orbit_transversal(self._levels[j])
        return depth

    @property
    def base(self):
        return [level.point for level in self._levels]

    def stabilizer(self, v):
        rebased = self if (self._levels and self._levels[0].point == v) else \
            ReferencePermGroup(self.degree, self.generators, base_prefix=[v])
        if not rebased._levels:
            return ReferencePermGroup(self.degree)
        seen = set()
        gens = []
        for level in rebased._levels:
            for g in level.gens:
                if g[v] == v and g not in seen:
                    seen.add(g)
                    gens.append(g)
        return ReferencePermGroup(self.degree, gens)

    def elements(self):
        def walk(i, prefix):
            if i < 0:
                yield prefix
                return
            for t in self._levels[i].transversal.values():
                yield from walk(i - 1, _ref_pmul(prefix, t))

        return walk(len(self._levels) - 1, tuple(range(self.degree)))


def reference_refine(rows, cells, splitters):
    """The list-of-cells equitable refinement the IR search used before its
    position-array partition: every splitter visits every cell, and every
    part of a split cell is queued."""
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


# -- reference pairwise closures -------------------------------------------------
# The two closures the package ran before Dimino's algorithm: each new
# element is multiplied by every element reached so far, on both sides.

def reference_subgroup_generated(H: GroupTable, mask: int) -> int:
    """Closure of the subset (plus identity) under products and inverses."""
    closed = 1  # identity
    new = [e for e in elements_of(mask) if not (closed >> e) & 1]
    for e in new:
        closed |= 1 << e
    frontier = elements_of(closed)
    while new:
        nxt = []
        for a in new:
            for b in frontier:
                for c in (H.mult[a][b], H.mult[b][a]):
                    if not (closed >> c) & 1:
                        closed |= 1 << c
                        nxt.append(c)
            i = H.inv[a]
            if not (closed >> i) & 1:
                closed |= 1 << i
                nxt.append(i)
        frontier.extend(nxt)
        new = nxt
    return closed


def uncapped_is_inner_abelian(H: GroupTable) -> bool:
    """Inner-abelian by closing every non-commuting pair to the end with the
    pairwise closure: each must generate the whole group."""
    full = (1 << H.order) - 1
    pairs = [(x, y) for x in range(H.order) for y in range(x + 1, H.order)
             if H.mult[x][y] != H.mult[y][x]]
    return bool(pairs) and all(reference_subgroup_generated(H, (1 << x) | (1 << y)) == full
                               for x, y in pairs)


def reference_closed_with(elems, g, reject, cap):
    """The regular search's closure of a group's elements with one more
    permutation: None once ``reject`` holds for an element or the size
    passes ``cap``."""
    result = set(elems)
    frontier = [g]
    while frontier:
        p = frontier.pop()
        if p in result:
            continue
        if reject(p):
            return None
        result.add(p)
        if len(result) > cap:
            return None
        for q in list(result):
            frontier.append(_ref_pmul(p, q))
            frontier.append(_ref_pmul(q, p))
    return frozenset(result)
