"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: exhaustive enumeration over all
permutations, all subgroups, or all subsets, with no shared code paths with
the algorithms under test.
"""

from __future__ import annotations

import itertools

from haarcay.groups import GroupTable, elements_of, mask_of


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
