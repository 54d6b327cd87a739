"""Structural automorphisms of Haar graphs.

Beyond the right translations h_i -> (hg)_i, a Haar graph of H with spoke set
S carries two families of candidate automorphisms built from group
automorphisms: part-swapping maps h_0 -> (x h^a)_1, h_1 -> (y h^a)_0 (an
automorphism exactly when S^a = y^-1 S^-1 x) and part-fixing maps
h_0 -> (h^a)_0, h_1 -> (g h^a)_1 (an automorphism exactly when S^a = g^-1 S).
The part-fixing maps that qualify form a group F; together with the right
translations (and one part-swapping map when any exists) they generate the
normalizer of the translation group inside Aut, of order |R(H)|*|F| or twice
that.  A part-swapping map proves vertex-transitivity, and one whose square
is a right translation yields a regular subgroup of order 2|H|, i.e. a
Cayley certificate.

Everything here is brute force over Aut(H) x H (x H), checked by explicit
edge preservation; no coset cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import haar_graph, right_translation_vertex_perm
from .groups import (
    GroupTable,
    generating_sequence,
    group_automorphisms,
    inverse_mask,
    left_translate_mask,
    mask_image,
    right_translate_mask,
)
from .perms import Perm, PermGroup, pmul


@dataclass(frozen=True)
class BiCayleyHints:
    """Provenance of a Haar graph: the group and its spoke set."""
    table: GroupTable
    spokes: int


@dataclass(frozen=True)
class PartSwapMap:
    """h_0 -> (x h^aut)_1 and h_1 -> (y h^aut)_0; swaps the two parts."""
    aut: tuple
    x: int
    y: int
    perm: Perm

    def witness(self) -> dict:
        return {"kind": "part_swap", "aut": list(self.aut), "x": self.x, "y": self.y}


@dataclass(frozen=True)
class PartFixMap:
    """h_0 -> (h^aut)_0 and h_1 -> (g h^aut)_1; fixes both parts setwise
    and the identity vertex of part 0."""
    aut: tuple
    g: int
    perm: Perm

    def witness(self) -> dict:
        return {"kind": "part_fix", "aut": list(self.aut), "g": self.g}


def swap_vertex_perm(H: GroupTable, aut: Sequence[int], x: int, y: int) -> Perm:
    n = H.order
    images = [0] * (2 * n)
    rx, ry = H.mult[x], H.mult[y]
    for h in range(n):
        images[h] = n + rx[aut[h]]
        images[n + h] = ry[aut[h]]
    return tuple(images)


def fix_vertex_perm(H: GroupTable, aut: Sequence[int], g: int) -> Perm:
    n = H.order
    images = [0] * (2 * n)
    rg = H.mult[g]
    for h in range(n):
        images[h] = aut[h]
        images[n + h] = n + rg[aut[h]]
    return tuple(images)


def right_translation_group_perms(H: GroupTable) -> list[Perm]:
    """Vertex permutations of right translations by a generating sequence;
    they generate the full translation group on the bi-Cayley vertex set."""
    gens = generating_sequence(H)
    return [right_translation_vertex_perm(H, g) for g in gens] or \
        [right_translation_vertex_perm(H, 0)]


def part_fix_maps(H: GroupTable, S: int,
                  auts: Optional[Sequence[tuple]] = None) -> list[PartFixMap]:
    """All part-fixing automorphisms (the set F), exhaustively over
    Aut(H) x H, each verified edge-preserving."""
    graph, _ = haar_graph(H, S)
    out = []
    for aut in (auts if auts is not None else group_automorphisms(H)):
        s_alpha = mask_image(S, aut)
        for g in range(H.order):
            if left_translate_mask(H, H.inv[g], S) == s_alpha:
                p = fix_vertex_perm(H, aut, g)
                if not graph.is_automorphism(p):
                    raise RuntimeError("part-fix map failed edge check")
                out.append(PartFixMap(tuple(aut), g, p))
    out.sort(key=lambda m: (m.aut, m.g))
    return out


def part_swap_maps(H: GroupTable, S: int,
                   auts: Optional[Sequence[tuple]] = None) -> list[PartSwapMap]:
    """All part-swapping automorphisms (the set I), exhaustively over
    Aut(H) x H x H, each verified edge-preserving.  Sorted by
    (aut images, x, y) so "first" is reproducible."""
    graph, _ = haar_graph(H, S)
    s_inv = inverse_mask(H, S)
    out = []
    for aut in (auts if auts is not None else group_automorphisms(H)):
        s_alpha = mask_image(S, aut)
        for y in range(H.order):
            base = left_translate_mask(H, H.inv[y], s_inv)
            for x in range(H.order):
                if right_translate_mask(H, base, x) == s_alpha:
                    p = swap_vertex_perm(H, aut, x, y)
                    if not graph.is_automorphism(p):
                        raise RuntimeError("part-swap map failed edge check")
                    out.append(PartSwapMap(tuple(aut), x, y, p))
    out.sort(key=lambda m: (m.aut, m.x, m.y))
    return out


@dataclass
class NormalizerStructure:
    """The group generated by the right translations, F, and one
    part-swapping map when any exists."""
    fix_maps: list[PartFixMap]
    swap_maps: list[PartSwapMap]
    translations: PermGroup
    group: PermGroup


def normalizer_structure(H: GroupTable, S: int) -> NormalizerStructure:
    fix = part_fix_maps(H, S)
    swap = part_swap_maps(H, S)
    trans_gens = right_translation_group_perms(H)
    translations = PermGroup(2 * H.order, trans_gens)
    if translations.order != H.order:
        raise RuntimeError("right translations must act faithfully")
    gens = list(trans_gens) + [m.perm for m in fix]
    if swap:
        gens.append(swap[0].perm)
    group = PermGroup(2 * H.order, gens)
    if not group.normalizes(translations):
        raise RuntimeError("built group must normalize the translations")
    expected = translations.order * len(fix) * (2 if swap else 1)
    if group.order != expected:
        raise RuntimeError(f"normalizer order {group.order} != expected {expected}")
    return NormalizerStructure(fix, swap, translations, group)


def vt_certificate(H: GroupTable, S: int) -> Optional[PermGroup]:
    """A transitive subgroup of Aut built from the translations and one
    part-swapping map, when such a map exists."""
    swap = part_swap_maps(H, S)
    if not swap:
        return None
    group = PermGroup(2 * H.order,
                      right_translation_group_perms(H) + [swap[0].perm])
    if not group.is_transitive():
        raise RuntimeError("translations plus a part swap must be transitive")
    return group


def cayley_certificate_from_swaps(H: GroupTable, S: int) -> Optional[tuple[PermGroup, dict]]:
    """A regular subgroup of order 2|H|: the translations extended by a
    part-swapping map whose square is itself a right translation.  The
    lexicographically least such map is reported.  Absence of this
    certificate says nothing about Cayley-ness."""
    n = H.order
    translations = {right_translation_vertex_perm(H, g) for g in range(n)}
    trans_gens = right_translation_group_perms(H)
    for m in part_swap_maps(H, S):
        if pmul(m.perm, m.perm) in translations:
            group = PermGroup(2 * n, trans_gens + [m.perm])
            if group.order == 2 * n and group.is_regular():
                return group, m.witness()
    return None
