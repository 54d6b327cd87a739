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

Both families are found by lookup: the translates g^-1 S (n masks) and
y^-1 S^-1 x (n^2 masks) are indexed once, in key order, and S^a is looked up
once per a in Aut(H), in sorted order.  One lazy matcher yields the maps in
(aut images, key) order, each built and checked by explicit edge preservation
only when it is reached.  The public lists take every map; the certificates
stop at the first usable one, so they build no map they do not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graphs import _vertex_perm, haar_graph, right_translation_vertex_perm
from .groups import (
    GroupTable,
    generating_sequence,
    group_automorphisms,
    inverse_mask,
    left_translate_mask,
    mask_image,
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


def swap_vertex_perm(H: GroupTable, aut: Sequence[int], x: int, y: int) -> Perm:
    """The part-swapping map h_0 -> (x h^aut)_1, h_1 -> (y h^aut)_0, numbered
    by ``graphs._vertex_perm``."""
    rx, ry = H.mult[x], H.mult[y]
    return _vertex_perm(H.order, [rx[a] for a in aut], [ry[a] for a in aut], True)


def fix_vertex_perm(H: GroupTable, aut: Sequence[int], g: int) -> Perm:
    """The part-fixing map h_0 -> (h^aut)_0, h_1 -> (g h^aut)_1, numbered by
    ``graphs._vertex_perm``."""
    rg = H.mult[g]
    return _vertex_perm(H.order, aut, [rg[a] for a in aut], False)


def right_translation_group_perms(H: GroupTable) -> list[Perm]:
    """Vertex permutations of right translations by a generating sequence;
    they generate the full translation group on the bi-Cayley vertex set.
    The trivial group has none: its translation group is the identity."""
    return [right_translation_vertex_perm(H, g) for g in generating_sequence(H)]


def _matching_maps(H: GroupTable, S: int, translates: dict[int, list[tuple]],
                   kind, vertex_perm) -> Iterator:
    """Lazily, ``kind(aut, *key, vertex_perm(H, aut, *key))`` for every
    automorphism a of H and every key indexed under S^a in ``translates``,
    each verified edge-preserving; in (aut images, key) order when every
    index list is appended in key order."""
    graph, _ = haar_graph(H, S)
    for aut in group_automorphisms(H):
        for key in translates.get(mask_image(S, aut), ()):
            perm = vertex_perm(H, aut, *key)
            if not graph.is_automorphism(perm):
                raise RuntimeError(f"{kind.__name__} failed edge check")
            yield kind(aut, *key, perm)


def part_fix_maps(H: GroupTable, S: int) -> list[PartFixMap]:
    """All part-fixing automorphisms (the set F): a with S^a = g^-1 S,
    looked up among the n left translates of S.  Sorted by (aut images, g)."""
    translates: dict[int, list[tuple]] = {}
    for g in range(H.order):
        translates.setdefault(left_translate_mask(H, H.inv[g], S), []).append((g,))
    return list(_matching_maps(H, S, translates, PartFixMap, fix_vertex_perm))


def _swap_maps(H: GroupTable, S: int) -> Iterator[PartSwapMap]:
    """The part-swapping maps of ``part_swap_maps``, lazily and in its order."""
    rows = [H.mult[H.inv[y]] for y in range(H.order)]  # h -> y^-1 h
    translates: dict[int, list[tuple]] = {}
    for x in range(H.order):
        s_inv_x = inverse_mask(H, mask_image(S, rows[x]))
        for y, row in enumerate(rows):
            translates.setdefault(mask_image(s_inv_x, row), []).append((x, y))
    return _matching_maps(H, S, translates, PartSwapMap, swap_vertex_perm)


def part_swap_maps(H: GroupTable, S: int) -> list[PartSwapMap]:
    """All part-swapping automorphisms (the set I): a with S^a = y^-1 S^-1 x,
    looked up among the n^2 two-sided translates of S^-1.  Sorted by
    (aut images, x, y) so "first" is reproducible."""
    return list(_swap_maps(H, S))


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
    swap = next(_swap_maps(H, S), None)
    if swap is None:
        return None
    group = PermGroup(2 * H.order, right_translation_group_perms(H) + [swap.perm])
    if not group.is_transitive():
        raise RuntimeError("translations plus a part swap must be transitive")
    return group


def cayley_certificate_from_swaps(H: GroupTable, S: int) -> Optional[tuple[list[Perm], dict]]:
    """Generators of a regular subgroup of order 2|H|, and the witness of
    the map that completes them: the right translations R and the first
    part-swapping map m, in the order of ``part_swap_maps``, whose square
    is itself a right translation.  No map after it is built.

    <R, m> = R ∪ mR is regular without a group being built.  For m built
    from the automorphism a, m^-1 r_g m = r_(g^a), so m normalizes R; m^2
    lies in R; so R ∪ mR is a group, of order 2|H| since m swaps the parts.
    R is transitive on each part and m swaps them, so the group is
    transitive on 2|H| vertices, hence regular.  Absence of this
    certificate says nothing about Cayley-ness."""
    for m in _swap_maps(H, S):
        square = pmul(m.perm, m.perm)
        if square == right_translation_vertex_perm(H, square[0]):
            return right_translation_group_perms(H) + [m.perm], m.witness()
    return None
