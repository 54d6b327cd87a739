"""Structural automorphisms of Haar graphs.

Beyond the right translations h_i -> (hg)_i, a Haar graph of H with spoke set
S carries two families of candidate automorphisms built from group
automorphisms: part-fixing maps h_0 -> (h^a)_0, h_1 -> (g h^a)_1 (an
automorphism exactly when S^a = g^-1 S) and part-swapping maps
h_0 -> (h^a)_1, h_1 -> (y h^a)_0 (exactly when S^a = y^-1 S^-1); every other
part swap, h_0 -> (x h^a)_1, is a right translation followed by one of these.
The part-fixing maps that qualify form a group F; together with the right
translations (and one part-swapping map when any exists) they generate the
normalizer of the translation group inside Aut (Zhou & Feng, JCTB 116, 2016),
of order |R(H)|*|F| or twice that.  A part-swapping map proves
vertex-transitivity, and one whose square is a right translation yields a
regular subgroup of order 2|H|, i.e. a Cayley certificate.

Both families come from one set-transporter search: the n left translates
g^-1 U, U = S for the part-fixing maps and U = S^-1 for the part swaps, are
indexed in g order, and the backtrack of ``groups._isomorphisms`` over
Aut(H), in sorted order, prunes every partial map that sends S to none of
them.  One lazy matcher yields the maps in (aut images, g) order, each
edge-checked when reached.  The lists raise ``BudgetExceeded`` past
``groups.AUT_SIZE_CAP`` nodes; the certificates stop at the first usable
map, and find none past that budget.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import groups
from .graphs import _vertex_perm, haar_graph, right_translation_vertex_perm
from .groups import (
    GroupTable,
    generating_sequence,
    inverse_mask,
    left_translate_mask,
    mask_image,
)
from .perms import BudgetExceeded, Perm, PermGroup, _Meter, pmul


@dataclass(frozen=True)
class BiCayleyHints:
    """Provenance of a Haar graph: the group and its spoke set."""
    table: GroupTable
    spokes: int


@dataclass(frozen=True)
class PartSwapMap:
    """h_0 -> (h^aut)_1 and h_1 -> (y h^aut)_0; swaps the two parts and
    sends 1_0 to 1_1."""
    aut: tuple
    y: int
    perm: Perm

    def witness(self) -> dict:
        return {"kind": "part_swap", "aut": list(self.aut), "y": self.y}


@dataclass(frozen=True)
class PartFixMap:
    """h_0 -> (h^aut)_0 and h_1 -> (g h^aut)_1; fixes both parts setwise
    and the identity vertex of part 0."""
    aut: tuple
    g: int
    perm: Perm


def swap_vertex_perm(H: GroupTable, aut: Sequence[int], y: int) -> Perm:
    """The part-swapping map h_0 -> (h^aut)_1, h_1 -> (y h^aut)_0, numbered
    by ``graphs._vertex_perm``."""
    ry = H.mult[y]
    return _vertex_perm(H.order, aut, [ry[a] for a in aut], True)


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


def _matching_maps(H: GroupTable, S: int, U: int, kind, vertex_perm) -> Iterator:
    """Lazily, ``kind(aut, g, vertex_perm(H, aut, g))`` for every
    automorphism a of H and every g with S^a = g^-1 U, each verified
    edge-preserving, in (aut images, g) order: the n left translates g^-1 U
    are indexed in g order as the targets of the search."""
    translates: dict[int, list[int]] = {}
    for g in range(H.order):
        translates.setdefault(left_translate_mask(H, H.inv[g], U), []).append(g)
    graph, _ = haar_graph(H, S)
    meter = _Meter("part-map search", groups.AUT_SIZE_CAP)
    for aut in groups._isomorphisms(H, H, S, list(translates), meter):
        for g in translates[mask_image(S, aut)]:
            perm = vertex_perm(H, aut, g)
            if not graph.is_automorphism(perm):
                raise RuntimeError(f"{kind.__name__} failed edge check")
            yield kind(aut, g, perm)


def part_fix_maps(H: GroupTable, S: int) -> list[PartFixMap]:
    """All part-fixing automorphisms (the set F): a with S^a = g^-1 S,
    looked up among the n left translates of S.  Sorted by (aut images, g)."""
    return list(_matching_maps(H, S, S, PartFixMap, fix_vertex_perm))


def _swap_maps(H: GroupTable, S: int) -> Iterator[PartSwapMap]:
    """The part-swapping maps of ``part_swap_maps``, lazily and in its order."""
    return _matching_maps(H, S, inverse_mask(H, S), PartSwapMap, swap_vertex_perm)


def part_swap_maps(H: GroupTable, S: int) -> list[PartSwapMap]:
    """The part swaps that send 1_0 to 1_1, |F| of them or none: a with
    S^a = y^-1 S^-1, looked up among the n left translates of S^-1, sorted
    by (aut images, y) so "first" is reproducible.  Every part swap is a
    right translation followed by one of them."""
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
    is itself a right translation.  No map after it is built; each r_g m
    squares into R exactly when m does, and generates the same <R, m>.

    <R, m> = R ∪ mR is regular without a group being built.  For m built
    from the automorphism a, m^-1 r_g m = r_(g^a), so m normalizes R; m^2
    lies in R; so R ∪ mR is a group, of order 2|H| since m swaps the parts.
    R is transitive on each part and m swaps them, so the group is
    transitive on 2|H| vertices, hence regular.  Absence of this
    certificate says nothing about Cayley-ness."""
    with suppress(BudgetExceeded):
        for m in _swap_maps(H, S):
            square = pmul(m.perm, m.perm)
            if square == right_translation_vertex_perm(H, square[0]):
                return right_translation_group_perms(H) + [m.perm], m.witness()
    return None
