"""Integer group-ring calculus and transitivity modules.

A vector is a plain list of integer coefficients indexed by group element; a
simple quantity is a 0/1 vector encoding a subset.  The transitivity module
of a point stabilizer is represented by its partition into basic sets (the
stabilizer orbits), so span membership is just "constant on every basic
set".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graphs import cayley_right_translation
from .groups import (GroupTable, elements_of, inverse_mask, left_translate_mask, mask_of,
                     right_translate_mask, subgroup_generated)
from .perms import PermGroup

_COEFF_LIMIT = 2 ** 31  # desk-scale sanity bound on products

Vector = list


def indicator(H: GroupTable, mask: int) -> Vector:
    """The simple quantity of a subset."""
    return [(mask >> e) & 1 for e in range(H.order)]


def support_mask(u: Sequence[int]) -> int:
    return mask_of(i for i, c in enumerate(u) if c)


def convolve(H: GroupTable, u: Sequence[int], v: Sequence[int]) -> Vector:
    """Group-ring product: coefficient at h is sum over g of u_g * v_(g^-1 h)."""
    out = [0] * H.order
    for g, cg in enumerate(u):
        if not cg:
            continue
        row = H.mult[g]
        for k, dk in enumerate(v):
            if dk:
                out[row[k]] += cg * dk
    if any(abs(c) >= _COEFF_LIMIT for c in out):
        raise OverflowError("coefficient overflow")
    return out


def schur_product(u: Sequence[int], v: Sequence[int]) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return [a * b for a, b in zip(u, v)]


def level_set(u: Sequence[int], c: int) -> Vector:
    """Simple quantity of the positions where the coefficient equals c."""
    return [1 if x == c else 0 for x in u]


def inverse_vector(H: GroupTable, u: Sequence[int]) -> Vector:
    out = [0] * H.order
    for h, c in enumerate(u):
        out[H.inv[h]] = c
    return out


def subgroup_indicator(H: GroupTable, u: Sequence[int] | int) -> Vector:
    """Simple quantity of the subgroup generated by a subset (or by the
    support of a vector)."""
    mask = u if isinstance(u, int) else support_mask(u)
    return indicator(H, subgroup_generated(H, mask))


def left_translation(H: GroupTable, h: int) -> tuple:
    """x -> h^-1 x as a permutation of the element set."""
    return H.mult[H.inv[h]]


@dataclass
class TransitivityModule:
    table: GroupTable
    basic_sets: list[int]  # masks, partition of the element set

    def decompose(self, u: Sequence[int]) -> Optional[list[int]]:
        """Coefficients on the basic quantities when u lies in the span
        (i.e. u is constant on every basic set), else None."""
        coeffs = []
        for mask in self.basic_sets:
            elems = elements_of(mask)
            c = u[elems[0]]
            if any(u[e] != c for e in elems[1:]):
                return None
            coeffs.append(c)
        return coeffs

    def contains(self, u: Sequence[int]) -> bool:
        return self.decompose(u) is not None

    def serialize(self) -> list[list[int]]:
        return sorted(sorted(elements_of(m)) for m in self.basic_sets)


def transitivity_module(H: GroupTable, G: PermGroup) -> TransitivityModule:
    """Basic sets are the orbits of the stabilizer of the identity in G.
    Requires the right translations of H inside G; the subring closure (every
    product of basic quantities decomposes over the basic sets) is asserted.
    """
    if G.degree != H.order:
        raise ValueError("permutation group must act on the element set")
    for g in range(H.order):
        if not G.contains(cayley_right_translation(H, g)):
            raise ValueError("the right translations must lie inside G")
    stab = G.stabilizer(0)
    basics = [mask_of(orbit) for orbit in stab.orbits()]
    basics.sort(key=lambda m: (m & -m).bit_length())
    module = TransitivityModule(H, basics)
    if basics[0] != 1:
        raise RuntimeError("the identity must be a singleton basic set")
    vectors = [indicator(H, m) for m in basics]
    for u in vectors:
        for v in vectors:
            if not module.contains(convolve(H, u, v)):
                raise RuntimeError("subring closure fails")
    return module


def is_block_of_imprimitivity(G: PermGroup, points: Sequence[int]) -> bool:
    """Whether the point set is a block: every group element maps it to
    itself or clean off itself.  Checked exactly by closing the set of
    translates under the generators."""
    if not G.is_transitive():
        raise ValueError("block test requires a transitive group")
    start = frozenset(points)
    seen = {start}
    queue = [start]
    while queue:
        block = queue.pop()
        for g in G.generators:
            image = frozenset(g[x] for x in block)
            if image in seen:
                continue
            for other in seen:
                inter = image & other
                if inter and image != other:
                    return False
            seen.add(image)
            queue.append(image)
    return True


@dataclass
class LawReport:
    """Outcome of the transitivity-module law suite: the first
    counterexample description of every law that fails."""
    failed: dict = field(default_factory=dict)

    def record(self, law: str, detail: str) -> None:
        self.failed.setdefault(law, detail)

    @property
    def passed(self) -> bool:
        return not self.failed

    def failures(self) -> dict:
        return dict(self.failed)


def module_law_suite(H: GroupTable, G: PermGroup) -> LawReport:
    """Check the closure laws of transitivity modules on the module computed
    from G: level sets, Schur products, generated subgroups, inverses,
    translates of basic sets by singleton basics, blocks of imprimitivity,
    and left translations by singleton basics centralizing G."""
    module = transitivity_module(H, G)
    report = LawReport()
    basics = module.basic_sets
    vectors = [indicator(H, m) for m in basics]
    singletons = [elements_of(m)[0] for m in basics if m.bit_count() == 1]

    for i, u in enumerate(vectors):
        for v in vectors[i:]:
            prod = convolve(H, u, v)
            for c in set(prod):
                if not module.contains(level_set(prod, c)):
                    report.record("level_set", f"level {c} of product of basics {i} not in span")
            if not module.contains(schur_product(prod, prod)):
                report.record("schur_product", "schur square escapes span")

    for mask in basics:
        if not module.contains(subgroup_indicator(H, mask)):
            report.record("generated_subgroup", f"<basic {mask:#x}> not in span")
    if len(basics) >= 2:
        union = basics[0] | basics[-1]
        if not module.contains(subgroup_indicator(H, union)):
            report.record("generated_subgroup", "<union of basics> not in span")

    basic_set = set(basics)
    for mask in basics:
        if inverse_mask(H, mask) not in basic_set:
            report.record("inverse_closure", f"inverse of basic {mask:#x} not basic")

    for h in singletons:
        for mask in basics:
            if left_translate_mask(H, h, mask) not in basic_set or \
                    right_translate_mask(H, mask, h) not in basic_set:
                report.record("translate_of_basic", f"translate of basic {mask:#x} by {h} not basic")

    for mask in basics:
        block = elements_of(subgroup_generated(H, mask))
        if not is_block_of_imprimitivity(G, block):
            report.record("block_of_imprimitivity", f"<basic {mask:#x}> is not a block")

    for h in singletons:
        lt = left_translation(H, h)
        for g in G.generators:
            if any(lt[g[x]] != g[lt[x]] for x in range(H.order)):
                report.record("left_translation_centralizes",
                              f"L({h}) does not commute with a generator")
    return report
