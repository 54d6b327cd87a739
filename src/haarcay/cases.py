"""Named reproduction cases, the quotient obstruction checker, exhaustive
Haar enumeration, and the inner-abelian scan.

Each catalog case rebuilds its group and graph from scratch and recomputes
the verdict; a case passes only when the recomputed verdict matches the
expected one and the certificate re-verifies against the freshly built
graph.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .automorphisms import (
    IR_BUDGET,
    REGULAR_BUDGET,
    Certificate,
    are_isomorphic,
    automorphism_group,
    cayley_status,
)
from .bicayley import BiCayleyHints, right_translation_group_perms
from .graphs import (Graph, _failed_check, complete_bipartite, empty_graph, haar_graph,
                     lex_product, verify_certificate)
from .groups import (
    AutImages,
    GroupConstructionError,
    GroupTable,
    _generated,
    _is_prime,
    connection_set,
    cyclic_group,
    dihedral_group,
    direct_product,
    elements_of,
    group_automorphisms,
    group_from_spec,
    group_isomorphism,
    is_inner_abelian,
    left_translate_mask,
    mask_of,
    miller_moreno_group,
    mp1_group,
    mp_group,
    quaternion_group,
    quotient,
    right_translate_mask,
    subgroup_generated,
)
from .perms import pmul

A4_SPEC = {
    "family": "Presented",
    "ngens": 3,
    "relators": ["xx", "yy", "zzz", "XYxy", "Zxzy", "ZyzXY"],
}
Z23_Z7_SPEC = {
    "family": "Presented",
    "ngens": 4,
    "relators": ["xx", "yy", "zz", "uuuuuuu", "XYxy", "XZxz", "YZyz",
                 "Uxuy", "Uyuz", "Uzuxy"],
}
Z24_Z5_SPEC = {
    "family": "Presented",
    "ngens": 5,
    "labels": ["x", "y", "z", "v", "w"],
    "relators": ["xx", "yy", "zz", "vv", "wwwww",
                 "XYxy", "XZxz", "XVxv", "YZyz", "YVyv", "ZVzv",
                 "Wxwv", "Wywxy", "Wzwyz", "Wvwzv"],
}


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    kind: str               # not_vertex_transitive | bc_enumerate | obstruction
    group: dict             # FamilySpec
    words: str = ""         # connection set over the group's generators
    normal_words: str = ""  # obstruction: generators of the normal subgroup
    quotient_words: str = ""  # obstruction: connection set over the quotient
    expected: str = ""
    connected_only: bool = False
    check_q8_isomorphisms: bool = False
    claim: str = ""


CATALOG: list[CaseSpec] = [
    CaseSpec("a4-not-vt", "not_vertex_transitive",
             A4_SPEC, words="1,x,z,xyz", expected="not_vertex_transitive",
             claim="The Haar graph of A4 with spokes {1,x,z,xyz} is not "
                   "vertex-transitive.  (The relations force zx = xyz, so "
                   "S equals its own right translate by x; the translate "
                   "scan is reported in the certificate.)"),
    CaseSpec("d14-not-vt", "not_vertex_transitive",
             {"family": "Dihedral", "n": 7}, words="1,a,a3,b,ab,a2b,a4b",
             expected="not_vertex_transitive",
             claim="The Haar graph of the dihedral group of order 14 with "
                   "spokes {1,a,a^3,b,ab,a^2b,a^4b} is not vertex-transitive."),
    CaseSpec("d22-not-vt", "not_vertex_transitive",
             {"family": "Dihedral", "n": 11}, words="1,a,a3,b,ab,a2b,a4b",
             expected="not_vertex_transitive",
             claim="Same spoke pattern over the dihedral group of order 22."),
    CaseSpec("d26-not-vt", "not_vertex_transitive",
             {"family": "Dihedral", "n": 13}, words="1,a,a3,b,ab,a2b,a4b",
             expected="not_vertex_transitive",
             claim="Same spoke pattern over the dihedral group of order 26."),
    CaseSpec("m2211-not-vt", "not_vertex_transitive",
             {"family": "MpMN1", "p": 2, "m": 2, "n": 1}, words="1,a,a-1,b,ab",
             expected="not_vertex_transitive",
             claim="The Haar graph of the order-16 group with a^4=b^2=c^2=1, "
                   "[a,b]=c central, with spokes {1,a,a^-1,b,ab}, is not "
                   "vertex-transitive."),
    CaseSpec("m222-not-vt", "not_vertex_transitive",
             {"family": "MpMN", "p": 2, "m": 2, "n": 2}, words="1,a,b,ab,ab2,ab3",
             expected="not_vertex_transitive",
             claim="The Haar graph of the order-16 group with a^4=b^4=1, "
                   "[a,b]=a^2, with spokes {1,a,b,ab,ab^2,ab^3}, is not "
                   "vertex-transitive."),
    CaseSpec("m2221-not-vt", "not_vertex_transitive",
             {"family": "MpMN1", "p": 2, "m": 2, "n": 2}, words="1,a,b,ab,ab2,ab3",
             expected="not_vertex_transitive",
             claim="The Haar graph of the order-32 group with a^4=b^4=c^2=1, "
                   "[a,b]=c central, with spokes {1,a,b,ab,ab^2,ab^3}, is not "
                   "vertex-transitive."),
    CaseSpec("m3111-not-vt", "not_vertex_transitive",
             {"family": "MpMN1", "p": 3, "m": 1, "n": 1}, words="1,a,a-1,b,ab",
             expected="not_vertex_transitive",
             claim="The Haar graph of the order-27 exponent-3 group with "
                   "spokes {1,a,a^-1,b,ab} is not vertex-transitive."),
    CaseSpec("z3-z4-not-vt", "not_vertex_transitive",
             {"family": "MillerMoreno", "p": 3, "n": 1, "q": 2, "m": 2},
             words="1,a,b,ab,ab2,ab3", expected="not_vertex_transitive",
             claim="The Haar graph of Z_3:Z_4 (b inverts a) with spokes "
                   "{1,a,b,ab,ab^2,ab^3} is not vertex-transitive."),
    CaseSpec("z5-z4-not-vt", "not_vertex_transitive",
             {"family": "MillerMoreno", "p": 5, "n": 1, "q": 2, "m": 2},
             words="1,a,b,ab,ab2,ab3", expected="not_vertex_transitive",
             claim="The Haar graph of Z_5:Z_4 (b inverts a) with spokes "
                   "{1,a,b,ab,ab^2,ab^3} is not vertex-transitive."),
    CaseSpec("z23-z7-not-vt", "not_vertex_transitive",
             Z23_Z7_SPEC, words="1,x,u,xyu,xzu", expected="not_vertex_transitive",
             claim="The Haar graph of Z_2^3:Z_7 with spokes {1,x,u,xyu,xzu} "
                   "is not vertex-transitive."),
    CaseSpec("z24-z5-not-vt", "not_vertex_transitive",
             Z24_Z5_SPEC, words="1,x,w,xyw,xzw", expected="not_vertex_transitive",
             claim="The Haar graph of Z_2^4:Z_5 with spokes {1,x,w,xyw,xzw} "
                   "is not vertex-transitive."),
    CaseSpec("q8-all-connected-cayley", "bc_enumerate",
             {"family": "Quaternion"}, expected="all_cayley",
             connected_only=True, check_q8_isomorphisms=True,
             claim="Every connected Haar graph of the quaternion group is a "
                   "Cayley graph; the valency-7 ones are the complete "
                   "bipartite graph on 8+8 minus a perfect matching and the "
                   "valency-8 one is complete bipartite."),
    CaseSpec("dihedral-bc-4", "bc_enumerate",
             {"family": "Dihedral", "n": 2}, expected="all_cayley",
             claim="Every Haar graph of the dihedral group of order 4 is a "
                   "Cayley graph."),
    CaseSpec("dihedral-bc-6", "bc_enumerate",
             {"family": "Dihedral", "n": 3}, expected="all_cayley",
             claim="Every Haar graph of the dihedral group of order 6 is a "
                   "Cayley graph."),
    CaseSpec("dihedral-bc-8", "bc_enumerate",
             {"family": "Dihedral", "n": 4}, expected="all_cayley",
             claim="Every Haar graph of the dihedral group of order 8 is a "
                   "Cayley graph."),
    CaseSpec("dihedral-bc-10", "bc_enumerate",
             {"family": "Dihedral", "n": 5}, expected="all_cayley",
             claim="Every Haar graph of the dihedral group of order 10 is a "
                   "Cayley graph."),
    CaseSpec("obstruct-m232", "obstruction",
             {"family": "MpMN", "p": 2, "m": 3, "n": 2},
             normal_words="b2", quotient_words="1,a,a-1,b,ab",
             expected="not_in_bc",
             claim="Quotienting the order-32 group a^8=b^4, [a,b]=a^4 by "
                   "<b^2> leaves a Haar graph that is not vertex-transitive "
                   "and a spoke set with no nontrivial translate symmetry, "
                   "so some Haar graph of the big group is not Cayley."),
    CaseSpec("obstruct-z22-z9", "obstruction",
             {"family": "MillerMoreno", "p": 2, "n": 2, "q": 3, "m": 2},
             normal_words="b3", quotient_words="1,a,b,ab-1ab2",
             expected="inconclusive",
             claim="Quotienting Z_2^2:Z_9 by <b^3> gives A4 with the "
                   "four-element spoke set {1,x,z,xyz}; the quotient graph "
                   "is not vertex-transitive but the set equals its own "
                   "right translate by x, so the obstruction conditions are "
                   "not met by this witness."),
    CaseSpec("obstruct-z22-z9-repaired", "obstruction",
             {"family": "MillerMoreno", "p": 2, "n": 2, "q": 3, "m": 2},
             normal_words="b3", quotient_words="1,b,b2,b-1ab,b-1ab2",
             expected="not_in_bc",
             claim="Quotienting Z_2^2:Z_9 by <b^3> gives A4; the five-element "
                   "spoke set {1,z,z^2,y,yz} is translate-free and its Haar "
                   "graph is not vertex-transitive, certifying a non-Cayley "
                   "Haar graph upstairs."),
    CaseSpec("obstruct-z7-z4", "obstruction",
             {"family": "MillerMoreno", "p": 7, "n": 1, "q": 2, "m": 2},
             normal_words="b2", quotient_words="1,a,a3,b,ab,a2b,a4b",
             expected="not_in_bc",
             claim="Quotienting Z_7:Z_4 by <b^2> gives the dihedral group of "
                   "order 14 with the seven-element witness spoke set."),
    CaseSpec("obstruct-z5-z8", "obstruction",
             {"family": "MillerMoreno", "p": 5, "n": 1, "q": 2, "m": 3},
             normal_words="b4", quotient_words="1,a,b,ab,ab2,ab3",
             expected="not_in_bc",
             claim="Quotienting Z_5:Z_8 by <b^4> gives Z_5:Z_4 with the "
                   "six-element witness spoke set."),
]

CASE_INDEX = {c.case_id: c for c in CATALOG}


@dataclass
class ObstructionReport:
    group_tag: str
    normal_order: int
    quotient_order: int
    not_vertex_transitive: bool
    translate_free: bool
    blowup_isomorphic: bool
    conclusion: str                       # "not_in_bc" | "inconclusive"
    nodes: int                            # the quotient's automorphism search

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_tag,
            "normal_order": self.normal_order,
            "quotient_order": self.quotient_order,
            "quotient_haar_not_vertex_transitive": self.not_vertex_transitive,
            "translate_free": self.translate_free,
            "blowup_isomorphic": self.blowup_isomorphic,
            "conclusion": self.conclusion,
        }


def _translate_fixers(Q: GroupTable, S: int) -> list[int]:
    """The non-identity x with Sx = S or xS = S, in increasing order."""
    return [x for x in range(1, Q.order)
            if right_translate_mask(Q, S, x) == S or left_translate_mask(Q, x, S) == S]


def translate_free(Q: GroupTable, S: int) -> bool:
    """S != Sx and S != xS for every non-identity x."""
    return not _translate_fixers(Q, S)


def _intransitive(graph: Graph, orbits: list[list[int]]) -> bool:
    """Two or more orbits, which then pass the check as a non-Cayley certificate."""
    cert = Certificate("non_cayley", orbit_partition=orbits)
    if len(orbits) > 1 and not verify_certificate(graph, cert):
        raise _failed_check(cert.verdict)
    return len(orbits) > 1


def check_quotient_obstruction(H: GroupTable, normal: int, quotient_set: int) -> ObstructionReport:
    """The quotient obstruction: if the Haar graph of H/N with spokes S is not
    vertex-transitive and S has no nontrivial translate symmetry, then the
    union-of-cosets Haar graph of H is not Cayley (it is a blow-up of an
    intransitive graph, which the product automorphism criterion keeps
    intransitive).

    The blow-up is checked by its witness, not by a search: the coset map
    h_i -> (pi(h)_i, rank of h within its coset) must be a bijection that
    carries the Haar graph of H onto Haar(H/N, S)[E_|N|].  The only
    automorphism search is the quotient's vertex-transitivity check."""
    Q, proj = quotient(H, normal)
    graph, _ = haar_graph(Q, quotient_set)
    aut = automorphism_group(graph, right_translation_group_perms(Q))
    vt = not _intransitive(graph, aut.orbits)
    tfree = translate_free(Q, quotient_set)
    lifted = mask_of(h for h in range(H.order) if (quotient_set >> proj[h]) & 1)
    big, _ = haar_graph(H, lifted)
    m = normal.bit_count()
    ranks = [0] * Q.order
    phi = [0] * big.n
    for h in range(H.order):
        coset = proj[h]
        phi[h] = coset * m + ranks[coset]
        phi[H.order + h] = (Q.order + coset) * m + ranks[coset]
        ranks[coset] += 1
    if sorted(phi) != list(range(big.n)) or \
            big.relabel(phi) != lex_product(graph, empty_graph(m)):
        raise RuntimeError("blow-up consistency check failed")
    conclusion = "not_in_bc" if (not vt and tfree) else "inconclusive"
    return ObstructionReport(H.tag or "?", m, Q.order, not vt, tfree, True, conclusion,
                             aut.nodes)


# every anchored spoke set of a group of order n is one of 2^(n-1) subsets
_MAX_ENUMERATION_ORDER = 16


def _check_enumeration_order(H: GroupTable) -> None:
    if H.order > _MAX_ENUMERATION_ORDER:
        raise ValueError(f"exhaustive enumeration capped at order {_MAX_ENUMERATION_ORDER}")


def _automorphism_generators(H: GroupTable) -> list[AutImages]:
    """A generating set of Aut(H): each automorphism, in sorted order, that
    lies outside the group generated by the ones picked before it, as
    ``_generated`` keeps them."""
    return _generated(group_automorphisms(H), tuple(range(H.order)), pmul)[1]


def _byte_tables(items: Sequence, join: Callable, empty) -> tuple[list, list]:
    """Tables for the low and the high byte of a mask of at most 16 bits:
    entry b of a table joins the items at the positions of the set bits of
    b, so two lookups stand for a loop over the bits of the mask."""
    tables = []
    for start in (0, 8):
        table = [empty]
        for item in items[start:start + 8]:
            table += [join(t, item) for t in table]
        tables.append(table)
    return tables[0], tables[1]


def _mask_map(images: Sequence[int]) -> tuple[list[int], list[int]]:
    """Byte tables of an element map: it sends a mask m to
    low[m & 255] | high[m >> 8]."""
    return _byte_tables([1 << x for x in images], operator.or_, 0)


def anchored_class_representatives(H: GroupTable) -> list[int]:
    """One representative per equivalence class of anchored spoke sets
    (identity in S) under group automorphisms, inversion, and re-anchored
    left translates.  Each class is walked once, as the closure of its
    least member under generators of Aut(H), inversion and the translates
    s^-1 S for s in S, every map applied through byte tables; the least
    member of a class is the first mask of it the walk reaches."""
    _check_enumeration_order(H)
    n = H.order
    maps = tuple(_mask_map(a) for a in _automorphism_generators(H)) + (_mask_map(H.inv),)
    # the maps h -> s^-1 h for the elements s of each byte of a mask
    low_translates, high_translates = _byte_tables(
        [(_mask_map(H.mult[H.inv[s]]),) for s in range(n)], operator.add, ())
    seen = bytearray(1 << n)
    reps: list[int] = []
    for S in range(1, 1 << n, 2):
        if seen[S]:
            continue
        seen[S] = 1
        reps.append(S)
        orbit = [S]
        for cur in orbit:  # grows while it is walked
            low, high = cur & 255, cur >> 8
            for lo, hi in maps + low_translates[low] + high_translates[high]:
                img = lo[low] | hi[high]
                if not seen[img]:
                    seen[img] = 1
                    orbit.append(img)
    return reps


def enumerate_haar(H: GroupTable, connected_only: bool = False,
                   dedupe: bool = True, ir_budget: int = IR_BUDGET,
                   regular_budget: int = REGULAR_BUDGET) -> Iterator[tuple[int, Certificate]]:
    """Classify Haar graphs of H over anchored spoke sets (one per
    equivalence class when dedupe is on).  Either way the order is capped
    before the first verdict, since without dedupe every set gets one."""
    _check_enumeration_order(H)
    full = (1 << H.order) - 1
    sets = anchored_class_representatives(H) if dedupe else \
        list(range(1, 1 << H.order, 2))
    for S in sets:
        if connected_only and subgroup_generated(H, S) != full:
            continue
        graph, _ = haar_graph(H, S)
        yield S, cayley_status(graph, BiCayleyHints(H, S), ir_budget, regular_budget)


def run_case(case: CaseSpec) -> dict:
    """Recompute one catalog case from scratch; report verdict vs expected."""
    t0 = time.perf_counter()
    H = group_from_spec(case.group)
    nodes = 0
    certificate: dict = {}
    if case.kind == "not_vertex_transitive":
        S = connection_set(H, case.words)
        graph, _ = haar_graph(H, S)
        seeds = right_translation_group_perms(H)
        result = automorphism_group(graph, seeds)
        nodes = result.nodes
        verdict = ("not_" if _intransitive(graph, result.orbits) else "") + "vertex_transitive"
        certificate = {
            "vertices": graph.n,
            "aut_order": result.order,
            "orbit_sizes": sorted(len(o) for o in result.orbits),
            "translate_fixers": _translate_fixers(H, S),
        }
        ok = verdict == case.expected
    elif case.kind == "bc_enumerate":
        verdict = "all_cayley"
        counts = {"classes": 0, "cayley": 0}
        valency_checks = []
        for S, cert in enumerate_haar(H, connected_only=case.connected_only):
            counts["classes"] += 1
            graph, _ = haar_graph(H, S)
            nodes += cert.nodes
            if cert.verdict != "cayley" or not verify_certificate(graph, cert):
                verdict = f"unexpected_{cert.verdict}"
                certificate["failing_set"] = sorted(elements_of(S))
                break
            counts["cayley"] += 1
            if case.check_q8_isomorphisms and S.bit_count() in (7, 8):
                k88 = complete_bipartite(8, 8)
                if S.bit_count() == 8:
                    valency_checks.append(are_isomorphic(graph, k88) is not None)
                else:
                    minus = Graph(16, list(k88.rows))
                    for i in range(8):
                        minus.rows[i] &= ~(1 << (8 + i))
                        minus.rows[8 + i] &= ~(1 << i)
                    valency_checks.append(are_isomorphic(graph, minus) is not None)
        certificate.update(counts)
        ok = verdict == case.expected
        if case.check_q8_isomorphisms:
            certificate["valency_isomorphisms"] = valency_checks
            ok = ok and bool(valency_checks) and all(valency_checks)
    elif case.kind == "obstruction":
        normal = subgroup_generated(H, connection_set(H, case.normal_words))
        Q, _ = quotient(H, normal)
        qset = connection_set(Q, case.quotient_words)
        report = check_quotient_obstruction(H, normal, qset)
        verdict = report.conclusion
        certificate = report.to_json_dict()
        nodes = report.nodes
        ok = verdict == case.expected
    else:
        raise ValueError(f"unknown case kind {case.kind!r}")
    millis = (time.perf_counter() - t0) * 1000
    return {
        "case_id": case.case_id,
        "verdict": verdict,
        "expected": case.expected,
        "pass": bool(ok),
        "certificate": certificate,
        "nodes_explored": nodes,
        "millis": round(millis, 3),
    }


def reproduce(case_id: str) -> dict:
    if case_id not in CASE_INDEX:
        known = ", ".join(sorted(CASE_INDEX))
        raise KeyError(f"unknown case {case_id!r}; known cases: {known}")
    return run_case(CASE_INDEX[case_id])


def reproduce_all() -> list[dict]:
    """Run every catalog case in case_id order."""
    return [reproduce(cid) for cid in sorted(CASE_INDEX)]


# -- inner-abelian scan -----------------------------------------------------------

# the scan's largest order: 64 already takes seconds, 100 most of a minute
_SCAN_ORDER_CAP = 100


def _family_groups(mp_primes: tuple[int, ...], mp_max: tuple[int, int],
                   mm_primes: tuple[int, ...], mm_max: tuple[int, int],
                   keep: Callable[[int], bool]) -> Iterator[GroupTable]:
    """MpMN(p,m,n) and MpMN1(p,m,n) for p in ``mp_primes`` and (m, n) up to
    ``mp_max``, then MillerMoreno(p,k,q,e) for p in ``mm_primes``, q in
    {2,3,5,7} and (k, e) up to ``mm_max``: each group whose order passes
    ``keep``, tested before it is built.  The constructors hold the family
    constraints; a parameter set they refuse is skipped."""
    def candidates():
        for p in mp_primes:
            for m in range(1, mp_max[0] + 1):
                for n in range(1, mp_max[1] + 1):
                    yield mp_group, (p, m, n), p ** (m + n)
                    yield mp1_group, (p, m, n), p ** (m + n + 1)
        for p in mm_primes:
            for q in (2, 3, 5, 7):
                for k in range(1, mm_max[0] + 1):
                    for e in range(1, mm_max[1] + 1):
                        yield miller_moreno_group, (p, k, q, e), p ** k * q ** e

    for build, args, order in candidates():
        if keep(order):
            try:
                group = build(*args)
            except GroupConstructionError:
                continue
            yield group


def constructor_catalog(max_order: int) -> list[GroupTable]:
    """Deterministic list of catalog groups up to a given order."""
    groups: list[GroupTable] = []
    for n in range(1, max_order + 1):
        groups.append(cyclic_group(n))
    for n in range(2, max_order // 2 + 1):
        groups.append(dihedral_group(n))
    if max_order >= 8:
        groups.append(quaternion_group())
    groups.extend(_family_groups((2, 3, 5), (6, 4), (2, 3, 5, 7, 11), (4, 3),
                                 lambda order: order <= max_order))
    for factors in ([2, 2], [2, 4], [3, 3], [2, 2, 2], [2, 6], [4, 4], [2, 8]):
        order = 1
        for f in factors:
            order *= f
        if order <= max_order:
            groups.append(direct_product([cyclic_group(f) for f in factors]))
    if max_order >= 12:
        groups.append(group_from_spec(A4_SPEC))
    return groups


def inner_abelian_family_member(H: GroupTable) -> Optional[str]:
    """The inner-abelian family member isomorphic to H, if any: the
    quaternion group, a two-generator p-group from the catalog families, or
    an elementary-by-cyclic semidirect product.  Primes run up to |H| and
    exponents up to its bit length; the cyclic part's prime stays in
    {2, 3, 5, 7}, enough for every one below order 253."""
    if H.order == 8 and group_isomorphism(H, quaternion_group()) is not None:
        return "Q8"
    primes = tuple(p for p in range(2, H.order + 1) if _is_prime(p))
    bounds = (H.order.bit_length(),) * 2
    for G in _family_groups(primes, bounds, primes, bounds, lambda order: order == H.order):
        if group_isomorphism(H, G) is not None:
            return G.tag
    return None


def inner_abelian_scan(max_order: int) -> list[dict]:
    """Inner-abelian groups in the constructor catalog up to ``max_order``
    (from 1 to ``_SCAN_ORDER_CAP``), each cross-checked against the families."""
    if not 1 <= max_order <= _SCAN_ORDER_CAP:
        raise ValueError(f"max order {max_order} is outside the scan's range 1..{_SCAN_ORDER_CAP}")
    out = []
    for H in constructor_catalog(max_order):
        inner = is_inner_abelian(H)
        member = inner_abelian_family_member(H) if inner else None
        if inner and member is None:
            raise RuntimeError(f"{H.tag} is inner abelian but matches no family")
        if inner:
            out.append({"tag": H.tag, "order": H.order, "family": member})
    return sorted(out, key=lambda r: (r["order"], r["tag"]))
