import hashlib
import random

from haarcay.automorphisms import Certificate, automorphism_group
from haarcay.bicayley import (
    cayley_certificate_from_swaps,
    fix_vertex_perm,
    normalizer_structure,
    part_fix_maps,
    part_swap_maps,
    right_translation_group_perms,
    swap_vertex_perm,
    vt_certificate,
)
from haarcay.cases import anchored_class_representatives, constructor_catalog
from haarcay.graphs import haar_graph, right_translation_vertex_perm, verify_certificate
from haarcay.groups import (
    connection_set,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_automorphisms,
    group_from_spec,
    mask_of,
    miller_moreno_group,
    mp1_group,
    mp_group,
    quaternion_group,
    subgroup_generated,
)
from haarcay.perms import PermGroup, identity_perm, pinv, pmul

from oracles import brute_force_part_maps, reference_part_maps

A4_SPEC = {
    "family": "Presented",
    "ngens": 3,
    "relators": ["xx", "yy", "zzz", "XYxy", "Zxzy", "ZyzXY"],
}


def rand_anchored_set(H, rng, density=0.4):
    return mask_of(e for e in range(H.order) if rng.random() < density) | 1


def test_identity_fix_map_is_identity_perm():
    H = dihedral_group(4)
    ident_aut = tuple(range(H.order))
    assert fix_vertex_perm(H, ident_aut, 0) == identity_perm(2 * H.order)


def test_abelian_inversion_swap():
    H = cyclic_group(6)
    inv_aut = tuple(H.inv)
    p = swap_vertex_perm(H, inv_aut, 0)
    n = H.order
    for h in range(n):
        assert p[h] == n + H.inv[h]       # h_0 -> (h^-1)_1
        assert p[n + h] == H.inv[h]       # h_1 -> (h^-1)_0


def test_swap_square_reaches_y_with_x_identity():
    H = dihedral_group(5)
    ident_aut = tuple(range(H.order))
    y = H.gen("a")
    p = swap_vertex_perm(H, ident_aut, y)
    # 1_0 -> 1_1 -> y_0
    assert p[0] == H.order
    assert p[H.order] == y
    assert pmul(p, p)[0] == y


def test_part_fix_maps_contain_identity_and_fix_anchor():
    rng = random.Random(3)
    for H in (cyclic_group(8), dihedral_group(4), quaternion_group()):
        S = rand_anchored_set(H, rng)
        fix = part_fix_maps(H, S)
        assert any(m.g == 0 and list(m.aut) == list(range(H.order)) for m in fix)
        g, _ = haar_graph(H, S)
        for m in fix:
            assert m.perm[0] == 0                      # fixes 1_0
            assert g.relabel(m.perm) == g              # edge-preserving
            assert all(m.perm[v] < H.order for v in range(H.order))


def test_part_swap_maps_swap_parts_and_preserve_edges():
    rng = random.Random(4)
    for H in (cyclic_group(5), dihedral_group(3), quaternion_group()):
        S = rand_anchored_set(H, rng)
        g, _ = haar_graph(H, S)
        for m in part_swap_maps(H, S):
            assert all(m.perm[v] >= H.order for v in range(H.order))
            assert g.relabel(m.perm) == g


def test_abelian_groups_always_have_swaps():
    rng = random.Random(7)
    for H in (cyclic_group(4), cyclic_group(9),
              direct_product([cyclic_group(2), cyclic_group(4)])):
        for _ in range(6):
            S = rand_anchored_set(H, rng, rng.choice([0.25, 0.5, 0.8]))
            assert part_swap_maps(H, S), (H.tag, S)
            cert = vt_certificate(H, S)
            assert cert is not None and cert.is_transitive()


def test_m3111_standard_set_has_no_swaps():
    H = mp1_group(3, 1, 1)
    S = connection_set(H, "1,a,a-1,b,ab")
    assert part_swap_maps(H, S) == []
    assert vt_certificate(H, S) is None


def test_a4_witness_set_has_no_swaps():
    H = group_from_spec(A4_SPEC)
    S = connection_set(H, "1,x,z,xyz")
    assert part_swap_maps(H, S) == []


def test_full_set_has_swap_certificate():
    H = dihedral_group(4)
    S = (1 << H.order) - 1
    assert vt_certificate(H, S) is not None
    cert = cayley_certificate_from_swaps(H, S)
    assert cert is not None and PermGroup(2 * H.order, cert[0]).is_regular()


def test_certificates_build_only_the_maps_they_use(monkeypatch):
    """K16,16 = Haar(Q8 x Z2, whole group) has 49,152 part-swapping maps; the
    first, h_0 <-> h_1, already squares to the identity translation."""
    import haarcay.bicayley as bicayley
    H = direct_product([quaternion_group(), cyclic_group(2)])
    S = (1 << H.order) - 1
    built = []

    def counting(*args):
        built.append(args[1:])
        return swap_vertex_perm(*args)

    monkeypatch.setattr(bicayley, "swap_vertex_perm", counting)
    gens, witness = cayley_certificate_from_swaps(H, S)
    assert PermGroup(2 * H.order, gens).is_regular() and witness["y"] == 0
    assert len(built) <= 1
    built.clear()
    assert vt_certificate(H, S).is_transitive()
    assert len(built) <= 1


def test_normalizer_structure_cyclic6():
    H = cyclic_group(6)
    S = connection_set(H, "1,a")
    ns = normalizer_structure(H, S)
    assert ns.swap_maps
    assert ns.group.is_transitive()
    assert ns.group.order == 2 * H.order * len(ns.fix_maps)


def test_normalizer_trivial_fix_group_gives_translations_only():
    # generating set with no part-fixing or part-swapping structure maps
    H = miller_moreno_group(7, 1, 3, 1)
    S = mask_of([0, 4, 5, 7, 11, 17])
    assert subgroup_generated(H, S) == (1 << H.order) - 1
    ns = normalizer_structure(H, S)
    assert len(ns.fix_maps) == 1 and not ns.swap_maps
    assert ns.group.order == H.order


def test_normalizer_m3111_standard_set():
    H = mp1_group(3, 1, 1)
    S = connection_set(H, "1,a,a-1,b,ab")
    ns = normalizer_structure(H, S)
    assert len(ns.fix_maps) == 6 and not ns.swap_maps
    assert ns.group.order == 6 * H.order
    assert not ns.group.is_transitive()


def test_fix_group_faithful_on_anchor_neighborhood_when_connected():
    import math
    rng = random.Random(11)
    for H in (quaternion_group(), dihedral_group(4), cyclic_group(7)):
        for _ in range(8):
            S = rand_anchored_set(H, rng, 0.5)
            if subgroup_generated(H, S) != (1 << H.order) - 1:
                continue
            fix = part_fix_maps(H, S)
            assert len(fix) <= math.factorial(S.bit_count())
            nbhd = [H.order + s for s in range(H.order) if (S >> s) & 1]
            restricted = {tuple(m.perm[v] for v in nbhd) for m in fix}
            assert len(restricted) == len(fix)  # restriction is injective


def test_q8_generating_sets_have_cayley_certificates():
    rng = random.Random(13)
    Q8 = quaternion_group()
    full = (1 << 8) - 1
    found = 0
    for _ in range(12):
        S = rand_anchored_set(Q8, rng, 0.5)
        if subgroup_generated(Q8, S) != full:
            continue
        cert = cayley_certificate_from_swaps(Q8, S)
        assert cert is not None, S
        gens, witness = cert
        assert PermGroup(2 * Q8.order, gens).is_regular() and witness["kind"] == "part_swap"
        found += 1
    assert found >= 4


def test_no_cayley_certificate_for_intransitive_dihedral_witness():
    H = dihedral_group(7)
    S = connection_set(H, "1,a,a3,b,ab,a2b,a4b")
    assert cayley_certificate_from_swaps(H, S) is None
    assert vt_certificate(H, S) is None


def test_cayley_certificate_determinism():
    Q8 = quaternion_group()
    S = connection_set(Q8, "1,i,j")
    w1 = cayley_certificate_from_swaps(Q8, S)[1]
    w2 = cayley_certificate_from_swaps(Q8, S)[1]
    assert w1 == w2


def test_swaps_iff_part_swapping_normalizer_element():
    """Cross-check the swap set against a brute-forced normalizer."""
    rng = random.Random(19)
    instances = []
    for H in (cyclic_group(4), cyclic_group(6), dihedral_group(3)):
        instances += [(H, S | 1) for S in range(0, 1 << H.order, 2)]
    for H in (quaternion_group(), dihedral_group(4), cyclic_group(8)):
        instances += [(H, rand_anchored_set(H, rng, rng.choice([0.3, 0.6])))
                      for _ in range(10)]
    for H in (dihedral_group(6), cyclic_group(12), group_from_spec(A4_SPEC),
              mp_group(2, 2, 1), mp1_group(2, 2, 1)):
        instances += [(H, rand_anchored_set(H, rng, 0.4)) for _ in range(4)]
    checked = skipped = 0
    for H, S in instances:
        g, _ = haar_graph(H, S)
        aut = automorphism_group(g).group
        if aut.order > 200_000:
            skipped += 1
            continue
        translations = PermGroup(2 * H.order, right_translation_group_perms(H))
        swapping_normalizer_element = False
        for p in aut.elements():
            if p[0] >= H.order:  # maps part 0 into part 1
                pi = pinv(p)
                if all(translations.contains(pmul(pmul(pi, t), p))
                       for t in translations.generators):
                    swapping_normalizer_element = True
                    break
        has_swap = bool(part_swap_maps(H, S))
        assert has_swap == swapping_normalizer_element, (H.tag, S)
        checked += 1
    assert checked >= 100 and skipped <= len(instances) // 3


def test_translation_perms_generate_order_h():
    for H in (cyclic_group(9), quaternion_group(), dihedral_group(7)):
        G = PermGroup(2 * H.order, right_translation_group_perms(H))
        assert G.order == H.order
        assert G.contains(right_translation_vertex_perm(H, 5 % H.order))


def _assert_part_maps(H, S, fix, swap) -> bool:
    """The part maps and the swap certificate of H and S against the
    reference lists ``fix`` and ``swap`` (every (a, x, y)): the part fixes
    are exactly ``fix`` and the listed swaps exactly its swaps with x = 1,
    in their order; |I| is 0 or |H|*|F| and the listed swaps 0 or |F|; the
    right translations followed by the listed swaps are exactly I; returns
    whether any part swap exists."""
    assert [(m.aut, m.g, m.perm) for m in part_fix_maps(H, S)] == fix, (H.tag, S)
    listed = part_swap_maps(H, S)
    assert [(m.aut, m.y, m.perm) for m in listed] == \
        [(a, y, perm) for a, x, y, perm in swap if x == 0], (H.tag, S)
    assert len(swap) in (0, H.order * len(fix)), (H.tag, S)
    assert len(listed) in (0, len(fix)), (H.tag, S)
    assert sorted(pmul(right_translation_vertex_perm(H, g), m.perm)
                  for g in range(H.order) for m in listed) == \
        sorted(perm for *_, perm in swap), (H.tag, S)
    usable = [m for m in listed
              if pmul(m.perm, m.perm) == right_translation_vertex_perm(H, m.perm[m.perm[0]])]
    cert = cayley_certificate_from_swaps(H, S)
    if usable:
        assert cert[1] == {"kind": "part_swap", "aut": list(usable[0].aut), "y": usable[0].y}, \
            (H.tag, S)
    else:
        assert cert is None, (H.tag, S)
    return bool(swap)


def test_part_maps_match_brute_force_scan():
    """The pruned search finds exactly the maps of the naive Aut(H) x H
    scan, and the part swaps with x = 1 of the Aut(H) x H x H scan, in the
    same order; with the right translations they give every scanned swap."""
    rng = random.Random(29)
    instances = []
    for H in (cyclic_group(4), cyclic_group(6), dihedral_group(3)):
        instances += [(H, S | 1) for S in range(0, 1 << H.order, 2)]
    for H in (quaternion_group(), dihedral_group(4), mp1_group(2, 2, 1),
              group_from_spec(A4_SPEC)):
        instances += [(H, rand_anchored_set(H, rng, rng.choice([0.3, 0.6])))
                      for _ in range(3)]
        instances += [(H, mask_of(e for e in range(H.order) if rng.random() < 0.4))
                      for _ in range(3)]
        instances.append((H, 0))
    unanchored = with_swaps = 0
    for H, S in instances:
        with_swaps += _assert_part_maps(H, S, *brute_force_part_maps(H, S, group_automorphisms(H)))
        unanchored += not S & 1
    assert unanchored >= 8 and 0 < with_swaps < len(instances)


STATUS_GROUPS = [  # the groups of perfbench's status workload, orders 16-36
    {"family": "MpMN1", "p": 3, "m": 1, "n": 1},
    {"family": "MpMN1", "p": 2, "m": 2, "n": 2},
    {"family": "DirectProduct", "factors": [{"family": "Quaternion"}, {"family": "Cyclic", "n": 2}]},
    {"family": "DirectProduct", "factors": [{"family": "Cyclic", "n": 2}, {"family": "Cyclic", "n": 2},
                                            {"family": "Cyclic", "n": 4}]},
    {"family": "MillerMoreno", "p": 2, "n": 2, "q": 3, "m": 2},
    {"family": "Dihedral", "n": 8},
]


def test_part_maps_match_the_listing_reference_past_brute_force_reach():
    """Past the orders brute force can scan, the pruned search agrees with
    the list-then-filter reference on seeded spoke sets of sizes 3 to 6,
    sets of MillerMoreno(2,2,3,2) with no part swap among them."""
    without_swaps = set()
    for spec in STATUS_GROUPS:
        H = group_from_spec(spec)
        rng = random.Random(H.tag)
        for size in (3, 4, 5, 6):
            S = mask_of(rng.sample(range(H.order), size))
            if not _assert_part_maps(H, S, *reference_part_maps(H, S)):
                without_swaps.add(H.tag)
    assert "MillerMoreno(2,2,3,2)" in without_swaps


def test_swap_certificates_cover_the_order_16_catalog():
    """Swap certificates exist on exactly the same anchored classes of
    ``constructor_catalog(16)``, pinned by the digest of one 0/1 per class
    in catalog order, and each one re-verifies on its Haar graph."""
    present = []
    for H in constructor_catalog(16):
        for S in anchored_class_representatives(H):
            cert = cayley_certificate_from_swaps(H, S)
            present.append("1" if cert else "0")
            if cert:
                graph, _ = haar_graph(H, S)
                assert verify_certificate(graph, Certificate("cayley", regular_generators=cert[0]))
    bits = "".join(present)
    assert (len(bits), bits.count("1")) == (4774, 4669)
    assert hashlib.sha256(bits.encode()).hexdigest() == \
        "2ff92cc2406984441f2572653a981863dae8eb22d8dd603c1876fcf3f73dec27"
