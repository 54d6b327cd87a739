"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its timing against the stated budget (run with -s to see the lines).

Criterion 6 checks the A4 witness S = {1,x,z,xyz} against what the A4
relations allow.  Its Haar graph is not vertex-transitive.  It is not
translate-free: z^-1 x z = y and z^-1 y z = xy give z x z^-1 = xy, so
zx = xyz and Sx = {x,1,xyz,z} = S.  A scan of every four-element subset of
A4 that contains 1 then shows that none is both not vertex-transitive and
translate-free, so the quotient obstruction through A4 needs a larger spoke
set (see the supplementary A4 test).
"""

import itertools
import math
import random
import time

from haarcay.automorphisms import (
    are_isomorphic,
    automorphism_group,
    is_vertex_transitive,
)
from haarcay.bicayley import (
    cayley_certificate_from_swaps,
    part_fix_maps,
    part_swap_maps,
    right_translation_group_perms,
    vt_certificate,
)
from haarcay.cases import (
    A4_SPEC,
    Z23_Z7_SPEC,
    Z24_Z5_SPEC,
    constructor_catalog,
    enumerate_haar,
    translate_free,
    verify_certificate,
)
from haarcay.graphs import (
    Graph,
    cayley_right_translation,
    complete_bipartite,
    empty_graph,
    haar_graph,
    lex_product,
    right_translation_vertex_perm,
)
from haarcay.groupring import convolve, module_law_suite
from haarcay.groups import (
    connection_set,
    cyclic_group,
    dihedral_group,
    direct_product,
    evaluate_word,
    group_automorphisms,
    group_from_spec,
    is_inner_abelian,
    left_translate_mask,
    mask_of,
    miller_moreno_group,
    mp1_group,
    mp_group,
    quaternion_group,
    right_translate_mask,
)
from haarcay.perms import PermGroup

from oracles import (
    brute_force_graph_automorphisms,
    inner_abelian_by_subgroup_enumeration,
)


def report(num: int, desc: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.2f}s < {limit:.0f}s) {desc}")
    assert ok, f"criterion {num}: {desc}"
    assert elapsed < limit, f"criterion {num}: exceeded {limit}s ({elapsed:.2f}s)"


def not_vt_set(H, S):
    graph, _ = haar_graph(H, S)
    vt, orbits = is_vertex_transitive(graph, right_translation_group_perms(H))
    return graph, (not vt) and len(orbits) > 1


def not_vt(H, words):
    S = connection_set(H, words)
    graph, ok = not_vt_set(H, S)
    return graph, S, ok


def test_criterion_01_m3111():
    t0 = time.perf_counter()
    H = mp1_group(3, 1, 1)
    graph, _, ok = not_vt(H, "1,a,a-1,b,ab")
    ok = ok and graph.n == 54
    report(1, "haar(M_3(1,1,1), {1,a,a^-1,b,ab}) on 54 vertices is not "
              "vertex-transitive", ok, time.perf_counter() - t0, 10.0)


def test_criterion_02_m2211():
    t0 = time.perf_counter()
    H = mp1_group(2, 2, 1)
    graph, _, ok = not_vt(H, "1,a,a-1,b,ab")
    ok = ok and graph.n == 32
    report(2, "haar(M_2(2,1,1), {1,a,a^-1,b,ab}) on 32 vertices is not "
              "vertex-transitive", ok, time.perf_counter() - t0, 5.0)


def test_criterion_03_m222_and_m2221():
    t0 = time.perf_counter()
    g1, _, ok1 = not_vt(mp_group(2, 2, 2), "1,a,b,ab,ab2,ab3")
    elapsed1 = time.perf_counter() - t0
    t1 = time.perf_counter()
    g2, _, ok2 = not_vt(mp1_group(2, 2, 2), "1,a,b,ab,ab2,ab3")
    elapsed2 = time.perf_counter() - t1
    # M_2(2,2,1) has order 32, so its Haar graph has 64 vertices
    ok = ok1 and ok2 and g1.n == 32 and g2.n == 64
    report(3, "haar(M_2(2,2), S) and haar(M_2(2,2,1), S) with "
              "S={1,a,b,ab,ab^2,ab^3} are not vertex-transitive",
           ok, max(elapsed1, elapsed2), 5.0)


def test_criterion_04_dihedral_quotients():
    words = "1,a,a3,b,ab,a2b,a4b"
    worst = 0.0
    ok = True
    for p, vertices in ((7, 28), (11, 44), (13, 52)):
        t0 = time.perf_counter()
        graph, _, good = not_vt(dihedral_group(p), words)
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and good and graph.n == vertices
    report(4, "haar(D_2p, {1,a,a^3,b,ab,a^2b,a^4b}) not vertex-transitive "
              "for p = 7, 11, 13", ok, worst, 5.0)


def test_criterion_05_zp_z4():
    worst = 0.0
    ok = True
    for p, vertices in ((3, 24), (5, 40)):
        t0 = time.perf_counter()
        H = miller_moreno_group(p, 1, 2, 2)
        graph, _, good = not_vt(H, "1,a,b,ab,ab2,ab3")
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and good and graph.n == vertices
    report(5, "haar(Z_p:Z_4, {1,a,b,ab,ab^2,ab^3}) not vertex-transitive "
              "for p = 3, 5", ok, worst, 5.0)


def test_criterion_06_a4_witness():
    t0 = time.perf_counter()
    H = group_from_spec(A4_SPEC)
    x, z, xyz = (evaluate_word(H, w) for w in ("x", "z", "xyz"))
    S = connection_set(H, "1,x,z,xyz")
    graph, S_not_vt = not_vt_set(H, S)
    # z^-1 x z = y and z^-1 y z = xy give z x z^-1 = xy, so zx = xyz and
    # Sx = {x, 1, xyz, z} = S: the set has a right translate symmetry.
    right_fixers = [g for g in range(1, H.order)
                    if right_translate_mask(H, S, g) == S]
    left_fixers = [g for g in range(1, H.order)
                   if left_translate_mask(H, g, S) == S]
    ok = (graph.n == 24 and S_not_vt and H.mult[z][x] == xyz
          and right_fixers == [x] and not left_fixers
          and not translate_free(H, S))
    # Both properties survive S -> Sg, so scanning the sets that contain 1
    # shows that no four-element subset of A4 is intransitive and
    # translate-free at once.
    scanned = intransitive = free = both = 0
    for rest in itertools.combinations(range(1, H.order), 3):
        T = mask_of((0,) + rest)
        T_not_vt = not_vt_set(H, T)[1]
        T_free = translate_free(H, T)
        scanned += 1
        intransitive += T_not_vt
        free += T_free
        both += T_not_vt and T_free
    ok = ok and (scanned, intransitive, free, both) == (165, 24, 140, 0)
    report(6, "haar(A4, {1,x,z,xyz}) on 24 vertices is not vertex-transitive; "
              "zx = xyz, so S = Sx and x is its only translate symmetry; "
              f"of {scanned} four-element sets containing 1, {intransitive} "
              f"are not vertex-transitive, {free} translate-free, {both} both",
           ok, time.perf_counter() - t0, 5.0)


def test_criterion_07_z23_z7():
    t0 = time.perf_counter()
    H = group_from_spec(Z23_Z7_SPEC)
    graph, _, ok = not_vt(H, "1,x,u,xyu,xzu")
    ok = ok and graph.n == 112
    report(7, "haar(Z_2^3:Z_7, {1,x,u,xyu,xzu}) on 112 vertices is not "
              "vertex-transitive", ok, time.perf_counter() - t0, 60.0)


def test_criterion_08_z24_z5():
    t0 = time.perf_counter()
    H = group_from_spec(Z24_Z5_SPEC)
    graph, _, ok = not_vt(H, "1,x,w,xyw,xzw")
    ok = ok and graph.n == 160
    report(8, "haar(Z_2^4:Z_5, {1,x,w,xyw,xzw}) on 160 vertices is not "
              "vertex-transitive", ok, time.perf_counter() - t0, 300.0)


def test_criterion_09_q8_exhaustive():
    t0 = time.perf_counter()
    Q8 = quaternion_group()
    k88 = complete_bipartite(8, 8)
    k88_minus = Graph(16, list(k88.rows))
    for i in range(8):
        k88_minus.rows[i] &= ~(1 << (8 + i))
        k88_minus.rows[8 + i] &= ~(1 << i)
    ok = True
    classes = 0
    saw_valency = {7: 0, 8: 0}
    for S, cert in enumerate_haar(Q8, connected_only=True):
        classes += 1
        graph, _ = haar_graph(Q8, S)
        if cert.verdict != "cayley" or not verify_certificate(graph, cert):
            ok = False
            break
        if S.bit_count() == 7:
            saw_valency[7] += 1
            ok = ok and are_isomorphic(graph, k88_minus) is not None
        elif S.bit_count() == 8:
            saw_valency[8] += 1
            ok = ok and are_isomorphic(graph, k88) is not None
    ok = ok and classes > 0 and saw_valency[7] >= 1 and saw_valency[8] == 1
    report(9, f"all {classes} connected Haar classes of Q8 carry verifying "
              "Cayley certificates; valency 7/8 match K_8,8 minus a perfect "
              "matching / K_8,8", ok, time.perf_counter() - t0, 300.0)


def test_criterion_10_dihedral_boundary():
    t0 = time.perf_counter()
    ok = True
    total = 0
    for n in (2, 3, 4, 5):
        H = dihedral_group(n)
        for S, cert in enumerate_haar(H):
            total += 1
            graph, _ = haar_graph(H, S)
            if cert.verdict != "cayley" or not verify_certificate(graph, cert):
                ok = False
                break
    report(10, f"every Haar class of D_4, D_6, D_8, D_10 is Cayley "
               f"({total} classes)", ok, time.perf_counter() - t0, 300.0)


def _random_catalog_24():
    cat = [cyclic_group(n) for n in (2, 3, 4, 5, 6, 8, 9, 12, 16, 24)]
    cat += [dihedral_group(n) for n in (3, 4, 5, 6, 7, 9, 12)]
    cat += [quaternion_group(), mp_group(2, 2, 1), mp1_group(2, 2, 1),
            mp_group(2, 2, 2), mp_group(2, 3, 1),
            miller_moreno_group(2, 2, 3, 1), miller_moreno_group(3, 1, 2, 2),
            miller_moreno_group(5, 1, 2, 2), miller_moreno_group(7, 1, 3, 1),
            direct_product([cyclic_group(2), cyclic_group(2)]),
            direct_product([cyclic_group(2), cyclic_group(4)]),
            direct_product([cyclic_group(2), cyclic_group(2), cyclic_group(2)]),
            direct_product([cyclic_group(3), cyclic_group(3)])]
    return [H for H in cat if H.order <= 24]


def test_criterion_11_bicayley_structure_suite():
    t0 = time.perf_counter()
    rng = random.Random(1106)
    catalog = _random_catalog_24()
    failures = []
    for trial in range(200):
        H = catalog[rng.randrange(len(catalog))]
        S = mask_of(e for e in range(H.order)
                    if rng.random() < rng.choice((0.25, 0.5))) | 1
        graph, _ = haar_graph(H, S)
        aut = automorphism_group(graph).group
        for g in range(H.order):
            if not aut.contains(right_translation_vertex_perm(H, g)):
                failures.append((H.tag, S, "translation missing"))
                break
        for m in part_fix_maps(H, S) + part_swap_maps(H, S):
            if graph.relabel(m.perm) != graph:
                failures.append((H.tag, S, "structure map not automorphism"))
                break
        swaps = part_swap_maps(H, S)
        if swaps:
            group = PermGroup(2 * H.order,
                              right_translation_group_perms(H) + [swaps[0].perm])
            if not group.is_transitive():
                failures.append((H.tag, S, "swap group not transitive"))
    report(11, "bi-Cayley structure suite over 200 random (H, S): "
               "translations inside Aut, structure maps edge-preserving, "
               "part swaps give transitivity", not failures,
           time.perf_counter() - t0, 600.0)
    assert not failures, failures[:3]


def test_criterion_12_abelian_closure():
    t0 = time.perf_counter()
    rng = random.Random(1207)
    abelians = [cyclic_group(n) for n in (2, 3, 4, 6, 8, 9, 12, 15, 16, 24)]
    abelians += [direct_product([cyclic_group(2), cyclic_group(2)]),
                 direct_product([cyclic_group(2), cyclic_group(4)]),
                 direct_product([cyclic_group(3), cyclic_group(3)]),
                 direct_product([cyclic_group(2), cyclic_group(6)]),
                 direct_product([cyclic_group(2), cyclic_group(2), cyclic_group(2)])]
    failures = []
    for trial in range(100):
        H = abelians[rng.randrange(len(abelians))]
        S = mask_of(e for e in range(H.order)
                    if rng.random() < rng.choice((0.3, 0.6))) | 1
        cert = vt_certificate(H, S)
        if cert is None:
            failures.append((H.tag, S, "no part swap"))
            continue
        cay = cayley_certificate_from_swaps(H, S)
        if cay is None or not PermGroup(2 * H.order, cay[0]).is_regular():
            failures.append((H.tag, S, "no Cayley certificate"))
    report(12, "abelian closure over 100 random (H, S): part swaps exist and "
               "Cayley certificates verify", not failures,
           time.perf_counter() - t0, 600.0)
    assert not failures, failures[:3]


def test_criterion_13_transitivity_module_suite():
    t0 = time.perf_counter()
    rng = random.Random(1313)
    catalog = _random_catalog_24()
    failures = []
    for trial in range(50):
        H = catalog[rng.randrange(len(catalog))]
        auts = group_automorphisms(H)
        alpha = auts[rng.randrange(len(auts))]
        gens = [cayley_right_translation(H, g) for g in range(H.order)]
        G = PermGroup(H.order, gens + [tuple(alpha)])
        rep = module_law_suite(H, G)
        if not rep.passed:
            failures.append((H.tag, rep.failures()))
        u = [rng.randrange(-3, 4) for _ in range(H.order)]
        v = [rng.randrange(-3, 4) for _ in range(H.order)]
        naive = [sum(u[g] * v[H.mult[H.inv[g]][h]] for g in range(H.order))
                 for h in range(H.order)]
        if convolve(H, u, v) != naive:
            failures.append((H.tag, "convolution oracle mismatch"))
    report(13, "transitivity-module law suite over 50 random augmented "
               "translation groups; convolution matches the naive oracle",
           not failures, time.perf_counter() - t0, 600.0)
    assert not failures, failures[:3]


def test_criterion_14_lex_product_law():
    t0 = time.perf_counter()
    rng = random.Random(1414)
    ok = True
    checked = 0
    while checked < 20:
        m = rng.randrange(5, 9)
        base = Graph(m)
        for u in range(m):
            for v in range(u + 1, m):
                if rng.random() < 0.5:
                    base.add_edge(u, v)
        if len({base.rows[v] for v in range(m)}) != m:
            continue
        aut_base = automorphism_group(base).group.order
        for n in (2, 3):
            blown = lex_product(base, empty_graph(n))
            expected = math.factorial(n) ** m * aut_base
            if automorphism_group(blown).group.order != expected:
                ok = False
        checked += 1
    report(14, "lexicographic blow-up law |Aut(G[nK1])| = (n!)^m |Aut(G)| on "
               "20 graphs with pairwise-distinct neighbourhoods, n in {2,3}",
           ok, time.perf_counter() - t0, 600.0)


def test_supplementary_a4_repaired_witness():
    """Not a numbered criterion: the five-element spoke set {1,z,z^2,y,yz}
    over A4 is not vertex-transitive and translate-free.  Criterion 6 shows
    that no four-element subset of A4 is both, so this is the witness the
    quotient obstruction through A4 uses."""
    t0 = time.perf_counter()
    H = group_from_spec(A4_SPEC)
    S = connection_set(H, "1,z,z2,y,yz")
    graph, _ = haar_graph(H, S)
    vt, _ = is_vertex_transitive(graph, right_translation_group_perms(H))
    ok = (not vt) and translate_free(H, S)
    elapsed = time.perf_counter() - t0
    print(f"[supplementary] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) repaired "
          "A4 witness {1,z,z^2,y,yz}: not vertex-transitive and translate-free")
    assert ok


def test_supplementary_nonvt_certified_without_search():
    """Not a numbered criterion: every headline not-vertex-transitive verdict
    is re-certified by automorphism-invariant vertex data alone (sorted
    common-neighbour counts plus the individualize-and-refine cell-size
    signature) - two vertices with different invariants lie in different
    orbits, with no reliance on search completeness."""
    from haarcay.automorphisms import _refine

    def invariant(g, v):
        common = sorted((g.rows[v] & g.rows[w]).bit_count() for w in range(g.n))
        cells = _refine(g.rows, [[v], [u for u in range(g.n) if u != v]],
                        [1 << v, ((1 << g.n) - 1) ^ (1 << v)])
        return (tuple(common), tuple(len(c) for c in cells))

    t0 = time.perf_counter()
    cases = [
        (mp1_group(3, 1, 1), "1,a,a-1,b,ab"),
        (mp1_group(2, 2, 1), "1,a,a-1,b,ab"),
        (mp_group(2, 2, 2), "1,a,b,ab,ab2,ab3"),
        (mp1_group(2, 2, 2), "1,a,b,ab,ab2,ab3"),
        (dihedral_group(7), "1,a,a3,b,ab,a2b,a4b"),
        (dihedral_group(11), "1,a,a3,b,ab,a2b,a4b"),
        (dihedral_group(13), "1,a,a3,b,ab,a2b,a4b"),
        (miller_moreno_group(3, 1, 2, 2), "1,a,b,ab,ab2,ab3"),
        (miller_moreno_group(5, 1, 2, 2), "1,a,b,ab,ab2,ab3"),
        (group_from_spec(A4_SPEC), "1,x,z,xyz"),
        (group_from_spec(Z23_Z7_SPEC), "1,x,u,xyu,xzu"),
        (group_from_spec(Z24_Z5_SPEC), "1,x,w,xyw,xzw"),
    ]
    undistinguished = []
    for H, words in cases:
        graph, _ = haar_graph(H, connection_set(H, words))
        if invariant(graph, 0) == invariant(graph, H.order):
            undistinguished.append(H.tag)
    elapsed = time.perf_counter() - t0
    ok = not undistinguished
    print(f"[supplementary] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) all 12 "
          "headline intransitive graphs certified by vertex invariants alone")
    assert ok, undistinguished


def test_criterion_15_micro_oracles():
    t0 = time.perf_counter()
    rng = random.Random(1515)
    graphs = []
    for bits in range(64):  # all labelled graphs on 4 vertices
        g = Graph(4)
        idx = 0
        for u in range(4):
            for v in range(u + 1, 4):
                if (bits >> idx) & 1:
                    g.add_edge(u, v)
                idx += 1
        graphs.append(g)
    for n in (5, 6, 7, 8):
        for _ in range(6):
            g = Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < rng.choice((0.3, 0.5, 0.7)):
                        g.add_edge(u, v)
            graphs.append(g)
    for H in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
              direct_product([cyclic_group(2), cyclic_group(2)])):
        for S in range(1, 1 << H.order, 2):
            graphs.append(haar_graph(H, S)[0])
    graph_ok = all(
        automorphism_group(g).group.order == len(brute_force_graph_automorphisms(g.rows))
        for g in graphs if g.n <= 8)
    group_ok = all(
        is_inner_abelian(H) == inner_abelian_by_subgroup_enumeration(H)
        for H in constructor_catalog(16))
    report(15, f"micro oracles: IR equals brute force on {len(graphs)} graphs "
               "(<= 8 vertices); inner-abelian test equals the subgroup "
               "enumeration oracle on the order-<=16 catalog",
           graph_ok and group_ok, time.perf_counter() - t0, 600.0)
