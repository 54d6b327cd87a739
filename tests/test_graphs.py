import random

import pytest

from haarcay.graphs import (
    BipartiteLabeling,
    Graph,
    bicayley_graph,
    cayley_graph,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    haar_graph,
    is_connected,
    lex_product,
    read_edge_list,
    right_translation_vertex_perm,
    write_edge_list,
)
from haarcay.groups import (
    connection_set,
    cyclic_group,
    dihedral_group,
    mask_of,
    quaternion_group,
    subgroup_generated,
)

from oracles import brute_force_graph_automorphisms


def is_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism for tiny graphs (oracle use only)."""
    import itertools
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    for perm in itertools.permutations(range(g1.n)):
        if g1.relabel(perm) == g2:
            return True
    return False


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, [0b1])  # loop


def test_cayley_cycle():
    C6 = cyclic_group(6)
    g = cayley_graph(C6, connection_set(C6, "a,a-1"))
    assert is_isomorphic_small(g, cycle_graph(6))


def test_cayley_empty_set():
    g = cayley_graph(cyclic_group(5), 0)
    assert g.edge_count() == 0


def test_cayley_preconditions():
    C6 = cyclic_group(6)
    with pytest.raises(ValueError):
        cayley_graph(C6, connection_set(C6, "1,a,a-1"))
    with pytest.raises(ValueError):
        cayley_graph(C6, connection_set(C6, "a"))  # not inverse-closed


def test_cayley_s3_reflections_is_k33():
    D3 = dihedral_group(3)
    reflections = mask_of(e for e in range(6) if D3.element_order(e) == 2)
    assert reflections.bit_count() == 3
    g = cayley_graph(D3, reflections)
    assert is_isomorphic_small(g, complete_bipartite(3, 3))


def test_bicayley_equals_haar_when_no_side_edges():
    Q8 = quaternion_group()
    S = connection_set(Q8, "1,i,j")
    g1, lab1 = bicayley_graph(Q8, 0, 0, S)
    g2, lab2 = haar_graph(Q8, S)
    assert g1 == g2 and lab1 == lab2


def test_bicayley_degrees():
    C4 = cyclic_group(4)
    R = connection_set(C4, "a,a-1")  # {1,3} as exponents
    g, lab = bicayley_graph(C4, R, 0, 1)  # spokes from identity only
    for h in lab.part0():
        assert g.degree(h) == 3
    for h in lab.part1():
        assert g.degree(h) == 1


def test_bicayley_edgeless():
    g, _ = bicayley_graph(cyclic_group(3), 0, 0, 0)
    assert g.edge_count() == 0


def test_haar_basics():
    C5 = cyclic_group(5)
    g, lab = haar_graph(C5, 1)  # S = {identity}
    assert g.edge_count() == 5 and all(g.degree(v) == 1 for v in range(10))
    # every edge crosses the bipartition
    for u, v in g.edges():
        assert lab.part(u) != lab.part(v)


def test_haar_full_set_is_complete_bipartite():
    Q8 = quaternion_group()
    g, _ = haar_graph(Q8, (1 << 8) - 1)
    assert is_isomorphic_small(g, complete_bipartite(8, 8)) or (
        g.edge_count() == 64 and all(g.degree(v) == 8 for v in range(16)))


def test_haar_c3_is_6_cycle():
    C3 = cyclic_group(3)
    g, _ = haar_graph(C3, connection_set(C3, "1,a"))
    assert is_isomorphic_small(g, cycle_graph(6))


def test_haar_degree_equals_set_size():
    rng = random.Random(3)
    for H in (cyclic_group(7), dihedral_group(4), quaternion_group()):
        for _ in range(5):
            S = mask_of(e for e in range(H.order) if rng.random() < 0.4) | 1
            g, _ = haar_graph(H, S)
            assert all(g.degree(v) == S.bit_count() for v in range(g.n))


def test_right_translations_are_automorphisms():
    from haarcay.groups import inverse_mask, miller_moreno_group
    groups = [cyclic_group(6), dihedral_group(5), quaternion_group(),
              dihedral_group(12), miller_moreno_group(2, 3, 7, 1)]  # order 56
    rng = random.Random(23)
    for H in groups:
        S = mask_of(range(0, H.order, 2)) | 1
        R = mask_of(e for e in range(1, H.order) if rng.random() < 0.3)
        R |= inverse_mask(H, R)
        L = mask_of(e for e in range(1, H.order) if rng.random() < 0.2)
        L |= inverse_mask(H, L)
        for graph in (haar_graph(H, S)[0], bicayley_graph(H, R, L, S)[0]):
            for a in range(H.order):
                perm = right_translation_vertex_perm(H, a)
                assert graph.relabel(perm) == graph, (H.tag, a)
                assert graph.is_automorphism(perm), (H.tag, a)


def test_is_automorphism_rejects_non_automorphisms():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert path.is_automorphism((0, 1, 2, 3))
    assert path.is_automorphism((3, 2, 1, 0))
    assert not path.is_automorphism((1, 0, 2, 3))  # end vertex swapped with its neighbour
    assert not path.is_automorphism((0, 1, 2))
    # on the edgeless graph every row maps to 0, so only the bijection check can fail
    assert not Graph(3).is_automorphism((0, 0, 1))
    # images outside 0..n-1 are refused before any row is looked up
    assert not cycle_graph(3).is_automorphism((5, 1, 2))
    assert not cycle_graph(3).is_automorphism((-1, 1, 2))


def test_lex_product_with_single_vertex():
    g = cycle_graph(5)
    assert lex_product(g, empty_graph(1)) == g


def test_lex_product_k2_2k1_is_4cycle():
    g = lex_product(complete_graph(2), empty_graph(2))
    assert is_isomorphic_small(g, cycle_graph(4))


def test_lex_product_edge_count_formula():
    rng = random.Random(11)
    for _ in range(10):
        n1, n2 = rng.randrange(2, 6), rng.randrange(1, 5)
        g1 = Graph.from_edges(n1, [(u, v) for u in range(n1) for v in range(u + 1, n1)
                                   if rng.random() < 0.5])
        g2 = Graph.from_edges(n2, [(u, v) for u in range(n2) for v in range(u + 1, n2)
                                   if rng.random() < 0.5])
        prod = lex_product(g1, g2)
        assert prod.n == n1 * n2
        assert prod.edge_count() == n1 * g2.edge_count() + g1.edge_count() * n2 * n2


def test_complement_and_components():
    assert complement_is_complete(4)
    two_triangles = disjoint_union([complete_graph(3), complete_graph(3)])
    parts = components(two_triangles)
    assert sorted(len(p) for p in parts) == [3, 3]
    assert not is_connected(two_triangles)
    assert is_connected(complete_graph(1))


def complement_is_complete(n):
    g = empty_graph(n).complement()
    return g == complete_graph(n) and is_connected(g)


def test_connectivity_iff_generation_200_random_pairs():
    from haarcay.groups import direct_product, miller_moreno_group, mp1_group, mp_group
    rng = random.Random(2024)
    catalog = [cyclic_group(n) for n in (2, 3, 5, 6, 8, 12)] + [
        dihedral_group(3), dihedral_group(4), dihedral_group(6), quaternion_group(),
        direct_product([cyclic_group(2), cyclic_group(2)]),
        mp_group(2, 2, 1), mp1_group(3, 1, 1), miller_moreno_group(2, 2, 3, 1)]
    checked = 0
    while checked < 200:
        H = rng.choice(catalog)
        S = mask_of(e for e in range(H.order) if rng.random() < 0.3) | 1
        g, _ = haar_graph(H, S)
        generates = subgroup_generated(H, S) == (1 << H.order) - 1
        assert is_connected(g) == generates, (H.tag, S)
        checked += 1


def test_disconnected_haar_of_proper_subgroup_set():
    Q8 = quaternion_group()
    S = connection_set(Q8, "1,i")
    assert subgroup_generated(Q8, S).bit_count() == 4
    g, _ = haar_graph(Q8, S)
    assert not is_connected(g)


def test_edge_list_roundtrip():
    g = lex_product(cycle_graph(5), empty_graph(2))
    text = write_edge_list(g)
    head = text.splitlines()[0]
    assert head == f"{g.n} {g.edge_count()}"
    g2 = read_edge_list(text)
    assert g2 == g
    # deterministic ascending order
    assert text == write_edge_list(g2)


def test_bipartite_labeling_roundtrip():
    lab = BipartiteLabeling(6)
    assert lab.vertex(4, 0) == 4 and lab.vertex(4, 1) == 10
    assert lab.element(10) == 4 and lab.part(10) == 1


def test_brute_force_aut_oracle_on_cycle():
    # sanity for the oracle itself: Aut(C6) is dihedral of order 12
    assert len(brute_force_graph_automorphisms(cycle_graph(6).rows)) == 12


def test_vertex_cap():
    with pytest.raises(ValueError):
        Graph(5000)
    with pytest.raises(ValueError):
        lex_product(empty_graph(100), empty_graph(100))
