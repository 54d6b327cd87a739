import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from haarcay.automorphisms import (
    Certificate,
    RegularSearchOutcome,
    _AutSearch,
    _Partition,
    _is_semiregular,
    _refine,
    _twin_classes,
    are_isomorphic,
    automorphism_group,
    cayley_status,
    is_vertex_transitive,
    regular_subgroup_search,
)
from haarcay import automorphisms, bicayley, graphs
from haarcay.bicayley import BiCayleyHints, normalizer_structure, right_translation_group_perms
from haarcay.cases import CASE_INDEX, constructor_catalog, verify_certificate
from haarcay.graphs import (
    Graph,
    _generates_regular,
    cayley_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    haar_graph,
    lex_product,
    right_translation_vertex_perm,
)
from haarcay.groups import (
    _dimino_closure,
    connection_set,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_spec,
    mask_of,
    miller_moreno_group,
    mp1_group,
    mp_group,
    quaternion_group,
    subgroup_generated,
)
from haarcay.perms import BudgetExceeded, PermGroup, identity_perm, is_identity, pinv, pmul

from oracles import (
    brute_force_graph_automorphisms,
    reference_closed_with,
    reference_refine,
    reference_subgroup_generated,
)


def petersen():
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)       # outer cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
        g.add_edge(i, 5 + i)
    return g


def random_graph(n, p, rng):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def test_aut_cycle_orders():
    aut6 = automorphism_group(cycle_graph(6)).group
    assert aut6.order == 12
    assert aut6.stabilizer(0).order == 2
    assert automorphism_group(cycle_graph(9)).group.order == 18


def test_aut_complete_bipartite_k88():
    res = automorphism_group(complete_bipartite(8, 8))
    assert res.group.order == 2 * math.factorial(8) ** 2 == 3_251_404_800


def test_aut_classical_values():
    # Heawood graph: the Haar graph of Z_7 with the quadratic-residue spokes
    g, _ = haar_graph(cyclic_group(7), mask_of([1, 2, 4]))
    res = automorphism_group(g)
    assert res.group.order == 336 and len(res.orbits) == 1
    # 3-cube as K2[complement]... build it directly from vertex xor
    cube = Graph(8)
    for u in range(8):
        for bit in (1, 2, 4):
            if u < (u ^ bit):
                cube.add_edge(u, u ^ bit)
    assert automorphism_group(cube).group.order == 48
    assert automorphism_group(complete_graph(6)).group.order == 720
    assert automorphism_group(complete_bipartite(4, 4)).group.order == 1152


def test_aut_matches_brute_force_small():
    rng = random.Random(42)
    graphs = [cycle_graph(4), cycle_graph(5), complete_graph(4), empty_graph(5),
              cycle_graph(7),
              disjoint_union([complete_graph(3), complete_graph(3)])]
    for n in (4, 5, 6, 7):
        for _ in range(4):
            graphs.append(random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng))
    C3 = cyclic_group(3)
    graphs.append(haar_graph(C3, connection_set(C3, "1,a"))[0])
    C4 = cyclic_group(4)
    graphs.append(haar_graph(C4, connection_set(C4, "1,a"))[0])
    for g in graphs:
        res = automorphism_group(g)
        brute = brute_force_graph_automorphisms(g.rows)
        assert res.group.order == len(brute), g
        for p in res.group.generators:
            assert p in set(brute)


def test_aut_of_haar_m3111_is_intransitive():
    H = mp1_group(3, 1, 1)
    S = connection_set(H, "1,a,a-1,b,ab")
    g, _ = haar_graph(H, S)
    res = automorphism_group(g)
    assert len(res.orbits) > 1


def test_vertex_transitive_cayley_graphs():
    for H in (cyclic_group(7), dihedral_group(4), quaternion_group()):
        R = mask_of(e for e in range(1, H.order)
                    if H.inv[e] != e)  # any inverse-closed set works; make one
        R = R | mask_of(H.inv[e] for e in range(1, H.order) if (R >> e) & 1)
        g = cayley_graph(H, R)
        vt, orbits = is_vertex_transitive(g)
        assert vt and len(orbits) == 1


def test_vertex_transitive_with_and_without_seeds_agree():
    H = dihedral_group(4)
    S = connection_set(H, "1,a,b")
    g, _ = haar_graph(H, S)
    seeds = [right_translation_vertex_perm(H, a) for a in (H.gen("a"), H.gen("b"))]
    assert is_vertex_transitive(g)[0] == is_vertex_transitive(g, seeds)[0]
    H2 = mp1_group(3, 1, 1)
    S2 = connection_set(H2, "1,a,a-1,b,ab")
    g2, _ = haar_graph(H2, S2)
    seeds2 = [right_translation_vertex_perm(H2, a) for a in (H2.gen("a"), H2.gen("b"))]
    assert is_vertex_transitive(g2)[0] == is_vertex_transitive(g2, seeds2)[0] == False


def _twin_rich_graphs():
    case = CASE_INDEX["z3-z4-not-vt"]
    H = group_from_spec(case.group)
    z3z4, _ = haar_graph(H, connection_set(H, case.words))
    return [complete_bipartite(8, 8), empty_graph(8), disjoint_union([cycle_graph(6)] * 4),
            lex_product(z3z4, empty_graph(2))]


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(99)
    bases = [(random_graph(9, 0.4, rng), 50)] + [(g, 8) for g in _twin_rich_graphs()]
    for base, copies in bases:
        form0 = base.relabel(automorphism_group(base).canonical)
        for _ in range(copies):
            perm = list(range(base.n))
            rng.shuffle(perm)
            moved = base.relabel(perm)
            assert moved.relabel(automorphism_group(moved).canonical) == form0


def spider(legs):
    """A centre joined to a_i and each a_i to its own b_i: connected and
    twin-free, and the first path of its search individualizes one leg per
    level."""
    g = Graph(2 * legs + 1)
    for i in range(1, legs + 1):
        g.add_edge(0, i)
        g.add_edge(i, legs + i)
    return g


def test_deep_search_ends_on_budget_not_recursion_limit():
    # the first path of the 1,100-leg spider is 1,100 nodes deep
    with pytest.raises(BudgetExceeded):
        automorphism_group(spider(1100), budget=1200)


def test_empty_graph_is_one_twin_class():
    res = automorphism_group(empty_graph(1100), budget=1)
    assert res.nodes == 1 and res.order == math.factorial(1100)
    assert res.orbits == [list(range(1100))]


@pytest.mark.parametrize("H", [direct_product([quaternion_group(), cyclic_group(2)]),
                               miller_moreno_group(2, 2, 3, 1)],
                         ids=["Q8xZ2", "MillerMoreno(2,2,3,1)"])
def test_jump_back_keeps_kn_n_minus_matching_small(H):
    # K_{n,n} minus a perfect matching; a search that does not jump back to
    # the common ancestor needs over 3,000 nodes here when e is not 0
    n = H.order
    for e in (0, 1, 5):
        S = mask_of(range(n)) ^ (1 << e)
        g, _ = haar_graph(H, S)
        for seeds in ((), right_translation_group_perms(H)):
            res = automorphism_group(g, seeds)
            assert res.nodes <= 300
            assert len(res.orbits) == 1
            assert res.group.order == 2 * math.factorial(n)
        cert = cayley_status(g, hints=BiCayleyHints(H, S))
        assert cert.verdict == "cayley"


def test_certificate_nodes_count_the_automorphism_search():
    H = mp1_group(3, 1, 1)
    S = connection_set(H, "1,a,a-1,b,ab")
    g, _ = haar_graph(H, S)
    cert = cayley_status(g, hints=BiCayleyHints(H, S))
    assert cert.verdict == "non_cayley" and cert.orbit_partition is not None
    assert cert.nodes == automorphism_group(g, right_translation_group_perms(H)).nodes > 0
    H = quaternion_group()
    S = connection_set(H, "1,i,j")
    g, _ = haar_graph(H, S)
    cert = cayley_status(g, hints=BiCayleyHints(H, S))
    assert cert.verdict == "cayley" and cert.swap_witness is not None
    assert cert.nodes == automorphism_group(g, right_translation_group_perms(H)).nodes > 0


def _degree_preserving_rewire(g, rng, swaps):
    """A copy of g with random double-edge swaps, same degree sequence."""
    h = Graph(g.n, list(g.rows))
    for _ in range(swaps):
        edges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if (h.rows[u] >> v) & 1]
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4 or (h.rows[a] >> d) & 1 or (h.rows[c] >> b) & 1:
            continue
        for x, y in ((a, b), (c, d)):
            h.rows[x] &= ~(1 << y)
            h.rows[y] &= ~(1 << x)
        for x, y in ((a, d), (c, b)):
            h.rows[x] |= 1 << y
            h.rows[y] |= 1 << x
    return h


def _to_networkx(g):
    import networkx as nx
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from((u, v) for u in range(g.n) for v in range(u + 1, g.n) if (g.rows[u] >> v) & 1)
    return out


def test_are_isomorphic_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2026)
    outcomes = set()
    for _ in range(150):
        n = rng.randrange(1, 13)
        g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.65]), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        for h in (g.relabel(perm), _degree_preserving_rewire(g, rng, 3)):
            mapping = are_isomorphic(g, h)
            expected = nx.vf2pp_is_isomorphic(_to_networkx(g), _to_networkx(h))
            assert (mapping is not None) == expected
            if mapping is not None:
                assert g.relabel(mapping) == h
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_are_isomorphic():
    g = cycle_graph(6)
    ident = are_isomorphic(g, g)
    assert ident is not None
    two_triangles = disjoint_union([complete_graph(3), complete_graph(3)])
    assert are_isomorphic(g, two_triangles) is None
    rng = random.Random(5)
    h = random_graph(8, 0.5, rng)
    perm = list(range(8))
    rng.shuffle(perm)
    mapping = are_isomorphic(h, h.relabel(perm))
    assert mapping is not None
    assert h.relabel(mapping) == h.relabel(perm)
    # K3,3 and the triangular prism: both 3-regular on 6 vertices, so the
    # pair passes the pre-filters and only the relabelling check tells them
    # apart (K3,3 is all twins, the prism has none)
    k33, prism = complete_bipartite(3, 3), cycle_graph(6).complement()
    assert k33.edge_count() == prism.edge_count() == 9
    assert {r.bit_count() for r in k33.rows} == {r.bit_count() for r in prism.rows} == {3}
    assert are_isomorphic(k33, prism) is None and are_isomorphic(prism, k33) is None


def test_haar_q8_valency7_is_k88_minus_matching():
    Q8 = quaternion_group()
    S = mask_of(range(8)) ^ (1 << 5)  # drop one element, keep identity
    g, _ = haar_graph(Q8, S)
    k88 = complete_bipartite(8, 8)
    minus = Graph(16, list(k88.rows))
    for i in range(8):
        r = minus.rows[i]
        minus.rows[i] &= ~(1 << (8 + i))
        minus.rows[8 + i] &= ~(1 << i)
    assert are_isomorphic(g, minus) is not None


def test_regular_subgroup_in_cycle():
    g = cycle_graph(6)
    res = regular_subgroup_search(g, automorphism_group(g))
    assert res.group is not None
    assert res.group.order == 6 and res.group.is_regular()


def test_regular_subgroup_of_a_disconnected_graph():
    """Two disjoint pentagons: the breadth-first walk reaches one C5 from 0
    and appends the unreached vertices in increasing order; the search
    then finds Z5 x Z2 in 14 nodes."""
    g = disjoint_union([cycle_graph(5)] * 2)
    assert automorphisms._bfs_vertex_order(g) == [0, 1, 4, 2, 3, 5, 6, 7, 8, 9]
    res = regular_subgroup_search(g, automorphism_group(g))
    assert res.generators is not None and res.nodes == 14
    assert _generates_regular(res.generators, g.n)


def test_seeds_with_images_outside_the_graph_are_refused():
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphism_group(cycle_graph(3), seeds=[(5, 1, 2)])


def test_regular_subgroup_search_walks_every_stabilizer_element():
    # Haar(Z8, {0, 4}) is 4C4, a Cayley graph; a search that skips stabilizer
    # elements used to report exhaustion here without finding a regular group
    H = cyclic_group(8)
    g, _ = haar_graph(H, mask_of([0, 4]))
    aut = automorphism_group(g, right_translation_group_perms(H))
    res = regular_subgroup_search(g, aut, budget=20_000)
    assert res.group is not None or not res.exhausted
    if res.group is not None:
        assert res.group.is_regular()


def test_cayley_status_runs_one_automorphism_search(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return automorphism_group(*args, **kwargs)

    monkeypatch.setattr(automorphisms, "automorphism_group", counting)
    assert cayley_status(cycle_graph(6)).verdict == "cayley"
    assert len(calls) == 1
    calls.clear()
    H = quaternion_group()
    S = connection_set(H, "1,i,j")
    g, _ = haar_graph(H, S)
    assert cayley_status(g, hints=BiCayleyHints(H, S)).verdict == "cayley"
    assert len(calls) == 1
    # vertex-transitive with no part swap: the full regular search decides
    # it, and the normalizer of the right translations is never built
    H = mp_group(2, 2, 2)
    S = mask_of([0, 3, 4, 5, 9, 10])
    assert normalizer_structure(H, S).swap_maps == []
    monkeypatch.setattr(bicayley, "normalizer_structure", _never_called)
    monkeypatch.setattr(automorphisms, "normalizer_structure", _never_called, raising=False)
    calls.clear()
    g, _ = haar_graph(H, S)
    cert = cayley_status(g, hints=BiCayleyHints(H, S))
    assert cert.verdict == "cayley" and cert.swap_witness is None
    assert len(calls) == 1
    # copies and co-copies: the parts are levels of the one search, which
    # searches each Petersen graph apart and never a graph of 30 vertices
    runs = []
    run = _AutSearch.run
    monkeypatch.setattr(_AutSearch, "run", lambda self: runs.append(self.n) or run(self))
    three = disjoint_union([petersen()] * 3)
    for g in (three, three.complement()):
        calls.clear()
        runs.clear()
        assert cayley_status(g).verdict == "non_cayley"
        assert len(calls) == 1 and runs == [10] * 3


def test_cayley_status_rejects_hints_of_another_graph():
    """The part swap is checked on the hints' Haar graph, so hints that
    describe another graph would certify that graph instead."""
    H = dihedral_group(4)
    graph, _ = haar_graph(H, connection_set(H, "1,a"))
    with pytest.raises(ValueError, match="hints"):
        cayley_status(graph, BiCayleyHints(H, connection_set(H, "1,b,ab")))
    cert = cayley_status(graph, BiCayleyHints(H, connection_set(H, "1,a")))
    assert cert.verdict == "cayley" and verify_certificate(graph, cert)


def _count_perm_group_builds(monkeypatch) -> list:
    """The degree of every ``PermGroup`` built from now on, in order."""
    built = []
    init = PermGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    return built


def test_generic_cayley_status_perm_group_builds(monkeypatch):
    """C24 and its complement are connected, so it builds Aut and the point
    stabilizer: the regular search reuses Aut's BSGS, whose base already
    starts at vertex 0, and hands back the generators it found without a
    group.  K4,4 reduces by twin levels to one vertex, and 4C6 by a part
    level to one C6, where the regular search runs; each level's fibres come
    from the levels the search kept, not from a BSGS.  On K4,4's one-vertex
    quotient |Aut| is the degree, so Aut's generators are the answer and no
    group is built at all.  The
    lifted generators are checked at the Cayley exit by their closure, so
    no group is built on the whole graph."""
    built = _count_perm_group_builds(monkeypatch)
    expected = [(cycle_graph(24), [24] * 2),
                (complete_bipartite(4, 4), []),
                (disjoint_union([cycle_graph(6)] * 4), [6, 6])]
    for g, sizes in expected:
        built.clear()
        cert = cayley_status(g)
        assert cert.verdict == "cayley" and cert.swap_witness is None
        assert built == sizes


def test_hinted_swap_certificate_builds_no_perm_group(monkeypatch):
    """The part-swap certificate is a generator list, checked at the
    Cayley exit by its closure: hinted Haar(Q8, {1, i, j}) builds no
    ``PermGroup``, and neither does the certificate check run again."""
    built = _count_perm_group_builds(monkeypatch)
    Q8 = quaternion_group()
    S = connection_set(Q8, "1,i,j")
    g, _ = haar_graph(Q8, S)
    cert = cayley_status(g, BiCayleyHints(Q8, S))
    assert cert.verdict == "cayley" and cert.swap_witness["kind"] == "part_swap"
    assert built == []
    assert verify_certificate(g, cert) and built == []


def test_the_cayley_exit_refuses_a_non_regular_group_from_each_source(monkeypatch):
    """Every source hands the one Cayley exit a generator list, and the
    exit's check refuses a bad one: the translations with a part-fixing map
    of order 2 in place of a swap (a group of order 2n that fixes both
    parts), a lift without its fibre shift, and a regular search that
    returns all of Aut(C6), which is transitive but of order 12."""
    Q8 = quaternion_group()
    S = connection_set(Q8, "1,i,j")
    g, _ = haar_graph(Q8, S)
    fix = [m for m in bicayley.part_fix_maps(Q8, S) if not is_identity(m.perm)]
    assert len(fix) == 5 and pmul(fix[0].perm, fix[0].perm) == identity_perm(16)
    planted = (right_translation_group_perms(Q8) + [fix[0].perm], {"kind": "planted"})
    with monkeypatch.context() as m:
        m.setattr(automorphisms, "cayley_certificate_from_swaps", lambda H, S: planted)
        with pytest.raises(RuntimeError, match="not a regular group"):
            cayley_status(g, BiCayleyHints(Q8, S))
    with monkeypatch.context() as m:
        m.setattr(automorphisms, "_lift_fibres", lambda gens, fibres: automorphisms._lift_perms(
            gens, fibres, sum(map(len, fibres))))
        with pytest.raises(RuntimeError, match="not a regular group"):
            cayley_status(disjoint_union([cycle_graph(6)] * 4))
    with monkeypatch.context() as m:
        m.setattr(automorphisms, "regular_subgroup_search",
                  lambda z, z_aut, budget: RegularSearchOutcome(z_aut.generators, True, 0))
        with pytest.raises(RuntimeError, match="not a regular group"):
            cayley_status(cycle_graph(6))


def test_the_exit_refuses_a_planted_orbit_partition(monkeypatch):
    """Non-Cayley certificates pass the same exit check: an automorphism
    search that reports C6's vertices split into a partition that is not
    equitable, or into cells that miss vertex 5, makes ``cayley_status``
    raise instead of answering non_cayley."""
    search = automorphisms.automorphism_group
    for cells in ([[0], [1, 2, 3, 4, 5]], [[0, 1, 2], [3, 4]]):
        def planted(graph, *args, cells=cells, **kwargs):
            result = search(graph, *args, **kwargs)
            result.orbits = cells
            return result

        with monkeypatch.context() as m:
            m.setattr(automorphisms, "automorphism_group", planted)
            with pytest.raises(RuntimeError, match="orbit partition"):
                cayley_status(cycle_graph(6))


@pytest.mark.parametrize("graph, budget, nodes", [
    (petersen(), 3, 4), (petersen(), 14, 15), (disjoint_union([petersen()] * 3), 44, 45),
])
def test_an_ir_budget_unknown_reports_the_nodes_searched(graph, budget, nodes):
    """An automorphism search that runs out stops at its (budget + 1)-st
    node, and the unknown certificate counts that many: Petersen's full
    search takes 15 nodes, so a budget of 14 is the last to run out."""
    cert = cayley_status(graph, ir_budget=budget)
    assert cert.verdict == "unknown" and cert.nodes == nodes
    assert cert.budget_report == {"stage": "automorphism search", "budget": budget}
    assert automorphism_group(petersen()).nodes == 15


def test_the_parts_of_one_search_share_one_meter():
    """Three Petersen copies are searched part by part, 15 nodes each, on
    one node meter: a budget of 44 stops at the 45th node, and reports it,
    while 45 is enough for all three."""
    g = disjoint_union([petersen()] * 3)
    with pytest.raises(BudgetExceeded) as info:
        automorphism_group(g, budget=44)
    assert (info.value.what, info.value.budget, info.value.nodes) == \
        ("automorphism search", 44, 45)
    assert automorphism_group(g, budget=45).nodes == 45


def test_generic_status_closes_a_found_regular_group_once(monkeypatch):
    """The regular search hands the group it finds to the exit check of
    ``cayley_status`` without closing it itself, so C24, whose Aut is twice
    its order, has its regular group closed once."""
    closes = []
    closure = graphs._generates_regular

    def counting(gens, n):
        closes.append(n)
        return closure(gens, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("haarcay") and hasattr(module, "_generates_regular"):
            monkeypatch.setattr(module, "_generates_regular", counting)
    cert = cayley_status(cycle_graph(24))
    assert cert.verdict == "cayley" and cert.swap_witness is None
    assert closes == [24]


@st.composite
def _generator_lists(draw) -> tuple[int, list]:
    """A degree and a list of permutations of it: right regular
    representations of catalog groups on their named generators or on
    random elements, relabelled at random; the Aut generators of Petersen, C7 and K3,3; the intransitive
    <(01), (23)>; or two random permutations of 4-9 points.  The identity
    and a duplicate may be mixed in."""
    kind = draw(st.sampled_from(["regular", "aut", "intransitive", "random"]))
    if kind == "regular":
        H = draw(st.sampled_from(constructor_catalog(16)))
        n = H.order
        sigma = tuple(draw(st.permutations(range(n))))
        picks = draw(st.one_of(st.just([g for _, g in H.gens]),
                               st.lists(st.integers(0, n - 1), max_size=4)))
        gens = [pmul(pmul(pinv(sigma), tuple(H.mult[h][g] for h in range(n))), sigma)
                for g in picks]
    elif kind == "aut":
        graph = draw(st.sampled_from([petersen(), cycle_graph(7), complete_bipartite(3, 3)]))
        n, gens = graph.n, list(automorphism_group(graph).generators)
    elif kind == "intransitive":
        n, gens = 4, [(1, 0, 2, 3), (0, 1, 3, 2)]
    else:
        n = draw(st.integers(4, 9))
        gens = [tuple(draw(st.permutations(range(n)))) for _ in range(2)]
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), identity_perm(n))
    return n, gens


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(drawn=_generator_lists())
def test_generates_regular_agrees_with_schreier_sims_and_sympy(drawn):
    """``_generates_regular`` answers as ``PermGroup.is_regular`` and as
    sympy (transitive and of order n) do, and its closure stops at the cap:
    it never makes more than n products per generator, plus n."""
    from sympy.combinatorics import Permutation, PermutationGroup

    n, gens = drawn
    products = 0

    def counted(p, q):
        nonlocal products
        products += 1
        assert products <= n * (len(gens) + 1), "the closure went past n elements"
        return pmul(p, q)

    closure = graphs._generated

    def generated(gens, identity, mul, cap=None):
        return closure(gens, identity, counted, cap=cap)

    with mock.patch.object(graphs, "_generated", generated):
        got = _generates_regular(gens, n)
    sym = PermutationGroup([Permutation(list(p)) for p in gens + [identity_perm(n)]])
    assert got == PermGroup(n, gens).is_regular() == (sym.is_transitive() and sym.order() == n)


def _never_called(*args, **kwargs):
    raise AssertionError("normalizer_structure called")


def _relabelled_copies(g, count, rng):
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabel(perm)


def test_generic_4c4_is_cayley_within_a_small_budget():
    # 4C4 = Haar(Z8, {0, 4}) reduces to one C4, which its complement 2K2
    # reduces further
    g, _ = haar_graph(cyclic_group(8), mask_of([0, 4]))
    cert = cayley_status(g, regular_budget=10_000)
    assert cert.verdict == "cayley" and verify_certificate(g, cert)
    assert cert.nodes < 1000


@pytest.mark.parametrize("g", [empty_graph(12), complete_bipartite(6, 6),
                               disjoint_union([cycle_graph(6)] * 4)],
                         ids=["E12", "K6,6", "4C6"])
def test_generic_status_decides_reducible_graphs_at_small_budgets(g):
    for h in _relabelled_copies(g, 4, random.Random(g.n)):
        cert = cayley_status(h, ir_budget=5000, regular_budget=1000)
        assert cert.verdict == "cayley" and verify_certificate(h, cert)


def test_regular_search_budget_counts_rejected_candidates():
    """Only the identity and the 24 elements of order 5 among the 120
    automorphisms of the Petersen graph are semiregular.  Rejected candidates
    count against the budget, so a budget below the full walk ends
    unexhausted instead of claiming an exhausted search."""
    g = petersen()
    aut = automorphism_group(g)
    assert sum(PermGroup(10, [p]).is_semiregular() for p in aut.group.elements()) == 25
    full = regular_subgroup_search(g, aut)
    assert full.generators is None and full.exhausted
    budget = full.nodes - 1
    cut = regular_subgroup_search(g, aut, budget=budget)
    assert cut.generators is None and not cut.exhausted and cut.nodes == full.nodes
    assert cut.nodes == budget + 1
    for budget in (0, 1, full.nodes // 2):
        cut = regular_subgroup_search(g, aut, budget=budget)
        assert not cut.exhausted and cut.nodes == budget + 1


SMALL_VERTEX_TRANSITIVE = [
    petersen(), cycle_graph(8), complete_bipartite(3, 3), disjoint_union([cycle_graph(4)] * 2),
    haar_graph(dihedral_group(3), connection_set(dihedral_group(3), "1,a,b"))[0],
    haar_graph(quaternion_group(), connection_set(quaternion_group(), "1,i,j"))[0],
]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_dimino_closure_agrees_with_the_pairwise_reference(data):
    """subgroup_generated returns the pairwise closure's mask.  Closing a
    group of automorphisms with one more, under the regular search's
    semiregular reject and cap n, fails exactly when the pairwise closure
    fails, and otherwise reaches the same elements."""
    H = data.draw(st.sampled_from(constructor_catalog(16)), label="H")
    mask = data.draw(st.integers(0, (1 << H.order) - 1), label="mask")
    assert subgroup_generated(H, mask) == reference_subgroup_generated(H, mask)
    g = data.draw(st.sampled_from(SMALL_VERTEX_TRANSITIVE), label="graph")
    pool = list(automorphism_group(g).group.elements())
    if data.draw(st.booleans(), label="semiregular only"):
        pool = [p for p in pool if _is_semiregular(p)]
    drawn = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3), label="drawn")
    rejected = lambda p: not _is_semiregular(p)
    elements, gens = [identity_perm(g.n)], []
    for p in drawn:
        if p in elements:
            continue
        grown = _dimino_closure(elements, gens, p, pmul, rejected, g.n)
        reference = reference_closed_with(elements, p, rejected, g.n)
        assert (grown is None) == (reference is None)
        if grown is None:
            break
        assert len(grown) == len(reference) and set(grown) == reference
        elements, gens = grown, gens + [p]


def test_generic_status_keeps_the_decided_k88_minus_matching_relabellings():
    """Generic status on the 16 relabellings of K8,8 minus a perfect
    matching, at budgets 5000/1000, where the regular search is budget-bound:
    the 11 that the pairwise closure decided stay cayley, with certificates
    that verify, and none of the 16 is called non-Cayley."""
    g = complete_bipartite(8, 8)
    for i in range(8):
        g.rows[i] &= ~(1 << (8 + i))
        g.rows[8 + i] &= ~(1 << i)
    for s in range(16):
        perm = list(range(16))
        random.Random(s).shuffle(perm)
        h = g.relabel(perm)
        cert = cayley_status(h, ir_budget=5000, regular_budget=1000)
        if s in (2, 10, 11, 12, 14):
            assert cert.verdict in ("cayley", "unknown"), s
        else:
            assert cert.verdict == "cayley", s
        if cert.verdict == "cayley":
            assert verify_certificate(h, cert), s


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_generic_status_agrees_on_copies_and_complement(data):
    """A graph, m disjoint copies of it and its complement are Cayley
    together or not at all."""
    H = data.draw(st.sampled_from(constructor_catalog(12)), label="H")
    S = data.draw(st.integers(0, (1 << H.order) - 1), label="S") | 1
    m = data.draw(st.sampled_from([2, 3]), label="m")
    x, _ = haar_graph(H, S)
    verdicts = set()
    for g in (x, disjoint_union([x] * m), x.complement()):
        cert = cayley_status(g, ir_budget=5000, regular_budget=1000)
        if cert.verdict == "cayley":
            assert verify_certificate(g, cert)
        verdicts.add(cert.verdict)
    assert len(verdicts - {"unknown"}) <= 1


def test_regular_subgroup_intransitive_input():
    g = Graph.from_edges(4, [(0, 1)])  # one edge and two isolated vertices: intransitive
    res = regular_subgroup_search(g, automorphism_group(g))
    assert res.group is None and res.exhausted


def test_petersen_definitively_non_cayley():
    g = petersen()
    aut = automorphism_group(g)
    assert aut.order == 120
    res = regular_subgroup_search(g, aut)
    assert res.group is None and res.exhausted
    cert = cayley_status(petersen())
    assert cert.verdict == "non_cayley" and cert.exhausted_search
    assert cert.to_json_dict()["exhausted_search"] is True


def test_cayley_status_reports_a_regular_search_out_of_budget():
    """A regular budget below Petersen's full walk ends in unknown, and the
    nodes count the regular search's work on top of the IR search's."""
    g = petersen()
    cert = cayley_status(g, regular_budget=10)
    assert cert.verdict == "unknown" and not cert.exhausted_search
    assert cert.budget_report == {"stage": "regular subgroup search", "budget": 10}
    assert cert.nodes > automorphism_group(g).nodes


def test_cayley_status_of_the_empty_graph():
    """No group acts regularly on no vertices: the graph with none is not
    Cayley, and the search says so without a node."""
    cert = cayley_status(Graph(0))
    assert cert.verdict == "non_cayley" and cert.exhausted_search and cert.nodes == 0


def test_cayley_status_on_cayley_graph():
    H = dihedral_group(5)
    R = connection_set(H, "a,a-1,b")
    g = cayley_graph(H, R)
    cert = cayley_status(g)
    assert cert.verdict == "cayley"
    K = PermGroup(g.n, cert.regular_generators)
    assert K.is_regular()


def test_cayley_status_intransitive_graph():
    H = mp1_group(3, 1, 1)
    S = connection_set(H, "1,a,a-1,b,ab")
    g, _ = haar_graph(H, S)
    cert = cayley_status(g, hints=BiCayleyHints(H, S))
    assert cert.verdict == "non_cayley"
    assert cert.orbit_partition is not None and len(cert.orbit_partition) > 1


def test_cayley_status_haar_q8_connected():
    Q8 = quaternion_group()
    S = connection_set(Q8, "1,i,j")
    g, _ = haar_graph(Q8, S)
    cert = cayley_status(g, hints=BiCayleyHints(Q8, S))
    assert cert.verdict == "cayley"
    K = PermGroup(g.n, cert.regular_generators)
    assert K.is_regular()
    for p in cert.regular_generators:
        assert g.relabel(p) == g


def test_cayley_status_stable_under_relabeling():
    rng = random.Random(17)
    H = dihedral_group(3)
    S = connection_set(H, "1,a,b")
    g, _ = haar_graph(H, S)
    verdict0 = cayley_status(g).verdict
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert cayley_status(g.relabel(perm)).verdict == verdict0


def test_lex_product_aut_order_law_small():
    rng = random.Random(31)
    checked = 0
    while checked < 5:
        base = random_graph(6, 0.5, rng)
        nbhds = [base.rows[v] for v in range(base.n)]
        if len(set(nbhds)) != base.n:
            continue
        aut_base = automorphism_group(base).group.order
        for n in (2, 3):
            blown = lex_product(base, empty_graph(n))
            expected = math.factorial(n) ** base.n * aut_base
            assert automorphism_group(blown).group.order == expected
        checked += 1


def _search_order_graphs():
    """Haar graphs, random graphs and their twin substitutions X[E_m], X[K_m]
    and (X[E_m])[K_k]."""
    rng = random.Random(16)
    graphs = [haar_graph(H, rng.randrange(1 << H.order) | 1)[0] for H in constructor_catalog(16)]
    for _ in range(25):
        x = random_graph(rng.randrange(1, 8), rng.choice([0.3, 0.5, 0.7]), rng)
        m, k = rng.randrange(2, 4), rng.randrange(2, 4)
        graphs += [x, lex_product(x, empty_graph(m)), lex_product(x, complete_graph(m)),
                   lex_product(lex_product(x, empty_graph(m)), complete_graph(k))]
    return graphs


def test_search_order_agrees_with_sympy():
    """The order read off the first path of the search, against sympy's
    order of the generators, on Haar graphs, random graphs and their twin
    substitutions X[E_m], X[K_m] and (X[E_m])[K_k]."""
    from sympy.combinatorics import Permutation, PermutationGroup

    for g in _search_order_graphs():
        res = automorphism_group(g)
        assert all(g.is_automorphism(p) for p in res.generators)
        sym = PermutationGroup([Permutation(list(p)) for p in res.generators]
                               or [Permutation(g.n - 1)])
        assert res.order == sym.order(), g


def test_search_on_large_sparse_graphs_agrees_with_sympy():
    """Graphs above the 32 vertices of ``_search_order_graphs``, where a
    splitter meets few of many cells: z23-z7-not-vt (112 vertices),
    z24-z5-not-vt (160) and 20 copies of C5, each under three relabellings.
    The order agrees with sympy's, every generator is an automorphism and
    the canonical form does not depend on the labels.  Sympy's Schreier-Sims
    starts from the search's base, which it extends if need be; without
    that base it spends seconds on each copy of 20 C5."""
    from sympy.combinatorics import Permutation, PermutationGroup
    from sympy.combinatorics.util import _distribute_gens_by_base, _orbits_transversals_from_bsgs

    rng = random.Random(17)
    graphs = [disjoint_union([cycle_graph(5)] * 20)]
    for case_id in ("z23-z7-not-vt", "z24-z5-not-vt"):
        case = CASE_INDEX[case_id]
        H = group_from_spec(case.group)
        graphs.append(haar_graph(H, connection_set(H, case.words))[0])
    for x in graphs:
        forms = set()
        for _ in range(3):
            perm = list(range(x.n))
            rng.shuffle(perm)
            g = x.relabel(perm)
            res = automorphism_group(g)
            assert all(g.is_automorphism(p) for p in res.generators)
            sym = PermutationGroup([Permutation(list(p)) for p in res.generators])
            base, strong = sym.schreier_sims_incremental(base=res.base)
            orbits, _ = _orbits_transversals_from_bsgs(
                base, _distribute_gens_by_base(base, strong))
            assert res.order == math.prod(map(len, orbits))
            forms.add(tuple(g.relabel(res.canonical).rows))
        assert len(forms) == 1


def _is_equitable(rows, cells):
    masks = [mask_of(c) for c in cells]
    return all(len({(rows[v] & w).bit_count() for v in cell}) == 1
               for cell in cells for w in masks)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_refinement_agrees_with_the_reference(data):
    """The position-array refinement, which queues all but the first largest
    part of a split cell, against the list-of-cells loop that queued every
    part.  The graphs are random graphs, Haar graphs and copies of a random
    graph (the last two keep big cells to individualise in), with their
    vertices shuffled.  From a random ordered colouring with every cell
    queued, both give an equitable partition and the same cells, perhaps in
    another order.  The result is relabelling-equivariant, cell order
    included.  On an equitable partition, individualising v and refining
    from ``1 << v`` alone gives the partition that queueing the rest of v's
    cell too gives, and ``_Partition.individualise`` gives that child."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    kind = data.draw(st.sampled_from(["random", "haar", "copies"]), label="kind")
    if kind == "random":
        g = random_graph(data.draw(st.integers(1, 40), label="n"), rng.choice([0.1, 0.3, 0.5]), rng)
    elif kind == "haar":
        H = data.draw(st.sampled_from(constructor_catalog(20)), label="H")
        g = haar_graph(H, rng.randrange(1 << H.order))[0]
    else:
        m = data.draw(st.integers(1, 8), label="m")
        g = disjoint_union([random_graph(m, rng.choice([0.3, 0.5]), rng)] * (40 // m))
    n = g.n
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    g = g.relabel(shuffled)
    colours = data.draw(st.integers(1, 4), label="colours")
    colour = [rng.randrange(colours) for _ in range(n)]
    cells = [c for c in ([v for v in range(n) if colour[v] == k] for k in range(colours)) if c]
    rng.shuffle(cells)
    splitters = [mask_of(c) for c in cells]
    refined = _refine(g.rows, cells, splitters)
    assert _is_equitable(g.rows, refined)
    assert sorted(map(sorted, refined)) == \
        sorted(map(sorted, reference_refine(g.rows, cells, splitters)))

    perm = list(range(n))
    rng.shuffle(perm)
    moved = _refine(g.relabel(perm).rows, [[perm[v] for v in c] for c in cells],
                    [mask_of(perm[v] for v in c) for c in cells])
    assert [{perm[v] for v in c} for c in refined] == [set(c) for c in moved]

    targets = [i for i, c in enumerate(refined) if len(c) > 1]
    if not targets:
        return
    t = data.draw(st.sampled_from(targets), label="target")
    v = data.draw(st.sampled_from(refined[t]), label="v")
    rest = [u for u in refined[t] if u != v]
    child = refined[:t] + [[v], rest] + refined[t + 1:]
    part = _Partition.from_cells(n, refined)
    part.individualise(sum(map(len, refined[:t])), v)
    part.refine(g.rows, [1 << v])
    alone = _refine(g.rows, child, [1 << v])
    assert part.lab == [u for c in alone for u in c]
    assert _is_equitable(g.rows, alone)
    assert sorted(map(sorted, alone)) == \
        sorted(map(sorted, _refine(g.rows, child, [1 << v, mask_of(rest)])))


def _levels(res):
    """The level of every result that ``res`` was built from, itself
    included, walked with a stack: (fibres, quotient, parts, graph)."""
    stack = [res]
    while stack:
        r = stack.pop()
        if r.level is not None:
            yield r.level
            stack += [r.level[1]] + (r.level[2] or [])


def _sift_free(res):
    """Whether ``res.group`` is built without a single sift."""
    sifts = []
    sift_from = PermGroup._sift_from
    with mock.patch.object(PermGroup, "_sift_from",
                           lambda self, p, start: sifts.append(1) or sift_from(self, p, start)):
        res.group
    return sifts == []


def test_group_is_the_bsgs_read_off_the_search():
    """``AutResult.group`` takes the search's base and strong generators.  On
    every graph, twin-free ones (as ``cayley_status``'s regular search gets),
    those with twin classes of any size, and hinted Haar graphs with twins
    searched with their right translations as seeds alike, it sifts nothing,
    its base is ``res.base`` and its order is ``res.order``.  A permutation
    is a member exactly when it is an automorphism and, up to 32 points,
    when Schreier-Sims on the generators alone says so."""
    inputs = [(g, ()) for g in _search_order_graphs()]
    for H in constructor_catalog(12):
        seeds = right_translation_group_perms(H)
        for S in (mask_of([0, H.order // 2]), mask_of(range(H.order // 2)) | 1):
            g, _ = haar_graph(H, S)
            if _twin_classes(g.rows, [0] * g.n) is not None:
                inputs.append((g, seeds))
    assert sum(1 for _, seeds in inputs if seeds) > 10
    rng = random.Random(17)
    big_classes = 0
    for g, seeds in inputs:
        res = automorphism_group(g, seeds)
        largest = max([1] + [len(members) for fibres, _, parts, _ in _levels(res)
                             if parts is None for members in fibres])
        assert _sift_free(res), g
        group = res.group
        assert group.base == res.base and group.order == res.order, g
        big_classes += not seeds and largest > 2
        if len(res.orbits) == 1 and res.order > 1:
            assert group.base[0] == 0, g
        if not res.generators:
            continue
        reference = PermGroup(g.n, res.generators) if g.n <= 32 else None
        for _ in range(3):
            p = tuple(range(g.n))
            for _ in range(rng.randrange(1, 6)):
                p = pmul(p, rng.choice(res.generators))
            q = list(range(g.n))
            rng.shuffle(q)
            for x in (p, tuple(q)):
                assert group.contains(x) == g.is_automorphism(x), g
                assert reference is None or reference.contains(x) == group.contains(x), g
            assert group.contains(p), g
    assert big_classes > 60


def test_nested_twin_levels_give_a_complete_bsgs():
    """Relabelled E_m, K_m,m, Y[E_m], Y[K_m] and (Y[E_m])[K_k] for Y the
    5-cycle, Petersen and K3,3, m = 3-4 and k = 2-3: each has a twin class
    of three or more, some two nested twin levels, yet ``group`` sifts
    nothing.  Its order is
    ``res.order`` and sympy's order of ``res.generators``; the strong
    generators it adds, the classes' adjacent transpositions lifted through
    the levels, are automorphisms; a product of generators is a member and
    a non-automorphism is not.  ``generators`` stay compact: at every level,
    one transposition per class of two and a transposition and a cycle per
    bigger class (E2000 has two in all)."""
    from sympy.combinatorics import Permutation, PermutationGroup

    graphs = []
    for m, k in ((3, 3), (4, 2)):
        graphs += [empty_graph(m), complete_bipartite(m, m)]
        for y in (cycle_graph(5), petersen(), complete_bipartite(3, 3)):
            blown = lex_product(y, empty_graph(m))
            graphs += [blown, lex_product(y, complete_graph(m)),
                       lex_product(blown, complete_graph(k))]
    rng = random.Random(23)
    for x in graphs:
        perm = list(range(x.n))
        rng.shuffle(perm)
        g = x.relabel(perm)
        res = automorphism_group(g)
        assert _sift_free(res), x
        group = res.group
        assert group.order == res.order, x
        assert PermutationGroup([Permutation(list(p)) for p in res.generators]).order() \
            == res.order, x
        added = [p for p in group.generators if p not in res.generators]
        assert added and all(g.is_automorphism(p) for p in added), x
        p = identity_perm(g.n)
        for _ in range(8):
            p = pmul(p, rng.choice(res.generators))
        assert group.contains(p), x
        if res.order < math.factorial(g.n):
            q = tuple(rng.sample(range(g.n), g.n))
            while g.is_automorphism(q):
                q = tuple(rng.sample(range(g.n), g.n))
            assert not group.contains(q), x
        compact, level = 0, res
        while level.level is not None:
            classes, level, parts, _ = level.level
            assert parts is None, x
            compact += sum(min(len(members) - 1, 2) for members in classes)
        assert len(res.generators) == compact + len(level.generators), x
    assert len(automorphism_group(empty_graph(2000)).generators) == 2


def test_automorphism_group_builds_no_perm_group(monkeypatch):
    """Orbits, order and canonical labelling come without a ``PermGroup``:
    the search on E2000 and K500,500 stays one node and builds none until
    ``group`` is read."""
    built = []
    monkeypatch.setattr(automorphisms, "PermGroup",
                        lambda *args, **kwargs: built.append(1) or PermGroup(*args, **kwargs))
    for g in (empty_graph(2000), complete_bipartite(500, 500)):
        res = automorphism_group(g)
        assert res.nodes == 1 and built == [] and res._group is None
    small = automorphism_group(complete_bipartite(4, 4))   # two twin levels: K4,4, then K2
    assert small.group.order == 1152 and built == [1]


def _conjugate(p, perm):
    """p as an automorphism of the graph relabelled by perm."""
    inv = [0] * len(perm)
    for v, w in enumerate(perm):
        inv[w] = v
    return tuple(perm[p[inv[x]]] for x in range(len(perm)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_twin_substitutions_keep_canonical_form_and_seeds(data):
    """A relabelled twin substitution has the same canonical form and order,
    and automorphisms passed as seeds survive the projection to the twin
    quotient: they lie in the group, which sifts nothing, and change nothing
    else."""
    n = data.draw(st.integers(1, 6), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]),
                      label="edges")
    g = Graph.from_edges(n, edges)
    for _ in range(data.draw(st.integers(1, 2), label="depth")):
        filler = data.draw(st.sampled_from([empty_graph, complete_graph]), label="filler")
        g = lex_product(g, filler(data.draw(st.integers(2, 3), label="m")))
    perm = data.draw(st.permutations(range(g.n)), label="perm")
    h = g.relabel(perm)
    res, moved = automorphism_group(g), automorphism_group(h)
    form = g.relabel(res.canonical)
    assert h.relabel(moved.canonical) == form and moved.order == res.order
    seeds = [_conjugate(p, perm) for p in res.generators[:3]]
    seeded = automorphism_group(h, seeds)
    assert _sift_free(seeded) and all(seeded.group.contains(s) for s in seeds)
    assert seeded.order == moved.order and h.relabel(seeded.canonical) == form
    assert sorted(seeded.orbits) == sorted(moved.orbits)


def test_hinted_seeds_survive_the_twin_quotient():
    """Right translations of a Haar graph with twins project to the
    quotient; they lie in the group, which sifts nothing, and the result
    equals the unseeded one apart from generators."""
    checked = 0
    for H in constructor_catalog(12):
        seeds = [p for p in map(tuple, right_translation_group_perms(H)) if p != tuple(range(len(p)))]
        for S in (mask_of([0, H.order // 2]), mask_of(range(H.order // 2)) | 1):
            g, _ = haar_graph(H, S)
            if _twin_classes(g.rows, [0] * g.n) is None:
                continue
            checked += 1
            plain, seeded = automorphism_group(g), automorphism_group(g, seeds)
            assert _sift_free(seeded) and all(seeded.group.contains(s) for s in seeds)
            assert seeded.order == plain.order and seeded.orbits == plain.orbits
            assert g.relabel(seeded.canonical) == g.relabel(plain.canonical)
    assert checked > 10


def _haar_part(H, S):
    return haar_graph(H, S)[0]


@st.composite
def _unions(draw):
    """A disjoint union of 1-3 kinds of part, each repeated 1-3 times: Haar
    graphs over catalog groups of order up to 4 (some with twins, some
    disconnected) and cycles of length 3-6 (C4 has twins)."""
    kinds = draw(st.lists(st.one_of(
        st.builds(cycle_graph, st.integers(3, 6)),
        st.sampled_from(constructor_catalog(4)).flatmap(
            lambda H: st.builds(_haar_part, st.just(H), st.integers(0, (1 << H.order) - 1)))),
        min_size=1, max_size=3))
    return disjoint_union([x for x in kinds for _ in range(draw(st.integers(1, 3)))])


def _sympy_order(res) -> int:
    """sympy's order of ``res.generators``, by Schreier-Sims from the
    search's base, which it extends if need be."""
    from sympy.combinatorics import Permutation, PermutationGroup
    from sympy.combinatorics.util import _distribute_gens_by_base, _orbits_transversals_from_bsgs

    if not res.generators:
        return 1
    sym = PermutationGroup([Permutation(list(p)) for p in res.generators])
    base, strong = sym.schreier_sims_incremental(base=res.base)
    orbits, _ = _orbits_transversals_from_bsgs(base, _distribute_gens_by_base(base, strong))
    return math.prod(map(len, orbits))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(union=_unions(), data=st.data())
def test_part_levels_give_the_group_of_the_whole_graph(union, data):
    """Relabelled disjoint unions of catalog Haar graphs and cycles, with
    repeated parts, distinct parts and parts with twins, and their
    complements: the order is sympy's order of the generators, the orbits
    are those of ``group``, which sifts nothing, two relabellings are
    isomorphic by ``are_isomorphic``, and a search seeded with automorphisms
    gives the unseeded order, orbits and canonical labelling."""
    for x in (union, union.complement()):
        g, h = (x.relabel(data.draw(st.permutations(range(x.n)))) for _ in range(2))
        res = automorphism_group(g)
        assert all(g.is_automorphism(p) for p in res.generators)
        assert res.order == _sympy_order(res)
        assert _sift_free(res) and sorted(res.orbits) == sorted(res.group.orbits())
        mapping = are_isomorphic(g, h)
        assert mapping is not None and g.relabel(mapping) == h
        seeds = [pmul(p, q) for p, q in zip(res.generators, res.generators[1:])]
        seeded = automorphism_group(g, seeds + res.generators[:2])
        assert seeded.order == res.order and seeded.canonical == res.canonical
        assert sorted(seeded.orbits) == sorted(res.orbits)


@pytest.mark.parametrize("part, copies", [(cycle_graph(5), 50), (petersen(), 20)])
def test_copies_are_searched_one_part_at_a_time(part, copies):
    """50 C5 and 20 Petersen graphs, relabelled: one search per copy, so the
    nodes are the copies' nodes added up, |Aut| = |Aut(part)|^k k!, and the
    group sifts nothing.  Five copies, where sympy is quick, agree with
    sympy's order of the generators."""
    one = automorphism_group(part)
    for k in (5, copies):
        x = disjoint_union([part] * k)
        perm = list(range(x.n))
        random.Random(k).shuffle(perm)
        res = automorphism_group(x.relabel(perm))
        assert res.nodes == k * one.nodes and len(res.orbits) == 1
        assert res.order == one.order ** k * math.factorial(k)
        assert _sift_free(res) and res.group.order == res.order
        assert k > 5 or _sympy_order(res) == res.order


def test_deep_part_nesting_returns(monkeypatch):
    """The threshold graph on 1,500 vertices (K1, then 1,499 times the
    disjoint union with K1, complemented) nests part levels once per
    vertex; the walk keeps no Python frame per level, so the status and its
    one automorphism search return, without ``RecursionError``.  Below the
    one twin pair, every level's group is trivial, so no level is kept."""
    g = Graph(1)
    for _ in range(1499):
        g = Graph(g.n + 1, g.rows + [0], validate=False).complement()
    found = []
    search = automorphisms.automorphism_group
    monkeypatch.setattr(automorphisms, "automorphism_group",
                        lambda *args, **kwargs: found.append(search(*args, **kwargs)) or found[-1])
    cert = cayley_status(g)
    assert cert.verdict == "non_cayley" and len(cert.orbit_partition) == 1499
    res, = found
    assert res.order == 2 and res.nodes == cert.nodes == 1499
    assert res.level is not None and res.level[1].level is None


def test_generic_status_lifts_a_twin_quotient():
    """C5[E4] has twin classes of 4 over C5: Z5 on C5 lifts to Z5 x Z4.
    Searching the whole graph took millions of regular-search nodes."""
    g = lex_product(cycle_graph(5), empty_graph(4))
    for h in [g, *_relabelled_copies(g, 3, random.Random(5))]:
        cert = cayley_status(h)
        assert cert.verdict == "cayley" and verify_certificate(h, cert)
        assert cert.nodes < 100


def test_generic_status_searches_the_twin_quotient_once(monkeypatch):
    """The regular stage takes the quotient and its result from the graph's
    own search, so C5[E4] needs one IR search, and its nodes count once."""
    g = lex_product(cycle_graph(5), empty_graph(4))
    runs = []
    run = _AutSearch.run
    monkeypatch.setattr(_AutSearch, "run",
                        lambda self: runs.append(self.n) or run(self))
    aut = automorphism_group(g)
    assert runs == [5] and aut.level is not None
    cert = cayley_status(g)
    assert runs == [5, 5] and cert.verdict == "cayley"
    _, quotient_aut, _, quotient = aut.level
    regular = regular_subgroup_search(quotient, quotient_aut)
    assert cert.nodes == aut.nodes + regular.nodes


def test_twin_lift_relabels_no_whole_graph(monkeypatch):
    """K500,500 is two twin classes over one vertex: the search runs on the
    quotient, and lifting its canonical labelling relabels no 1,000-vertex
    graph."""
    sizes = []
    relabel = Graph.relabel
    monkeypatch.setattr(Graph, "relabel",
                        lambda self, perm: sizes.append(self.n) or relabel(self, perm))
    res = automorphism_group(complete_bipartite(500, 500))
    assert res.order == 2 * math.factorial(500) ** 2 and res.nodes == 1
    assert 1000 not in sizes


@pytest.mark.parametrize("graph, nodes, generators", [
    (complete_bipartite(4, 4), 1,
     [(4, 5, 6, 7, 0, 1, 2, 3), (1, 2, 3, 0, 5, 6, 7, 4)]),
    (disjoint_union([lex_product(cycle_graph(5), empty_graph(2))] * 2), 17,
     [(2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 12, 13, 14, 15, 16, 17, 18, 19, 10, 11),
      (10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
      (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, 17, 16, 19, 18)]),
    (disjoint_union([cycle_graph(4)] * 3).complement(), 1,
     [(4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3), (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10),
      (2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9)]),
    (lex_product(petersen(), empty_graph(2)), 9948,
     [(2, 3, 12, 13, 16, 17, 10, 11, 0, 1, 4, 5, 18, 19, 6, 7, 14, 15, 8, 9),
      (3, 2, 1, 0, 11, 10, 17, 16, 13, 12, 5, 4, 9, 8, 15, 14, 7, 6, 19, 18),
      (10, 11, 16, 17, 13, 12, 19, 18, 14, 15, 1, 0, 6, 7, 3, 2, 9, 8, 4, 5)]),
], ids=["k44-copies-then-twins", "2c5e2-copies-then-twins", "3c4-complement-three-copy-levels",
        "petersen-e2-whole-graph-search"])
def test_generic_status_pins_lifts_through_reduction_chains(graph, nodes, generators):
    """Generic certificates through chains of part and twin levels, pinned:
    any change to the order of the lift shows here.  K4,4 and the
    complement of 3C4 reduce by twin levels alone, down to one vertex, so
    the only search is the one-node search there; 2C5[E2] is a twin level
    over 2C5, a part level over C5, whose regular search adds its nodes.
    Petersen[E2]'s quotient is not Cayley, so the search walks the
    stabilizer of Aut of the whole graph, which Schreier-Sims rebuilds with
    twin transpositions among its strong generators: any change to that
    build's order shows here too."""
    cert = cayley_status(graph)
    assert cert.verdict == "cayley" and verify_certificate(graph, cert)
    assert cert.nodes == nodes and cert.regular_generators == generators


def test_generic_status_falls_back_when_the_twin_quotient_is_not_cayley():
    """The Petersen graph is not Cayley, but Petersen[E2] is: the twin law
    holds one way only, and the search on the whole graph decides it."""
    g = lex_product(petersen(), empty_graph(2))
    cert = cayley_status(g, regular_budget=50_000)
    assert cert.verdict == "cayley" and verify_certificate(g, cert)


def test_generic_status_pins_the_exits_of_the_reduction(monkeypatch):
    """Which regular searches each exit of the regular stage runs, by
    degree.  Copies of a non-Cayley graph, and their complement, are decided
    on one copy and never searched whole; a twin blow-up whose quotient is
    not Cayley searches the quotient and then its own graph; and an IR budget
    that runs out in the first search reports the nodes it searched, one
    past the budget."""
    degrees = []
    search = automorphisms.regular_subgroup_search

    def recording(graph, *args, **kwargs):
        degrees.append(graph.n)
        return search(graph, *args, **kwargs)

    monkeypatch.setattr(automorphisms, "regular_subgroup_search", recording)
    p = petersen()
    two = disjoint_union([p] * 2)
    for g in (two, two.complement(), disjoint_union([p] * 3)):
        degrees.clear()
        cert = cayley_status(g)
        assert cert.verdict == "non_cayley" and cert.exhausted_search
        assert degrees == [10]
    degrees.clear()
    g = lex_product(p, empty_graph(2))
    cert = cayley_status(g)
    assert cert.verdict == "cayley" and verify_certificate(g, cert)
    assert degrees == [10, 20]
    cert = cayley_status(p, ir_budget=1)
    assert cert.verdict == "unknown" and cert.nodes == 2
    assert cert.budget_report == {"stage": "automorphism search", "budget": 1}


def test_certificate_json_roundtrip():
    cert = Certificate("cayley", regular_generators=[(1, 0)], nodes=3, millis=1.25)
    d = cert.to_json_dict()
    assert d["verdict"] == "cayley" and d["regular_generators"] == [[1, 0]]
