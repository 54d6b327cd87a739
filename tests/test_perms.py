import itertools
import math
import random

import pytest

from haarcay import perms
from haarcay.automorphisms import automorphism_group
from haarcay.cases import CASE_INDEX, constructor_catalog
from haarcay.graphs import (
    cayley_right_translation,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    haar_graph,
    lex_product,
    right_translation_vertex_perm,
)
from haarcay.groups import (
    connection_set,
    cyclic_group,
    dihedral_group,
    group_from_spec,
    mask_of,
    quaternion_group,
)
from haarcay.perms import (
    PermGroup,
    identity_perm,
    is_identity,
    pinv,
    pmul,
)

from oracles import ReferencePermGroup
from test_automorphisms import petersen


def sym_gens(n):
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return [swap, cycle]


def cyc_perm(n, shift=1):
    return tuple((i + shift) % n for i in range(n))


def test_perm_primitives():
    p = (1, 2, 0, 3)
    q = (0, 1, 3, 2)
    assert pmul(p, q)[0] == 1 and pmul(p, q)[2] == 0
    assert pmul(p, pinv(p)) == identity_perm(4)
    assert is_identity(identity_perm(5))


def test_symmetric_group_order():
    for n in (3, 4, 5, 6, 13):
        G = PermGroup(n, sym_gens(n))
        assert G.order == math.factorial(n)
    assert PermGroup(13, sym_gens(13)).order > 2 ** 32  # exact big-int order


def test_alternating_group_order():
    a5 = PermGroup(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])  # 5-cycle and 3-cycle
    assert a5.order == 60 and a5.is_transitive()
    assert a5.stabilizer(0).order == 12


def test_trivial_group():
    G = PermGroup(5)
    assert G.order == 1
    assert G.is_semiregular() and not G.is_transitive()
    assert G.contains(identity_perm(5))
    assert not G.contains((1, 0, 2, 3, 4))


def test_right_translations_give_group_of_order_h():
    for H in (cyclic_group(6), dihedral_group(5), quaternion_group()):
        S = mask_of(range(H.order)) & ~1 | 1
        gens = [right_translation_vertex_perm(H, g) for g in range(H.order)]
        G = PermGroup(2 * H.order, gens)
        assert G.order == H.order
        orbits = G.orbits()
        assert sorted(len(o) for o in orbits) == [H.order, H.order]
        assert G.is_semiregular() and not G.is_transitive()
        assert orbits[0] == list(range(H.order))  # the two parts are the orbits
        assert orbits[1] == list(range(H.order, 2 * H.order))


def test_cayley_action_is_regular():
    from haarcay.groups import GroupTable

    def cayley_perm(H: GroupTable, g: int):
        return tuple(H.mult[h][g] for h in range(H.order))

    for H in (cyclic_group(7), dihedral_group(4), quaternion_group()):
        G = PermGroup(H.order, [cayley_perm(H, g) for g in range(H.order)])
        assert G.is_regular()
        assert G.stabilizer(0).order == 1


def test_order_matches_exhaustive_enumeration():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randrange(4, 8)
        gens = []
        for _ in range(2):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        G = PermGroup(n, gens)
        if G.order <= 10 ** 4:
            assert G.order == len(set(G.elements()))
            # a chain of length two or more lists each element exactly once
            K = G.stabilizer(0)
            elems = list(K.elements())
            assert len(elems) == len(set(elems)) == K.order
            assert all(p[0] == 0 and K.contains(p) for p in elems)


def test_orbit_stabilizer_relation():
    rng = random.Random(9)
    for n, gens in [(6, sym_gens(6)), (8, [cyc_perm(8)]),
                    (6, [cyc_perm(6), tuple((-i) % 6 for i in range(6))])]:
        G = PermGroup(n, gens)
        for _ in range(4):
            v = rng.randrange(n)
            orbit = next(o for o in G.orbits() if v in o)
            assert G.order == len(orbit) * G.stabilizer(v).order


def test_membership_products_and_rejection():
    rng = random.Random(13)
    G = PermGroup(10, [cyc_perm(10), tuple((-i) % 10 for i in range(10))])  # dihedral, order 20
    assert G.order == 20
    for _ in range(20):
        p = identity_perm(10)
        for _ in range(rng.randrange(1, 6)):
            p = pmul(p, rng.choice(G.generators))
        assert G.contains(p)
    rejected = 0
    for _ in range(20):
        q = list(range(10))
        rng.shuffle(q)
        if not G.contains(tuple(q)):
            rejected += 1
    assert rejected >= 15  # random permutations are almost never dihedral


def test_stabilizer_sizes():
    G = PermGroup(6, sym_gens(6))
    assert G.stabilizer(3).order == math.factorial(5)
    D6 = PermGroup(6, [cyc_perm(6), tuple((-i) % 6 for i in range(6))])
    assert D6.order == 12
    assert D6.stabilizer(0).order == 2  # the reflection through the vertex


def test_base_is_deterministic_smallest_nonfixed():
    G = PermGroup(5, sym_gens(5))
    assert G.base[0] == 0
    G2 = PermGroup(6, [cyc_perm(6, 2), cyc_perm(6, 4)])  # fixes nothing, moves 0
    assert G2.base == [0]


def test_normalizes():
    C6 = PermGroup(6, [cyc_perm(6)])
    D6 = PermGroup(6, [cyc_perm(6), tuple((-i) % 6 for i in range(6))])
    assert D6.normalizes(C6)
    S6 = PermGroup(6, sym_gens(6))
    assert not S6.normalizes(C6)


def test_semiregular_iff_trivial_point_stabilizers():
    rng = random.Random(21)
    H = quaternion_group()
    g, _ = haar_graph(H, mask_of([0, 4]))
    gens = [right_translation_vertex_perm(H, a) for a in (H.gen("i"), H.gen("j"))]
    G = PermGroup(g.n, gens)
    assert G.is_semiregular()
    for v in range(G.degree):
        assert G.stabilizer(v).order == 1


# -- the construction against the reference Schreier-Sims ----------------------

def _ir_generator_sets():
    """(name, degree, generators) from the IR search on graphs with large
    or awkward automorphism groups."""
    k88_minus = complete_bipartite(8, 8)
    for i in range(8):
        k88_minus.rows[i] &= ~(1 << (8 + i))
        k88_minus.rows[8 + i] &= ~(1 << i)
    case = CASE_INDEX["z3-z4-not-vt"]
    H = group_from_spec(case.group)
    z3z4, _ = haar_graph(H, connection_set(H, case.words))
    graphs = [("K6,6", complete_bipartite(6, 6)), ("K8,8-M", k88_minus),
              ("E8", empty_graph(8)), ("4C6", disjoint_union([cycle_graph(6)] * 4)),
              ("Petersen", petersen()), ("z3-z4[E2]", lex_product(z3z4, empty_graph(2)))]
    return [(name, g.n, automorphism_group(g).generators) for name, g in graphs]


def _random_generator_sets(count=200, seed=2024):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randrange(2, 14)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        out.append((f"random{k}", n, gens))
    return out


def test_bsgs_identical_to_reference_construction():
    """Same base, same level generators, same transversals in the same
    insertion order, hence the same elements() order; also when the build
    stops at the group order given in advance."""
    for name, n, gens in _ir_generator_sets() + _random_generator_sets():
        for prefix in ((), (0,)):
            ref = ReferencePermGroup(n, gens, base_prefix=prefix)
            order = math.prod(len(level.transversal) for level in ref._levels)
            new = PermGroup(n, gens, base_prefix=prefix)
            for built in (new, PermGroup(n, gens, base_prefix=prefix, order=order)):
                assert built.base == ref.base, (name, prefix)
                for mine, theirs in zip(built._levels, ref._levels):
                    assert mine.gens == theirs.gens, (name, prefix)
                    assert list(mine.transversal.items()) == list(theirs.transversal.items()), \
                        (name, prefix)
            assert list(itertools.islice(new.stabilizer(0).elements(), 500)) == \
                list(itertools.islice(ref.stabilizer(0).elements(), 500)), (name, prefix)


def test_a_known_order_that_is_wrong_raises():
    gens = sym_gens(6)
    with pytest.raises(ValueError, match="order"):
        PermGroup(6, gens, order=700)      # passed over, never met
    with pytest.raises(ValueError, match="order"):
        PermGroup(6, gens, order=1440)     # never reached
    assert PermGroup(6, gens, order=720).order == 720


def test_a_base_prefix_whose_generators_are_not_strong_falls_back_to_sifting(monkeypatch):
    """(0 1) and the 6-cycle over the base 0..4: only the 6-cycle moves 0,
    and nothing fixes 0, so the prefix's orbits multiply to 6, not 720, and
    Schreier-Sims sifts its way to S6 from there."""
    sifts = []
    sift_from = PermGroup._sift_from
    monkeypatch.setattr(PermGroup, "_sift_from",
                        lambda self, p, start: sifts.append(1) or sift_from(self, p, start))
    G = PermGroup(6, sym_gens(6), base_prefix=range(5), order=720)
    assert sifts and G.order == 720 and G.base == [0, 1, 2, 3, 4]
    assert all(G.contains(tuple(p)) for p in itertools.permutations(range(6)))


def test_a_wrong_order_with_a_base_prefix_raises():
    """The order check is the same with a base prefix, whether the prefix's
    generators are strong (adjacent transpositions) or not."""
    adjacent = [tuple(list(range(i)) + [i + 1, i] + list(range(i + 2, 6))) for i in range(5)]
    for gens in (adjacent, sym_gens(6)):
        assert PermGroup(6, gens, base_prefix=range(5), order=720).order == 720
        for wrong in (360, 700, 1440):
            with pytest.raises(ValueError, match="order"):
                PermGroup(6, gens, base_prefix=range(5), order=wrong)


# -- against sympy's PermutationGroup ------------------------------------------

def test_agrees_with_sympy():
    from sympy.combinatorics import Permutation, PermutationGroup

    rng = random.Random(31)
    inputs = [(H.tag, H.order, [cayley_right_translation(H, e) for _, e in H.gens])
              for H in constructor_catalog(16)]
    inputs += _ir_generator_sets() + _random_generator_sets()
    for name, n, gens in inputs:
        G = PermGroup(n, gens)
        S = PermutationGroup([Permutation(list(g)) for g in gens] or [Permutation(n - 1)])
        assert G.order == S.order(), name
        assert sorted(G.orbits()) == sorted(sorted(o) for o in S.orbits()), name
        assert G.stabilizer(0).order == S.stabilizer(0).order(), name
        for _ in range(5):
            p = identity_perm(n)
            for _ in range(rng.randrange(1, 8)):
                p = pmul(p, rng.choice(gens))
            assert G.contains(p) and S.contains(Permutation(list(p))), name
            q = list(range(n))
            rng.shuffle(q)
            assert G.contains(tuple(q)) == S.contains(Permutation(q)), name


# -- work counters -------------------------------------------------------------

def test_symmetric_group_construction_work(monkeypatch):
    """S12 from 11 adjacent transpositions: the cursor, the stored inverses
    and the skipped trivial pairs keep the products and inversions down
    (a construction that re-sifts every pair makes 5,500 and 4,862)."""
    counts = {"pmul": 0, "pinv": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(perms, "pmul", counted("pmul", perms.pmul))
    monkeypatch.setattr(perms, "pinv", counted("pinv", perms.pinv))
    n = 12
    gens = [tuple(list(range(i)) + [i + 1, i] + list(range(i + 2, n))) for i in range(n - 1)]
    G = PermGroup(n, gens)
    assert G.order == math.factorial(n)
    assert counts["pmul"] <= 1600 and counts["pinv"] <= 100, counts
