import random
from collections import Counter

import pytest

from haarcay.graphs import cayley_right_translation
from haarcay.groupring import (
    convolve,
    indicator,
    inverse_vector,
    is_block_of_imprimitivity,
    left_translation,
    level_set,
    module_law_suite,
    schur_product,
    subgroup_indicator,
    support_mask,
    transitivity_module,
)
from haarcay.groups import (
    cyclic_group,
    dihedral_group,
    elements_of,
    group_automorphisms,
    mask_of,
    miller_moreno_group,
    quaternion_group,
)
from haarcay.perms import PermGroup


def naive_convolution(H, u, v):
    """Independent oracle: coefficient at h is sum over g of u_g * v_(g^-1 h)."""
    return [sum(u[g] * v[H.mult[H.inv[g]][h]] for g in range(H.order))
            for h in range(H.order)]


def translations_group(H):
    return PermGroup(H.order, [cayley_right_translation(H, g) for g in range(H.order)])


def holomorph_c5():
    H = cyclic_group(5)
    mult2 = tuple((2 * x) % 5 for x in range(5))
    return H, PermGroup(5, [cayley_right_translation(H, 1), mult2])


def c8_with_negation():
    H = cyclic_group(8)
    neg = tuple((-x) % 8 for x in range(8))
    return H, PermGroup(8, [cayley_right_translation(H, 1), neg])


def test_convolution_translate_identity():
    H = dihedral_group(4)
    rng = random.Random(1)
    for _ in range(10):
        h = rng.randrange(H.order)
        S = mask_of(e for e in range(H.order) if rng.random() < 0.5)
        hS = mask_of(H.mult[h][e] for e in elements_of(S))
        assert convolve(H, indicator(H, 1 << h), indicator(H, S)) == indicator(H, hS)


def test_schur_idempotent_on_simple_quantities():
    H = quaternion_group()
    u = indicator(H, 0b10110001)
    assert schur_product(u, u) == u


def test_schur_intersection_from_proof_step():
    # un{a,a^-1,b^-1} o un{a,a^-1,b} = un{a,a^-1} in a group where b has order > 2
    H = miller_moreno_group(7, 1, 3, 1)
    a, b = H.gen("a"), H.gen("b")
    u = indicator(H, mask_of([a, H.inv[a], H.inv[b]]))
    v = indicator(H, mask_of([a, H.inv[a], b]))
    assert schur_product(u, v) == indicator(H, mask_of([a, H.inv[a]]))


def test_convolution_matches_naive_oracle():
    rng = random.Random(2)
    groups = [cyclic_group(6), dihedral_group(5), quaternion_group(),
              miller_moreno_group(2, 2, 3, 1)]
    for _ in range(100):
        H = rng.choice(groups)
        u = [rng.randrange(-3, 4) for _ in range(H.order)]
        v = [rng.randrange(-3, 4) for _ in range(H.order)]
        assert convolve(H, u, v) == naive_convolution(H, u, v)


def test_level_set():
    H = cyclic_group(6)
    u = [3, 0, 2, 2, 0, 0]
    assert level_set(u, 2) == [0, 0, 1, 1, 0, 0]
    assert level_set(u, 3) == [1, 0, 0, 0, 0, 0]
    S = indicator(H, 0b101010)
    assert level_set(S, 1) == S


def test_inverse_and_subgroup_quantities():
    H = dihedral_group(6)
    a = H.gen("a")
    u = indicator(H, 1 << a)
    assert inverse_vector(H, u) == indicator(H, 1 << H.inv[a])
    symm = indicator(H, mask_of([a, H.inv[a]]))
    assert inverse_vector(H, symm) == symm
    # <a, a^-1> in the Miller-Moreno group of order 21 is its Sylow 7-subgroup
    M = miller_moreno_group(7, 1, 3, 1)
    am = mask_of([M.gen("a"), M.inv[M.gen("a")]])
    assert support_mask(subgroup_indicator(M, am)).bit_count() == 7


def test_transitivity_module_translations_only():
    H = dihedral_group(4)
    module = transitivity_module(H, translations_group(H))
    assert all(m.bit_count() == 1 for m in module.basic_sets)
    assert len(module.basic_sets) == H.order


def test_transitivity_module_holomorph_c5():
    H, G = holomorph_c5()
    module = transitivity_module(H, G)
    assert module.serialize() == [[0], [1, 2, 3, 4]]


def test_transitivity_module_c8_negation():
    H, G = c8_with_negation()
    module = transitivity_module(H, G)
    assert module.serialize() == [[0], [1, 7], [2, 6], [3, 5], [4]]


def test_transitivity_module_requires_translations():
    H = cyclic_group(6)
    with pytest.raises(ValueError, match="right translations"):
        transitivity_module(H, PermGroup(6, [(1, 0, 2, 3, 4, 5)]))


def test_blocks():
    H = cyclic_group(6)
    neg = tuple((-x) % 6 for x in range(6))
    G = PermGroup(6, [cayley_right_translation(H, 1), neg])
    assert is_block_of_imprimitivity(G, [0, 3])
    assert is_block_of_imprimitivity(G, list(range(6)))
    assert is_block_of_imprimitivity(G, [2])
    assert not is_block_of_imprimitivity(G, [0, 1])


def test_module_law_suite_translations_and_holomorph():
    for H, G in [(dihedral_group(3), translations_group(dihedral_group(3))),
                 holomorph_c5(), c8_with_negation()]:
        report = module_law_suite(H, G)
        assert report.passed, report.failures()


def test_module_law_suite_randomized_augmentations():
    rng = random.Random(3)
    groups = [cyclic_group(6), cyclic_group(12), dihedral_group(4),
              dihedral_group(6), quaternion_group(),
              miller_moreno_group(2, 2, 3, 1), miller_moreno_group(3, 1, 2, 2)]
    for _ in range(20):
        H = rng.choice(groups)
        auts = group_automorphisms(H)
        alpha = auts[rng.randrange(len(auts))]
        G = PermGroup(H.order, [cayley_right_translation(H, g) for g in (1, 2 % H.order)]
                      + [tuple(alpha)])
        # make sure all translations are inside (alpha normalizes them)
        G = PermGroup(H.order,
                      G.generators + [cayley_right_translation(H, g) for g in range(H.order)])
        report = module_law_suite(H, G)
        assert report.passed, (H.tag, report.failures())


def test_left_translation_in_full_symmetric_centralizer():
    H = quaternion_group()
    G = translations_group(H)
    for h in range(H.order):
        lt = left_translation(H, h)
        for g in G.generators:
            assert all(lt[g[x]] == g[lt[x]] for x in range(H.order))


# -- regression identities on the large Miller-Moreno groups -----------------

def test_regression_identities_z2_5_z31():
    """S = {1,a,b,a^b,a^(b^2)} over Z_2^5 : Z_31: the 4-cycle set, the
    single-coset quantity, and the squared-neighbour level set."""
    H = miller_moreno_group(2, 5, 31, 1)
    a, b = H.gen("a"), H.gen("b")
    c = H.conjugate(a, b)
    d = H.conjugate(c, b)
    S = mask_of([0, a, b, c, d])

    # orbit of a under conjugation by b covers every nonzero vector, so a*d
    # lies in it and the five-element spoke set is the short shape
    orbit = set()
    x = a
    for _ in range(31):
        orbit.add(x)
        x = H.conjugate(x, b)
    assert H.mul(a, d) in orbit

    # X: elements sharing a 4-cycle with the anchor, via |S intersect Sh| >= 2
    X = 0
    for h in range(1, H.order):
        Sh = mask_of(H.mult[s][h] for s in elements_of(S))
        if (S & Sh).bit_count() >= 2:
            X |= 1 << h
    ac, ad, cd = H.mul(a, c), H.mul(a, d), H.mul(c, d)
    assert X == mask_of([a, c, d, ac, ad, cd])

    acd = H.mul(a, cd)
    lhs = [p - q - r for p, q, r in zip(subgroup_indicator(H, X),
                                        indicator(H, X), indicator(H, 1))]
    assert lhs == indicator(H, 1 << acd)

    # Y: neighbours of b_1 other than the anchor; (un Y)^2 peaks at b^2 with 3
    Y = mask_of(H.mul(H.inv[s], b) for s in elements_of(S)) & ~1
    assert Y == mask_of([b, H.mul(a, b), H.mul(c, b), H.mul(d, b)])
    uy = indicator(H, Y)
    sq = convolve(H, uy, uy)
    b2 = H.mul(b, b)
    assert sq[b2] == 3 and max(v for i, v in enumerate(sq) if i != b2) < 3
    assert level_set(sq, 3) == indicator(H, 1 << b2)


def test_regression_identity_z2_8_z17_sparse():
    """(un Y^-1 . un Y) o un<X> = 5 un{1} + 2 un{c,d,e,cd,ce,cde} in
    Z_2^8 : Z_17, computed in sparse tuple arithmetic (the group table cap
    keeps this group out of GroupTable range)."""
    from haarcay.groups import _canonical_action_matrix

    p, n, q = 2, 8, 17
    mat = _canonical_action_matrix(p, n, q)

    def apply_mat(code):
        vec = [(code >> (n - 1 - i)) & 1 for i in range(n)]
        out = 0
        for i in range(n):
            bit = sum(mat[i][j] * vec[j] for j in range(n)) % 2
            out |= bit << (n - 1 - i)
        return out

    act = [list(range(1 << n))]
    for _ in range(q - 1):
        act.append([apply_mat(vc) for vc in act[-1]])

    def mul(e1, e2):
        (v1, j1), (v2, j2) = e1, e2
        return (v1 ^ act[(-j1) % q][v2], (j1 + j2) % q)

    def inv(e):
        v, j = e
        return (act[j % q][v], (-j) % q)

    def conj(x, y):
        return mul(mul(inv(y), x), y)

    one = (0, 0)
    bb = (0, 1)
    # pick a vector whose product with its second conjugate leaves the orbit
    aa = None
    for code in range(1, 1 << n):
        cand = (code, 0)
        orbit = set()
        x = cand
        for _ in range(q):
            orbit.add(x)
            x = conj(x, bb)
        second = conj(conj(cand, bb), bb)
        if (cand[0] ^ second[0], 0) not in orbit:
            aa = cand
            a_orbit = orbit
            break
    assert aa is not None

    c = conj(aa, bb)
    d = conj(c, bb)
    e = mul(c, conj(d, bb))                     # a^b * a^(b^3)
    assert mul(aa, d) not in a_orbit            # the long-shape hypothesis
    S = [one, aa, bb, c, d, e]

    # X from 4-cycles through the anchor: h != 1 with |S intersect Sh| >= 2
    pair_products = Counter(mul(inv(s1), s2) for s1 in S for s2 in S)
    X = sorted((h for h, cnt in pair_products.items() if cnt >= 2 and h != one))
    expect_X = {aa, c, d, e, mul(aa, c), mul(aa, d), mul(aa, e),
                mul(c, d), mul(c, e), mul(d, e)}
    assert set(X) == expect_X

    # <X> = <a,c,d,e>, an elementary-abelian 2^4 inside the vector part
    span = {0}
    for g, _ in (aa, c, d, e):
        span |= {v ^ g for v in span}
    assert len(span) == 16
    gen_sub = {(v, 0) for v in span}

    Y = [mul(inv(s), bb) for s in S if mul(inv(s), bb) != one]
    assert len(Y) == 5
    lhs = Counter()
    for y1 in Y:
        for y2 in Y:
            prod = mul(inv(y1), y2)
            if prod in gen_sub:
                lhs[prod] += 1
    cd_, ce_, cde_ = mul(c, d), mul(c, e), mul(mul(c, d), e)
    rhs = Counter({one: 5})
    for g in (c, d, e, cd_, ce_, cde_):
        rhs[g] += 2
    assert lhs == rhs
