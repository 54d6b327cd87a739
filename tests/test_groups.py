import hashlib
import itertools
import random

import pytest

from haarcay.cases import A4_SPEC, CATALOG, Z23_Z7_SPEC, Z24_Z5_SPEC, constructor_catalog
from haarcay import groups
from haarcay.groups import (
    TABLE_ORDER_CAP,
    GroupConstructionError,
    GroupTable,
    _generator_walk,
    _isomorphisms,
    _monic_polys,
    center_mask,
    connection_set,
    cyclic_group,
    dihedral_group,
    direct_product,
    elements_of,
    evaluate_word,
    group_automorphisms,
    group_from_name,
    group_from_spec,
    group_isomorphism,
    inner_automorphism,
    inverse_mask,
    is_group_automorphism,
    is_inner_abelian,
    is_normal_subgroup,
    mask_image,
    mask_of,
    miller_moreno_group,
    mp1_group,
    mp_group,
    presented_group,
    quaternion_group,
    quotient,
    subgroup_generated,
)
from haarcay.perms import _Meter

from oracles import (
    all_subgroups,
    brute_force_group_automorphisms,
    brute_force_is_associative,
    inner_abelian_by_subgroup_enumeration,
)



def small_catalog():
    return [
        cyclic_group(1), cyclic_group(2), cyclic_group(6), cyclic_group(8),
        dihedral_group(3), dihedral_group(4), dihedral_group(5), dihedral_group(7),
        quaternion_group(),
        direct_product([cyclic_group(2), cyclic_group(2)]),
        direct_product([cyclic_group(2), cyclic_group(4)]),
        mp_group(2, 2, 1), mp_group(2, 2, 2), mp_group(2, 3, 1),
        mp1_group(3, 1, 1), mp1_group(2, 2, 1),
        miller_moreno_group(2, 2, 3, 1),
        miller_moreno_group(3, 1, 2, 2),
        miller_moreno_group(5, 1, 2, 2),
        group_from_spec(A4_SPEC),
    ]


def test_family_orders():
    assert dihedral_group(3).order == 6
    assert not dihedral_group(3).is_abelian()
    assert quaternion_group().order == 8
    assert mp_group(2, 2, 1).order == 8
    assert mp_group(2, 3, 2).order == 32
    assert mp1_group(3, 1, 1).order == 27
    assert mp1_group(2, 2, 1).order == 16
    assert mp1_group(2, 2, 2).order == 32
    assert miller_moreno_group(2, 2, 3, 1).order == 12
    assert miller_moreno_group(5, 1, 2, 3).order == 40
    assert miller_moreno_group(2, 3, 7, 1).order == 56
    assert miller_moreno_group(2, 4, 5, 1).order == 80


def test_constraint_violations_are_reported():
    with pytest.raises(GroupConstructionError):
        mp_group(2, 1, 1)  # m >= 2
    with pytest.raises(GroupConstructionError):
        mp1_group(2, 1, 1)  # p=2 needs m+n >= 3
    with pytest.raises(GroupConstructionError, match="does not divide"):
        miller_moreno_group(2, 2, 5, 1)  # 5 does not divide 3
    with pytest.raises(GroupConstructionError, match="must be <"):
        miller_moreno_group(2, 4, 3, 1)  # n >= q
    with pytest.raises(GroupConstructionError, match="ord"):
        miller_moreno_group(2, 6, 7, 1)  # ord_7(2)=3, no degree-6 action


def test_oversize_orders_are_refused_before_any_work(monkeypatch):
    """Every family constructor computes its order from the parameters and
    refuses one past ``TABLE_ORDER_CAP`` with ``validate``'s message before
    any primality test past the cap, polynomial search or table: each of
    those builders raises here if it is reached.  The first inputs are just
    over the cap; the others would take hours or all memory to build."""
    c64, c32 = cyclic_group(64), cyclic_group(32)

    def reached(*args, **kwargs):
        raise AssertionError("a builder ran for an oversize group")

    for name in ("_table_from_forms", "_semidirect_table", "_action_powers",
                 "_canonical_action_matrix"):
        monkeypatch.setattr(groups, name, reached)
    monkeypatch.setattr(GroupTable, "__init__", reached)
    is_prime = groups._is_prime
    monkeypatch.setattr(groups, "_is_prime",
                        lambda p: reached() if p > TABLE_ORDER_CAP else is_prime(p))
    mersenne = 2 ** 89 - 1
    cases = [
        (cyclic_group, (1025,), 1025),
        (dihedral_group, (513,), 1026),
        (mp_group, (2, 6, 5), 2048),
        (mp1_group, (2, 5, 5), 2048),
        (miller_moreno_group, (3, 4, 5, 2), 81 * 25),
        (cyclic_group, (10 ** 6,), 10 ** 6),
        (mp_group, (2, 30, 30), 2 ** 60),
        (direct_product, ([c64, c32],), 2048),
        (miller_moreno_group, (2, 20, 41, 1), 2 ** 20 * 41),
        (presented_group, (1, ["x" * 10 ** 5]), 10 ** 5),
        (mp_group, (mersenne, 2, 1), mersenne ** 3),
        (mp_group, (2, 10 ** 5, 1), "2\\^100001"),
    ]
    for build, args, order in cases:
        with pytest.raises(GroupConstructionError,
                           match=rf"^order {order} outside supported range 1\.\.{TABLE_ORDER_CAP}$"):
            build(*args)


def test_monic_polys_in_lex_order_of_the_high_coefficients():
    for p in (2, 3, 5, 7):
        for n in range(1, 12):
            if p ** n > 3000:
                break
            tuples = sorted(itertools.product(range(p), repeat=n), key=lambda t: t[::-1])
            assert list(_monic_polys(p, n)) == [list(t) for t in tuples], (p, n)


def test_axioms_hold_on_catalog():
    for H in small_catalog():
        H.validate()  # Latin square, identity, inverses, associativity


def test_validate_rejects_a_non_associative_loop():
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert not brute_force_is_associative(loop)
    with pytest.raises(GroupConstructionError, match="associativity"):
        GroupTable(loop)


def test_validate_rejects_a_non_associative_table_above_order_100():
    """Z_1024 with the intercalate at rows 1, 513 and columns 3, 515
    swapped is still a Latin square with identity 0, but
    (1*1)*3 = 5 while 1*(1*3) = 517."""
    n = 1024
    mult = [[(x + y) % n for y in range(n)] for x in range(n)]
    for x in (1, 513):
        mult[x][3], mult[x][515] = mult[x][515], mult[x][3]
    with pytest.raises(GroupConstructionError, match="associativity fails at"):
        GroupTable(mult)


def _random_loop_table(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square on 0..n-1 whose row and column 0 are the
    identity, filled cell by cell in random symbol order with backtracking."""
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        taken = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in taken]
        rng.shuffle(options)
        for v in options:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = -1
        return False

    assert fill(0)
    return rows


def _switched_intercalates(H: GroupTable) -> list[list[list[int]]]:
    """Copies of H's table with one 2x2 subsquare [[a,b],[b,a]] away from row
    and column 0 switched to [[b,a],[a,b]]: still Latin squares with
    identity, one cell pair away from a group."""
    n = H.order
    out = []
    for x1 in range(1, n):
        for x2 in range(x1 + 1, n):
            for y1 in range(1, n):
                y2 = H.mult[H.inv[x1]][H.mult[x2][y1]]  # x1*y2 = x2*y1
                if y2 > y1 and H.mult[x1][y1] == H.mult[x2][y2]:
                    mult = [list(row) for row in H.mult]
                    mult[x1][y1], mult[x1][y2] = mult[x1][y2], mult[x1][y1]
                    mult[x2][y1], mult[x2][y2] = mult[x2][y2], mult[x2][y1]
                    out.append(mult)
    return out


def _validates(mult) -> bool:
    try:
        GroupTable(mult)
    except GroupConstructionError as exc:
        assert "associativity fails at" in str(exc)
        return False
    return True


def test_validate_agrees_with_the_cubic_associativity_oracle():
    """Light's test checks (x*a)*y = x*(a*y) for the generators a only; on
    random loops, on group tables and on tables one switch away from a group
    it accepts exactly the associative ones."""
    rng = random.Random(3)
    tables = [_random_loop_table(n, rng) for n in range(1, 8) for _ in range(40)]
    for H in constructor_catalog(12):
        tables.append(H.mult)
        switched = _switched_intercalates(H)
        tables.extend(rng.sample(switched, min(3, len(switched))))
    verdicts = [(_validates(m), brute_force_is_associative(m)) for m in tables]
    assert all(fast == slow for fast, slow in verdicts)
    assert {fast for fast, _ in verdicts} == {True, False}


def test_generator_walk_sees_every_generator_edge_once():
    """Across the levels, the steps, the checks and the edges 0 -> g_l are
    the edges x -> x*g of the whole group, each exactly once, and the steps
    reach every element but the identity and the generators exactly once."""
    for H in constructor_catalog(16):
        gens, levels = _generator_walk(H)
        edges = [(0, g) for g in gens]
        reached = []
        for steps, checks in levels:
            for z, x, h in steps + checks:
                assert z == H.mult[x][h], H.tag
                edges.append((x, h))
            reached.extend(z for z, _, _ in steps)
        assert sorted(edges) == [(x, h) for x in range(H.order) for h in sorted(gens)], H.tag
        assert sorted(reached + gens + [0]) == list(range(H.order)), H.tag


def test_multiply_identity_and_element_orders():
    Q8 = quaternion_group()
    for x in range(8):
        assert Q8.mul(0, x) == x and Q8.mul(x, 0) == x
    center = center_mask(Q8)
    for x in range(1, 8):
        if not (center >> x) & 1:
            assert Q8.element_order(x) == 4
    H = mp1_group(3, 1, 1)
    assert H.element_order(H.gen("b")) == 3
    assert H.element_order(H.gen("a")) == 3


def test_subgroup_generated():
    Q8 = quaternion_group()
    assert subgroup_generated(Q8, 0) == 1  # <empty> = {identity}
    assert subgroup_generated(Q8, 1 << Q8.gen("i")) .bit_count() == 4
    for H in (mp_group(2, 2, 1), mp1_group(3, 1, 1), mp_group(2, 3, 2)):
        ab = mask_of([H.gen("a"), H.gen("b")])
        assert subgroup_generated(H, ab) == (1 << H.order) - 1


def test_center_and_normality():
    Q8 = quaternion_group()
    z = center_mask(Q8)
    assert z.bit_count() == 2
    assert is_normal_subgroup(Q8, z)
    H = mp1_group(3, 1, 1)
    c = H.commutator(H.gen("a"), H.gen("b"))
    assert c == H.gen("c")
    assert (center_mask(H) >> c) & 1


def test_quotient_by_whole_group_and_trivial():
    H = dihedral_group(4)
    full = (1 << H.order) - 1
    Q, proj = quotient(H, full)
    assert Q.order == 1 and set(proj) == {0}
    Q2, proj2 = quotient(H, 1)
    assert Q2.order == H.order and list(proj2) == list(range(H.order))


def test_quotient_mp232_by_b2_satisfies_mp21_relations():
    H = mp_group(2, 3, 2)
    b = H.gen("b")
    N = subgroup_generated(H, 1 << H.power(b, 2))
    Q, proj = quotient(H, N)
    assert Q.order == 16
    assert group_isomorphism(Q, mp_group(2, 3, 1)) is not None
    a_, b_ = proj[H.gen("a")], proj[b]
    assert Q.element_order(a_) == 8 and Q.element_order(b_) == 2
    c_ = Q.commutator(a_, b_)
    assert c_ == Q.power(a_, 4)  # [a,b] = a^(p^(m-1))


def test_quotient_mm5123_by_b4_is_z5_sd_z4():
    H = miller_moreno_group(5, 1, 2, 3)
    b = H.gen("b")
    N = subgroup_generated(H, 1 << H.power(b, 4))
    Q, proj = quotient(H, N)
    assert Q.order == 20
    assert group_isomorphism(Q, miller_moreno_group(5, 1, 2, 2)) is not None
    a_, b_ = proj[H.gen("a")], proj[b]
    assert Q.element_order(a_) == 5 and Q.element_order(b_) == 4
    assert Q.conjugate(a_, b_) == Q.inverse(a_)  # b inverts a


def test_group_isomorphisms_from_presentations():
    assert group_isomorphism(mp_group(2, 2, 1), dihedral_group(4)) is not None
    a4 = group_from_spec(A4_SPEC)
    assert a4.order == 12
    assert group_isomorphism(miller_moreno_group(2, 2, 3, 1), a4) is not None
    assert group_isomorphism(quaternion_group(), dihedral_group(4)) is None


def _relabelled(H: GroupTable, rng: random.Random) -> tuple[list[int], GroupTable]:
    """A copy of H with the non-identity elements renamed by a random sigma."""
    n = H.order
    sigma = [0] + rng.sample(range(1, n), n - 1)
    mult = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mult[sigma[x]][sigma[y]] = sigma[H.mult[x][y]]
    return sigma, GroupTable(mult, tag="relabelled")


def test_isomorphisms_onto_a_relabelled_copy():
    """The one backtrack behind group_isomorphism and group_automorphisms:
    onto a copy with shuffled element names, it finds a homomorphism, and the
    isomorphisms it lists are exactly the relabelling after each automorphism."""
    rng = random.Random(11)
    for H in constructor_catalog(12):
        n = H.order
        sigma, K = _relabelled(H, rng)
        phi = group_isomorphism(H, K)
        assert phi is not None and sorted(phi) == list(range(n)), H.tag
        assert all(phi[H.mult[x][y]] == K.mult[phi[x]][phi[y]]
                   for x in range(n) for y in range(n)), H.tag
        isos = list(_isomorphisms(H, K))
        auts = group_automorphisms(H)
        assert len(isos) == len(auts), H.tag
        assert set(isos) == {tuple(sigma[a[x]] for x in range(n)) for a in auts}, H.tag


def test_isomorphisms_with_targets_are_the_filtered_list():
    """Given a set S and target sets, the backtrack yields exactly the
    automorphisms a with S^a among the targets, in the order of the full
    list, and its meter counts no more candidates than the unpruned walk."""
    rng = random.Random(13)
    for H in constructor_catalog(10):
        auts = group_automorphisms(H)
        for _ in range(4):
            S = mask_of(rng.sample(range(H.order), rng.randint(0, H.order)))
            targets = [mask_image(S, rng.choice(auts)), rng.getrandbits(H.order)]
            pruned, full = _Meter("pruned", 10 ** 6), _Meter("full", 10 ** 6)
            found = list(_isomorphisms(H, H, S, targets, pruned))
            assert found == [a for a in auts if mask_image(S, a) in targets], (H.tag, S)
            assert list(_isomorphisms(H, H, meter=full)) == auts
            assert 0 < pruned.nodes <= full.nodes or H.order == 1
    trivial = cyclic_group(1)
    assert list(_isomorphisms(trivial, trivial, 1, [0])) == []


# the six groups of order 16-36 behind the benchmark's status workload, with
# |Aut| as the pairwise-closing backtrack this enumerator replaced computed it
STATUS_GROUP_AUT_COUNTS = [
    ("MpMN1(3,1,1)", {"family": "MpMN1", "p": 3, "m": 1, "n": 1}, 432),
    ("MpMN1(2,2,2)", {"family": "MpMN1", "p": 2, "m": 2, "n": 2}, 384),
    ("Q8xZ2", {"family": "DirectProduct",
               "factors": [{"family": "Quaternion"}, {"family": "Cyclic", "n": 2}]}, 192),
    ("Z2xZ2xZ4", {"family": "DirectProduct",
                  "factors": [{"family": "Cyclic", "n": 2}, {"family": "Cyclic", "n": 2},
                              {"family": "Cyclic", "n": 4}]}, 192),
    ("MillerMoreno(2,2,3,2)", {"family": "MillerMoreno", "p": 2, "n": 2, "q": 3, "m": 2}, 72),
    ("Dihedral(8)", {"family": "Dihedral", "n": 8}, 32),
]


@pytest.mark.parametrize("spec, count", [row[1:] for row in STATUS_GROUP_AUT_COUNTS],
                         ids=[row[0] for row in STATUS_GROUP_AUT_COUNTS])
def test_automorphisms_of_the_status_groups(spec, count):
    """Every map is an automorphism by the full n^2 check, none repeats, and
    onto a relabelled copy the isomorphisms are sigma after each of them."""
    H = group_from_spec(spec)
    n = H.order
    auts = group_automorphisms(H)
    assert len(auts) == len(set(auts)) == count
    assert all(is_group_automorphism(H, a) for a in auts)
    sigma, K = _relabelled(H, random.Random(count))
    assert sorted(_isomorphisms(H, K)) == sorted(tuple(sigma[a[x]] for x in range(n)) for a in auts)


def test_presented_matches_canonical_action():
    z23z7 = presented_group(4, [
        "xx", "yy", "zz", "uuuuuuu", "XYxy", "XZxz", "YZyz",
        "Uxuy", "Uyuz", "Uzuxy"])
    assert z23z7.order == 56
    assert group_isomorphism(z23z7, miller_moreno_group(2, 3, 7, 1)) is not None
    z24z5 = presented_group(5, [
        "xx", "yy", "zz", "vv", "wwwww",
        "XYxy", "XZxz", "XVxv", "YZyz", "YVyv", "ZVzv",
        "Wxwv", "Wywxy", "Wzwyz", "Wvwzv"], labels=["x", "y", "z", "v", "w"])
    assert z24z5.order == 80
    assert group_isomorphism(z24z5, miller_moreno_group(2, 4, 5, 1)) is not None


def test_presented_inconsistency_raises():
    with pytest.raises(GroupConstructionError, match="order does not divide"):
        # z is declared an involution but the action x -> y -> xy has order 3
        presented_group(3, ["xx", "yy", "zz", "XYxy", "Zxzy", "ZyzXY"])
    with pytest.raises(GroupConstructionError, match="unsupported relator"):
        presented_group(2, ["xx", "yy", "xyxyxy"])
    # consistent involution action builds fine
    assert presented_group(2, ["xx", "yy", "Yxyx"]).order == 4


def test_relators_are_rechecked_on_the_finished_table(monkeypatch):
    """With the conjugation action replaced by the trivial one, A4's table
    is Z2 x Z2 x Z3, and the first relator it breaks is named."""
    monkeypatch.setattr(groups, "_action_powers",
                        lambda codec, images, count: [list(range(codec.size))] * (count + 1))
    with pytest.raises(GroupConstructionError, match="relator inconsistency: 'Zxzy' does not hold"):
        group_from_spec(A4_SPEC)


def test_miller_moreno_action_is_fixed_point_free_order_q():
    for (p, n, q, m) in [(2, 2, 3, 1), (5, 1, 2, 2), (2, 3, 7, 1), (3, 1, 2, 1)]:
        H = miller_moreno_group(p, n, q, m)
        a, b = H.gen("a"), H.gen("b")
        P = subgroup_generated(H, 1 << a)
        # Sylow p-subgroup = closure of all order-p elements
        P = subgroup_generated(
            H, mask_of(e for e in range(H.order) if H.element_order(e) == p))
        assert P.bit_count() == p ** n
        conj = [H.conjugate(x, b) for x in range(H.order)]
        for x in elements_of(P):
            if x != 0:
                assert conj[x] != x  # fixed point free
        # order q on P: conjugating q times is the identity
        acc = list(range(H.order))
        for _ in range(q):
            acc = [conj[x] for x in acc]
        assert all(acc[x] == x for x in elements_of(P))


def test_automorphism_search_cap():
    big = miller_moreno_group(2, 5, 31, 1)  # order 992 exceeds the cap
    with pytest.raises(ValueError, match="capped"):
        group_automorphisms(big)


def test_automorphism_group_sizes():
    assert len(group_automorphisms(cyclic_group(5))) == 4
    v4 = direct_product([cyclic_group(2), cyclic_group(2)])
    assert len(group_automorphisms(v4)) == 6
    q8_auts = group_automorphisms(quaternion_group())
    assert len(q8_auts) == 24


def test_automorphisms_are_listed_in_sorted_order():
    """``group_automorphisms`` does not sort: the backtrack yields its
    images sorted, because every position before g_l is fixed by the levels
    before it and g_l's candidates run in increasing order."""
    for H in constructor_catalog(48):
        isos = list(_isomorphisms(H, H))
        assert isos == sorted(isos), H.tag


def test_q8_automorphisms_match_brute_force():
    Q8 = quaternion_group()
    assert sorted(group_automorphisms(Q8)) == sorted(brute_force_group_automorphisms(Q8))


def test_automorphisms_closed_under_composition():
    import math
    for H in (dihedral_group(4), quaternion_group(), mp1_group(2, 2, 1)):
        auts = group_automorphisms(H)
        aset = set(auts)
        for f in auts[:6]:
            for g in auts[:6]:
                assert tuple(g[f[x]] for x in range(H.order)) in aset
        assert math.factorial(H.order) % len(auts) == 0
        for f in auts:
            assert is_group_automorphism(H, f)


def test_inner_automorphisms():
    H = dihedral_group(5)
    assert inner_automorphism(H, 0) == tuple(range(H.order))
    A = cyclic_group(12)
    for y in range(12):
        assert inner_automorphism(A, y) == tuple(range(12))
    M = mp1_group(3, 1, 1)
    a, b, c = M.gen("a"), M.gen("b"), M.gen("c")
    # a^b = a*c per the commutation rule a^i b^j = b^j a^i c^(ij)
    assert inner_automorphism(M, b)[a] == M.mul(a, c)


def test_inner_abelian():
    assert is_inner_abelian(quaternion_group())
    assert not is_inner_abelian(cyclic_group(9))
    assert not is_inner_abelian(direct_product([cyclic_group(2), cyclic_group(2)]))
    assert is_inner_abelian(group_from_spec(A4_SPEC))
    assert is_inner_abelian(mp1_group(3, 1, 1))
    assert is_inner_abelian(dihedral_group(4))
    assert not is_inner_abelian(dihedral_group(6))  # contains D6? S3 x Z2, has D6 subgroup


def test_inner_abelian_matches_subgroup_enumeration_up_to_30():
    for H in small_catalog():
        if H.order <= 30:
            assert is_inner_abelian(H) == inner_abelian_by_subgroup_enumeration(H), H.tag


def test_subgroup_lattice_oracle_sane():
    # |subgroups(Q8)| = 6: 1, Z2, three Z4, Q8
    assert len(all_subgroups(quaternion_group())) == 6


def test_family_spec_json_roundtrip():
    H = group_from_spec({"family": "MpMN", "p": 3, "m": 2, "n": 1})
    assert H.order == 27 and H.tag == "MpMN(3,2,1)"
    K = group_from_spec({"family": "DirectProduct", "factors": [
        {"family": "Cyclic", "n": 2}, {"family": "Cyclic", "n": 4}]})
    assert K.order == 8 and K.is_abelian()
    assert group_from_name("MpMN1(3,1,1)").order == 27
    assert group_from_name("Q8").tag == "Q8"
    assert group_from_name("Quaternion").tag == "Q8"
    for name, expected in (("Cyclic(1,2)", r"Cyclic\(n\)"), ("Cyclic", r"Cyclic\(n\)"),
                           ("MpMN(2,2)", r"MpMN\(p,m,n\)"),
                           ("Quaternion(3)", r"Quaternion\(\)"),
                           ("Presented(3)", "unknown family"),
                           ("Cyclic(1,,2)", "cannot parse")):
        with pytest.raises(GroupConstructionError, match=expected):
            group_from_name(name)
    with pytest.raises(GroupConstructionError, match="missing n"):
        group_from_spec({"family": "Cyclic"})
    with pytest.raises(GroupConstructionError, match="missing relators"):
        group_from_spec({"family": "Presented", "ngens": 2})
    for spec, key in (({"family": "Cyclic", "n": "6"}, "n"),
                      ({"family": "Cyclic", "n": 2.5}, "n"),
                      ({"family": "MpMN", "p": 2, "m": 2, "n": True}, "n"),
                      ({"family": "Presented", "ngens": "2", "relators": []}, "ngens")):
        with pytest.raises(GroupConstructionError, match=f"parameter {key} must be an integer"):
            group_from_spec(spec)


def test_word_evaluation():
    D7 = dihedral_group(7)
    a, b = D7.gen("a"), D7.gen("b")
    assert evaluate_word(D7, "1") == 0
    assert evaluate_word(D7, "a3") == D7.power(a, 3)
    assert evaluate_word(D7, "a-1") == D7.inverse(a)
    assert evaluate_word(D7, "a2b") == D7.mul(D7.power(a, 2), b)
    S = connection_set(D7, "1,a,a3,b,ab,a2b,a4b")
    assert S.bit_count() == 7
    mm = miller_moreno_group(2, 2, 3, 2)
    # a^b as a word: b^-1 a b
    assert evaluate_word(mm, "b-1ab") == mm.conjugate(mm.gen("a"), mm.gen("b"))
    # direct-product labels a1, a2 have two characters: the longest label is read first
    C6 = direct_product([cyclic_group(2), cyclic_group(3)])
    a1, a2 = C6.gen("a1"), C6.gen("a2")
    assert evaluate_word(C6, "a1a2-1") == C6.mul(a1, C6.inverse(a2))
    assert evaluate_word(C6, "a22") == C6.power(a2, 2)


def test_masks_inverse_and_translates():
    H = dihedral_group(5)
    S = connection_set(H, "1,a,b")
    assert inverse_mask(H, inverse_mask(H, S)) == S
    symm = connection_set(H, "a,a-1")
    assert inverse_mask(H, symm) == symm


def test_element_index_ordering_is_documented_normal_form():
    # Dihedral(n): a^i b^j at index 2i+j; MpMN(p,m,n): a^i b^j at i*p^n + j
    D = dihedral_group(4)
    assert D.gen("a") == 2 and D.gen("b") == 1
    M = mp_group(2, 2, 1)
    assert M.gen("a") == 2 and M.gen("b") == 1 and M.gen("c") == 4
    Q = quaternion_group()
    assert Q.gen("i") == 4 and Q.gen("j") == 2
    # the semidirect-product tables, pinned by a short hash of mult
    pinned = {
        "MillerMoreno(3,1,2,1)": "adb4c0df0a6c", "MillerMoreno(5,1,2,1)": "58cf06e3a129",
        "MillerMoreno(2,2,3,1)": "ea64ef3f07c6", "MillerMoreno(3,1,2,2)": "926d2a06c37d",
        "MillerMoreno(7,1,2,1)": "8f7e47a51378", "MillerMoreno(5,1,2,2)": "ef347cd62f37",
        "MillerMoreno(7,1,3,1)": "46bceffd9d4d", "MillerMoreno(11,1,2,1)": "e100fe49b777",
        "MillerMoreno(3,1,2,3)": "9808d3a45512", "MillerMoreno(7,1,2,2)": "c4017491e5fe",
        "MillerMoreno(2,2,3,2)": "e2da6225c503", "MillerMoreno(5,1,2,3)": "0e41712a906b",
        "Presented(x,y,z)": "ea64ef3f07c6", "Presented(x,y,z,u)": "3138c767c5bc",
        "Presented(x,y,z,v,w)": "46c42780f86c",
        "Dihedral(2)": "03dc126565fc", "Dihedral(3)": "adb4c0df0a6c",
        "Dihedral(4)": "ce55dc556e0e", "Dihedral(5)": "58cf06e3a129",
        "Dihedral(6)": "15ffbe6a35d5", "Dihedral(7)": "8f7e47a51378",
        "Dihedral(8)": "4a7f5458b322", "Dihedral(9)": "9318ebf2accb",
        "Dihedral(10)": "a358c2bf7907", "Dihedral(11)": "e100fe49b777",
        "Dihedral(12)": "4cfb012d309f", "Dihedral(13)": "c20f0131a5f0",
        "Dihedral(14)": "cc30dcd168fa", "Dihedral(15)": "a79954a5381b",
        "MpMN(2,2,1)": "ce55dc556e0e", "MpMN(2,2,2)": "7e4650eb783f",
        "MpMN(2,3,1)": "6b257eb3bd06", "MpMN(3,2,1)": "a2d6d8e46b39",
        "MpMN(2,3,2)": "377efab8e83b",
    }
    families = ("MillerMoreno", "Presented", "Dihedral", "MpMN")
    built = [H for H in constructor_catalog(30) if H.tag.split("(")[0] in families]
    built += [group_from_spec(c.group) for c in CATALOG if c.group["family"] in families]
    hashes = {H.tag: hashlib.sha256(repr(H.mult).encode()).hexdigest()[:12] for H in built}
    assert hashes == pinned


def test_tables_outside_the_constructor_catalog_are_pinned():
    # the shipped presentations, one-generator presentations and explicit
    # action matrices, pinned by a short hash of (tag, gens, mult)
    def digest(H):
        return hashlib.sha256(repr((H.tag, H.gens, H.mult)).encode()).hexdigest()[:12]

    built = {name: digest(group_from_spec(spec)) for name, spec in
             (("A4", A4_SPEC), ("Z23_Z7", Z23_Z7_SPEC), ("Z24_Z5", Z24_Z5_SPEC))}
    built.update((f"x^{k}", digest(presented_group(1, ["x" * k]))) for k in (1, 2, 5, 12))
    for args, matrix in (((2, 2, 3, 1), [[0, 1], [1, 1]]), ((2, 2, 3, 2), [[1, 1], [1, 0]]),
                         ((7, 1, 3, 1), [[4]]), ((3, 1, 2, 2), [[2]]),
                         ((2, 3, 7, 1), [[0, 0, 1], [1, 0, 1], [0, 1, 0]])):
        built[f"MillerMoreno{args}"] = digest(miller_moreno_group(*args, matrix=matrix))
    assert built == {
        "A4": "e90990d76fb2", "Z23_Z7": "cce3ba878348", "Z24_Z5": "da11dc81cad9",
        "x^1": "e9782f4f5067", "x^2": "28ebbac7a355", "x^5": "fd5e003a456e",
        "x^12": "08dba2af0ba1",
        "MillerMoreno(2, 2, 3, 1)": "b31fa4d22760", "MillerMoreno(2, 2, 3, 2)": "c03943037286",
        "MillerMoreno(7, 1, 3, 1)": "4bbe3d394526", "MillerMoreno(3, 1, 2, 2)": "3eeaf59c1ee2",
        "MillerMoreno(2, 3, 7, 1)": "ccd33100ed79",
    }


@pytest.mark.parametrize("args, matrix, message", [
    ((2, 2, 3, 1), [[1, 0], [0, 1]], "action matrix order is a proper divisor of q"),
    ((2, 2, 3, 1), [[0, 0], [0, 0]], "action matrix does not have order q"),
    ((7, 2, 3, 1), [[1, 0], [0, 2]], "action has a nonzero fixed vector"),
    ((7, 2, 3, 1), [[1, 0], [0, 6]], "action matrix order is a proper divisor of q"),
    ((7, 1, 3, 1), [[3]], "action matrix does not have order q"),
    ((2, 2, 3, 1), [[1, 1]], "action matrix must be n x n"),
    ((2, 2, 3, 1), [[1, 1], [0]], "action matrix must be n x n"),
])
def test_refused_action_matrices_keep_their_messages(args, matrix, message):
    with pytest.raises(GroupConstructionError) as info:
        miller_moreno_group(*args, matrix=matrix)
    assert str(info.value) == message


def test_random_catalog_axiom_spotchecks():
    rng = random.Random(7)
    for H in small_catalog():
        n = H.order
        for _ in range(50):
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            assert H.mul(H.mul(x, y), z) == H.mul(x, H.mul(y, z))
            assert H.mul(x, H.inverse(x)) == 0
