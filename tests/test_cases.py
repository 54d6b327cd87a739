import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from haarcay.automorphisms import Certificate, cayley_status
from haarcay.bicayley import BiCayleyHints
from haarcay.cases import (
    CASE_INDEX,
    anchored_class_representatives,
    check_quotient_obstruction,
    constructor_catalog,
    enumerate_haar,
    inner_abelian_family_member,
    inner_abelian_scan,
    reproduce,
    reproduce_all,
    translate_free,
    verify_certificate,
)
from haarcay.graphs import Graph, cycle_graph, haar_graph, write_edge_list
from haarcay.groups import (
    GroupTable,
    connection_set,
    cyclic_group,
    dihedral_group,
    elements_of,
    group_automorphisms,
    group_from_spec,
    is_inner_abelian,
    mask_of,
    miller_moreno_group,
    quaternion_group,
    quotient,
    subgroup_generated,
)

from oracles import (
    all_subgroups,
    reference_class,
    reference_class_representatives,
    uncapped_is_inner_abelian,
)


def _cli_env() -> dict:
    """The environment for running ``python -m haarcay.cli`` in a
    subprocess: this package's source first on ``PYTHONPATH``."""
    import haarcay
    env = dict(os.environ)
    src = str(Path(haarcay.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def subgroup_table(H: GroupTable, mask: int) -> GroupTable:
    """Restrict the multiplication table to a subgroup (oracle-style)."""
    elems = sorted(elements_of(mask))
    index = {e: i for i, e in enumerate(elems)}
    mult = [[index[H.mult[a][b]] for b in elems] for a in elems]
    gens = [(f"g{i}", index[e]) for i, e in enumerate(elems[1:4], start=1)]
    return GroupTable(mult, gens=gens, tag=f"{H.tag}|sub{len(elems)}")


def test_reproduce_unknown_case_lists_valid_ids():
    with pytest.raises(KeyError, match="m3111-not-vt"):
        reproduce("no-such-case")


def test_reproduce_single_cases():
    for cid in ("m3111-not-vt", "m2211-not-vt", "z3-z4-not-vt"):
        report = reproduce(cid)
        assert report["pass"], report


def test_translate_free_full_set_fails():
    H = dihedral_group(4)
    assert not translate_free(H, (1 << H.order) - 1)


def test_obstruction_full_quotient_set_is_inconclusive():
    H = miller_moreno_group(5, 1, 2, 3)
    N = subgroup_generated(H, 1 << H.power(H.gen("b"), 4))
    Q, _ = quotient(H, N)
    report = check_quotient_obstruction(H, N, (1 << Q.order) - 1)
    assert not report.translate_free
    assert report.conclusion == "inconclusive"
    assert report.blowup_isomorphic is True
    assert report.to_json_dict()["blowup_isomorphic"] is True


def test_obstruction_m232_confirmed():
    H = __import__("haarcay.groups", fromlist=["mp_group"]).mp_group(2, 3, 2)
    N = subgroup_generated(H, 1 << H.power(H.gen("b"), 2))
    Q, _ = quotient(H, N)
    assert Q.order == 16
    qset = connection_set(Q, "1,a,a-1,b,ab")
    report = check_quotient_obstruction(H, N, qset)
    assert report.conclusion == "not_in_bc"
    assert report.blowup_isomorphic


def test_obstruction_raises_when_blowup_check_fails(monkeypatch):
    import haarcay.cases
    H = miller_moreno_group(7, 1, 2, 2)
    normal = subgroup_generated(H, connection_set(H, "b2"))
    Q, _ = quotient(H, normal)
    qset = connection_set(Q, "1,a,a3,b,ab,a2b,a4b")
    assert check_quotient_obstruction(H, normal, qset).conclusion == "not_in_bc"
    lex_product = haarcay.cases.lex_product

    def one_edge_short(g1, g2):
        blown = lex_product(g1, g2)
        u, v = blown.edges()[0]
        blown.rows[u] &= ~(1 << v)
        blown.rows[v] &= ~(1 << u)
        return blown

    monkeypatch.setattr(haarcay.cases, "lex_product", one_edge_short)
    with pytest.raises(RuntimeError, match="blow-up consistency check failed") as info:
        check_quotient_obstruction(H, normal, qset)
    assert not isinstance(info.value, AssertionError)


def test_obstruction_runs_one_automorphism_search(monkeypatch):
    """The blow-up is checked through its coset map, so the quotient's
    vertex-transitivity check is the only automorphism search."""
    import haarcay.automorphisms as automorphisms
    import haarcay.cases as cases
    calls = []
    search = automorphisms.automorphism_group

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return search(*args, **kwargs)

    monkeypatch.setattr(automorphisms, "automorphism_group", counting)
    monkeypatch.setattr(cases, "automorphism_group", counting)
    report = reproduce("obstruct-z7-z4")
    assert report["pass"] and report["certificate"]["blowup_isomorphic"] is True
    assert calls == [28]


@pytest.mark.parametrize("case_id", ["a4-not-vt", "obstruct-z7-z4"])
def test_catalog_intransitivity_passes_the_certificate_check(monkeypatch, case_id):
    """A catalog case that reads "not vertex-transitive" off the seeded
    search's orbits first checks them as a non-Cayley certificate, so orbits
    that are not an equitable partition raise instead of giving a verdict."""
    import dataclasses
    import haarcay.cases as cases
    search = cases.automorphism_group

    def vertex_0_split_off(graph, *args, **kwargs):
        return dataclasses.replace(search(graph, *args, **kwargs),
                                   orbits=[[0], list(range(1, graph.n))])

    monkeypatch.setattr(cases, "automorphism_group", vertex_0_split_off)
    with pytest.raises(RuntimeError, match="not an equitable partition"):
        reproduce(case_id)


def test_reproduce_all_reports_the_work_of_every_case(capsys):
    """Every case runs at least one automorphism search, the obstruction
    cases included (theirs is on the quotient's Haar graph)."""
    from haarcay.cli import main

    assert main(["reproduce", "--all"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert sorted(row["case_id"] for row in rows) == sorted(CASE_INDEX)
    for row in rows:
        assert row["nodes_explored"] > 0, row["case_id"]


def test_reproduce_under_python_O_matches_normal_run():
    """The runtime checks are explicit raises, so stripping asserts with -O
    changes no output, and a group order that is wrong still raises."""
    env = _cli_env()
    for cid in ("d14-not-vt", "obstruct-z7-z4"):
        runs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-m", "haarcay.cli", "reproduce", cid],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            row = json.loads(proc.stdout)
            row.pop("millis")
            runs.append(row)
        assert runs[0] == runs[1], cid
        assert runs[0]["pass"]
    wrong_order = ("from haarcay.perms import PermGroup\n"
                   "try:\n"
                   "    PermGroup(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)],\n"
                   "              base_prefix=range(5), order=700)\n"
                   "except ValueError as exc:\n"
                   "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", wrong_order],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "group order 720 differs from the order 700 given"


def test_enumerate_trivial_group():
    H = cyclic_group(1)
    results = list(enumerate_haar(H))
    assert len(results) == 1
    S, cert = results[0]
    assert S == 1 and cert.verdict == "cayley"
    graph, _ = haar_graph(H, S)
    assert graph.n == 2 and graph.edge_count() == 1


def test_enumerate_dihedral3_all_cayley():
    for S, cert in enumerate_haar(dihedral_group(3)):
        assert cert.verdict == "cayley", S


def test_dedupe_soundness_random_class_members():
    rng = random.Random(8)
    H = quaternion_group()
    reps = {S: cert.verdict for S, cert in enumerate_haar(H)}
    checked = 0
    while checked < 20:
        S = (rng.randrange(1 << H.order) | 1)
        if S in reps:
            continue
        graph, _ = haar_graph(H, S)
        cert = cayley_status(graph, hints=BiCayleyHints(H, S))
        rep = min(reference_class(H, S))
        assert rep in reps
        assert cert.verdict == reps[rep], (S, rep)
        checked += 1


def test_class_representatives_partition_anchored_sets():
    H = cyclic_group(6)
    reps = anchored_class_representatives(H)
    assert all(S & 1 for S in reps)
    assert len(set(reps)) == len(reps)
    assert sum(1 for _ in reps) <= 2 ** 5


def _cyclic_spec(n: int) -> dict:
    return {"family": "Cyclic", "n": n}


# groups of order 16 with large automorphism groups (|Aut(Z2^4)| = 20,160),
# and their numbers of anchored spoke-set classes
BIG_AUT_GROUPS = [
    ({"family": "DirectProduct", "factors": [_cyclic_spec(2), _cyclic_spec(2), _cyclic_spec(4)]},
     177),
    ({"family": "DirectProduct", "factors": [{"family": "Quaternion"}, _cyclic_spec(2)]}, 162),
    ({"family": "DirectProduct", "factors": [_cyclic_spec(2)] * 4}, 31),
]


def _relabelled(H: GroupTable, rng: random.Random) -> GroupTable:
    """An isomorphic table with the identity kept at 0 and the other
    elements renamed at random."""
    n = H.order
    new = [0] + rng.sample(range(1, n), n - 1)
    mult = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mult[new[x]][new[y]] = new[H.mult[x][y]]
    return GroupTable(mult)


def test_class_representatives_of_the_trivial_aut_groups():
    # Aut(Z1) and Aut(Z2) are trivial, so the walk has no automorphism to apply
    assert anchored_class_representatives(cyclic_group(1)) == [1]
    assert anchored_class_representatives(cyclic_group(2)) == [1, 3]


def test_class_representatives_match_the_reference_walk():
    """The generator walk returns exactly the list of the walk that applies
    every automorphism, on the catalog groups up to order 12 and on three
    relabellings of each one of order 8 to 12."""
    rng = random.Random(20)
    for H in constructor_catalog(12):
        assert anchored_class_representatives(H) == reference_class_representatives(H), H.tag
        if H.order >= 8:
            for _ in range(3):
                K = _relabelled(H, rng)
                assert anchored_class_representatives(K) == reference_class_representatives(K), \
                    H.tag


def _burnside_class_count(H: GroupTable) -> int:
    """The number of anchored spoke-set classes by Burnside's lemma.  The
    maps x -> g*a(x^e), for g in H, a in Aut(H) and e = +-1, form a group G;
    the anchored members of each G-orbit of nonempty subsets of H are one
    class, so the count is (1/|G|) * sum over G of 2^(cycles) - 1.  The maps
    are distinct for distinct g and x -> a(x^e), since g is the image of the
    identity."""
    n = H.order
    linear = set(group_automorphisms(H))
    linear |= {tuple(a[H.inv[x]] for x in range(n)) for a in linear}
    total = 0
    for b in linear:
        for row in H.mult:
            p = tuple(map(row.__getitem__, b))  # x -> g * b(x), g the row's element
            unseen = set(range(n))
            cycles = 0
            while unseen:
                x = unseen.pop()
                cycles += 1
                y = p[x]
                while y != x:
                    unseen.remove(y)
                    y = p[y]
            total += 1 << cycles
    size = n * len(linear)
    assert total % size == 0
    return total // size - 1


def test_class_count_agrees_with_burnside():
    for H in constructor_catalog(16):
        assert len(anchored_class_representatives(H)) == _burnside_class_count(H), H.tag
    for spec, count in BIG_AUT_GROUPS:
        H = group_from_spec(spec)
        assert len(anchored_class_representatives(H)) == _burnside_class_count(H) == count


def test_cli_enumerate_dedupe_over_z2_to_the_4(capsys):
    """Z2^4 has 20,160 automorphisms; applying each to every anchored set
    took 17 minutes.  Its 31 classes are all Cayley (the group is abelian)."""
    from haarcay.cli import main
    spec = json.dumps(BIG_AUT_GROUPS[2][0])
    assert main(["enumerate", spec, "--dedupe"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert len(rows) == 31 and all(row["verdict"] == "cayley" for row in rows)


def test_verify_certificate_rejects_tampering():
    H = dihedral_group(3)
    S = connection_set(H, "1,a")
    graph, _ = haar_graph(H, S)
    cert = cayley_status(graph, hints=BiCayleyHints(H, S))
    assert cert.verdict == "cayley"
    assert verify_certificate(graph, cert)
    bad = list(cert.regular_generators)
    p = list(bad[0])
    p[0], p[1] = p[1], p[0]
    bad[0] = tuple(p)
    cert.regular_generators = bad
    assert not verify_certificate(graph, cert)


def test_verify_certificate_reads_generators_back_from_json():
    """JSON gives the generators back as lists; they check as the tuples do."""
    H = dihedral_group(3)
    S = connection_set(H, "1,a")
    graph, _ = haar_graph(H, S)
    out = json.loads(json.dumps(cayley_status(graph, hints=BiCayleyHints(H, S)).to_json_dict()))
    assert verify_certificate(graph, Certificate("cayley", regular_generators=out["regular_generators"]))


def test_verify_certificate_of_the_one_vertex_graph():
    # K1 is Cayley on the trivial group: its regular subgroup has no generators
    k1 = Graph(1)
    cert = cayley_status(k1)
    assert cert.verdict == "cayley" and cert.regular_generators == []
    assert verify_certificate(k1, cert)
    # ... but no generators on two vertices is a trivial, intransitive group
    assert not verify_certificate(Graph(2), Certificate("cayley", regular_generators=[]))
    assert not verify_certificate(k1, Certificate("cayley"))


def test_verify_certificate_rejects_images_outside_the_graph():
    triangle = cycle_graph(3)
    assert not verify_certificate(triangle, Certificate("cayley", regular_generators=[(5, 1, 2)]))


def test_verify_certificate_refuses_entries_that_are_not_ints():
    """A float indexes no row and a bool passes for 0 or 1, so the checker
    refuses both, and raises on neither."""
    c6 = cycle_graph(6)
    assert verify_certificate(c6, Certificate("cayley", regular_generators=[[1, 2, 3, 4, 5, 0]]))
    for gen in ([1.0, 2, 3, 4, 5, 0], [True, 2, 3, 4, 5, 0]):
        assert not verify_certificate(c6, Certificate("cayley", regular_generators=[gen]))
    assert verify_certificate(c6, Certificate("non_cayley", orbit_partition=[[0, 2, 4], [1, 3, 5]]))
    for cells in ([[0, 1, 2], [3, 4, 5.0]], [[0, 2, 4], [1, 3, 5.0]]):
        assert not verify_certificate(c6, Certificate("non_cayley", orbit_partition=cells))


def test_verify_certificate_rejects_non_equitable_partition():
    """An orbit partition is equitable, so a made-up intransitivity witness
    that is not is rejected; the check is necessary, not sufficient."""
    c5 = cycle_graph(5)
    for cells in ([[0], [1, 2, 3, 4]], [[0, 1, 2, 3, 4], []], [[0, 1, 2, 3, 4]]):
        assert not verify_certificate(c5, Certificate("non_cayley", orbit_partition=cells))
    # equitable but splitting a true orbit: C6 is vertex-transitive
    assert verify_certificate(cycle_graph(6),
                              Certificate("non_cayley", orbit_partition=[[0, 2, 4], [1, 3, 5]]))
    # every true orbit partition passes; 300-node budgets keep this fast and
    # still decide the 12 non-Cayley classes, all by their orbits
    seen = 0
    for H in constructor_catalog(12):
        for S, cert in enumerate_haar(H, ir_budget=300, regular_budget=300):
            if cert.verdict == "non_cayley":
                graph, _ = haar_graph(H, S)
                assert verify_certificate(graph, cert), (H.tag, S)
                seen += 1
    assert seen >= 12


def test_reproduce_all_builds_no_perm_group(monkeypatch):
    """Every catalog certificate is checked twice, at the exit of
    ``cayley_status`` and again on a rebuilt graph, both by closure, so the
    22 cases pass with Schreier-Sims refused outright."""
    from haarcay.perms import PermGroup

    def refuse(self, *args, **kwargs):
        raise AssertionError("a PermGroup was built")

    monkeypatch.setattr(PermGroup, "__init__", refuse)
    rows = reproduce_all()
    assert len(rows) == 22 and all(row["pass"] for row in rows)


def test_reproduce_all_deterministic_modulo_timing():
    fast = ["m3111-not-vt", "m2211-not-vt", "d14-not-vt", "z3-z4-not-vt",
            "a4-not-vt", "q8-all-connected-cayley", "dihedral-bc-6"]

    def snapshot():
        rows = []
        for r in map(reproduce, sorted(fast)):
            r.pop("millis")
            rows.append(json.dumps(r, sort_keys=True))
        return rows

    first = snapshot()
    assert [json.loads(r)["case_id"] for r in first] == sorted(fast)
    assert first == snapshot()


def test_catalog_case_ids_unique_and_claims_present():
    assert len(CASE_INDEX) == len({c.case_id for c in CASE_INDEX.values()})
    for case in CASE_INDEX.values():
        assert case.claim and case.expected


def test_inner_abelian_scan_small():
    rows = inner_abelian_scan(12)
    tags = {r["tag"] for r in rows}
    assert "Q8" in tags and "Dihedral(4)" in tags and "Dihedral(3)" in tags
    assert any(r["order"] == 12 for r in rows)  # the A4-type group
    assert inner_abelian_scan(5) == []  # only abelian groups that small


def test_capped_inner_abelian_test_agrees_with_the_uncapped_closure():
    """``is_inner_abelian`` stops each pair closure past half the group;
    closing every non-commuting pair to the end answers the same on every
    catalog group up to order 48."""
    groups = constructor_catalog(48)
    assert len(groups) > 50
    for H in groups:
        assert is_inner_abelian(H) == uncapped_is_inner_abelian(H), H.tag


def test_inner_abelian_scan_includes_order_27():
    rows = inner_abelian_scan(27)
    assert any(r["tag"] == "MpMN1(3,1,1)" for r in rows)


def test_catalog_and_scan_are_pinned():
    """The catalog's order and tables (direct products included) and the
    scan rows, hashed; the scan matches Dihedral(13), which the catalog
    families do not reach, to the MillerMoreno family."""
    catalog = [(G.tag, G.mult) for G in constructor_catalog(40)]
    assert hashlib.sha256(repr(catalog).encode()).hexdigest() == \
        "a8956973c924b21f3177df611a95fb7cdcf9fef2a9b549e28e5eb80f9f8f324a"
    rows = inner_abelian_scan(30)
    assert {"tag": "Dihedral(13)", "order": 26, "family": "MillerMoreno(13,1,2,1)"} in rows
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == \
        "757e60e8b368a604f8035c44a9b0b582df5b98c97e4a01184aedae842292f883"


def test_inner_abelian_scan_at_its_cap():
    """Orders 31 to 100 of the classification: every inner-abelian group the
    catalog builds matches a family, the dihedral groups of odd prime degree
    among them, and the scan's rows up to order 30 are unchanged."""
    rows = inner_abelian_scan(100)
    assert len(rows) == 57 and sum(r["order"] > 30 for r in rows) == 33
    assert all(r["family"] for r in rows)
    tags = {r["tag"] for r in rows}
    assert all(f"Dihedral({p})" in tags for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
    assert [r for r in rows if r["order"] <= 30] == inner_abelian_scan(30)


def test_catalog_tags_are_distinct_up_to_the_scan_cap():
    """The inner-abelian scan keeps one row per catalog group, so it
    relies on every group of ``constructor_catalog(100)`` having its own tag."""
    tags = [H.tag for H in constructor_catalog(100)]
    assert len(tags) == len(set(tags)) == 198


def test_family_member_predicate_matches_oracle():
    for H in constructor_catalog(16):
        member = inner_abelian_family_member(H)
        assert (member is not None) == is_inner_abelian(H), H.tag


def test_family_member_tries_every_prime_up_to_the_order():
    """D34 is MillerMoreno(17,1,2,1); a hand-picked prime list missed it."""
    assert inner_abelian_family_member(dihedral_group(17)) == "MillerMoreno(17,1,2,1)"


def test_bc_closed_under_subgroups_consistency():
    """Groups whose Haar graphs are all Cayley have the same property on
    their subgroups; spot-check the subgroup side directly."""
    rng = random.Random(5)
    for H in (quaternion_group(), dihedral_group(5), dihedral_group(4)):
        for mask in all_subgroups(H):
            size = mask.bit_count()
            if size in (1, H.order):
                continue
            K = subgroup_table(H, mask)
            for _ in range(3):
                S = mask_of(e for e in range(K.order) if rng.random() < 0.5) | 1
                graph, _ = haar_graph(K, S)
                cert = cayley_status(graph, hints=BiCayleyHints(K, S))
                assert cert.verdict == "cayley", (H.tag, size, S)


def test_cli_round_trips(tmp_path, capsys):
    from haarcay.cli import main

    assert main(["build-group", "Q8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 8

    edges = tmp_path / "g.txt"
    assert main(["haar", "Cyclic(3)", "--set", "1,a", "--out", str(edges)]) == 0
    assert main(["aut", str(edges)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["aut_order"] == "12" and out["vertex_transitive"]

    assert main(["status", "MpMN1(3,1,1)", "--set", "1,a,a-1,b,ab"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "non_cayley"

    assert main(["reproduce", "m2211-not-vt"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]

    assert main(["enumerate", "Dihedral(2)", "--connected"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(json.loads(ln)["verdict"] == "cayley" for ln in lines)

    assert main(["obstruct", "MillerMoreno(5,1,2,3)", "--normal", "b4",
                 "--qset", "1,a,b,ab,ab2,ab3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conclusion"] == "not_in_bc"

    assert main(["scan-inner-abelian", "--max-order", "8"]) == 0


@pytest.mark.parametrize("group, words, connected", [
    ("Cyclic(4)", "a", False), ("Cyclic(1)", "", False), ("Q8", "1,i,j", True)])
def test_cli_status_connected_is_the_graphs_own(group, words, connected, capsys):
    """``connected`` reads the Haar graph built, not <S> = H, which only
    says so when 1 is in S: Haar(Z4, {a}) is 4K2 and Haar(1, {}) is E2."""
    from haarcay.cli import main
    assert main(["status", group, "--set", words]) == 0
    assert json.loads(capsys.readouterr().out)["connected"] is connected


def test_cli_trivial_group_outputs(capsys):
    """The trivial group has no translation generators; the part swap
    alone is the certificate, and Cyclic(2)'s two classes keep their rows."""
    from haarcay.cli import main
    assert main(["status", "Cyclic(1)", "--set", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    del out["millis"]
    assert out == {"connected": True, "group": "Cyclic(1)", "nodes": 1,
                   "regular_generators": [[1, 0]], "set": [0], "verdict": "cayley",
                   "swap_witness": {"aut": [0], "kind": "part_swap", "y": 0}}
    assert main(["enumerate", "Cyclic(2)"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    for row in rows:
        del row["millis"]
    assert rows == [{"nodes": 1, "regular_generators": [[1, 0, 3, 2], [2, 3, 0, 1]], "set": s,
                     "swap_witness": {"aut": [0, 1], "kind": "part_swap", "y": 0},
                     "verdict": "cayley"} for s in ([0], [0, 1])]


def test_cli_words_over_direct_product_labels(capsys):
    """``direct_product`` labels its generators a1, a2; words over them
    parse, a1a2-1 included, so ``status`` and ``haar`` take them."""
    from haarcay.cli import main
    spec = json.dumps({"family": "DirectProduct",
                       "factors": [{"family": "Cyclic", "n": 2}, {"family": "Cyclic", "n": 3}]})
    assert main(["status", spec, "--set", "1,a1,a2-1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "cayley" and out["group"] == "Cyclic(2)xCyclic(3)"
    assert out["set"] == [0, 2, 3]
    assert main(["haar", spec, "--set", "1,a1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "12 12"


def test_cli_relators_over_uppercase_and_multi_letter_labels(capsys):
    """Relators and connection sets share one word grammar: a label is read
    whole, uppercase or several letters long, and a label's uppercase form
    is its inverse only where that is not itself a label."""
    from haarcay.cli import main
    for labels, relators, order in ((["X"], ["XX"], 2), (["ab"], ["abab"], 2),
                                    (["ab", "c"], ["ab3", "cc", "CabcAB"], 6)):
        spec = {"family": "Presented", "ngens": len(labels), "labels": labels,
                "relators": relators}
        assert main(["build-group", json.dumps(spec)]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == order
    assert main(["build-group", '{"family":"Presented","ngens":1,"relators":["x2000"]}']) == 2
    assert "exponent" in capsys.readouterr().err
    assert connection_set(quaternion_group(), "I,j-1") == connection_set(quaternion_group(),
                                                                         "i-1,J")


def test_cli_reproduce_without_arguments_lists_cases(capsys):
    from haarcay.cli import main
    assert main(["reproduce"]) == 2
    err = capsys.readouterr().err
    assert "m3111-not-vt" in err


@pytest.mark.parametrize("argv, env", [
    (["build-group", "Cyclic(1,2)"], None),
    (["build-group", "{bad"], None),
    (["status", "Q8", "--set", "1,q"], None),
    (["status", "Q8", "--set", "1,i"], "abc"),
    (["status", "Q8", "--set", "1,i"], "0"),
    (["status", "Q8", "--set", "1,i"], "-5"),
    (["scan-inner-abelian", "--max-order", "101"], None),
    (["scan-inner-abelian", "--max-order", "0"], None),
    (["scan-inner-abelian", "--max-order", "-5"], None),
    (["build-group", '{"family":"Presented","ngens":1,"relators":[1,2]}'], None),
    (["build-group", '{"family":"Presented","ngens":1,"relators":5}'], None),
    (["build-group", '{"family":"Presented","ngens":1,"relators":["xx"],"labels":5}'], None),
    (["build-group", '{"family":"DirectProduct","factors":[1]}'], None),
    (["build-group", '{"family":"DirectProduct","factors":5}'], None),
    (["build-group", '{"family":"MillerMoreno","p":2,"n":2,"q":3,"m":1,"matrix":5}'], None),
    (["build-group", '{"family":"DirectProduct","factors":{}}'], None),
    (["build-group", '{"family":"Presented","ngens":1,"relators":"xx"}'], None),
    (["build-group", '{"family":"MillerMoreno","p":2,"n":2,"q":3,"m":1,'
                     '"matrix":[[0,1],[1,0.5]]}'], None),
    (["build-group", '{"family":"Cyclic","n":3,"label":"a"}'], None),
    (["build-group", '{"family":' + "[" * 100000 + "]" * 100000 + "}"], None),
    (["build-group", '{"family":"DirectProduct","factors":[' * 400 + '{"family":"Cyclic","n":2}'
      + "]}" * 400], None),
], ids=["bad-name", "bad-json", "bad-word", "bad-budget-env", "zero-budget", "negative-budget",
        "scan-above-cap", "scan-zero", "scan-negative", "relators-ints", "relators-int",
        "labels-int", "factors-ints", "factors-int", "matrix-int", "factors-object",
        "relators-string", "matrix-float", "unknown-key", "deep-json", "deep-factors"])
def test_cli_bad_input_exits_2_with_one_line(argv, env, capsys, monkeypatch):
    from haarcay.cli import main
    if env is not None:
        monkeypatch.setenv("HAARCAY_BUDGET", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


# every FamilySpec family with its own keys, and one key no family takes
_SPEC_KEYS = {"Cyclic": ("n",), "Dihedral": ("n",), "Quaternion": (),
              "MpMN": ("p", "m", "n"), "MpMN1": ("p", "m", "n"),
              "MillerMoreno": ("p", "n", "q", "m", "matrix"),
              "Presented": ("ngens", "relators", "labels"), "DirectProduct": ("factors",)}
_ANY_KEY = sorted({k for keys in _SPEC_KEYS.values() for k in keys} | {"label"})
_SMALL = st.integers(-2, 12)
_WRONG = st.one_of(st.none(), st.booleans(), st.floats(-2, 12), st.text("xa1", max_size=3), _SMALL,
                   st.lists(_SMALL, max_size=2),
                   st.dictionaries(st.text("n", max_size=1), _SMALL, max_size=1))


@st.composite
def _family_specs(draw, depth=0):
    """FamilySpec-like JSON objects: right and wrong JSON types at every
    key, keys the family does not take, nested factors to depth 2.  Each
    deviation is drawn rarely, so most specs reach a constructor."""
    family = draw(st.sampled_from(["Nope", None, 5]) if draw(st.integers(0, 9)) == 0
                  else st.sampled_from(list(_SPEC_KEYS)))
    keys = [k for k in _SPEC_KEYS.get(family, ()) if draw(st.integers(0, 9))]
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(_ANY_KEY)))
    right = {"relators": st.lists(st.text("xyzXYab1-", max_size=5), max_size=4),
             "labels": st.lists(st.text("xyzuvwXYab", max_size=2), max_size=4),
             "matrix": st.lists(st.lists(_SMALL, max_size=3), max_size=3),
             "factors": st.lists(_family_specs(depth + 1), max_size=2) if depth < 2 else st.just([])}
    spec = {} if family is None else {"family": family}
    for k in keys:
        spec[k] = draw(_WRONG if draw(st.integers(0, 9)) == 0 else right.get(k, _SMALL))
    return spec


def test_cli_family_spec_fuzz_exits_0_or_2(monkeypatch, capsys):
    """Whatever the FamilySpec, ``build-group`` builds it (0) or refuses it
    with one line (2); it never raises.  The order cap is lowered to 64 so
    every accepted build is tiny; the refusal path above it is the same."""
    from haarcay import groups
    from haarcay.cli import main
    monkeypatch.setattr(groups, "TABLE_ORDER_CAP", 64)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(spec=_family_specs())
    def run(spec):
        assert main(["build-group", json.dumps(spec)]) in (0, 2)
        captured = capsys.readouterr()
        assert len((captured.out + captured.err).splitlines()) == 1

    run()


@pytest.mark.parametrize("text", ["", "\n\n", "3 1\n0 5\n", "3 1\n5 0\n", "3 1\n0 -1\n",
                                  "3 1\n-1 0\n", "3 1\n0 1 2\n", "3 1\n1 1\n",
                                  "2 1\n0 1\n0 1\n", "2 1\n0 1\n1 0\n", "3 2\n0 1\n0 1\n"],
                         ids=["empty", "blank", "high-v", "high-u", "negative-v", "negative-u",
                              "three-fields", "loop", "repeated-edge", "reversed-repeat",
                              "repeat-short-of-header"])
def test_cli_aut_malformed_edge_list_exits_2_with_one_line(text, tmp_path, capsys):
    from haarcay.cli import main
    edges = tmp_path / "bad.txt"
    edges.write_text(text, encoding="utf-8")
    assert main(["aut", str(edges)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "edge list" in captured.err
    if text.count("\n") == 3:          # a repeated edge: its second line is named
        assert "line 3" in captured.err and "repeated edge" in captured.err


_Z2_5 = {"family": "DirectProduct", "factors": [{"family": "Cyclic", "n": 2}] * 5}


@pytest.mark.parametrize("group, words", [("Cyclic(201)", "1,a"), (json.dumps(_Z2_5), "1,a1,a2")],
                         ids=["Cyclic(201)", "Z2^5"])
def test_cli_hinted_status_finds_a_swap_past_the_automorphism_caps(group, words, capsys):
    """Cyclic(201) is over ``AUT_TABLE_CAP`` and Z2^5 has more than
    ``AUT_SIZE_CAP`` automorphisms, so ``group_automorphisms`` refuses
    both; the pruned swap search lists none of them and finds a part swap
    whose square is a translation in a few nodes (listing Z2^5's first 10^6
    automorphisms took seconds)."""
    from haarcay.cli import main
    t0 = time.process_time()
    assert main(["status", group, "--set", words]) == 0
    assert time.process_time() - t0 < 0.5
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "cayley" and out["swap_witness"]["kind"] == "part_swap"
    H = group_from_spec(json.loads(group)) if group.startswith("{") else cyclic_group(201)
    graph, _ = haar_graph(H, connection_set(H, words))
    cert = Certificate("cayley", regular_generators=[tuple(p) for p in out["regular_generators"]])
    assert verify_certificate(graph, cert)


def test_hinted_status_over_the_automorphism_size_cap_is_decided(monkeypatch):
    """With ``AUT_SIZE_CAP`` lowered to 10, ``group_automorphisms`` refuses
    Cyclic(13), which has 12 automorphisms, and the swap search, whose node
    budget is that cap, runs out on {1, a, a^3}: its only part swaps come
    from inversion, the 12th candidate image of a.  Hinted status then has
    no part-swap certificate, and the regular stage decides.  With the cap
    restored, the certificate is found."""
    from haarcay import groups
    H = cyclic_group(13)
    S = connection_set(H, "1,a,a3")
    graph, _ = haar_graph(H, S)
    with monkeypatch.context() as m:
        m.setattr(groups, "AUT_SIZE_CAP", 10)
        with pytest.raises(ValueError, match="larger than cap"):
            group_automorphisms(H)
        cert = cayley_status(graph, BiCayleyHints(H, S))
        assert cert.verdict == "cayley" and cert.swap_witness is None
        assert verify_certificate(graph, cert)
    assert cayley_status(graph, BiCayleyHints(H, S)).swap_witness is not None


def test_cli_budget_env_yields_unknown(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HAARCAY_BUDGET", "2")
    from haarcay.cli import main
    rc = main(["status", "Dihedral(7)", "--set", "1,a,a3,b,ab,a2b,a4b"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["verdict"] == "unknown"
    assert "budget_report" in out


def test_cli_enumerate_reads_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("HAARCAY_BUDGET", "5")
    from haarcay.cli import main
    assert main(["enumerate", "Q8", "--dedupe"]) == 1
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert any(row["verdict"] == "unknown" and "budget_report" in row for row in rows)


def test_enumerate_without_dedupe_is_capped_before_the_first_verdict(capsys):
    """Without --dedupe every anchored spoke set gets a verdict, 2^17 of
    them over Dihedral(9), so the order cap of the dedupe path holds here
    too, and it stops the run before any verdict."""
    from haarcay.cli import main
    with pytest.raises(ValueError, match="order 16"):
        next(enumerate_haar(dihedral_group(9), dedupe=False))
    t0 = time.perf_counter()
    assert main(["enumerate", "Dihedral(9)"]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


def test_cli_aut_budget_env_yields_unknown(tmp_path, capsys, monkeypatch):
    from haarcay.cli import main
    edges = tmp_path / "q8.txt"
    assert main(["haar", "Q8", "--set", "1,i,j", "--out", str(edges)]) == 0
    monkeypatch.setenv("HAARCAY_BUDGET", "5")
    assert main(["aut", str(edges)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "verdict": "unknown", "vertices": 16, "nodes": 6,
        "budget_report": {"stage": "automorphism search", "budget": 5}}


def test_cli_aut_unknown_reports_the_nodes_searched(tmp_path, capsys, monkeypatch):
    """At budget 1 the search stops at its second node and says so."""
    from haarcay.cli import main
    from test_automorphisms import petersen
    edges = tmp_path / "petersen.txt"
    edges.write_text(write_edge_list(petersen()), encoding="utf-8")
    monkeypatch.setenv("HAARCAY_BUDGET", "1")
    assert main(["aut", str(edges)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "unknown" and out["nodes"] == 2


def test_cli_aut_deep_search_yields_unknown(tmp_path, capsys, monkeypatch):
    from haarcay.cli import main
    from test_automorphisms import spider
    edges = tmp_path / "spider1100.txt"
    edges.write_text(write_edge_list(spider(1100)), encoding="utf-8")
    monkeypatch.setenv("HAARCAY_BUDGET", "1200")
    assert main(["aut", str(edges)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "verdict": "unknown", "vertices": 2201, "nodes": 1201,
        "budget_report": {"stage": "automorphism search", "budget": 1200}}


def test_cli_aut_prints_the_search_order_without_schreier_sims(tmp_path, capsys, monkeypatch):
    """E2000 is one twin class, decided in one node; |Aut| = 2000! has 5,736
    digits, past Python's default int-to-str limit, and no BSGS is built."""
    import decimal
    import math

    from haarcay import automorphisms
    from haarcay.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("aut built a PermGroup")

    monkeypatch.setattr(automorphisms, "PermGroup", refuse)
    edges = tmp_path / "e2000.txt"
    edges.write_text("2000 0\n", encoding="utf-8")
    assert main(["aut", str(edges)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["aut_order"].isdigit() and len(out["aut_order"]) == 5736
    assert decimal.Decimal(out["aut_order"]) == math.factorial(2000)
    assert out["vertex_transitive"] and out["nodes"] == 1


def test_cli_refuses_an_oversize_group_in_bounded_memory():
    """``build-group 'Cyclic(1000000)'`` is refused from its parameters,
    so it exits 2 with one line on stderr inside a 1 GB address space and
    20 s; building the table first would need terabytes."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "haarcay.cli", "build-group", "Cyclic(1000000)"],
                          capture_output=True, text=True, env=_cli_env(), timeout=20,
                          preexec_fn=limit_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["haarcay: order 1000000 outside supported range 1..1024"]


def test_cli_closed_pipe_exits_141_silently():
    """A reader that stops after one line is not bad input: no message, and
    the exit status a SIGPIPE kill would give."""
    proc = subprocess.Popen([sys.executable, "-m", "haarcay.cli", "enumerate", "Dihedral(6)"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    try:
        assert json.loads(proc.stdout.readline())["verdict"]
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_tracer_counter_names_resolve_in_haarcay():
    """perfbench's tracer wraps each ``<module>.<attr>`` of its ``_COUNTERS``
    with ``getattr`` on the haarcay package, and reads ``len`` of what
    ``part_swap_maps`` returns; a rename in haarcay must not break it."""
    import ast

    import haarcay
    from haarcay.bicayley import part_swap_maps

    source = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (counters,) = [node.value for node in ast.walk(tree)
                   if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "_COUNTERS"]
    names = [ast.literal_eval(key) for key in counters.keys]
    assert len(names) >= 10
    for name in names:
        module_name, attr = name.split(".")
        assert callable(getattr(getattr(haarcay, module_name, None), attr, None)), name
    H = quaternion_group()
    assert isinstance(part_swap_maps(H, connection_set(H, "1,i,j")), list)


def test_tracer_counters_run_on_haarcay_results(monkeypatch):
    """perfbench's tracer reads its counters off what the wrapped functions
    return (``RegularSearchOutcome.group``, ``.nodes``, ``.exhausted``,
    ``PermGroup.base``, ``len`` of the part swaps, ...).  Run it over a
    generic and a hinted ``cayley_status``, ``part_swap_maps`` and one
    obstruction case: every wrapped function that ran records its counters,
    and the per-pass metrics come out for every name."""
    from haarcay import automorphisms, bicayley, cases
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer(time.perf_counter)
    tracer.install()
    try:
        start = time.perf_counter()
        assert automorphisms.cayley_status(cycle_graph(24)).verdict == "cayley"
        H = quaternion_group()
        S = connection_set(H, "1,i,j")
        graph, _ = haar_graph(H, S)
        assert automorphisms.cayley_status(graph, hints=BiCayleyHints(H, S)).verdict == "cayley"
        assert len(bicayley.part_swap_maps(H, S)) == 6
        assert cases.run_case(CASE_INDEX["obstruct-m232"])["pass"]
        passes = [[start, time.perf_counter()]]
    finally:
        tracer.uninstall()
    ran = {span[0] for span in tracer.spans}
    assert {"automorphisms.regular_subgroup_search", "perms.PermGroup",
            "bicayley.part_swap_maps", "cases.check_quotient_obstruction"} <= ran
    for name, counter in spans._COUNTERS.items():
        if counter is not None and name in ran:
            assert any(key.startswith(name + ".") for key in tracer.counters), name
    assert tracer.counters["automorphisms.regular_subgroup_search.found"] >= 1
    metrics = tracer.metrics(passes, passes, lambda start, end: 1.0)
    assert set(metrics) >= {metric for metric, _, _ in spans.METRICS}
