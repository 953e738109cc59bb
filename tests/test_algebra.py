"""Finite groups, G-sets, and integer linear algebra mod N."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistcat.algebra import (
    FiniteGroup,
    GSet,
    Subgroup,
    characters,
    conjugate,
    coset_gset,
    cyclic_group,
    direct_product,
    disjoint_union_gset,
    gset_isomorphisms,
    is_transitive,
    opposite_group,
    orbits,
    point_gset,
    product_embeddings,
    product_gset,
    regular_gset,
    restrict_gset,
    smith_normal_form,
    solve_mod,
    stabilizer,
    subgroups,
    trivial_gset,
)
from twistcat.errors import NoIdentity, NoInverse, NotAssociative

from oracles import (
    D4_TABLE,
    Q8_TABLE,
    S3_TABLE,
    cyclic_table,
    dense_snf,
    oracle_characters,
    oracle_gset_isomorphisms,
    oracle_orbits,
    oracle_snf_diagonal,
    oracle_stabilizer,
    oracle_subgroups,
    oracle_gset_isomorphisms,
    point_action,
    regular_action,
    table_identity,
    table_inverse,
)


def klein_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_cyclic_group_matches_reference_table():
    for n in range(1, 9):
        grp = cyclic_group(n)
        assert grp.order == n
        assert grp.table.tolist() == cyclic_table(n)
        assert grp.identity == table_identity(cyclic_table(n))
        assert grp.inverse.tolist() == table_inverse(cyclic_table(n))
        assert grp.op(1 % n, n - 1) == grp.identity if n > 1 else True
        for g in grp.elements():
            assert grp.op(g, grp.inv(g)) == grp.identity


def test_group_table_validation():
    with pytest.raises(NoIdentity):
        FiniteGroup([[0, 0], [0, 0]])
    with pytest.raises(NotAssociative):
        # quasigroup without associativity: identity 0, but 1*(1*1) != (1*1)*1
        FiniteGroup([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 7]])


def test_nonabelian_groups_are_accepted():
    for table, order in ((S3_TABLE, 6), (D4_TABLE, 8), (Q8_TABLE, 8)):
        grp = FiniteGroup(table)
        assert grp.order == order and grp.identity == 0
        assert not np.array_equal(grp.table, grp.table.T)


def test_commutative_loop_is_not_a_group():
    # identity 0 and two-sided inverses, commutative, but
    # (2*2)*3 = 4*3 = 0 while 2*(2*3) = 2*5 = 1
    with pytest.raises(NotAssociative):
        FiniteGroup([[0, 1, 2, 3, 4, 5],
                     [1, 0, 3, 2, 5, 4],
                     [2, 3, 4, 5, 0, 1],
                     [3, 2, 5, 4, 1, 0],
                     [4, 5, 0, 1, 3, 2],
                     [5, 4, 1, 0, 2, 3]])


SMALL_GROUP_TABLES = [cyclic_table(n) for n in range(1, 7)] + [
    klein_group().table.tolist(), S3_TABLE, D4_TABLE, Q8_TABLE]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_relabelled_group_tables_are_accepted(data):
    table = data.draw(st.sampled_from(SMALL_GROUP_TABLES))
    n = len(table)
    perm = data.draw(st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[perm[i]][perm[j]] = perm[table[i][j]]
    grp = FiniteGroup(relabelled)
    assert grp.identity == perm[0]
    assert grp.order == n


def _brute_associative(table) -> bool:
    n = len(table)
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i, j, k in itertools.product(range(n), repeat=3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_tables_with_identity_and_inverses_are_groups_iff_associative(data):
    n = data.draw(st.integers(2, 4))
    table = [list(range(n))] + [
        [i] + data.draw(st.lists(st.integers(0, n - 1), min_size=n - 1,
                                 max_size=n - 1))
        for i in range(1, n)]
    # every element has a two-sided inverse
    assume(all(any(table[i][j] == 0 == table[j][i] for j in range(n))
               for i in range(n)))
    if _brute_associative(table):
        assert FiniteGroup(table).order == n
    else:
        with pytest.raises(NotAssociative):
            FiniteGroup(table)


def test_monoid_without_inverses_is_rejected():
    # {0,1} under multiplication: identity is 1, 0 has no inverse
    with pytest.raises((NoInverse, NoIdentity)):
        FiniteGroup([[0, 0], [0, 1]])


def test_direct_product_and_embeddings():
    g = cyclic_group(2)
    h = cyclic_group(3)
    prod = direct_product(g, h)
    assert prod.order == 6
    emb_g, emb_h = product_embeddings(g, h)
    # index convention: (a, b) -> a * |H| + b
    assert [int(v) for v in emb_g] == [0, 3]
    assert [int(v) for v in emb_h] == [0, 1, 2]
    for a in g.elements():
        for b in g.elements():
            assert prod.op(int(emb_g[a]), int(emb_g[b])) == int(emb_g[g.op(a, b)])
    for a in h.elements():
        for b in h.elements():
            assert prod.op(int(emb_h[a]), int(emb_h[b])) == int(emb_h[h.op(a, b)])
    # the two factors commute inside the product
    for a in g.elements():
        for b in h.elements():
            assert prod.op(int(emb_g[a]), int(emb_h[b])) == \
                prod.op(int(emb_h[b]), int(emb_g[a]))


def test_element_order_and_exponent():
    grp = cyclic_group(6)
    assert [grp.element_order(g) for g in grp.elements()] == [1, 6, 3, 2, 3, 6]
    assert grp.exponent() == 6
    assert klein_group().exponent() == 2


def test_opposite_group():
    grp = direct_product(cyclic_group(2), cyclic_group(4))
    opp = opposite_group(grp)
    for a in grp.elements():
        for b in grp.elements():
            assert opp.op(a, b) == grp.op(b, a)


def test_subgroups_match_oracle():
    # (Z/2)^4 and its 67 subgroups: the whole group needs four generators
    nonabelian = tuple(FiniteGroup(t) for t in (S3_TABLE, D4_TABLE, Q8_TABLE))
    rank_four = direct_product(klein_group(), klein_group())
    for grp in (cyclic_group(4), cyclic_group(6), klein_group(),
                rank_four) + nonabelian:
        found = sorted(tuple(s.elements) for s in subgroups(grp))
        assert found == oracle_subgroups(grp.table.tolist())


@pytest.mark.parametrize("seed", range(3))
def test_subgroups_are_complete_under_any_labelling(seed):
    # an element inside an extension of prime index is not adjoined again;
    # Z/6 x Z/2, Z/4 x Z/4 and D4 have extensions of composite index, where
    # skipping every element of a larger extension loses subgroups under
    # some labellings of the elements
    rng = np.random.default_rng(seed)
    for grp in (direct_product(cyclic_group(6), cyclic_group(2)),
                direct_product(cyclic_group(4), cyclic_group(4)),
                FiniteGroup(D4_TABLE)):
        table = grp.table.tolist()
        label = [int(v) for v in rng.permutation(len(table))]
        back = {v: i for i, v in enumerate(label)}
        relabelled = [[label[table[back[a]][back[b]]] for b in range(len(table))]
                      for a in range(len(table))]
        found = [tuple(s.elements) for s in subgroups(FiniteGroup(relabelled))]
        assert found == sorted(oracle_subgroups(relabelled),
                               key=lambda e: (len(e), e))


def test_subgroup_helpers():
    grp = cyclic_group(4)
    sub = Subgroup(grp, (0, 2))
    assert sub.contains(2) and not sub.contains(1)
    inner = sub.to_group()
    assert inner.order == 2
    assert len(sub) == 2
    v4 = klein_group()
    subs = [s for s in subgroups(v4) if len(s.elements) == 2]
    assert len(subs) == 3
    assert not conjugate(subs[0], subs[1])  # abelian: conjugacy = equality
    assert conjugate(subs[0], subs[0])


def _conjugacy_classes(subs: list[Subgroup]) -> set[frozenset]:
    return {frozenset(t.elements for t in subs if conjugate(s, t)) for s in subs}


def test_conjugacy_on_nonabelian_groups():
    s3 = FiniteGroup(S3_TABLE)
    order2 = [s for s in subgroups(s3) if len(s) == 2]
    assert len(order2) == 3 and len(_conjugacy_classes(order2)) == 1
    # D4: the centre, the two reflections through vertices and the two
    # through edge midpoints
    d4 = FiniteGroup(D4_TABLE)
    order2 = [s for s in subgroups(d4) if len(s) == 2]
    central = [s for s in order2
               if all(d4.op(s.elements[1], g) == d4.op(g, s.elements[1])
                      for g in d4.elements())]
    assert len(order2) == 5 and len(central) == 1
    classes = _conjugacy_classes(order2)
    assert sorted(map(len, classes)) == [1, 2, 2]
    assert frozenset([central[0].elements]) in classes
    # every subgroup of Q8 is normal
    q8_subs = subgroups(FiniteGroup(Q8_TABLE))
    assert len(_conjugacy_classes(q8_subs)) == len(q8_subs)


def test_characters_match_oracle():
    nonabelian = tuple(FiniteGroup(t) for t in (S3_TABLE, D4_TABLE, Q8_TABLE))
    for grp in (cyclic_group(3), cyclic_group(4), klein_group()) + nonabelian:
        for n_root in (2, 4):
            got = sorted(tuple(int(e) for e in chi.exponents[:, 0])
                         for chi in characters(grp, n_root))
            assert got == sorted(oracle_characters(grp.table.tolist(), n_root))


def test_characters_of_rank_four_elementary_abelian_match_oracle():
    grp = direct_product(klein_group(), klein_group())
    got = [chi.exponents_flat for chi in characters(grp, 2)]
    assert len(got) == 16
    assert got == sorted(oracle_characters(grp.table.tolist(), 2))


# ---------------------------------------------------------------------------
# G-sets
# ---------------------------------------------------------------------------

def test_standard_gsets():
    grp = cyclic_group(4)
    pt = point_gset(grp)
    assert pt.size == 1 and pt.action.tolist() == point_action(grp.table.tolist())
    reg = regular_gset(grp)
    assert reg.size == 4 and reg.action.tolist() == regular_action(grp.table.tolist())
    assert trivial_gset(grp, 3).size == 3
    sub = Subgroup(grp, (0, 2))
    cosets = coset_gset(grp, sub)
    assert cosets.size == 2
    assert is_transitive(cosets)
    assert sorted(stabilizer(cosets, 0).elements) == [0, 2]


def test_gset_validation():
    grp = cyclic_group(2)
    with pytest.raises(ValueError):
        GSet(grp, [[0, 1]])            # one row per group element
    with pytest.raises(ValueError):
        GSet(grp, [[1, 0], [0, 1]])    # identity must act trivially
    with pytest.raises(ValueError):
        GSet(cyclic_group(3), [[0, 1], [1, 0], [0, 1]])  # not an action


def test_orbits_and_stabilizers_match_oracle():
    grp = cyclic_group(4)
    sub = Subgroup(grp, (0, 2))
    x = disjoint_union_gset(point_gset(grp), coset_gset(grp, sub))
    x = disjoint_union_gset(x, regular_gset(grp))
    act = x.action.tolist()
    assert [sorted(o) for o in orbits(x)] == oracle_orbits(act)
    for p in range(x.size):
        assert sorted(stabilizer(x, p).elements) == oracle_stabilizer(act, p)
    assert not is_transitive(x)


ORBIT_TABLES = [cyclic_table(n) for n in range(1, 7)] + [
    S3_TABLE, D4_TABLE, Q8_TABLE]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_orbit_data_holds_orbits_transversals_and_stabilizers(data):
    # a union of coset spaces of a relabelled group (the identity need not
    # be 0) with its points shuffled, so that orbits interleave; the section
    # cocycle c(g, p) = t(g.p)^-1 g t(p) is derived from the transversal t
    # and must fix the base point and be a cocycle
    table = data.draw(st.sampled_from(ORBIT_TABLES))
    label = data.draw(st.permutations(range(len(table))))
    relabelled = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, ij in enumerate(row):
            relabelled[label[i]][label[j]] = label[ij]
    grp = FiniteGroup(relabelled)
    subs = subgroups(grp)
    parts = data.draw(st.lists(st.sampled_from(subs), min_size=1,
                               max_size=3))
    cosets = coset_gset(grp, parts[0])
    for sub in parts[1:]:
        cosets = disjoint_union_gset(cosets, coset_gset(grp, sub))
    perm = data.draw(st.permutations(range(cosets.size)))
    act = [[0] * cosets.size for _ in grp.elements()]
    for g in grp.elements():
        for p in range(cosets.size):
            act[g][perm[p]] = perm[cosets.apply(g, p)]
    x = GSet(grp, act)
    assert x.orbit_data is x.orbit_data
    assert [list(o.points) for o in x.orbit_data] == oracle_orbits(act)
    for orbit in x.orbit_data:
        base = orbit.points[0]
        assert orbit.stabilizer == stabilizer(x, base).elements
        t = dict(zip(orbit.points, orbit.transversal))
        for p in orbit.points:
            assert t[p] == min(g for g in grp.elements()
                               if x.apply(g, base) == p)

        def c(g, p):
            return grp.op(grp.op(grp.inv(t[x.apply(g, p)]), g), t[p])

        for g, p in itertools.product(grp.elements(), orbit.points):
            assert x.apply(c(g, p), base) == base
        for g, h, p in itertools.product(grp.elements(), grp.elements(),
                                         orbit.points):
            assert c(grp.op(g, h), p) == grp.op(c(g, x.apply(h, p)), c(h, p))


def test_product_and_restricted_gsets():
    g = cyclic_group(2)
    h = cyclic_group(2)
    prod = direct_product(g, h)
    reg = regular_gset(g)
    xy = product_gset(reg, reg)  # diagonal action on X x Y
    assert xy.group == g and xy.size == 4
    assert len(orbits(xy)) == 2
    emb_g, _ = product_embeddings(g, h)
    back = restrict_gset(regular_gset(prod), emb_g, g)
    assert back.group == g
    assert back.size == 4
    assert [sorted(o) for o in orbits(back)] == [[0, 2], [1, 3]]


def test_gset_isomorphisms_match_oracle():
    grp = cyclic_group(3)
    reg = regular_gset(grp)
    isos = gset_isomorphisms(reg, reg)
    oracle = oracle_gset_isomorphisms(
        grp.table.tolist(), reg.action.tolist(), reg.action.tolist())
    assert sorted(tuple(int(v) for v in f) for f in isos) == sorted(oracle)
    assert len(isos) == 3  # simply transitive: |Aut| = |G|
    assert gset_isomorphisms(point_gset(grp), reg) == []


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------

def test_smith_normal_form_random_matrices():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        mat = rng.integers(-9, 10, size=(rows, cols))
        snf = smith_normal_form(mat)
        d, u, v, _, _ = map(np.array, dense_snf(snf))
        assert np.array_equal(u @ mat @ v, d)
        assert abs(round(float(np.linalg.det(u)))) == 1
        assert abs(round(float(np.linalg.det(v)))) == 1
        diag = snf.diagonal()
        assert diag == oracle_snf_diagonal(mat.tolist())
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_solve_mod_random_systems():
    rng = np.random.default_rng(99)
    for _ in range(40):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        modulus = int(rng.integers(2, 13))
        mat = rng.integers(-6, 7, size=(rows, cols))
        x = rng.integers(0, modulus, size=cols)
        b = (mat @ x) % modulus
        sol = solve_mod(mat, b, modulus)
        assert sol is not None
        assert np.array_equal((mat @ np.array(sol)) % modulus, b)


def test_solve_mod_detects_infeasibility():
    # 2x = 1 (mod 4) has no solution
    assert solve_mod([[2]], [1], 4) is None
    assert solve_mod([[2]], [2], 4) == [1] or solve_mod([[2]], [2], 4) == [3]
    # 0x = b solvable iff b = 0
    assert solve_mod([[0]], [3], 6) is None
    assert solve_mod([[0]], [0], 6) == [0]
    with pytest.raises(ValueError):
        solve_mod([[1]], [0], 0)
