"""Module functors, natural transformations, adjoints, classification."""
import importlib

import numpy as np
import pytest

from twistcat._matrix import SMatrix, nullspace_basis
from twistcat.algebra import (
    cyclic_group,
    direct_product,
    disjoint_union_gset,
    point_gset,
    regular_gset,
    solve_mod,
)
from twistcat.cohomology import (
    UnitCochain,
    differential,
    differential_matrix,
    omega_cyclic,
)
from twistcat.errors import NotCyclic, ShapeMismatch, SourceTargetMismatch
from twistcat.fusion import FusionData
from twistcat.modcat import (
    product_fusion,
    bimod_to_deligne,
    deligne_to_bimod,
    make_modcat,
    modcats_for,
    regular_module_category,
)
from twistcat.modfun import (
    BimoduleFunctorData,
    ModuleFunctorData,
    NatTransData,
    action_functor,
    adjoint,
    bimodfun_to_deligne,
    classify_simple_cyclic,
    count_simple_cyclic,
    deligne_to_bimodfun,
    direct_sum,
    functor_from_equivariant,
    hom_basis,
    hom_dimension,
    identity_functor,
    invertible_hom,
    orbit_decompose,
    validate_bimodfun,
    validate_modfun,
    validate_nat_trans,
)
from twistcat.scalar import Scalar, Unit

from oracles import oracle_matrix_rank

Z2 = cyclic_group(2)
PT2 = point_gset(Z2)
REG2 = regular_gset(Z2)


def triv_kappa(g):
    return UnitCochain.trivial(1, point_gset(g), 1)


F2_0 = FusionData(Z2, omega_cyclic(2, 0), triv_kappa(Z2))
F2_1 = FusionData(Z2, omega_cyclic(2, 1), triv_kappa(Z2))
M_REG = regular_module_category(F2_0)
IDENT = identity_functor(M_REG)


# ---------------------------------------------------------------------------
# exact matrices
# ---------------------------------------------------------------------------

def test_smatrix_arithmetic():
    i2 = SMatrix.identity(2)
    assert i2.is_identity() and (i2 @ i2) == i2
    m = SMatrix([[Scalar.from_rational(2), Scalar.from_rational(1)],
                 [Scalar.from_rational(1), Scalar.from_rational(1)]])
    inv = m.inverse()
    assert inv is not None and (m @ inv).is_identity()
    sing = SMatrix([[Scalar.from_rational(1), Scalar.from_rational(2)],
                    [Scalar.from_rational(2), Scalar.from_rational(4)]])
    assert sing.inverse() is None
    bd = SMatrix.block_diag([i2, SMatrix.from_unit(Unit(4, 1))])
    assert bd.nrows == 3 and bd.entry(2, 2) == Unit(4, 1).to_scalar()
    assert bd.transpose().transpose() == bd
    assert bd.scale(Unit(2, 1)).scale(Unit(2, 1)) == bd


def test_matrix_rank_and_nullspace():
    rows = [[Scalar.from_rational(1), Scalar.from_rational(2)]]
    assert oracle_matrix_rank(rows) == 1
    ns = nullspace_basis(rows, 2)
    assert len(ns) == 1
    assert (ns[0][0] + ns[0][1] * Scalar.from_rational(2)).is_zero()


# ---------------------------------------------------------------------------
# identity / equivariant functors
# ---------------------------------------------------------------------------

def test_identity_functor_validates_with_simple_hom():
    assert validate_modfun(IDENT).ok
    assert hom_dimension(IDENT, IDENT) == 1
    basis = hom_basis(IDENT, IDENT)
    assert len(basis) == 1
    assert validate_nat_trans(basis[0]).ok


def test_equivariant_identity_map_gives_identity_functor():
    lam0 = UnitCochain.trivial(1, REG2, 1)
    f_id = functor_from_equivariant(np.arange(2), lam0, M_REG, M_REG)
    assert f_id == IDENT


def test_translation_functor():
    lam0 = UnitCochain.trivial(1, REG2, 1)
    f_tr = functor_from_equivariant(Z2.table[:, 1], lam0, M_REG, M_REG)
    assert validate_modfun(f_tr).ok
    assert list(orbit_decompose(f_tr)) == [((0, 1), (1, 0))]
    assert hom_dimension(f_tr, IDENT) == 0
    assert hom_dimension(f_tr, f_tr) == 1


def test_coboundary_shift_of_lambda_is_isomorphic():
    lam0 = UnitCochain.trivial(1, REG2, 1)
    rho = UnitCochain(0, REG2, 4, np.array([1, 3]))
    f_id = functor_from_equivariant(np.arange(2), lam0, M_REG, M_REG)
    f_id2 = functor_from_equivariant(np.arange(2), differential(rho), M_REG, M_REG)
    assert validate_modfun(f_id2).ok
    assert hom_dimension(f_id, f_id2) == 1
    witness = invertible_hom(f_id, f_id2)
    assert witness is not None
    assert validate_nat_trans(witness).ok


# ---------------------------------------------------------------------------
# direct sums and decomposition
# ---------------------------------------------------------------------------

def test_direct_sum_and_orbit_decomposition():
    lam0 = UnitCochain.trivial(1, REG2, 1)
    f_tr = functor_from_equivariant(Z2.table[:, 1], lam0, M_REG, M_REG)
    both = direct_sum([IDENT, f_tr])
    assert validate_modfun(both).ok
    assert hom_dimension(both, both) == 2
    assert np.array_equal(both.mult, np.ones((2, 2), dtype=np.int64))
    parts = orbit_decompose(both)
    assert len(parts) == 2
    resum = direct_sum(list(parts.values()))
    assert validate_modfun(resum).ok
    assert hom_dimension(resum, both) == 2


def test_direct_sum_requires_matching_endpoints():
    m_pt = make_modcat(F2_0, PT2, UnitCochain.trivial(2, PT2, 1))
    with pytest.raises(SourceTargetMismatch):
        direct_sum([IDENT, identity_functor(m_pt)])


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------

def test_adjoint_of_identity_is_identity():
    assert adjoint(IDENT) == IDENT


def test_double_adjoint_is_isomorphic_to_original():
    lam0 = UnitCochain.trivial(1, REG2, 1)
    f_tr = functor_from_equivariant(Z2.table[:, 1], lam0, M_REG, M_REG)
    adj = adjoint(f_tr)
    assert validate_modfun(adj).ok
    assert np.array_equal(adj.mult, f_tr.mult.T)
    double = adjoint(adj)
    witness = invertible_hom(f_tr, double)
    assert witness is not None
    assert validate_nat_trans(witness).ok


def test_invertible_hom_combines_singular_basis_elements():
    # End(F + F) is 2x2 matrices over each supported pair: every hom_basis
    # element is a matrix unit, so the witness must be a combination
    twice = direct_sum([IDENT, IDENT])
    basis = hom_basis(twice, twice)
    assert len(basis) == 4
    assert all(any(mat.inverse() is None for mat in eta.m.values())
               for eta in basis)
    witness = invertible_hom(twice, twice)
    assert witness is not None
    assert all(mat.inverse() is not None for mat in witness.m.values())
    assert validate_nat_trans(witness).ok
    assert invertible_hom(twice, twice).m == witness.m   # deterministic


# ---------------------------------------------------------------------------
# classification of simple functors
# ---------------------------------------------------------------------------

def classification_cases():
    z3 = cyclic_group(3)
    f3_0 = FusionData(z3, omega_cyclic(3, 0), triv_kappa(z3))
    cases = []
    for grp, fus in [(Z2, F2_0), (z3, f3_0)]:
        pt, reg = point_gset(grp), regular_gset(grp)
        union = disjoint_union_gset(pt, reg)
        m_pt = make_modcat(fus, pt, UnitCochain.trivial(2, pt, 1))
        m_rg = regular_module_category(fus)
        m_un = make_modcat(fus, union, UnitCochain.trivial(2, union, 1))
        cases += [(m_pt, m_pt), (m_rg, m_rg), (m_un, m_un)]
    return cases


def test_simple_functor_classification_counts():
    expected = [2, 2, 6, 3, 3, 8]
    for (src, tgt), want in zip(classification_cases(), expected):
        cls = classify_simple_cyclic(src, tgt)
        assert len(cls) == want
        assert count_simple_cyclic(src, tgt) == want
        for c in cls:
            assert validate_modfun(c.functor).ok
            assert hom_dimension(c.functor, c.functor) == 1


def test_simple_functors_have_identity_hom_pattern():
    src, tgt = classification_cases()[2]  # point-union square over Z/2
    cls = classify_simple_cyclic(src, tgt)
    for i, ci in enumerate(cls):
        for j, cj in enumerate(cls):
            assert hom_dimension(ci.functor, cj.functor) == int(i == j)


def test_classification_with_solver_produced_psi():
    m_tw = modcats_for(F2_1, REG2)[0]
    cls = classify_simple_cyclic(m_tw, m_tw)
    assert len(cls) == 2
    for c in cls:
        assert validate_modfun(c.functor).ok
        assert hom_dimension(c.functor, c.functor) == 1
    assert hom_dimension(cls[0].functor, cls[1].functor) == 0


def _count_arithmetic(monkeypatch) -> dict:
    """Count polynomial products, Scalar products and Scalar additions from
    here on; returns the live counts."""
    scalar_module = importlib.import_module("twistcat.scalar")
    poly_mul, mul, add = (scalar_module._poly_mul, Scalar.__mul__,
                          Scalar.__add__)
    calls = {"poly_mul": 0, "mul": 0, "add": 0}

    def counting_poly_mul(a, b):
        calls["poly_mul"] += 1
        return poly_mul(a, b)

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_add(self, other):
        calls["add"] += 1
        return add(self, other)

    monkeypatch.setattr(scalar_module, "_poly_mul", counting_poly_mul)
    for name, fn in (("__mul__", counting_mul), ("__rmul__", counting_mul),
                     ("__add__", counting_add), ("__radd__", counting_add)):
        monkeypatch.setattr(Scalar, name, fn)
    return calls


def _z3_simple_functors():
    z3 = cyclic_group(3)
    m = modcats_for(FusionData(z3, omega_cyclic(3, 1), triv_kappa(z3)),
                    regular_gset(z3))[0]
    assert m.psi.root_order == 9
    functors = [c.functor for c in classify_simple_cyclic(m, m)]
    assert len(functors) == 3
    return functors


def test_validating_simple_functors_multiplies_only_roots_of_unity(
        monkeypatch):
    # the A entries of a simple functor over cyclic G, the twists and the
    # identity blocks are all roots of unity: the blocks are compared and
    # found invertible on the exponent table, with no Scalar product or
    # addition
    functors = _z3_simple_functors()
    calls = _count_arithmetic(monkeypatch)
    for f in functors:
        assert validate_modfun(f).ok
    assert calls == {"poly_mul": 0, "mul": 0, "add": 0}


def test_bimodule_validation_and_hom_systems_need_no_polynomial_product(
        monkeypatch):
    # the Z/3 x Z/3 identity bimodule functor's A, B and hexagon checks
    # read exponent tables; the hom systems of the Z/3 simples keep their
    # roots tagged (x + 0 returns x), so elimination only rotates roots
    z3 = cyclic_group(3)
    left = FusionData(z3, omega_cyclic(3, 1), triv_kappa(z3))
    right = FusionData(z3, omega_cyclic(3, 2), triv_kappa(z3))
    reg = regular_module_category(product_fusion(left, right))
    bim = deligne_to_bimod(reg, left, right)
    bf = deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)), bim, bim)
    functors = _z3_simple_functors()
    calls = _count_arithmetic(monkeypatch)
    assert validate_bimodfun(bf).ok
    assert calls == {"poly_mul": 0, "mul": 0, "add": 0}
    for i, f in enumerate(functors):
        for j, h in enumerate(functors):
            assert hom_dimension(f, h) == int(i == j)
        assert invertible_hom(f, f) is not None
    assert calls["poly_mul"] == 0


def test_classification_rejects_noncyclic_groups():
    v4 = direct_product(Z2, Z2)
    f_v4 = FusionData(v4, UnitCochain.trivial(3, point_gset(v4), 1),
                      triv_kappa(v4))
    m = regular_module_category(f_v4)
    with pytest.raises(NotCyclic):
        count_simple_cyclic(m, m)


def test_action_functor_validates_for_cyclic_twists():
    for n, s in [(2, 0), (2, 1), (3, 1), (4, 3)]:
        g = cyclic_group(n)
        fus = FusionData(g, omega_cyclic(n, s), triv_kappa(g))
        af = action_functor(regular_module_category(fus), 0)
        assert validate_modfun(af).ok


# ---------------------------------------------------------------------------
# bimodule functors through the product category
# ---------------------------------------------------------------------------

SIGN2 = UnitCochain(1, PT2, 2, np.array([[0], [1]]))


def product_setting(sg, sh):
    fg = FusionData(Z2, omega_cyclic(2, sg), SIGN2)
    fh = FusionData(Z2, omega_cyclic(2, sh), triv_kappa(Z2))
    prod = direct_product(Z2, Z2)
    m_d = regular_module_category(product_fusion(fg, fh))
    b0 = deligne_to_bimod(m_d, fg, fh)
    return prod, b0, bimod_to_deligne(b0)


def solved_translation(prod, m_norm, a_el):
    f_map = prod.table[:, a_el]
    psi = m_norm.psi
    pulled = UnitCochain(2, m_norm.X, psi.root_order, psi.exponents[..., f_map])
    rhs = psi.inverse() * pulled
    lifted = rhs.root_order * prod.order
    d1 = differential_matrix(prod, m_norm.X, 1)
    vec = solve_mod(d1, (rhs.exponents.ravel() * prod.order) % lifted, lifted)
    assert vec is not None
    lam = UnitCochain(1, m_norm.X, lifted,
                      np.array(vec, dtype=np.int64).reshape(prod.order, -1))
    return functor_from_equivariant(f_map, lam, m_norm, m_norm)


@pytest.mark.parametrize("sg,sh", [(0, 0), (1, 0), (1, 1)])
def test_bimodule_functor_round_trips(sg, sh):
    prod, b0, m_norm = product_setting(sg, sh)

    k_id = identity_functor(m_norm)
    bf = deligne_to_bimodfun(k_id, b0, b0)
    assert validate_bimodfun(bf).ok
    assert bimodfun_to_deligne(bf) == k_id

    k_tr = solved_translation(prod, m_norm, 3)
    assert validate_modfun(k_tr).ok
    bf_tr = deligne_to_bimodfun(k_tr, b0, b0)
    assert validate_bimodfun(bf_tr).ok
    back_tr = bimodfun_to_deligne(bf_tr)
    assert back_tr == k_tr
    assert deligne_to_bimodfun(back_tr, b0, b0) == bf_tr

    eta = hom_basis(k_tr, k_tr)[0]
    assert validate_nat_trans(eta).ok


# ---------------------------------------------------------------------------
# validation failure reporting
# ---------------------------------------------------------------------------

def test_corrupted_coherence_entry_is_reported():
    bad_a = dict(IDENT.a)
    bad_a[(1, 0, 0)] = SMatrix.from_unit(Unit(4, 1))
    bad = ModuleFunctorData(M_REG, M_REG, IDENT.mult, bad_a)
    report = validate_modfun(bad)
    assert not report.ok
    assert any(f["condition"] == "cond_A" and 1 in f["tuple"]
               for f in report.failures)


def test_corrupted_functor_reports_its_exact_total():
    # scaling every A_g with g != 1 by i breaks cond_A exactly where g and h
    # are both nontrivial (i^[gh != 1] against i^2), at every supported pair
    z4 = cyclic_group(4)
    reg = regular_module_category(FusionData(z4, omega_cyclic(4, 1),
                                             triv_kappa(z4)))
    ident = identity_functor(reg)
    bad_a = {key: mat if key[0] == z4.identity
             else mat.scale(Unit(4, 1)) for key, mat in ident.a.items()}
    report = validate_modfun(ModuleFunctorData(reg, reg, ident.mult, bad_a))
    assert report.failed == (4 - 1) ** 2 * 4
    assert len(report.failures) == 20
    assert {f["condition"] for f in report.failures} == {"cond_A"}


def test_bimodule_functor_report_carries_the_left_total():
    # the same scaling of A keeps every B condition and the hexagon (A_g
    # enters both sides once), so the whole total comes from the A side
    z4, z2 = cyclic_group(4), cyclic_group(2)
    left = FusionData(z4, omega_cyclic(4, 1), triv_kappa(z4))
    right = FusionData(z2, omega_cyclic(2, 0), triv_kappa(z2))
    reg = regular_module_category(product_fusion(left, right))
    bim = deligne_to_bimod(reg, left, right)
    bf = deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)), bim, bim)
    bad_a = {key: mat if key[0] == z4.identity
             else mat.scale(Unit(4, 1)) for key, mat in bf.a.items()}
    report = validate_bimodfun(
        BimoduleFunctorData(bim, bim, bf.mult, bad_a, bf.b))
    assert report.failed == (4 - 1) ** 2 * 8
    assert len(report.failures) == 20
    assert {f["condition"] for f in report.failures} == {"cond_A"}


def test_non_invariant_multiplicities_are_reported_not_raised():
    # regular Z/2 with m = diag(2, 1): g = 1 swaps the points, so m is not
    # invariant and A_{gh} = A_h A_g(shifted by h) pairs a 2x2 block with a
    # 1x1 one wherever h = 1; each such instance is one cond_A failure
    mult = [[2, 0], [0, 1]]
    a = {(g, x, x): SMatrix.identity(2 - x) for g in (0, 1) for x in (0, 1)}
    report = validate_modfun(ModuleFunctorData(M_REG, M_REG, mult, a))
    invariant = [f for f in report.failures
                 if f["condition"] == "mult_invariant"]
    composition = [f for f in report.failures if f["condition"] == "cond_A"]
    assert [f["tuple"] for f in invariant] == [(1, 0, 0), (1, 1, 1)]
    assert [f["tuple"] for f in composition] == [
        (0, 1, 0, 0), (0, 1, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
    assert [(f["lhs"], f["rhs"]) for f in composition] == [
        ("1x1 moved block", "2x2"), ("2x2 moved block", "1x1")] * 2
    assert (report.checked, report.failed) == (22, 6)


def test_non_invariant_bimodule_multiplicities_are_reported_not_raised():
    # the same defect on a bimodule functor: every instance that pairs blocks
    # of two sizes, in cond_A, b_pentagon or the hexagon, is one failure,
    # and the identity blocks satisfy every other instance
    _, b0, _ = product_setting(0, 0)
    size = b0.X.size
    mult = [[(2 if x == 0 else 1) * (x == y) for y in range(size)]
            for x in range(size)]
    left, right = b0.left.group.elements(), b0.right.group.elements()
    a = {(g, x, x): SMatrix.identity(mult[x][x])
         for g in left for x in range(size)}
    b = {(h, x, x): SMatrix.identity(mult[x][x])
         for h in right for x in range(size)}
    report = validate_bimodfun(BimoduleFunctorData(b0, b0, mult, a, b))

    def m(x_set, g, x):
        return mult[x_set.apply(g, x)][x_set.apply(g, x)]

    xg, xh, hinv = b0.x_g, b0.x_h, b0.right.group.inv
    want = {
        "mult_invariant": sum(m(xg, g, x) != mult[x][x] for g in left
                              for x in range(size)),
        "mult_invariant_h": sum(m(xh, h, x) != mult[x][x] for h in right
                                for x in range(size)),
        "cond_A": len(left) * sum(m(xg, h, x) != mult[x][x] for h in left
                                  for x in range(size)),
        "b_pentagon": len(right) * sum(m(xh, hinv(g), x) != mult[x][x]
                                       for g in right for x in range(size)),
        "hexagon": sum(m(xh, hinv(h), x) != mult[x][x]
                       or m(xg, g, x) != mult[x][x]
                       for g in left for h in right for x in range(size)),
    }
    assert all(want.values())
    assert report.failed == sum(want.values())
    assert {f["condition"] for f in report.failures} <= set(want)


def _non_invariant_functor() -> ModuleFunctorData:
    # regular Z/2 with m = diag(2, 1) and identity blocks
    mult = [[2, 0], [0, 1]]
    a = {(g, x, x): SMatrix.identity(2 - x) for g in (0, 1) for x in (0, 1)}
    return ModuleFunctorData(M_REG, M_REG, mult, a)


def test_non_invariant_target_fails_the_nat_trans_report():
    # g = 1 moves (0, 0) to (1, 1): each instance pairs a 2x2 component
    # with a 1x1 one and is one cond_M failure, not a ShapeMismatch
    f = _non_invariant_functor()
    eta = NatTransData(f, f, {(0, 0): SMatrix.identity(2),
                              (1, 1): SMatrix.identity(1)})
    report = validate_nat_trans(eta)
    assert (report.checked, report.failed) == (4, 2)
    assert [(r["condition"], r["tuple"], r["lhs"], r["rhs"])
            for r in report.failures] == [
        ("cond_M", (1, 0, 0), "1x1 moved block", "2x2"),
        ("cond_M", (1, 1, 1), "2x2 moved block", "1x1")]


def test_a_root_scaled_component_fails_the_nat_trans_report():
    # the basis transformation of id with M_{0,0} times i: g = 1 swaps the
    # two points, so both of its instances fail, with (M A^F, A^H M')
    (eta,) = hom_basis(IDENT, IDENT)
    m = dict(eta.m)
    m[(0, 0)] = m[(0, 0)].scale(Unit(4, 1))
    report = validate_nat_trans(NatTransData(IDENT, IDENT, m))
    assert (report.checked, report.failed) == (4, 2)
    assert [(r["condition"], r["tuple"], r["lhs"], r["rhs"])
            for r in report.failures] == [
        ("cond_M", (1, 0, 0), "SMatrix[z4]", "SMatrix[1]"),
        ("cond_M", (1, 1, 1), "SMatrix[1]", "SMatrix[z4]")]


def test_a_component_moved_off_the_support_is_a_missing_entry():
    # m supported at (0, 0) alone: g = 1 moves it to (1, 1), which has no
    # component
    a = {(g, 0, 0): SMatrix.identity(1) for g in (0, 1)}
    f = ModuleFunctorData(M_REG, M_REG, [[1, 0], [0, 0]], a)
    eta = NatTransData(f, f, {(0, 0): SMatrix.identity(1)})
    report = validate_nat_trans(eta)
    assert (report.checked, report.failed) == (2, 1)
    assert report.failures == [{"condition": "cond_M", "tuple": (1, 0, 0),
                                "lhs": "missing entry", "rhs": "present"}]


def test_non_invariant_hom_system_is_a_shape_error():
    f = _non_invariant_functor()
    for fn in (hom_dimension, hom_basis, invertible_hom):
        with pytest.raises(ShapeMismatch, match=r"moves \(0, 0\) to \(1, 1\)"):
            fn(f, f)


def test_missing_coherence_entry_is_a_shape_error():
    trimmed = {k: v for k, v in IDENT.a.items() if k != (1, 0, 0)}
    with pytest.raises(ShapeMismatch):
        ModuleFunctorData(M_REG, M_REG, IDENT.mult, trimmed)
