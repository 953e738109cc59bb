"""Module and bimodule category structures: enumeration, classes, traces."""
import importlib.util
import json
import pathlib
import sys
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistcat import algebra, cohomology, modcat
from twistcat.algebra import (
    FiniteGroup,
    coset_gset,
    cyclic_group,
    direct_product,
    disjoint_union_gset,
    point_gset,
    regular_gset,
    subgroups,
    trivial_gset,
)
from twistcat.cohomology import (UnitCochain, cohomologous, deligne_omega,
                                 differential, normalize, omega_cyclic)
from twistcat.errors import (EnumerationBoundExceeded, NotNormalizable,
                             NotTransitive, ShapeMismatch, ValidationError)
from twistcat.fusion import FusionData
from twistcat.modcat import (
    BimoduleCategoryData,
    ModuleCategoryData,
    _product_kappa,
    bimod_to_deligne,
    bimodule_trace,
    classify_indecomposable,
    deligne_to_bimod,
    equivalent_modcats,
    is_indecomposable,
    make_modcat,
    modcats_for,
    module_trace,
    regular_module_category,
    validate_bimodcat,
    validate_modcat,
)

from oracles import (S3_TABLE, oracle_differential,
                     oracle_modcat_classes_fast)


def triv_kappa(g, root=1):
    return UnitCochain.trivial(1, point_gset(g), root)


Z2 = cyclic_group(2)
F2_0 = FusionData(Z2, omega_cyclic(2, 0), triv_kappa(Z2))
F2_1 = FusionData(Z2, omega_cyclic(2, 1), triv_kappa(Z2))
PT2 = point_gset(Z2)
REG2 = regular_gset(Z2)
SIGN2 = UnitCochain(1, PT2, 2, np.array([[0], [1]]))


# ---------------------------------------------------------------------------
# enumeration counts
# ---------------------------------------------------------------------------

def test_structure_counts_on_cyclic_2():
    ms = modcats_for(F2_0, PT2)
    assert len(ms) == 1
    assert ms[0].psi.is_trivial()
    assert modcats_for(F2_1, PT2) == []
    assert len(modcats_for(F2_0, REG2)) == 1
    assert len(modcats_for(F2_1, REG2)) == 1


def test_structure_counts_match_brute_force_oracle():
    # same convention as the solver: enumerate at the solver's lifted root
    for s, expected in ((0, 1), (1, 0)):
        omega = omega_cyclic(2, s).with_root_order(4)
        exps = {(g, h, k): int(omega.exponents[g, h, k, 0])
                for g in range(2) for h in range(2) for k in range(2)}
        classes, _ = oracle_modcat_classes_fast(
            Z2.table.tolist(), Z2.inverse.tolist(), PT2.action.tolist(),
            exps, 4)
        assert classes == expected
        classes_reg, _ = oracle_modcat_classes_fast(
            Z2.table.tolist(), Z2.inverse.tolist(), REG2.action.tolist(),
            exps, 4)
        assert classes_reg == 1


def test_structure_counts_on_cyclic_4():
    z4 = cyclic_group(4)
    pt4 = point_gset(z4)
    expected_pt = {0: 1, 1: 0, 2: 0, 3: 0}
    for s in range(4):
        f = FusionData(z4, omega_cyclic(4, s), triv_kappa(z4))
        assert len(modcats_for(f, pt4)) == expected_pt[s]


def test_structure_count_on_cyclic_4_regular_carrier():
    z4 = cyclic_group(4)
    reg4 = regular_gset(z4)
    f = FusionData(z4, omega_cyclic(4, 3), triv_kappa(z4))
    got = modcats_for(f, reg4)
    assert len(got) == 1
    assert validate_modcat(got[0]).ok


def test_carrier_over_another_group_is_a_shape_mismatch():
    z3 = cyclic_group(3)
    fus = FusionData(z3, omega_cyclic(3, 1), triv_kappa(z3))
    with pytest.raises(ShapeMismatch, match="over the wrong group"):
        modcats_for(fus, REG2)


# ---------------------------------------------------------------------------
# the twist-independent caches of the enumeration
# ---------------------------------------------------------------------------

def _clear_caches():
    """Empty every cache of the cochain and enumeration layers."""
    for module in (cohomology, modcat):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _bench_workloads():
    """bench/workloads.py, loaded by path (bench is not a package)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module   # its dataclasses look it up there
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


def _psi_tables(found):
    return [(d.psi.root_order, d.psi.exponents_flat) for d in found]


def test_cached_enumeration_matches_cold_calls():
    # every carrier and twist of the benchmark, enumerated forward and in
    # reverse from empty caches, against one cold call per case
    workloads = _bench_workloads()
    cases = [(label, FusionData(grp, omega, triv_kappa(grp)), x)
             for label, grp, omega, x in workloads.modcat_cases(False)]
    cold = {}
    for label, fus, x in cases:
        _clear_caches()
        cold[label] = modcats_for(fus, x)
        assert len(cold[label]) == workloads.MODCAT_CLASSES[label], label
    for order in (cases, cases[::-1]):
        _clear_caches()
        for label, fus, x in order:
            found = modcats_for(fus, x)
            assert found == cold[label], label
            assert _psi_tables(found) == _psi_tables(cold[label]), label


def test_bound_exceeded_is_raised_on_every_call():
    # 13 trivial points of Z/2 x Z/2 carry 2^13 classes, above the bound;
    # the error is raised again, never cached as a result
    v4 = direct_product(Z2, Z2)
    fus = FusionData(v4, deligne_omega(omega_cyclic(2, 0), omega_cyclic(2, 0)),
                     triv_kappa(v4))
    x = trivial_gset(v4, 13)
    for _ in range(2):
        with pytest.raises(EnumerationBoundExceeded):
            modcats_for(fus, x)


def test_d2_is_factored_once_per_carrier(monkeypatch):
    # d2 (m^3 |X| rows) does not depend on the twist: the four associators of
    # Z/2 x Z/2 on its three coset carriers and its point factor it once per
    # carrier, and a second sweep runs no Smith form of any size (d2, the
    # subsystem normalize solves, the lattice helpers)
    v4 = direct_product(Z2, Z2)
    carriers = [coset_gset(v4, sub) for sub in subgroups(v4)
                if len(sub) in (2, 4)]
    assert [x.size for x in carriers].count(2) == 3 and len(carriers) == 4
    fusions = [FusionData(v4, deligne_omega(omega_cyclic(2, a),
                                            omega_cyclic(2, b)),
                          triv_kappa(v4))
               for a in (0, 1) for b in (0, 1)]
    rows = []
    factor = algebra.smith_normal_form

    def counting(matrix):
        rows.append(len(matrix))
        return factor(matrix)

    for module in (algebra, cohomology, modcat):
        if hasattr(module, "smith_normal_form"):
            monkeypatch.setattr(module, "smith_normal_form", counting)

    def sweep() -> tuple[int, int]:
        d2 = calls = 0
        for x in carriers:
            for fus in fusions:
                rows.clear()
                modcats_for(fus, x)
                d2 += rows.count(v4.order ** 3 * x.size)
                calls += len(rows)
        return d2, calls

    _clear_caches()
    d2, calls = sweep()
    assert d2 == 4 and calls > d2
    assert sweep() == (0, 0)


def _normalized_or_none(eta):
    try:
        return normalize(eta)
    except NotNormalizable:
        return None


def _normalize_afresh(eta):
    """normalize with its subsystem rebuilt and factored on the spot: the
    identity rows of d_{n-1} solved by solve_mod from the matrix itself."""
    n, grp = eta.degree, eta.group
    mat = cohomology.differential_matrix(grp, eta.carrier, n - 1)
    rows = cohomology._identity_positions(eta.shape, (grp.identity,) * n)
    rhs = [(-eta.exponents_flat[p]) % eta.root_order for p in rows]
    mu = algebra.solve_mod([mat[p] for p in rows], rhs, eta.root_order)
    if mu is None:
        return None
    return eta * differential(UnitCochain.from_flat(n - 1, eta.carrier,
                                                    eta.root_order, mu))


Z3, Z4, V4 = cyclic_group(3), cyclic_group(4), direct_product(Z2, Z2)
NORMALIZE_CASES = [
    (Z2, PT2, 1), (Z2, REG2, 2), (Z2, disjoint_union_gset(PT2, REG2), 3),
    (Z3, regular_gset(Z3), 2), (Z4, coset_gset(Z4, subgroups(Z4)[1]), 2),
    (V4, coset_gset(V4, subgroups(V4)[1]), 2), (V4, point_gset(V4), 3),
]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=st.sampled_from(NORMALIZE_CASES), root=st.integers(2, 8),
       gauged=st.booleans(), data=st.data())
def test_normalize_is_the_same_cold_and_warm(case, root, gauged, data):
    # a random cochain (mostly not normalizable), or a random normalized one
    # times a random coboundary: normalize gives the same cochain, or
    # NotNormalizable, from empty caches, warm, and factored afresh
    grp, x, degree = case
    shape = (grp.order,) * degree + (x.size,)
    exps = data.draw(st.lists(st.integers(0, root - 1), min_size=prod(shape),
                              max_size=prod(shape)))
    if gauged:
        for p in cohomology._identity_positions(shape, (grp.identity,) * degree):
            exps[p] = 0
        mu = data.draw(st.lists(st.integers(0, root - 1),
                                min_size=prod(shape[1:]), max_size=prod(shape[1:])))
        eta = (UnitCochain.from_flat(degree, x, root, exps)
               * differential(UnitCochain.from_flat(degree - 1, x, root, mu)))
    else:
        eta = UnitCochain.from_flat(degree, x, root, exps)
    assume(not eta.normalized)
    want = _normalize_afresh(eta)
    if gauged:
        assert want is not None
    _clear_caches()
    for _ in range(2):
        got = _normalized_or_none(eta)
        if want is None:
            assert got is None
        else:
            assert got.root_order == want.root_order
            assert got.exponents_flat == want.exponents_flat


def test_not_normalizable_cold_and_warm():
    # a unit at the identity of a 1-cochain on a point: d0 vanishes there
    eta = UnitCochain(1, PT2, 2, [[1], [0]])
    _clear_caches()
    for _ in range(2):
        with pytest.raises(NotNormalizable):
            normalize(eta)


REGULAR_PSI = pathlib.Path(__file__).parent / "fixtures" / "regular_carrier_psi.json"


def _regular_carrier_cases() -> dict:
    z4 = cyclic_group(4)
    v4 = direct_product(Z2, Z2)
    cases = {f"Z4 s={s}": FusionData(z4, omega_cyclic(4, s), triv_kappa(z4))
             for s in range(4)}
    for a in (0, 1):
        for b in (0, 1):
            omega = deligne_omega(omega_cyclic(2, a), omega_cyclic(2, b))
            cases[f"V4 s={a}{b}"] = FusionData(v4, omega, triv_kappa(v4))
    return cases


REGULAR_CASES = _regular_carrier_cases()


@pytest.mark.parametrize("label", list(REGULAR_CASES))
def test_regular_carrier_structures_are_pinned(label):
    # the exact Psi tables, in output order, that the earlier Fraction-based
    # lattice solver produced; no golden reaches these carriers
    fusion = REGULAR_CASES[label]
    want = json.loads(REGULAR_PSI.read_text())[label]
    got = modcats_for(fusion, regular_gset(fusion.group))
    assert [{"root_order": d.psi.root_order, "exponents": d.psi.exponents.tolist()}
            for d in got] == want


def test_regular_structure_validates_for_every_cyclic_twist():
    for n, s in [(2, 0), (2, 1), (3, 1), (4, 1), (4, 3)]:
        g = cyclic_group(n)
        f = FusionData(g, omega_cyclic(n, s), triv_kappa(g))
        m = regular_module_category(f)
        assert validate_modcat(m).ok
    m_tw = modcats_for(F2_1, REG2)[0]
    assert validate_modcat(m_tw).ok
    assert not m_tw.psi.is_trivial()


# ---------------------------------------------------------------------------
# indecomposability and classification
# ---------------------------------------------------------------------------

def test_classification_of_regular_structure():
    m_reg = regular_module_category(F2_0)
    assert is_indecomposable(m_reg)
    cls = classify_indecomposable(m_reg)
    assert cls.subgroup.elements == (0,)
    assert cls.psi.is_trivial()
    assert cls.subgroup_class_rep == (0,)


def test_decomposable_carrier_is_rejected():
    union = disjoint_union_gset(PT2, PT2)
    m_u = make_modcat(F2_0, union, UnitCochain.trivial(2, union, 1))
    assert not is_indecomposable(m_u)
    with pytest.raises(NotTransitive):
        classify_indecomposable(m_u)


def test_point_structure_classifies_to_full_subgroup():
    m_pt = make_modcat(F2_0, PT2, UnitCochain.trivial(2, PT2, 1))
    cls = classify_indecomposable(m_pt)
    assert cls.subgroup.elements == (0, 1)


def test_classification_takes_the_least_conjugate_as_class_rep():
    # S3 acting on its cosets of the order-2 subgroup with the largest
    # elements: the stabilizer is that subgroup, its class rep the least one
    s3 = FiniteGroup(S3_TABLE)
    order2 = [s for s in subgroups(s3) if len(s) == 2]
    fus = FusionData(s3, UnitCochain.trivial(3, point_gset(s3), 1),
                     triv_kappa(s3))
    x = coset_gset(s3, order2[-1])
    cls = classify_indecomposable(
        make_modcat(fus, x, UnitCochain.trivial(2, x, 1)))
    assert cls.subgroup.elements == order2[-1].elements
    assert cls.subgroup_class_rep == order2[0].elements != order2[-1].elements
    assert cls.psi.is_trivial()


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalence_finds_witness_on_regular_carrier():
    m_reg = regular_module_category(F2_0)
    only = modcats_for(F2_0, REG2)[0]
    witness = equivalent_modcats(only, m_reg)
    assert witness is not None
    f_iso, mu = witness
    assert sorted(f_iso) == [0, 1]


def test_equivalence_distinguishes_carriers_and_twists():
    m_reg = regular_module_category(F2_0)
    m_pt = make_modcat(F2_0, PT2, UnitCochain.trivial(2, PT2, 1))
    assert equivalent_modcats(m_pt, m_reg) is None
    assert equivalent_modcats(m_reg, regular_module_category(F2_1)) is None


def test_equivalence_absorbs_integer_extension_class():
    # psi(1,1) = -1 over the trivial associator: equivalent to the trivial
    # structure, but the witness mu needs the lifted root order 4
    extension_class = UnitCochain(2, PT2, 2, np.array([[[0], [0]], [[0], [1]]]))
    m_ext = make_modcat(F2_0, PT2, extension_class)
    m_pt = make_modcat(F2_0, PT2, UnitCochain.trivial(2, PT2, 1))
    witness = equivalent_modcats(m_ext, m_pt)
    assert witness is not None
    assert witness[1].root_order == 4


# ---------------------------------------------------------------------------
# module traces
# ---------------------------------------------------------------------------

def test_module_trace_signs_and_existence():
    f_sgn = FusionData(Z2, omega_cyclic(2, 0), SIGN2)
    tr = module_trace(regular_module_category(f_sgn))
    assert tr is not None
    assert tr.sign(0) == 1 and tr.sign(1) == -1
    assert tr.unit(1).root_order == 2
    m_sgn_pt = make_modcat(f_sgn, PT2, UnitCochain.trivial(2, PT2, 1))
    assert module_trace(m_sgn_pt) is None
    m_pt = make_modcat(F2_0, PT2, UnitCochain.trivial(2, PT2, 1))
    assert module_trace(m_pt) is not None


# ---------------------------------------------------------------------------
# bimodule structures and the product-category dictionary
# ---------------------------------------------------------------------------

def make_product_setting(sg, sh, kappa_g, kappa_h):
    fg = FusionData(Z2, omega_cyclic(2, sg), kappa_g)
    fh = FusionData(Z2, omega_cyclic(2, sh), kappa_h)
    prod = direct_product(Z2, Z2)
    fusion_d = FusionData(prod, deligne_omega(fg.omega, fh.omega),
                          _product_kappa(fg, fh))
    return fg, fh, fusion_d


@pytest.mark.parametrize("sg,sh", [(0, 0), (1, 0), (1, 1)])
def test_bimodule_round_trip_is_exact(sg, sh):
    fg, fh, fusion_d = make_product_setting(sg, sh, SIGN2, triv_kappa(Z2))
    m_d = regular_module_category(fusion_d)
    b = deligne_to_bimod(m_d, fg, fh)
    report = validate_bimodcat(b)
    assert report.ok, report.failures[:2]
    m_back = bimod_to_deligne(b)
    b2 = deligne_to_bimod(m_back, fg, fh)
    assert b2.psi == b.psi and b2.phi == b.phi and b2.omega_mid == b.omega_mid
    m_back2 = bimod_to_deligne(b2)
    assert np.array_equal(m_back.psi.exponents, m_back2.psi.exponents)
    assert m_back.psi.root_order == m_back2.psi.root_order
    assert cohomologous(m_back.psi, m_d.psi)
    assert bimodule_trace(b) is not None


def test_bimodule_trace_uses_inverted_right_character():
    fg, fh, fusion_d = make_product_setting(0, 0, SIGN2, SIGN2)
    m_d = regular_module_category(fusion_d)
    b = deligne_to_bimod(m_d, fg, fh)
    tr = bimodule_trace(b)
    # the product character is kappa_G(g) * kappa_H(h)^-1
    assert [tr.sign(x) for x in range(4)] == [1, -1, -1, 1]


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------

def test_validation_reports_name_the_failing_condition():
    with pytest.raises(ValidationError):
        make_modcat(F2_1, PT2, UnitCochain.trivial(2, PT2, 1))
    report = validate_modcat(
        ModuleCategoryData(F2_1, PT2, UnitCochain.trivial(2, PT2, 1)))
    assert not report.ok and report.checked > 0 and report.failures
    assert report.failures[0]["condition"] == "2cocycle"
    assert {"condition", "tuple", "lhs", "rhs"} <= set(report.failures[0])

    unnorm = UnitCochain(2, PT2, 2, np.array([[[1], [0]], [[0], [0]]]))
    report2 = validate_modcat(ModuleCategoryData(F2_0, PT2, unnorm))
    assert not report2.ok
    assert report2.failures[0]["condition"] == "psi_normalized"


def test_validation_report_counts_failures_beyond_the_samples():
    # a random Psi on the regular Z/3 carrier fails far more than 20 tuples:
    # the report states the exact total and keeps the first 20 as samples
    z3 = cyclic_group(3)
    fus = FusionData(z3, omega_cyclic(3, 1), triv_kappa(z3))
    reg = regular_gset(z3)
    exps = np.random.default_rng(7).integers(0, 3, size=(3, 3, 3))
    report = validate_modcat(
        ModuleCategoryData(fus, reg, UnitCochain(2, reg, 3, exps)))

    ident = z3.identity
    norm_mask = np.zeros(exps.shape, dtype=bool)
    norm_mask[ident] = exps[ident] != 0
    norm_mask[:, ident] = exps[:, ident] != 0
    d_psi = oracle_differential(
        {(g, h, x): int(exps[g, h, x]) for g in range(3) for h in range(3)
         for x in range(3)}, 2,
        [[z3.op(g, h) for h in range(3)] for g in range(3)],
        [z3.inv(g) for g in range(3)], reg.action.tolist(), 3)
    omega = fus.omega.exponents[..., 0]
    cocycle_mask = np.zeros((3, 3, 3, 3), dtype=bool)
    for (g, h, k, x), val in d_psi.items():
        cocycle_mask[g, h, k, x] = (val + omega[g, h, k]) % 3 != 0

    total = np.count_nonzero(norm_mask) + np.count_nonzero(cocycle_mask)
    assert total > 20
    assert not report.ok and report.failed == total
    first = ([tuple(int(v) for v in p) for p in np.argwhere(norm_mask)]
             + [tuple(int(v) for v in p) for p in np.argwhere(cocycle_mask)])
    assert [f["tuple"] for f in report.failures] == first[:20]
