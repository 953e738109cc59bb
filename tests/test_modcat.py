"""Module and bimodule category structures: enumeration, classes, traces."""
import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twistcat import algebra, cohomology, modcat
from twistcat.algebra import (
    FiniteGroup,
    characters,
    coset_gset,
    cyclic_group,
    direct_product,
    disjoint_union_gset,
    point_gset,
    regular_gset,
    smith_normal_form,
    solve_mod,
    subgroups,
    trivial_gset,
)
from twistcat.cohomology import (UnitCochain, cohomologous, deligne_omega,
                                 differential, inflate, is_coboundary,
                                 normalize, omega_cyclic, shapiro_restrict)
from twistcat.errors import (EnumerationBoundExceeded, NotNormalizable,
                             NotTransitive, ShapeMismatch, ValidationError)
from twistcat.fusion import FusionData
from twistcat.modcat import (
    BimoduleCategoryData,
    ModuleCategoryData,
    product_fusion,
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

from oracles import (D4_TABLE, Q8_TABLE, S3_TABLE, oracle_class_lattice,
                     oracle_differential, oracle_modcat_classes_fast)


def triv_kappa(g, root=1):
    return UnitCochain.trivial(1, point_gset(g), root)


Z2 = cyclic_group(2)
F2_0 = FusionData(Z2, omega_cyclic(2, 0), triv_kappa(Z2))
F2_1 = FusionData(Z2, omega_cyclic(2, 1), triv_kappa(Z2))
PT2 = point_gset(Z2)
REG2 = regular_gset(Z2)
SIGN2 = UnitCochain(1, PT2, 2, np.array([[0], [1]]))
Z3, Z4, V4 = cyclic_group(3), cyclic_group(4), direct_product(Z2, Z2)


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


def test_enumeration_and_coboundary_test_share_one_d2_factor():
    # modcats_for and is_coboundary on a 3-cochain over the same carrier both
    # solve against d2; its Smith form is cached on (group, carrier, degree)
    # alone, so the coboundary test reads the enumeration's factor
    _clear_caches()
    x = regular_gset(Z3)
    modcats_for(FusionData(Z3, omega_cyclic(3, 1), triv_kappa(Z3)), x)
    before = cohomology._diff_snf.cache_info()
    assert before.misses >= 2   # d1 and d2 of the carrier
    assert cohomology.is_coboundary(UnitCochain.trivial(3, x, 3))
    after = cohomology._diff_snf.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


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


# ---------------------------------------------------------------------------
# non-abelian carriers: Ostrik's counts and twisted data
# ---------------------------------------------------------------------------

S3, D4, Q8 = (FiniteGroup(t) for t in (S3_TABLE, D4_TABLE, Q8_TABLE))


def _trivial_fusion(grp):
    return FusionData(grp, UnitCochain.trivial(3, point_gset(grp), 1),
                      triv_kappa(grp))


def _one_per_conjugacy_class(grp):
    seen, out = set(), []
    for sub in subgroups(grp):
        if sub.elements not in seen:
            seen |= algebra._conjugates(sub)
            out.append(sub)
    return out


def _schur_multiplier_order(sub) -> int:
    """|H^2(H, C^x)| for a subgroup of S3, D4 or Q8: 2 for the Klein four
    group and D4 (order 4 or 8, not cyclic, several involutions), 1 for the
    cyclic groups, S3 and Q8."""
    h = sub.to_group()
    if any(h.element_order(g) == h.order for g in h.elements()):
        return 1
    involutions = sum(h.element_order(g) == 2 for g in h.elements())
    return 2 if h.order in (4, 8) and involutions > 1 else 1


# every coset carrier G/H, one H per conjugacy class; the regular carriers
# of D4 and Q8 take several seconds each and are left out, and Q8/Z(Q8) runs
# in its own interpreter below
OSTRIK_CASES = {f"{name}/{sub.elements}": (grp, sub)
                for name, grp in (("S3", S3), ("D4", D4), ("Q8", Q8))
                for sub in _one_per_conjugacy_class(grp)
                if name == "S3" or len(sub) > 1}
(Q8_CENTRE,) = [k for k, (grp, sub) in OSTRIK_CASES.items()
                if grp is Q8 and len(sub) == 2]


@pytest.mark.parametrize("label", [k for k in OSTRIK_CASES if k != Q8_CENTRE])
def test_nonabelian_coset_carriers_give_ostrik_counts(label):
    # structures on G/H over the trivial twist form a torsor over H^2(H, C^x)
    grp, sub = OSTRIK_CASES[label]
    found = modcats_for(_trivial_fusion(grp), coset_gset(grp, sub))
    assert len(found) == _schur_multiplier_order(sub)
    for data in found:
        assert validate_modcat(data).ok
        assert equivalent_modcats(data, data) is not None
    if len(found) == 2:
        assert equivalent_modcats(*found) is None


def test_quaternion_carrier_over_the_centre_enumerates_in_budget():
    # Q8 on Q8/Z(Q8), H = Z/2: one class.  A fresh interpreter under a
    # timeout, so that a hang fails this test rather than the whole suite
    sub = OSTRIK_CASES[Q8_CENTRE][1]
    script = textwrap.dedent(f"""
        from oracles import Q8_TABLE
        from twistcat.algebra import (FiniteGroup, Subgroup, coset_gset,
                                      point_gset)
        from twistcat.cohomology import UnitCochain
        from twistcat.fusion import FusionData
        from twistcat.modcat import modcats_for, validate_modcat
        q8 = FiniteGroup(Q8_TABLE)
        fus = FusionData(q8, UnitCochain.trivial(3, point_gset(q8), 1),
                         UnitCochain.trivial(1, point_gset(q8), 1))
        x = coset_gset(q8, Subgroup(q8, {sub.elements}))
        found = modcats_for(fus, x)
        print(len(found), all(validate_modcat(d).ok for d in found))
    """)
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def test_sign_pulled_back_twist_on_s3():
    # omega(g, h, k) is the nontrivial Z/2 3-cocycle at the signs of g, h
    # and k: G/H carries a structure exactly when omega restricts to a
    # coboundary on H, that is on the trivial group and on Z/3
    sign = characters(S3, 2)[1].exponents_flat
    z2 = omega_cyclic(2, 1)
    omega = UnitCochain.from_flat(3, point_gset(S3), 2, [
        z2.exponent((sign[g], sign[h], sign[k], 0))
        for g, h, k in itertools.product(S3.elements(), repeat=3)])
    fus = FusionData(S3, omega, triv_kappa(S3))
    counts = []
    for sub in subgroups(S3):
        x = coset_gset(S3, sub)
        found = modcats_for(fus, x)
        assert all(validate_modcat(d).ok for d in found)
        restricted = shapiro_restrict(inflate(omega, x))
        assert (len(found) > 0) == is_coboundary(restricted)
        counts.append(len(found))
    assert counts == [1, 0, 0, 0, 1, 0]


# ---------------------------------------------------------------------------
# the class lattice against the ambient Smith form route
# ---------------------------------------------------------------------------

def _oracle_route_cases() -> dict:
    """Carriers of Z/2, Z/3, Z/4, Z/2 x Z/2 and S3, each with its twists."""
    cases = {}
    for n in (2, 3, 4):
        grp = cyclic_group(n)
        fusions = [FusionData(grp, omega_cyclic(n, s), triv_kappa(grp))
                   for s in range(n)]
        cases[f"Z{n} pt"] = (fusions, point_gset(grp))
        cases[f"Z{n} reg"] = (fusions, regular_gset(grp))
        cases[f"Z{n} pt+reg"] = (fusions, disjoint_union_gset(
            point_gset(grp), regular_gset(grp)))
    cases["Z4 coset"] = (cases["Z4 pt"][0], coset_gset(Z4, subgroups(Z4)[1]))
    fusions = [FusionData(V4, deligne_omega(omega_cyclic(2, a),
                                            omega_cyclic(2, b)),
                          triv_kappa(V4))
               for a, b in itertools.product((0, 1), repeat=2)]
    for sub in subgroups(V4):
        cases[f"V4 {sub.elements}"] = (fusions, coset_gset(V4, sub))
    cases["V4 two points"] = (fusions, trivial_gset(V4, 2))
    for sub in _one_per_conjugacy_class(S3):
        cases[f"S3 {sub.elements}"] = ([_trivial_fusion(S3)],
                                       coset_gset(S3, sub))
    return cases


ORACLE_ROUTE_CASES = _oracle_route_cases()


@lru_cache(maxsize=None)
def _oracle_route(grp, x, lifted):
    return oracle_class_lattice(cohomology.differential_matrix(grp, x, 1),
                                cohomology._diff_snf(grp, x, 2), lifted,
                                grp.order, smith_normal_form)


def _coords_in(snf, scales, vectors):
    """diag(scales)^-1 U v for each v, U from ``snf``: the coordinates in the
    basis column i of U^-1 times scales[i]; None when one is not integral."""
    out = []
    for v in vectors:
        coords = []
        for (index, entries), t in zip(snf.u_rows, scales):
            q, r = divmod(sum(e * v[k] for k, e in zip(index, entries)), t)
            if r:
                return None
            coords.append(q)
        out.append(coords)
    return out


def _basis(snf, scales):
    return [algebra._unpack(col, len(scales), t)
            for col, t in zip(snf.u_inv_cols, scales)]


@pytest.mark.parametrize("label", list(ORACLE_ROUTE_CASES))
def test_class_lattice_is_the_ambient_route_lattice(label):
    # S = U1^-1 diag(lcm(gcd(e_i, F), |G|) / |G|), read off the cached d1
    # Smith form, against (im d1 + F Z^dim) meet |G| Z^dim, over |G|, from
    # the ambient matrix's own Smith form (F = lifted |G|): integral
    # coordinates both ways, and the same index in the solution lattice
    fusions, x = ORACLE_ROUTE_CASES[label]
    grp, m = x.group, x.group.order
    dim = m * m * x.size
    snf1 = cohomology._diff_snf(grp, x, 1)
    for lifted in {fus.omega.root_order * m for fus in fusions}:
        scales = [lcm(gcd(e, lifted * m), m) // m for e in snf1.diagonal(dim)]
        ambient, ambient_scales, _, index = _oracle_route(grp, x, lifted)
        assert _coords_in(snf1, scales,
                          _basis(ambient, ambient_scales)) is not None
        assert _coords_in(ambient, ambient_scales,
                          _basis(snf1, scales)) is not None
        assert len(modcat._class_reps(grp, x, lifted)) == index


@pytest.mark.parametrize("label", list(ORACLE_ROUTE_CASES))
def test_enumeration_matches_the_ambient_route(label):
    # the Psi tables of modcats_for against the particular solution plus
    # the coset representatives of the ambient route's coordinates
    fusions, x = ORACLE_ROUTE_CASES[label]
    grp = x.group
    snf2 = cohomology._diff_snf(grp, x, 2)
    for fus in fusions:
        lifted = fus.omega.root_order * grp.order
        particular = solve_mod(None, modcat._inflated_inverse(
            fus.omega, x.size, lifted), lifted, snf=snf2)
        want = []
        if particular is not None:
            coords = _oracle_route(grp, x, lifted)[2]
            for rep in algebra._lattice_quotient_reps(
                    algebra._kernel_mod_basis(snf2, lifted), coords,
                    len(coords)):
                psi = normalize(UnitCochain.from_flat(
                    2, x, lifted, [a + b for a, b in zip(particular, rep)]))
                want.append((psi.root_order, psi.exponents_flat))
        want.sort(key=lambda t: t[1])
        assert _psi_tables(modcats_for(fus, x)) == want


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
    return fg, fh, product_fusion(fg, fh)


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
