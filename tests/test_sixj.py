"""Generalized 6j symbols: closed forms, relations, and negative controls."""
import itertools

import numpy as np
import pytest

from twistcat._matrix import SMatrix
from twistcat.algebra import cyclic_group, point_gset
from twistcat.cohomology import UnitCochain, omega_bar, omega_cyclic
from twistcat.errors import IndexOutOfRange, NoTrace, UndefinedLabels
from twistcat.fusion import FusionData, fusion_6j, spherical_structures
from twistcat.modcat import (
    ModuleCategoryData,
    product_fusion,
    bimod_to_deligne,
    deligne_to_bimod,
    module_trace,
    regular_module_category,
    validate_modcat,
)
from twistcat.modfun import (
    BimoduleFunctorData,
    ModuleFunctorData,
    action_functor,
    deligne_to_bimodfun,
    identity_functor,
    validate_bimodfun,
    validate_modfun,
)
from twistcat.scalar import Scalar, Unit
from twistcat.sixj import (
    KINDS,
    SixJQuery,
    bimodule_context,
    functor_context,
    fusion_context,
    sixj,
    sixj_table,
    verify_biedenharn_elliott,
    verify_orthogonality,
)

from sixj_dense import (corrupted_fusion, dense_biedenharn_elliott,
                        dense_orthogonality)

G2 = cyclic_group(2)
C1 = cyclic_group(1)


def triv_kappa(grp, root=1):
    return UnitCochain.trivial(1, point_gset(grp), root)


def sign_kappa(grp):
    exps = np.zeros((grp.order, 1), dtype=np.int64)
    exps[1:, 0] = [1] * (grp.order - 1)  # only used for Z/2
    return UnitCochain(1, point_gset(grp), 2, exps)


def product_bimodule(left, right):
    reg = regular_module_category(product_fusion(left, right))
    return reg.fusion.group, reg, deligne_to_bimod(reg, left, right)


# ---------------------------------------------------------------------------
# fusion contexts
# ---------------------------------------------------------------------------

def test_fusion_relations_hold_for_all_cyclic_twists():
    for n in (2, 3):
        grp = cyclic_group(n)
        for s in range(n):
            for fus in spherical_structures(grp, omega_cyclic(n, s)):
                ctx = fusion_context(fus)
                assert ctx.kinds() == ("fusion+", "fusion-")
                r1 = verify_orthogonality(ctx)
                r2 = verify_biedenharn_elliott(ctx)
                assert r1.ok and r1.checked == n ** 6
                assert r2.ok and r2.checked == n ** 5
                rows = sixj_table(ctx, "fusion+")
                assert len(rows) == n ** 3
                for row in rows:
                    assert row["value"] == fusion_6j(fus, "+", *row["labels"])
                for row in sixj_table(ctx, "fusion-"):
                    assert row["value"] == fusion_6j(fus, "-", *row["labels"])


def test_fusion_spot_value_and_error_paths():
    fus = FusionData(G2, omega_cyclic(2, 1), triv_kappa(G2))
    ctx = fusion_context(fus)
    v = sixj(SixJQuery("fusion+", ctx, (1, 1, 1, 0, 1, 0)))
    assert v.value == Scalar.from_rational(-1)
    assert v.matrix is None
    with pytest.raises(UndefinedLabels):
        sixj(SixJQuery("fusion+", ctx, (1, 1, 1, 1, 0, 0)))
    with pytest.raises(UndefinedLabels):
        sixj(SixJQuery("fusion+", ctx, (1, 1, 1, 0, 1, 2)))
    with pytest.raises(IndexOutOfRange):
        sixj(SixJQuery("fusion+", ctx, (1, 1, 1, 0, 1, 0), indices=(1, 1)))
    with pytest.raises(ValueError):
        sixj(SixJQuery("m", ctx, (0, 0, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        sixj(SixJQuery("frobenius", ctx, (0, 0, 0, 0, 0, 0)))


def test_trivial_group_context_is_a_point():
    fus = FusionData(C1, omega_cyclic(1, 0), triv_kappa(C1))
    ctx = fusion_context(fus)
    rows = sixj_table(ctx, "fusion+")
    assert len(rows) == 1
    assert rows[0]["value"] == Scalar.one()
    assert verify_orthogonality(ctx).ok
    assert verify_biedenharn_elliott(ctx).ok


def test_fusion_negative_control_rejects_non_cocycle():
    bad_exps = np.zeros((2, 2, 2, 1), dtype=np.int64)
    bad_exps[1, 1, 1, 0] = 1
    bad_omega = UnitCochain(3, point_gset(G2), 4, bad_exps)
    corrupted = corrupted_fusion(G2, bad_omega, triv_kappa(G2))
    report = verify_biedenharn_elliott(fusion_context(corrupted))
    assert not report.ok
    assert report.failures
    assert {"kind", "tuple", "lhs", "rhs"} <= set(report.failures[0])


G3 = cyclic_group(3)


def _scaled_identity_functor():
    # A_g scaled by i for every g != 1 on the regular Z/4 module category
    z4 = cyclic_group(4)
    reg = regular_module_category(FusionData(z4, omega_cyclic(4, 1),
                                             triv_kappa(z4)))
    ident = identity_functor(reg)
    bad_a = {key: mat if key[0] == z4.identity
             else mat.scale(Unit(4, 1)) for key, mat in ident.a.items()}
    return ModuleFunctorData(reg, reg, ident.mult, bad_a)


@pytest.mark.parametrize("case", ["fusion-omega", "fusion-kappa", "functor"])
def test_relation_reports_count_every_failing_tuple(case):
    # the sweep's total equals the number of tuples at which a single-tuple
    # dense reference sweep fails, with 20 of them kept as samples
    if case == "fusion-omega":
        exps = np.random.default_rng(3).integers(0, 3, size=(3, 3, 3, 1))
        ctx = fusion_context(corrupted_fusion(
            G3, UnitCochain(3, point_gset(G3), 3, exps), triv_kappa(G3)))
        verify, dense, tuples = (verify_biedenharn_elliott,
                                 dense_biedenharn_elliott,
                                 itertools.product(range(3), repeat=5))
    elif case == "fusion-kappa":
        kappa = UnitCochain(1, point_gset(G3), 9, np.array([[0], [1], [2]]))
        ctx = fusion_context(corrupted_fusion(G3, omega_cyclic(3, 1), kappa))
        verify, dense, tuples = (verify_orthogonality, dense_orthogonality,
                                 itertools.product(range(3), repeat=6))
    else:
        ctx = functor_context(_scaled_identity_functor())
        verify, dense, tuples = (verify_biedenharn_elliott,
                                 dense_biedenharn_elliott,
                                 itertools.product(range(4), repeat=4))
    report = verify(ctx)
    singles = sum(not dense(ctx, [tup]).ok for tup in tuples)
    assert singles > 20
    assert not report.ok and report.failed == singles
    assert len(report.failures) == 20


# ---------------------------------------------------------------------------
# bimodule contexts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kg_exp", [0, 1])
def test_bimodule_relations_hold(kg_exp):
    kg = UnitCochain(1, point_gset(G2), 2, np.array([[0], [kg_exp]]))
    left = FusionData(G2, omega_cyclic(2, 1), kg)
    right = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    _, _, bim = product_bimodule(left, right)
    ctx = bimodule_context(bim)
    assert ctx.kinds() == ("m", "m^-1", "n", "n^-1", "b", "b^-1")
    r1 = verify_orthogonality(ctx)
    r2 = verify_biedenharn_elliott(ctx)
    assert r1.ok, r1.failures[:2]
    assert r2.ok, r2.failures[:2]
    for kind in ctx.kinds():
        rows = sixj_table(ctx, kind)
        assert rows
        for row in rows:
            assert isinstance(row["value"], Scalar)


def test_bimodule_m_symbols_match_functor_s_symbols():
    # dictionary through a trivial right factor: the left-action symbols of
    # the bimodule equal the coherence symbols of the point-action functors
    sign = sign_kappa(G2)
    left = FusionData(G2, omega_cyclic(2, 1), sign)
    right = FusionData(C1, omega_cyclic(1, 0), triv_kappa(C1))
    prod, reg, bim = product_bimodule(left, right)
    assert np.array_equal(bim.psi.exponents, reg.psi.exponents)
    bctx = bimodule_context(bim)
    act = reg.X.action
    for k0 in range(2):
        fctx = functor_context(action_functor(reg, k0))
        for g in range(2):
            for z in range(2):
                a = int(act[z, k0])
                c = prod.op(g, z)
                b = int(act[c, k0])
                mv = sixj(SixJQuery("m", bctx, (g, z, k0, a, b, c)))
                sv = sixj(SixJQuery("s", fctx, (g, z, a, b, c)))
                assert mv.value == sv.value
                assert sv.matrix is not None and sv.matrix.nrows == 1


def test_bimodule_n_symbols_match_right_constraint():
    kh = sign_kappa(G2)
    left = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    right = FusionData(G2, omega_cyclic(2, 1), kh)
    _, _, bim = product_bimodule(left, right)
    ctx = bimodule_context(bim)
    rows = sixj_table(ctx, "n")
    assert len(rows) == 16
    for row in rows:
        i, j, k, a, b, c = row["labels"]
        want = (right.kappa_unit(c)
                * bim.phi.value((G2.inv(k), G2.inv(j), b)).inverse()).to_scalar()
        assert row["value"] == want
    for row in sixj_table(ctx, "n^-1"):
        i, j, k, a, b, c = row["labels"]
        flipped = sixj(SixJQuery("n", ctx, (i, j, k, a, b, c)))
        kappas = (right.kappa_unit(c) * ctx.trace.unit(a)).to_scalar()
        assert row["value"] * flipped.value == kappas


def test_bimodule_context_requires_traces():
    kg = sign_kappa(G2)
    left = FusionData(G2, omega_cyclic(2, 0), kg)
    right = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    pf = product_fusion(left, right)
    prod = pf.group
    pm = ModuleCategoryData(pf, point_gset(prod),
                            UnitCochain.trivial(2, point_gset(prod), 2))
    bim_pt = deligne_to_bimod(pm, left, right)
    with pytest.raises(NoTrace):
        bimodule_context(bim_pt)


# ---------------------------------------------------------------------------
# functor contexts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kg_exp", [0, 1])
def test_functor_relations_hold(kg_exp):
    kg = UnitCochain(1, point_gset(G2), 2, np.array([[0], [kg_exp]]))
    fus = FusionData(G2, omega_cyclic(2, 1), kg)
    reg = regular_module_category(fus)
    functors = [identity_functor(reg)] + [action_functor(reg, b) for b in range(2)]
    for fn in functors:
        ctx = functor_context(fn)
        assert ctx.kinds() == ("s", "s^-1")
        r1 = verify_orthogonality(ctx)
        r2 = verify_biedenharn_elliott(ctx)
        assert r1.ok, r1.failures[:2]
        assert r2.ok, r2.failures[:2]


def test_regular_trace_rescaling_is_the_character():
    fus = FusionData(G2, omega_cyclic(2, 0), sign_kappa(G2))
    tr = module_trace(regular_module_category(fus))
    assert tr.sign(0) == 1 and tr.sign(1) == -1


def test_s_table_size_and_scalar_kind_index_guards():
    fus = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    reg = regular_module_category(fus)
    ctx = functor_context(identity_functor(reg))
    rows = sixj_table(ctx, "s")
    assert len(rows) == 4
    for row in rows:
        assert row["indices"] == (1, 1)
    with pytest.raises(IndexOutOfRange):
        sixj(SixJQuery("s", ctx, rows[0]["labels"], indices=(2, 1)))


def test_corrupted_functor_fails_orthogonality():
    fus = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    reg = regular_module_category(fus)
    idf = identity_functor(reg)
    bad_a = dict(idf.a)
    bad_a[(1, 0, 0)] = SMatrix([[Scalar.zero()]])  # singular coherence block
    bad = ModuleFunctorData(reg, reg, idf.mult, bad_a)
    report = verify_orthogonality(functor_context(bad))
    assert not report.ok
    assert report.failures
    assert report.failures[0]["kind"].startswith("orthogonality[s")


def test_singular_right_action_block_fails_orthogonality():
    # a singular B block is reported as a t-orthogonality failure, the way a
    # singular A block is reported on the s side, instead of raising
    fus = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    _, _, bim = product_bimodule(fus, fus)
    idf = deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)), bim, bim)
    bad_b = dict(idf.b)
    bad_b[(1, 0, 0)] = SMatrix([[Scalar.zero()]])
    bad = BimoduleFunctorData(bim, bim, idf.mult, idf.a, bad_b)
    report = verify_orthogonality(functor_context(bad))
    assert not report.ok
    kinds = {f["kind"] for f in report.failures}
    assert kinds <= {"orthogonality[t;a-sum]", "orthogonality[t;c-sum]"}
    assert any("singular" in f["lhs"] for f in report.failures)


def test_invertible_wrong_right_action_block_passes_orthogonality():
    # both orthogonality forms pair each block with its own inverse, so any
    # invertible B satisfies them; a wrong but invertible B block leaves
    # the s and t sweeps clean and is caught by validate_bimodfun instead
    fus = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    _, _, bim = product_bimodule(fus, fus)
    idf = deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)), bim, bim)
    bad_b = dict(idf.b)
    bad_b[(1, 0, 0)] = bad_b[(1, 0, 0)].scale(Unit(4, 1))
    bad = BimoduleFunctorData(bim, bim, idf.mult, idf.a, bad_b)
    report = verify_orthogonality(functor_context(bad))
    assert report.ok and report.checked == 320
    assert {f["condition"] for f in validate_bimodfun(bad).failures} == {
        "b_pentagon", "hexagon"}


# ---------------------------------------------------------------------------
# bimodule functors: the t kinds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sg,sh,kg_exp", [(1, 0, 0), (0, 1, 1), (1, 1, 1)])
def test_bimodule_functor_relations(sg, sh, kg_exp):
    kg = UnitCochain(1, point_gset(G2), 2, np.array([[0], [kg_exp]]))
    left = FusionData(G2, omega_cyclic(2, sg), kg)
    right = FusionData(G2, omega_cyclic(2, sh), triv_kappa(G2))
    _, _, bim = product_bimodule(left, right)
    dm = bimod_to_deligne(bim)
    bf = deligne_to_bimodfun(identity_functor(dm), bim, bim)
    ctx = functor_context(bf)
    assert ctx.kinds() == ("s", "s^-1", "t", "t^-1")
    assert verify_orthogonality(ctx).ok
    assert verify_biedenharn_elliott(ctx).ok
    rows = sixj_table(ctx, "t")
    assert len(rows) == 8
    value = sixj(SixJQuery("t", ctx, rows[0]["labels"]))
    assert value.matrix is not None


def test_t_symbols_match_wrapped_right_module_functor():
    # rewriting the right action as a left module structure over the
    # argument-reversed associator turns every t symbol into an s symbol
    left = FusionData(G2, omega_cyclic(2, 0), triv_kappa(G2))
    right = FusionData(G2, omega_cyclic(2, 1), triv_kappa(G2))
    _, _, bim = product_bimodule(left, right)
    dm = bimod_to_deligne(bim)
    bf = deligne_to_bimodfun(identity_functor(dm), bim, bim)
    ctx = functor_context(bf)

    wrap_fus = FusionData(G2, omega_bar(right.omega), triv_kappa(G2))
    wrap_src = ModuleCategoryData(wrap_fus, bim.x_h, bim.phi)
    assert validate_modcat(wrap_src).ok
    wrapped_a = {(h, x, y): bf.b[(G2.inv(h), x, y)] for (h, x, y) in bf.b}
    wrapped = ModuleFunctorData(wrap_src, wrap_src, bf.mult, wrapped_a)
    assert validate_modfun(wrapped).ok
    wctx = functor_context(wrapped)
    for row in sixj_table(ctx, "t"):
        l, i, a, b, c = row["labels"]
        mirrored = sixj(SixJQuery("s", wctx, (G2.inv(l), i, a, b, c)))
        assert row["value"] == mirrored.value


def test_t_symbols_act_through_the_inverse_over_z3():
    # over Z/3 the acting element l^-1 of a t label differs from l: every t
    # symbol is the s symbol at l^-1 of the wrapped right module functor
    left = FusionData(G3, omega_cyclic(3, 1), triv_kappa(G3))
    right = FusionData(G3, omega_cyclic(3, 2), triv_kappa(G3))
    _, _, bim = product_bimodule(left, right)
    bf = deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)), bim, bim)
    ctx = functor_context(bf)
    assert verify_orthogonality(ctx).ok

    wrap_src = ModuleCategoryData(
        FusionData(G3, omega_bar(right.omega), triv_kappa(G3)), bim.x_h, bim.phi)
    wrapped = ModuleFunctorData(
        wrap_src, wrap_src, bf.mult,
        {(h, x, y): bf.b[(G3.inv(h), x, y)] for (h, x, y) in bf.b})
    wctx = functor_context(wrapped)
    rows = sixj_table(ctx, "t^-1")
    assert len(rows) == 27
    for row in rows:
        l, i, a, b, c = row["labels"]
        assert c == int(bim.x_h.action[G3.inv(l), i])
        mirrored = sixj(SixJQuery("s^-1", wctx, (G3.inv(l), i, a, b, c)))
        assert row["value"] == mirrored.value


def test_kind_roster_is_fixed():
    assert KINDS == ("fusion+", "fusion-", "m", "m^-1", "n", "n^-1",
                     "b", "b^-1", "s", "s^-1", "t", "t^-1")
