"""Twisted graded fusion data: pivotal/spherical structures and 6j symbols."""
import numpy as np
import pytest

from twistcat.algebra import cyclic_group, direct_product, point_gset
from twistcat import fusion as fusion_module
from twistcat.cohomology import UnitCochain, differential, omega_cyclic
from twistcat.errors import NotCocycle, NotNormalized, NotSpherical, UndefinedLabels
from twistcat.fusion import (
    FusionData,
    dim,
    eval_coev,
    fusion_6j,
    pivotal_structures,
    spherical_structures,
)
from twistcat.scalar import Scalar, Unit

from oracles import oracle_characters


def trivial_kappa(group, root=1):
    return UnitCochain.trivial(1, point_gset(group), root)


def sign_kappa(group, exponents):
    arr = np.array(exponents, dtype=np.int64)[:, None]
    return UnitCochain(1, point_gset(group), 2, arr)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_fusion_data_validates_inputs():
    grp = cyclic_group(2)
    omega = omega_cyclic(2, 1)
    fusion = FusionData(grp, omega, trivial_kappa(grp))
    assert fusion.spherical
    assert fusion.group == grp

    not_normalized = UnitCochain(3, point_gset(grp), 2,
                                 np.ones((2, 2, 2, 1), dtype=np.int64))
    with pytest.raises(NotNormalized):
        FusionData(grp, not_normalized, trivial_kappa(grp))

    bad = np.zeros((2, 2, 2, 1), dtype=np.int64)
    bad[1, 1, 1, 0] = 1  # at root order 4 this normalized table is not closed
    with pytest.raises(NotCocycle, match=r"first failing tuple "
                       r"\(g, h, k, l\) = \(1, 1, 1, 1\)"):
        FusionData(grp, UnitCochain(3, point_gset(grp), 4, bad),
                   trivial_kappa(grp))

    not_character = UnitCochain(1, point_gset(grp), 2, [[0], [1]])
    bad_kappa = UnitCochain(1, point_gset(cyclic_group(3)), 2, [[0], [1], [1]])
    with pytest.raises(NotCocycle):
        FusionData(cyclic_group(3), omega_cyclic(3, 0), bad_kappa)
    with pytest.raises(ValueError):
        FusionData(grp, omega, UnitCochain.trivial(2, point_gset(grp), 1))
    assert FusionData(grp, omega, not_character).spherical  # sign character


def test_sphericality_flag():
    grp = cyclic_group(4)
    omega = omega_cyclic(4, 0)
    zeta_kappa = UnitCochain(1, point_gset(grp), 4, [[0], [1], [2], [3]])
    assert not FusionData(grp, omega, zeta_kappa).spherical
    sign = UnitCochain(1, point_gset(grp), 2, [[0], [1], [0], [1]])
    assert FusionData(grp, omega, sign).spherical


def test_spherical_structures_check_omega_once_per_call(monkeypatch):
    # Z/8 has eight characters and two of them are sign-valued: the first
    # structure checks omega and the others share it, so d(omega) is taken
    # once
    grp, omega = cyclic_group(8), omega_cyclic(8, 3)
    expected = [f for f in pivotal_structures(grp, omega) if f.spherical]
    calls = []
    monkeypatch.setattr(fusion_module, "differential",
                        lambda eta: calls.append(eta) or differential(eta))
    found = spherical_structures(grp, omega)
    assert len(calls) == 1 and len(found) == 2
    assert found == expected


def test_pivotal_and_spherical_structure_counts():
    cases = [(cyclic_group(2), 2, 2),
             (cyclic_group(3), 1, 1),
             (cyclic_group(4), 2, 2),
             (direct_product(cyclic_group(2), cyclic_group(2)), 4, 4)]
    for grp, _, expected_spherical in cases:
        omega = UnitCochain.trivial(3, point_gset(grp), 1)
        pivs = pivotal_structures(grp, omega)
        n_chars = len(oracle_characters(grp.table.tolist(), grp.exponent()))
        assert len(pivs) == n_chars
        sphs = spherical_structures(grp, omega)
        assert len(sphs) == expected_spherical
        assert all(f.spherical for f in sphs)
        # the trivial character sorts first
        assert pivs[0].kappa.is_trivial()


# ---------------------------------------------------------------------------
# duality scalars
# ---------------------------------------------------------------------------

def test_duality_scalars_satisfy_zigzag_relations():
    grp = cyclic_group(4)
    omega = omega_cyclic(4, 3)
    for fusion in spherical_structures(grp, omega):
        for g in grp.elements():
            ginv = grp.inv(g)
            # adjacent associator values at (g, g^-1, g) multiply to 1
            assert fusion.omega_unit(g, ginv, g) * \
                fusion.omega_unit(ginv, g, ginv) == Unit.one()
            ev_r, coev_r, ev_l, coev_l = eval_coev(fusion, g)
            assert ev_l == fusion.kappa_unit(g).to_scalar()
            assert ev_r * coev_r * ev_l * coev_l == Scalar.one()
            # the left loop equals evaluation against the flipped associator
            assert fusion.beta(g) == ev_l * ev_r
            assert fusion.beta(g) * fusion.beta(ginv) == Scalar.one()


def test_dimensions_are_signs():
    grp = cyclic_group(2)
    fusion = FusionData(grp, omega_cyclic(2, 1), sign_kappa(grp, [0, 1]))
    assert dim(fusion, 0) == Scalar.one()
    assert dim(fusion, 1) == Scalar.from_rational(-1)
    zeta = UnitCochain(1, point_gset(cyclic_group(4)), 4, [[0], [1], [2], [3]])
    pivotal_only = FusionData(cyclic_group(4), omega_cyclic(4, 0), zeta)
    with pytest.raises(NotSpherical):
        dim(pivotal_only, 1)


# ---------------------------------------------------------------------------
# fusion 6j symbols
# ---------------------------------------------------------------------------

def test_fusion_6j_closed_values():
    grp = cyclic_group(2)
    fusion = FusionData(grp, omega_cyclic(2, 1), trivial_kappa(grp))
    # the single nontrivial entry of the twisted associator on Z/2
    assert fusion_6j(fusion, "+", 1, 1, 1, 0, 1, 0) == Scalar.from_rational(-1)
    assert fusion_6j(fusion, "-", 1, 1, 1, 0, 1, 0) == Scalar.from_rational(-1)
    assert fusion_6j(fusion, "+", 0, 1, 1, 0, 0, 1) == Scalar.one()

    signed = FusionData(grp, omega_cyclic(2, 1), sign_kappa(grp, [0, 1]))
    # + symbol carries kappa(a), - symbol kappa(c)
    assert fusion_6j(signed, "+", 1, 1, 0, 1, 0, 0) == Scalar.from_rational(-1)
    assert fusion_6j(signed, "-", 1, 1, 0, 1, 0, 0) == Scalar.one()


def test_fusion_6j_label_and_context_guards():
    grp = cyclic_group(2)
    fusion = FusionData(grp, omega_cyclic(2, 1), trivial_kappa(grp))
    with pytest.raises(UndefinedLabels):
        fusion_6j(fusion, "+", 1, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        fusion_6j(fusion, "×", 0, 0, 0, 0, 0, 0)
    zeta = UnitCochain(1, point_gset(cyclic_group(4)), 4, [[0], [1], [2], [3]])
    pivotal_only = FusionData(cyclic_group(4), omega_cyclic(4, 0), zeta)
    with pytest.raises(NotSpherical):
        fusion_6j(pivotal_only, "+", 0, 0, 0, 0, 0, 0)


def test_fusion_6j_exhaustive_values_match_definition():
    for n, s in ((2, 1), (3, 2), (4, 1)):
        grp = cyclic_group(n)
        omega = omega_cyclic(n, s)
        for fusion in spherical_structures(grp, omega):
            for i in grp.elements():
                for j in grp.elements():
                    for k in grp.elements():
                        c = grp.op(i, j)
                        a = grp.op(j, k)
                        b = grp.op(c, k)
                        plus = fusion_6j(fusion, "+", i, j, k, a, b, c)
                        minus = fusion_6j(fusion, "-", i, j, k, a, b, c)
                        w = fusion.omega_unit(i, j, k)
                        assert plus == (fusion.kappa_unit(a) * w).to_scalar()
                        assert minus == (fusion.kappa_unit(c)
                                         * w.inverse()).to_scalar()
