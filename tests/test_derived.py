"""Derived constructions equal their checked twins, field for field.

Z/n, G x H, the point and regular G-sets, the product fusion category and
the pivotal structures are assembled from checked parts without the public
constructors' checks.  Each is compared here with what the public
constructor builds from the same table, omega and kappa, on random small
groups, 3-cocycles and characters.
"""
import pytest
from hypothesis import given, settings, strategies as st

from twistcat.algebra import (FiniteGroup, GSet, characters, cyclic_group,
                              direct_product, point_gset, regular_gset)
from twistcat.cohomology import UnitCochain, differential, omega_cyclic
from twistcat.errors import NotCocycle
from twistcat.fusion import FusionData, pivotal_structures
from twistcat.modcat import (product_fusion, regular_module_category,
                             validate_modcat)

from oracles import (D4_TABLE, Q8_TABLE, S3_TABLE, cyclic_table,
                     point_action, regular_action)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
TABLES = [cyclic_table(n) for n in range(1, 13)] + [S3_TABLE, D4_TABLE,
                                                     Q8_TABLE]
GROUPS = [cyclic_group(n) for n in range(1, 13)] + [
    FiniteGroup(t) for t in (S3_TABLE, D4_TABLE, Q8_TABLE)]

FIELDS = {FiniteGroup: ("order", "table_flat", "identity", "inverse_flat"),
          GSet: ("group", "size", "action_flat", "_orbits"),
          FusionData: ("group", "omega", "kappa", "spherical")}


def _assert_twins(derived, checked) -> None:
    assert type(derived) is type(checked)
    for name in FIELDS[type(checked)]:
        assert getattr(derived, name) == getattr(checked, name), name
    if hasattr(checked, "_views"):
        assert derived._views == {} and derived._views is not checked._views


def _checked_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    nh = h.order
    pairs = [divmod(p, nh) for p in range(g.order * nh)]
    return FiniteGroup([[g.op(a1, a2) * nh + h.op(b1, b2) for a2, b2 in pairs]
                        for a1, b1 in pairs])


def _random_cocycle(draw, group: FiniteGroup) -> UnitCochain:
    """A normalized 3-cocycle: omega_cyclic(n, s) on Z/n (trivial on the
    other groups) times the coboundary of a random normalized 2-cochain."""
    root = draw(st.sampled_from([1, 2, 3, 4, 6]))
    base = (omega_cyclic(group.order, draw(st.integers(0, group.order - 1)))
            if group == cyclic_group(group.order)
            else UnitCochain.trivial(3, point_gset(group), 1))
    m, e = group.order, group.identity
    eta = UnitCochain.from_flat(2, point_gset(group), root, [
        0 if e in (a, b) else draw(st.integers(0, root - 1))
        for a in range(m) for b in range(m)])
    return base * differential(eta)


@st.composite
def fusions(draw, groups=GROUPS):
    group = draw(st.sampled_from(groups))
    omega = _random_cocycle(draw, group)
    kappa = draw(st.sampled_from(characters(group, group.exponent())))
    return FusionData(group, omega, kappa)


@pytest.mark.parametrize("table", TABLES, ids=range(len(TABLES)))
def test_point_and_regular_gsets_equal_the_checked_ones(table):
    group = FiniteGroup(table)
    _assert_twins(point_gset(group), GSet(group, point_action(table)))
    _assert_twins(regular_gset(group), GSet(group, regular_action(table)))


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_group_equals_the_checked_one(n):
    _assert_twins(cyclic_group(n), FiniteGroup(cyclic_table(n)))


@SETTINGS
@given(st.sampled_from(GROUPS), st.sampled_from(GROUPS))
def test_direct_product_equals_the_checked_one(g, h):
    _assert_twins(direct_product(g, h), _checked_product(g, h))


SMALL = [g for g in GROUPS if g.order <= 6]


@SETTINGS
@given(fusions(SMALL), fusions(SMALL))
def test_product_fusion_equals_the_checked_one(left, right):
    out = product_fusion(left, right)
    assert out.group == _checked_product(left.group, right.group)
    _assert_twins(out, FusionData(out.group, out.omega, out.kappa))


@SETTINGS
@given(st.data())
def test_pivotal_structures_equal_the_checked_ones(data):
    group = data.draw(st.sampled_from(GROUPS))
    omega = _random_cocycle(data.draw, group)
    found = pivotal_structures(group, omega)
    twins = [FusionData(group, omega, chi)
             for chi in characters(group, group.exponent())]
    assert len(found) == len(twins)
    for derived, checked in zip(found, twins):
        _assert_twins(derived, checked)


@SETTINGS
@given(fusions())
def test_regular_module_category_validates(fusion):
    assert validate_modcat(regular_module_category(fusion)).ok


@SETTINGS
@given(st.data())
def test_pivotal_structures_reject_a_non_cocycle(data):
    group = data.draw(st.sampled_from([g for g in GROUPS if g.order > 1]))
    omega = _random_cocycle(data.draw, group)
    # omega times the cochain that is zeta at one tuple (a, b, c) off the
    # identity, zeta a root of order >= 3: its differential is zeta at
    # (x, a, b, c) for x outside {e, a}, or zeta^2 there when |G| = 2
    others = [g for g in group.elements() if g != group.identity]
    a, b, c = (data.draw(st.sampled_from(others)) for _ in range(3))
    root = 3 * omega.root_order
    exps = omega._scaled(root)
    exps[(a * group.order + b) * group.order + c] += 1
    bad = UnitCochain.from_flat(3, point_gset(group), root, exps)
    with pytest.raises(NotCocycle):
        pivotal_structures(group, bad)
