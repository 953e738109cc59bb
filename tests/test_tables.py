"""Flat table storage: every public array attribute is a read-only ndarray
view of the stored flat tuple, and the constructors build equal objects from
nested lists, nested tuples and ndarrays."""
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistcat._matrix import SMatrix
from twistcat.algebra import (FiniteGroup, GSet, coset_gset, cyclic_group,
                              direct_product, disjoint_union_gset, point_gset,
                              regular_gset, subgroups)
from twistcat.cli import parse_config
from twistcat.cohomology import UnitCochain
from twistcat.fusion import FusionData
from twistcat.modcat import ModuleCategoryData
from twistcat.modfun import BimoduleFunctorData, ModuleFunctorData

CHECKS = settings(derandomize=True, max_examples=40, deadline=None)
EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"
BIMOD = parse_config(str(EXAMPLES / "z2.json")).bimodcats["B"]


def _forms(nested):
    """The same table as nested lists, nested tuples and an ndarray."""
    def as_tuples(node):
        return tuple(map(as_tuples, node)) if isinstance(node, list) else node
    return [nested, as_tuples(nested), np.array(nested, dtype=np.int64)]


def _check_view(view, flat, shape):
    assert isinstance(view, np.ndarray) and view.dtype == np.int64
    assert view.shape == shape
    assert tuple(view.ravel().tolist()) == flat
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[(0,) * len(shape)] = 1


@st.composite
def groups(draw):
    n = draw(st.integers(1, 5))
    grp = cyclic_group(n)
    if draw(st.booleans()):
        grp = direct_product(grp, cyclic_group(draw(st.integers(1, 2))))
    return grp


@st.composite
def gsets(draw):
    grp = draw(groups())
    options = [point_gset(grp), regular_gset(grp)]
    options += [coset_gset(grp, sub) for sub in subgroups(grp)]
    x = draw(st.sampled_from(options))
    if draw(st.booleans()):
        x = disjoint_union_gset(x, point_gset(grp))
    return x


@CHECKS
@given(grp=groups())
def test_group_views_and_constructors(grp):
    n = grp.order
    _check_view(grp.table, grp.table_flat, (n, n))
    _check_view(grp.inverse, grp.inverse_flat, (n,))
    assert grp.table is grp.table          # built once
    for form in _forms(grp.table.tolist()):
        assert FiniteGroup(form) == grp


@CHECKS
@given(x=gsets())
def test_gset_views_and_constructors(x):
    _check_view(x.action, x.action_flat, (x.group.order, x.size))
    for form in _forms(x.action.tolist()):
        assert GSet(x.group, form) == x


@CHECKS
@given(x=gsets(), degree=st.integers(0, 3), root=st.integers(1, 12),
       data=st.data())
def test_cochain_views_and_constructors(x, degree, root, data):
    shape = (x.group.order,) * degree + (x.size,)
    flat = data.draw(st.lists(st.integers(-30, 30), min_size=int(np.prod(shape)),
                              max_size=int(np.prod(shape))))
    eta = UnitCochain.from_flat(degree, x, root, flat)
    assert eta.exponents_flat == tuple(e % root for e in flat)
    _check_view(eta.exponents, eta.exponents_flat, shape)
    for form in _forms(np.array(flat).reshape(shape).tolist()):
        assert UnitCochain(degree, x, root, form) == eta
    assert eta.to_json()["exponents"] == eta.exponents.tolist()


@CHECKS
@given(x=gsets(), data=st.data())
def test_module_functor_views_and_constructors(x, data):
    grp = x.group
    fusion = FusionData(grp, UnitCochain.trivial(3, point_gset(grp), 1),
                        UnitCochain.trivial(1, point_gset(grp), 1))
    mc = ModuleCategoryData(fusion, x, UnitCochain.trivial(2, x, 1))
    mult = [[data.draw(st.integers(0, 2)) for _ in range(x.size)]
            for _ in range(x.size)]
    a = {(g, p, q): SMatrix.identity(m) for g in grp.elements()
         for p, row in enumerate(mult) for q, m in enumerate(row) if m}
    f = ModuleFunctorData(mc, mc, mult, a)
    _check_view(f.mult, f.mult_flat, (x.size, x.size))
    for form in _forms(mult):
        assert ModuleFunctorData(mc, mc, form, a) == f


@CHECKS
@given(data=st.data())
def test_bimodule_functor_views_and_constructors(data):
    size = BIMOD.X.size
    mult = [[data.draw(st.integers(0, 2)) for _ in range(size)]
            for _ in range(size)]
    support = [(p, q) for p, row in enumerate(mult)
               for q, m in enumerate(row) if m]
    a = {(g, p, q): SMatrix.identity(mult[p][q])
         for g in BIMOD.left.group.elements() for p, q in support}
    b = {(h, p, q): SMatrix.identity(mult[p][q])
         for h in BIMOD.right.group.elements() for p, q in support}
    f = BimoduleFunctorData(BIMOD, BIMOD, mult, a, b)
    _check_view(f.mult, f.mult_flat, (size, size))
    for form in _forms(mult):
        assert BimoduleFunctorData(BIMOD, BIMOD, form, a, b) == f
