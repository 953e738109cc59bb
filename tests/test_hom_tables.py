"""The hom spaces on the exponent tables against elimination.

Where both functors' A tables are monomial with distinct columns, cond_M
links two unknowns per equation by a root of unity, and ``hom_dimension``,
``hom_basis`` and ``invertible_hom`` solve it by propagating exponents; any
other pair of functors is eliminated.  Random gauged functors over Z/2 to
Z/4 -- simples, direct sums with a repeated summand (2 x 2 and 3 x 3
blocks) and adjoints -- valid and corrupted, must give the same dimension,
the same basis in the same order, the same witness (or None) and the same
ShapeMismatch text both ways, with ``_exponent_table`` made to return None
for the reference on fresh copies of the functors.

On the tables ``invertible_hom`` decides a combination on one block per
G-orbit of the pairs, each by its nonzero pattern where that settles it; it
must return the witness (or None) that inverting every block gives.
"""
import importlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from twistcat import _matrix
from twistcat._matrix import SMatrix
from twistcat.algebra import point_gset
from twistcat.cohomology import UnitCochain
from twistcat.errors import ShapeMismatch
from twistcat.modcat import ModuleCategoryData, regular_module_category
from twistcat.modfun import (ModuleFunctorData, adjoint,
                             classify_simple_cyclic, direct_sum, hom_basis,
                             hom_dimension, invertible_hom)

from test_functor_tables import (CORRUPTIONS, _categories, _corrupt, _fusion,
                                 _rebuild, _tables)

CHECKS = settings(derandomize=True, max_examples=80, deadline=None)
modfun_module = importlib.import_module("twistcat.modfun")


@st.composite
def _functor_pairs(draw):
    """(F, H) with one source and target: sums of gauged simples, the first
    summand repeated up to three times, or adjoints of such sums; H is F,
    or drawn from the simples on the orbits F meets, or on those it does not
    meet, so that the two supports are disjoint."""
    n = draw(st.integers(2, 4))
    s = draw(st.integers(0, n - 1))
    fusion = _fusion(n, s)
    source, target = (draw(_categories(fusion, s > 0)),
                      draw(_categories(fusion, s > 0)))
    flip = draw(st.booleans())
    simples = classify_simple_cyclic(*((target, source) if flip
                                       else (source, target)))

    def functor(pool):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        picks = picks[:1] * draw(st.integers(1, 3)) + picks[1:]
        f = direct_sum([c.functor for c in picks])
        return (adjoint(f) if flip else f), {c.orbit for c in picks}

    f, used = functor(simples)
    kind = draw(st.sampled_from(("same", "shared orbits", "disjoint")))
    if kind == "same":
        return f, f
    pool = [c for c in simples if (c.orbit in used) == (kind != "disjoint")]
    return f, functor(pool or simples)[0]


def _outcomes(f, h) -> list:
    """Each hom function's value, bases and witnesses as their M tables, or
    the text of the ShapeMismatch it raised."""
    out = []
    for fn, tables in ((hom_dimension, lambda dim: dim),
                       (hom_basis, lambda basis: [eta.m for eta in basis]),
                       (invertible_hom, lambda eta: eta and eta.m)):
        try:
            out.append(tables(fn(f, h)))
        except ShapeMismatch as exc:
            out.append(("ShapeMismatch", str(exc)))
    return out


def _corrupted(draw, pair, how: str, which: str):
    """(F, H) with F, H or both, as one functor, corrupted as ``how`` says."""
    f, h = pair
    if which == "both":
        return (_corrupt(draw, f, how),) * 2
    if which == "target":
        return f, _corrupt(draw, h, how)
    return _corrupt(draw, f, how), h


@CHECKS
@given(_functor_pairs(), st.sampled_from(CORRUPTIONS),
       st.sampled_from(("source", "target", "both")), st.data())
def test_hom_spaces_match_elimination(pair, how, which, data):
    # "both" makes F and H one corrupted functor, whose identity is a
    # witness on either route
    f, h = _corrupted(data.draw, pair, how, which)
    fast = _outcomes(f, h)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modfun_module, "_exponent_table", lambda *args: None)
        fresh = [_rebuild(fn, fn.mult, _tables(fn)) for fn in (f, h)]
        assert _outcomes(*fresh) == fast


def _count_eliminations(monkeypatch) -> list:
    calls = []
    eliminate = _matrix._gauss_jordan

    def counting(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(_matrix, "_gauss_jordan", counting)
    return calls


def test_monomial_hom_spaces_eliminate_nothing(monkeypatch):
    # simples, a sum with a repeated summand and its adjoint: every A block
    # is monomial, so the hom spaces are solved on the exponent tables; a
    # non-monomial block sends the same calls to elimination
    mc = regular_module_category(_fusion(4, 1))
    simples = [c.functor for c in classify_simple_cyclic(mc, mc)]
    summed = direct_sum([simples[0], simples[0], simples[1]])
    functors = simples[:3] + [summed, adjoint(summed)]
    calls = _count_eliminations(monkeypatch)
    for f, h in itertools.product(functors, repeat=2):
        assert len(hom_basis(f, h)) == hom_dimension(f, h)
    assert hom_dimension(summed, summed) == 5
    assert calls == []
    a = dict(summed.a)
    a[(1, 0, 0)] = a[(1, 0, 0)].scale(2)
    bent = ModuleFunctorData(summed.source, summed.target, summed.mult, a)
    hom_dimension(bent, summed)
    assert calls


@st.composite
def _isomorphic_pairs(draw):
    """(F, H): F a sum of up to three gauged simples, the first repeated up
    to three times, and H the same summands in a shuffled order, so that an
    invertible transformation exists and its blocks span several orbits; or
    the adjoints of both."""
    n = draw(st.integers(2, 4))
    s = draw(st.integers(0, n - 1))
    fusion = _fusion(n, s)
    source, target = (draw(_categories(fusion, s > 0)),
                      draw(_categories(fusion, s > 0)))
    simples = [c.functor for c in classify_simple_cyclic(source, target)]
    picks = draw(st.lists(st.sampled_from(simples), min_size=1, max_size=3))
    picks = picks[:1] * draw(st.integers(1, 3)) + picks[1:]
    f, h = direct_sum(picks), direct_sum(draw(st.permutations(picks)))
    return (adjoint(f), adjoint(h)) if draw(st.booleans()) else (f, h)


def _witness(f, h):
    try:
        eta = invertible_hom(f, h)
    except ShapeMismatch as exc:
        return "ShapeMismatch", str(exc)
    return eta and eta.m


@CHECKS
@given(st.one_of(_functor_pairs(), _isomorphic_pairs()),
       st.sampled_from(CORRUPTIONS),
       st.sampled_from(("source", "target", "both")), st.data())
def test_orbit_representatives_find_the_every_block_witness(pair, how,
                                                             which, data):
    # the reference inverts every block of each candidate, as elimination
    # or the monomial inverse does, on the same basis
    f, h = _corrupted(data.draw, pair, how, which)
    fast = _witness(f, h)
    with pytest.MonkeyPatch.context() as patch:
        # every layout pair its own orbit: every block decides
        patch.setattr(modfun_module, "_pair_orbits",
                      lambda x_set, y_set, pairs=None: [(p,) for p in pairs])
        patch.setattr(modfun_module, "_invertible",
                      lambda rows: SMatrix(rows).inverse() is not None)
        assert _witness(f, h) == fast


def test_pattern_decided_candidates_eliminate_nothing(monkeypatch):
    # two simples on the point carrier make 2 x 2 diagonal blocks: the basis
    # elements have a zero row and a combination of both a diagonal, each
    # decided by its pattern; two simples on orbits of the regular carrier
    # make 1 x 1 blocks, decided on one pair of each orbit.  A repeated
    # summand gives full 2 x 2 blocks, which are eliminated
    fusion = _fusion(4, 0)
    pt = point_gset(fusion.group)
    point = ModuleCategoryData(fusion, pt, UnitCochain.trivial(2, pt, 1))
    regular = regular_module_category(fusion)
    sums = [direct_sum([c.functor for c in classify_simple_cyclic(mc, mc)[:2]])
            for mc in (point, regular)]
    support = {p: None for p in sums[1].support()}
    assert len(support) == 8
    assert [orbit[0] for orbit in modfun_module._pair_orbits(
        regular.X, regular.X, support)] == [(0, 0), (0, 1)]
    calls = _count_eliminations(monkeypatch)
    witnesses = [invertible_hom(f, f) for f in sums]
    assert calls == []
    assert all(mat.inverse() is not None
               for eta in witnesses for mat in eta.m.values())
    simple = classify_simple_cyclic(point, point)[0].functor
    twice = direct_sum([simple, simple])
    calls.clear()
    assert invertible_hom(twice, twice) is not None
    assert calls
