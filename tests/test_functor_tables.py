"""The exponent tables of the coherence sides against the reference path.

A side whose blocks are all monomial with distinct columns decides the
composition rule, A_1 = id, invertibility and the functor orthogonality
terms on integers (``CoherenceSide.exponents``); every other side compares
built products and eliminates.  Random gauged functors over Z/2
to Z/4 -- simples, direct sums and adjoints from ``classify_simple_cyclic``,
and identity bimodule functors -- valid and corrupted, must give the same
reports both ways: ``validate_modfun``, ``validate_bimodfun`` and the functor
``verify_orthogonality`` and ``verify_biedenharn_elliott``, with
``_exponent_table`` made to return None for the reference, on a fresh copy
of the functor.  Building a functor or a context builds no table; the first use
builds one per A or B table, kept on the functor for every later reader.

The bimodule hexagon is decided on the A and B tables together.  Gauged
functors on product bimodule categories over Z/2 x Z/3, Z/3 x Z/2, Z/2 x Z/2
and Z/3 x Z/3, whose Omega is not trivial, with blocks scaled by roots, made
zero, non-monomial or permuted, or with m made not invariant, must give the
report of the reference path, and with both tables every instance that
holds must be decided on them.

The adjoint of a functor with a table is read off that table, blocks and
table alike; it must equal the transposed and scaled blocks of the
reference path, and the table its side reads must be the one built afresh
from copies of its blocks.
"""
import importlib
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from twistcat import _matrix
from twistcat._matrix import SMatrix
from twistcat.algebra import (cyclic_group, disjoint_union_gset, point_gset,
                              regular_gset)
from twistcat.cohomology import UnitCochain, differential, omega_cyclic
from twistcat.fusion import FusionData
from twistcat.modcat import (ModuleCategoryData, ModuleTrace, product_fusion,
                             bimod_to_deligne, deligne_to_bimod,
                             regular_module_category)
from twistcat.modfun import (BimoduleFunctorData, ModuleFunctorData, adjoint,
                             classify_simple_cyclic, coherence_sides,
                             deligne_to_bimodfun, direct_sum, hom_dimension,
                             identity_functor, invertible_hom,
                             validate_bimodfun, validate_modfun)
from twistcat.scalar import Scalar, Unit
from twistcat.sixj import (SixJContext, functor_context,
                           verify_biedenharn_elliott, verify_orthogonality)

from test_functor_reports import _identity_bimodule_functor

CHECKS = settings(derandomize=True, max_examples=60, deadline=None)
CORRUPTIONS = ("none", "root", "non-monomial", "repeated column",
               "not invariant")
modfun_module = importlib.import_module("twistcat.modfun")


def _fusion(n: int, s: int) -> FusionData:
    grp = cyclic_group(n)
    return FusionData(grp, omega_cyclic(n, s),
                      UnitCochain.trivial(1, point_gset(grp), 1))


def _gauged(draw, data: ModuleCategoryData) -> ModuleCategoryData:
    """data with its Psi times d(mu), mu a random normalized 1-cochain."""
    grp, psi = data.fusion.group, data.psi
    x, root = psi.carrier, max(psi.root_order, grp.order)
    mu = [0 if g == grp.identity else draw(st.integers(0, root - 1))
          for g in grp.elements() for _ in range(x.size)]
    return ModuleCategoryData(data.fusion, x, psi * differential(
        UnitCochain.from_flat(1, x, root, mu)))


@st.composite
def _categories(draw, fusion: FusionData, twisted: bool):
    """A module category over the fusion data: the regular one, or for
    trivial omega a point or point + regular carrier, its Psi gauged by a
    random normalized 1-cochain."""
    grp = fusion.group
    kind = draw(st.sampled_from(("regular",) if twisted
                                else ("regular", "point", "both")))
    if kind == "regular":
        return _gauged(draw, regular_module_category(fusion))
    x = point_gset(grp) if kind == "point" else disjoint_union_gset(
        point_gset(grp), regular_gset(grp))
    return _gauged(draw, ModuleCategoryData(
        fusion, x, UnitCochain.trivial(2, x, grp.order)))


@st.composite
def _module_functors(draw):
    """A simple, a direct sum of simples or the adjoint of either."""
    n = draw(st.integers(2, 4))
    s = draw(st.integers(0, n - 1))
    fusion = _fusion(n, s)
    source, target = (draw(_categories(fusion, s > 0)),
                      draw(_categories(fusion, s > 0)))
    simples = [c.functor for c in classify_simple_cyclic(source, target)]
    picks = draw(st.lists(st.sampled_from(simples), min_size=1, max_size=3))
    f = picks[0] if len(picks) == 1 else direct_sum(picks)
    return adjoint(f) if draw(st.booleans()) else f


def _tables(f) -> dict:
    out = {"a": dict(f.a)}
    if isinstance(f, BimoduleFunctorData):
        out["b"] = dict(f.b)
    return out


def _rebuild(f, mult, tables):
    if isinstance(f, BimoduleFunctorData):
        return BimoduleFunctorData(f.source, f.target, mult, tables["a"],
                                   tables["b"])
    return ModuleFunctorData(f.source, f.target, mult, tables["a"])


def _corrupt(draw, f, how: str):
    """f with one block changed as ``how`` says, or with a supported pair
    dropped from m where its orbit has another pair, so m is not invariant.
    A block is made non-monomial as E T, E the identity plus one entry
    above the diagonal, or replaced by a monomial block whose first two rows
    share a column; of a functor with 1 x 1 blocks only, f + f is
    corrupted."""
    if how == "none":
        return f
    if how in ("non-monomial", "repeated column") and all(
            mat.nrows == 1 for mat in f.a.values()):
        if isinstance(f, BimoduleFunctorData):
            how = "root"
        else:
            f = direct_sum([f, f])
    tables = _tables(f)
    mult = [list(row) for row in f._mult_rows()]
    if how == "not invariant":
        moved = [(x, y) for x, y in f.support()
                 if any(f.multiplicity(*p) and p != (x, y)
                        for p in _orbit(f, x, y))]
        if not moved:
            how = "root"
        else:
            x, y = draw(st.sampled_from(moved))
            mult[x][y] = 0
            for table in tables.values():
                for key in [k for k in table if k[1:] == (x, y)]:
                    del table[key]
            return _rebuild(f, mult, tables)
    name = draw(st.sampled_from(sorted(tables)))
    keys = sorted(k for k, mat in tables[name].items()
                  if how == "root" or mat.nrows > 1)
    key = draw(st.sampled_from(keys))
    mat = tables[name][key]
    n = mat.nrows
    if how == "root":
        order = draw(st.integers(2, 12))
        mat = mat.scale(Unit(order, draw(st.integers(1, order - 1))))
    elif how == "non-monomial":
        mat = SMatrix([[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                       for i in range(n)]) @ mat
    else:
        root = Scalar.root_of_unity(4, draw(st.integers(0, 3)))
        mat = SMatrix([[root if j == max(i - 1, 0) else 0 for j in range(n)]
                       for i in range(n)])
    tables[name][key] = mat
    return _rebuild(f, mult, tables)


def _orbit(f, x, y):
    sides = coherence_sides(f)
    return {(side.source.apply(g, x), side.target.apply(g, y))
            for side in sides for g in side.group.elements()}


def _reports(f, bent: bool) -> list:
    """The validate, orthogonality and Biedenharn-Elliott reports; with
    ``bent`` the source trace values are times i, which orthogonality sees."""
    validate = (validate_bimodfun if isinstance(f, BimoduleFunctorData)
                else validate_modfun)
    ctx = functor_context(f)
    if bent:
        values = tuple(v * Unit(4, 1) for v in ctx.source_trace.values)
        ctx = SixJContext(functor=f, source_trace=ModuleTrace(values),
                          target_trace=ctx.target_trace)
    return [(r.ok, r.checked, r.failed, r.failures)
            for r in (validate(f), verify_orthogonality(ctx),
                      verify_biedenharn_elliott(ctx))]


def _assert_same_both_ways(f, bent: bool) -> list:
    # the reference runs on a copy of f: f keeps the tables it has built
    fast = _reports(f, bent)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modfun_module, "_exponent_table", lambda *args: None)
        assert fast == _reports(_rebuild(f, f.mult, _tables(f)), bent)
    return fast


@CHECKS
@given(_module_functors(), st.sampled_from(CORRUPTIONS), st.booleans(),
       st.data())
def test_module_functor_reports_match_the_reference_path(f, how, bent, data):
    reports = _assert_same_both_ways(_corrupt(data.draw, f, how), bent)
    if how == "none":
        assert all(ok for ok, *_ in reports) != bent


@CHECKS
@given(st.sampled_from([(2, 0, 1), (2, 1, 1), (3, 1, 2), (3, 0, 0)]),
       st.sampled_from(CORRUPTIONS), st.data())
def test_bimodule_functor_reports_match_the_reference_path(twists, how, data):
    f = _identity_bimodule_functor(*twists)
    reports = _assert_same_both_ways(_corrupt(data.draw, f, how), False)
    assert all(ok for ok, *_ in reports) == (how == "none")


@st.composite
def _bimodule_functors(draw):
    """A functor on the regular bimodule category of Z/n and Z/m, its
    product-group Psi gauged so that Omega is as a rule not trivial: a sum
    of one to three simples where Z/n x Z/m is cyclic, else of identities,
    gauged by roots r_{x,y} (A -> r_{x,y} A r_{g.x,g.y}^-1 on the product
    group) and split into A and B by ``deligne_to_bimodfun``."""
    n, m, sg, sh = draw(st.sampled_from([(2, 3, 1, 2), (3, 2, 0, 1),
                                         (2, 2, 1, 1), (3, 3, 1, 2)]))
    left, right = _fusion(n, sg), _fusion(m, sh)
    prod = product_fusion(left, right)
    bim = deligne_to_bimod(_gauged(draw, regular_module_category(prod)),
                           left, right)
    mc = bimod_to_deligne(bim)
    summands = ([c.functor for c in classify_simple_cyclic(mc, mc)]
                if gcd(n, m) == 1 else [identity_functor(mc)])
    picks = draw(st.lists(st.sampled_from(summands), min_size=1, max_size=3))
    k = picks[0] if len(picks) == 1 else direct_sum(picks)
    x_set = k.source.X
    gauge = {p: Unit(12, draw(st.integers(0, 11))) for p in k.support()}
    a = {(g, x, y): mat.scale(gauge[(x, y)] * gauge[
             (x_set.apply(g, x), x_set.apply(g, y))].inverse())
         for (g, x, y), mat in k.a.items()}
    return deligne_to_bimodfun(
        ModuleFunctorData(k.source, k.target, k.mult, a), bim, bim)


def _corrupt_blocks(draw, f):
    """f with up to three A or B blocks each scaled by a root of unity, made
    zero, made non-monomial (E T for E the identity plus one entry above
    the diagonal, or a 1 x 1 block times 1 + i) or with its rows cyclically
    permuted, or with the multiplicity of a block's pair lowered by one and
    every block there an identity, so m is not invariant; the last two on a
    block of size 2 or 3 where there is one.  Also the kinds that the
    blocks still show: lowering a multiplicity replaces every block of its
    pair, so it undoes the earlier corruptions there."""
    tables, kinds = _tables(f), []
    mult = [list(row) for row in f._mult_rows()]
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(("root", "zero", "non-monomial",
                                    "permuted", "shrunk")))
        blocks = sorted((name, key) for name in tables
                        for key, mat in tables[name].items()
                        if how not in ("permuted", "shrunk") or mat.nrows > 1)
        if not blocks:
            how, blocks = "root", sorted((name, key) for name in tables
                                         for key in tables[name])
        name, key = draw(st.sampled_from(blocks))
        mat = tables[name][key]
        n = mat.nrows
        kinds.append((how, key))
        if how == "shrunk":
            x, y = key[1:]
            kinds = [(kind, at) for kind, at in kinds[:-1]
                     if at[1:] != (x, y)] + kinds[-1:]
            mult[x][y] = n - 1
            for table in tables.values():
                for other in [k for k in table if k[1:] == (x, y)]:
                    table[other] = SMatrix.identity(n - 1)
            continue
        if how == "root":
            mat = mat.scale(Unit(12, draw(st.integers(1, 11))))
        elif how == "zero":
            mat = SMatrix([[0] * n for _ in range(n)])
        elif how == "permuted":
            mat = SMatrix(mat.rows[1:] + mat.rows[:1])
        elif n == 1:
            mat = mat.scale(Scalar(4, [1, 1]))
        else:
            mat = SMatrix([[int(i == j or (i, j) == (0, 1)) for j in range(n)]
                           for i in range(n)]) @ mat
        tables[name][key] = mat
    return _rebuild(f, mult, tables), [kind for kind, _ in kinds]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_bimodule_functors(), st.data())
def test_the_hexagon_on_the_tables_matches_the_reference_path(f, data):
    # the report of validate_bimodfun, hexagon failures included, is the
    # one a fresh copy gives with no exponent table; a functor whose blocks
    # are all roots times permutations decides on its tables every instance
    # that holds, and multiplies blocks only to report a failure, at most
    # the two products of a hexagon instance
    bad, kinds = _corrupt_blocks(data.draw, f)
    monomial = all(side.exponents[1] is not None
                   for side in coherence_sides(bad))
    matmul, products = SMatrix.__matmul__, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SMatrix, "__matmul__", lambda *args: products.append(
            args) or matmul(*args))
        fast = validate_bimodfun(bad)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modfun_module, "_exponent_table", lambda *args: None)
        ref = validate_bimodfun(_rebuild(bad, bad.mult, _tables(bad)))
    assert (fast.checked, fast.failed, fast.failures) == (
        ref.checked, ref.failed, ref.failures)
    assert monomial == (set(kinds) <= {"root", "permuted", "shrunk"})
    assert not monomial or len(products) <= 2 * fast.failed


def test_the_corruptions_leave_the_table_or_fail():
    # a root keeps a table and fails; a non-monomial or singular block
    # drops the table, so the side is decided on the reference path
    mc = regular_module_category(_fusion(3, 1))
    simple = classify_simple_cyclic(mc, mc)[0].functor
    f = direct_sum([simple, simple])
    (side,) = coherence_sides(f)
    assert side.exponents[1] is not None
    for mat in (SMatrix([[1, 1], [0, 1]]), SMatrix([[1, 0], [1, 0]])):
        a = dict(f.a)
        a[(1, 0, 0)] = mat
        (bad,) = coherence_sides(ModuleFunctorData(f.source, f.target,
                                                   f.mult, a))
        assert bad.exponents[1] is None
        assert not validate_modfun(bad.functor).ok


def test_tables_are_built_on_first_use_once_per_functor_table(monkeypatch):
    # constructing a functor or a context builds no table; the first use
    # builds one per A or B table and keeps it on the functor, so validation,
    # a context's sweeps and the hom spaces all read that one build
    build = modfun_module._exponent_table
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    b = _identity_bimodule_functor(2, 1, 1)   # validated by its builder
    monkeypatch.setattr(modfun_module, "_exponent_table", counting)
    mc = regular_module_category(_fusion(3, 1))
    simple = classify_simple_cyclic(mc, mc)[0].functor
    bimodule = BimoduleFunctorData(b.source, b.target, b.mult, b.a, b.b)
    contexts = [functor_context(simple), functor_context(bimodule)]
    assert calls == []
    assert validate_modfun(simple).ok and len(calls) == 1
    assert validate_bimodfun(bimodule).ok and len(calls) == 3
    for ctx in contexts:
        for _ in range(2):
            assert verify_orthogonality(ctx).ok
            assert verify_biedenharn_elliott(ctx).ok
    assert hom_dimension(simple, simple) == 1
    assert invertible_hom(simple, simple) is not None
    assert validate_modfun(simple).ok and len(calls) == 3


def test_the_exponent_table_reads_columns_and_exponents():
    # rows as (column, exponent mod L), L the lcm of the roots' orders and
    # the given order; a non-monomial block or a repeated column gives None
    z = Scalar.root_of_unity
    blocks = {"p": SMatrix([[0, z(3, 1)], [-z(4, 1), 0]]),
              "q": SMatrix([[Unit(2, 1).to_scalar()]])}
    assert _matrix._exponent_table(blocks, 5) == (
        60, {"p": ((1, 20), (0, 45)), "q": ((0, 30),)})
    for bad in (SMatrix([[1, 1], [0, 1]]), SMatrix([[1, 0], [1, 0]]),
                SMatrix([[Scalar(3, [1, 1])]])):
        assert _matrix._exponent_table({"p": bad}) is None


def _fresh_table(f):
    """The A table's exponent table built from copies of f's blocks."""
    order = lcm(f.source.psi.root_order, f.target.psi.root_order)
    return _matrix._exponent_table(
        {key: SMatrix(mat.rows) for key, mat in f.a.items()}, order)


@CHECKS
@given(_module_functors())
def test_adjoints_read_off_the_table_match_the_reference_path(f):
    # the reference transposes and scales each block of a fresh copy of f,
    # which builds no table; blocks, JSON and the result's table agree
    adj = adjoint(f)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modfun_module, "_exponent_table", lambda *args: None)
        ref = adjoint(_rebuild(f, f.mult, _tables(f)))
    assert adj.mult_flat == ref.mult_flat and adj.a.keys() == ref.a.keys()
    for key, mat in adj.a.items():
        assert mat == ref.a[key] and mat.to_json() == ref.a[key].to_json()
    (side,) = coherence_sides(adj)
    assert side.exponents[:2] == _fresh_table(adj)
    assert validate_modfun(adj).ok


def test_adjoints_without_a_table_are_transposed_and_scaled(monkeypatch):
    # a sum of two simples conjugated by a constant non-monomial P is valid
    # and has no table; its adjoint transposes and scales, while a source
    # with a table builds no transpose
    mc = ModuleCategoryData(_fusion(3, 0), point_gset(cyclic_group(3)),
                            UnitCochain.trivial(2, point_gset(cyclic_group(3)),
                                                1))
    simples = [c.functor for c in classify_simple_cyclic(mc, mc)]
    summed = direct_sum(simples[1:])
    p = SMatrix([[1, 1], [0, 1]])
    bent = ModuleFunctorData(mc, mc, summed.mult, {
        key: p @ mat @ p.inverse() for key, mat in summed.a.items()})
    assert validate_modfun(bent).ok
    assert coherence_sides(bent)[0].exponents[1] is None
    transpose = SMatrix.transpose
    transposed = []
    monkeypatch.setattr(SMatrix, "transpose",
                        lambda mat: transposed.append(mat) or transpose(mat))
    adj = adjoint(summed)
    assert transposed == [] and coherence_sides(adj)[0].exponents[1]
    bent_adj = adjoint(bent)
    assert len(transposed) == len(bent.a)
    assert coherence_sides(bent_adj)[0].exponents[1] is None
    assert _fresh_table(bent_adj) is None
    assert adjoint(bent_adj) == bent
