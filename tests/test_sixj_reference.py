"""The support-driven 6j sweeps against the dense reference sweeps.

``sixj_dense`` loops over every label of the fusion and bimodule symbols and
over every candidate middle label of the functor symbols; ``twistcat.sixj``
visits only the composed label tuples.  The two must agree report for
report -- checked and failed counts, every failing tuple and its order,
printed values -- on valid data, on corrupted omega, kappa, trace and
bimodule cochains, and on corrupted and singular coherence blocks.  A last
matrix pins which relation detects which kind of corruption.
"""
import functools
import importlib
import itertools
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistcat._matrix import SMatrix
from twistcat.algebra import (FiniteGroup, GSet, Subgroup, coset_gset,
                              cyclic_group, direct_product, point_gset,
                              product_embeddings, restrict_gset)
from twistcat.cli import _all_contexts, parse_config
from twistcat.cohomology import UnitCochain, differential, omega_cyclic
from twistcat.errors import UndefinedLabels, ValidationError
from twistcat.fusion import FusionData, spherical_structures
from twistcat import modcat as modcat_module
from twistcat.modcat import (BimoduleCategoryData, FailureLog,
                             ModuleCategoryData, ModuleTrace, product_fusion,
                             bimod_to_deligne, deligne_to_bimod,
                             regular_module_category, validate_bimodcat)
from twistcat.modfun import (BimoduleFunctorData, ModuleFunctorData,
                             deligne_to_bimodfun, direct_sum,
                             identity_functor, validate_bimodfun,
                             validate_modfun)
from twistcat.scalar import Scalar, Unit
from twistcat.sixj import (SixJContext, SixJQuery, bimodule_context,
                           functor_context, fusion_context, sixj, sixj_table,
                           verify_biedenharn_elliott, verify_orthogonality)

from oracles import S3_TABLE
from test_functor_reports import (CASES as FUNCTOR_CASES, _fusion,
                                  _identity_bimodule_functor)
from sixj_dense import (corrupted_fusion, dense_biedenharn_elliott,
                        dense_orthogonality, dense_symbol)

EXAMPLES = pathlib.Path(__file__).parent.parent / "docs" / "examples"


def _kappa(grp, root, exps):
    return UnitCochain(1, point_gset(grp), root,
                       np.array(exps, dtype=np.int64).reshape(grp.order, 1))


def _random_omega(grp, root, seed):
    exps = np.random.default_rng(seed).integers(
        0, root, size=(grp.order,) * 3 + (1,))
    return UnitCochain(3, point_gset(grp), root, exps)


@pytest.fixture(autouse=True)
def every_failure(monkeypatch):
    """Keep every failure as a sample, so that reports are compared on every
    failing tuple and not only on the first few."""
    monkeypatch.setattr(FailureLog, "MAX_FAILURES", 10 ** 9)


def assert_same_report(new, ref, root_order_may_differ=False):
    """Counts, tuples, kinds and printed values agree.

    With ``root_order_may_differ`` an lhs may print the same value at a
    different root order (the fusion orthogonality sum of a kappa that is
    not a sign, printed at the reduced order of its one unit product).
    """
    assert (new.checked, new.failed) == (ref.checked, ref.failed)
    assert len(new.failures) == new.failed
    assert ([(f["kind"], f["tuple"], f["rhs"]) for f in new.failures]
            == [(f["kind"], f["tuple"], f["rhs"]) for f in ref.failures])
    for got, want in zip(new.failures, ref.failures):
        if root_order_may_differ:
            assert (eval(got["lhs"], {"Scalar": Scalar})
                    == eval(want["lhs"], {"Scalar": Scalar}))
        else:
            assert got["lhs"] == want["lhs"]


def _both(ctx):
    """(new, dense) report pairs of every scalar relation of a context."""
    return [(verify_orthogonality(ctx), dense_orthogonality(ctx)),
            (verify_biedenharn_elliott(ctx), dense_biedenharn_elliott(ctx))]


# ---------------------------------------------------------------------------
# fusion contexts
# ---------------------------------------------------------------------------

def _fusion_cases():
    for n in (2, 3, 4, 5):
        grp = cyclic_group(n)
        for s in ((0, 1) if n < 4 else (1,)):
            for fus in spherical_structures(grp, omega_cyclic(n, s)):
                yield f"Z{n}-s{s}-k{fus.kappa.exponents.ravel().tolist()}", fus
    g2 = cyclic_group(2)
    om = omega_cyclic(2, 1)
    for kl in spherical_structures(g2, om):
        right = FusionData(g2, omega_cyclic(2, 0), kl.kappa)
        yield (f"Z2xZ2-k{kl.kappa.exponents.ravel().tolist()}",
               product_fusion(kl, right))


FUSION_CASES = dict(_fusion_cases())


@pytest.mark.parametrize("name", sorted(FUSION_CASES))
def test_fusion_sweeps_match_the_dense_reference(name):
    ctx = fusion_context(FUSION_CASES[name])
    n = ctx.fusion.group.order
    (orth, orth_ref), (ber, ber_ref) = _both(ctx)
    assert orth.ok and orth.checked == n ** 6
    assert ber.ok and ber.checked == n ** 5
    assert_same_report(orth, orth_ref)
    assert_same_report(ber, ber_ref)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (3, 5)])
def test_corrupted_omega_matches_the_dense_reference(n, seed):
    grp = cyclic_group(n)
    bad = corrupted_fusion(grp, _random_omega(grp, n, seed),
                           _kappa(grp, 1, [0] * n))
    (orth, orth_ref), (ber, ber_ref) = _both(fusion_context(bad))
    assert orth.ok
    assert not ber.ok
    assert_same_report(orth, orth_ref)
    assert_same_report(ber, ber_ref)


@pytest.mark.parametrize("seed", range(4))
def test_corrupted_omega_and_kappa_match_the_dense_reference(seed):
    # a random omega over a kappa that is not a sign: both relations fail
    grp = cyclic_group(3)
    bad = corrupted_fusion(grp, _random_omega(grp, 3, seed),
                           _kappa(grp, 3, [0, 1, 2]))
    (orth, orth_ref), (ber, ber_ref) = _both(fusion_context(bad))
    assert orth.failed and ber.failed
    assert_same_report(orth, orth_ref, root_order_may_differ=True)
    assert_same_report(ber, ber_ref)


def test_nonabelian_fusion_sweeps_match_the_dense_reference():
    # on S3, n = m^-1 k and k m^-1 differ
    s3 = FiniteGroup(S3_TABLE)
    bad = corrupted_fusion(s3, _random_omega(s3, 2, 4),
                           _kappa(s3, 1, [0] * 6))
    (orth, orth_ref), (ber, ber_ref) = _both(fusion_context(bad))
    assert orth.ok and not ber.ok
    assert_same_report(orth, orth_ref)
    assert_same_report(ber, ber_ref)


@pytest.mark.parametrize("n,root,exps,detected", [
    (3, 9, [0, 1, 2], True),      # neither a character nor a sign
    (3, 3, [0, 1, 2], True),      # a character, not a sign
    (4, 2, [0, 1, 1, 0], False),  # signs, not a character
])
def test_corrupted_kappa_matches_the_dense_reference(n, root, exps, detected):
    # both relations multiply out to squares of kappa values, so only a
    # kappa that is not a sign shows
    grp = cyclic_group(n)
    bad = corrupted_fusion(grp, omega_cyclic(n, 1), _kappa(grp, root, exps))
    (orth, orth_ref), (ber, ber_ref) = _both(fusion_context(bad))
    assert orth.ok == ber.ok == (not detected)
    assert_same_report(orth, orth_ref, root_order_may_differ=True)
    assert_same_report(ber, ber_ref)


def test_fusion_symbols_match_the_closed_forms_on_the_whole_label_box():
    fus = FUSION_CASES["Z3-s1-k[0, 0, 0]"]
    ctx = fusion_context(fus)
    for kind in ("fusion+", "fusion-"):
        for labels in itertools.product(range(3), repeat=6):
            _assert_symbol(ctx, kind, labels)


def _assert_symbol(ctx, kind, labels):
    want = dense_symbol(ctx, kind, labels)
    query = SixJQuery(kind, ctx, labels)
    if want is None:
        with pytest.raises(UndefinedLabels):
            sixj(query)
    else:
        assert sixj(query).value == want


# ---------------------------------------------------------------------------
# bimodule contexts: the z2 bimodule B of docs/examples/z2.json, and a Z/3
# bimodule on three points whose right action tells k from k^-1
# ---------------------------------------------------------------------------

def _with(data, **cochains):
    fields = {name: getattr(data, name) for name in
              ("left", "right", "X", "psi", "phi", "omega_mid")}
    fields.update(cochains)
    return BimoduleCategoryData(**fields)


def _z3_bimodule():
    """Z/3 x Z/3 acting on the cosets of the diagonal, untwisted, with
    Psi and Omega from a random gauge of the product structure and a Phi
    that is a nonzero coboundary constant along X."""
    g3 = cyclic_group(3)
    fus = FusionData(g3, omega_cyclic(3, 0), _kappa(g3, 1, [0, 0, 0]))
    pf = product_fusion(fus, fus)
    prod = pf.group
    x = coset_gset(prod, Subgroup(prod, (0, 4, 8)))
    mu = np.random.default_rng(0).integers(0, 3, size=(9, 3))
    mu[prod.identity] = 0
    gauged = ModuleCategoryData(pf, x, differential(UnitCochain(1, x, 3, mu)))
    bim = deligne_to_bimod(gauged, fus, fus)
    nu = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0]])
    bim = _with(bim, phi=differential(UnitCochain(1, bim.x_h, 3, nu)))
    assert validate_bimodcat(bim).ok
    return bim


def _bump(cochain, index, root):
    exps = cochain.exponents * (root // cochain.root_order)
    exps[index] = (exps[index] + 1) % root
    return UnitCochain(cochain.degree, cochain.carrier, root, exps,
                       slot_groups=cochain.slot_groups)


def _bimodule_cases(example="z2"):
    if example == "z2":
        bim = parse_config(str(EXAMPLES / "z2.json")).bimodcats["B"]
        root, point, bad_dim = 4, 3, Unit(4, 1)
    else:
        bim = _z3_bimodule()
        root, point, bad_dim = 9, 2, Unit(3, 1)
    valid = bimodule_context(bim)
    values = list(valid.trace.values)
    values[1] = bad_dim
    # a broken Psi, Phi or Omega leaves the trace, and the context, buildable
    return {
        "valid": valid,
        "trace": SixJContext(bimodule=bim, trace=ModuleTrace(tuple(values))),
        "psi": bimodule_context(
            _with(bim, psi=_bump(bim.psi, (1, 1, point), root))),
        "phi": bimodule_context(
            _with(bim, phi=_bump(bim.phi, (1, 1, 0), root))),
        "omega": bimodule_context(
            _with(bim, omega_mid=_bump(bim.omega_mid, (1, 1, point), root))),
    }


BIMODULE_CASES = list(itertools.product(
    ["z2", "z3"], ["valid", "trace", "psi", "phi", "omega"]))


@pytest.mark.parametrize("example,case", BIMODULE_CASES)
def test_bimodule_orthogonality_matches_the_dense_reference(example, case):
    ctx = _bimodule_cases(example)[case]
    new, ref = verify_orthogonality(ctx), dense_orthogonality(ctx)
    assert new.checked == {"z2": 1536, "z3": 2187}[example]
    assert new.ok == (case != "trace")
    assert_same_report(new, ref)


@pytest.mark.parametrize("example,case", BIMODULE_CASES)
def test_bimodule_biedenharn_elliott_matches_the_dense_reference(example,
                                                                  case):
    # |K|^3 |X|: K = Z/2 x Z/2 on four points, Z/3 x Z/3 on three; the
    # trace cancels, a broken Psi, Phi or Omega fails
    ctx = _bimodule_cases(example)[case]
    new, ref = verify_biedenharn_elliott(ctx), dense_biedenharn_elliott(ctx)
    assert new.checked == {"z2": 256, "z3": 2187}[example]
    assert new.ok == (case in ("valid", "trace"))
    assert_same_report(new, ref)


def test_product_structure_is_built_once_per_bimodule(monkeypatch):
    # the context's trace, both sweeps and the validating conversion share
    # one product structure, so its product category is built once
    bim = _z3_bimodule()
    build, calls = modcat_module.product_fusion, []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(modcat_module, "product_fusion", counting)
    ctx = bimodule_context(bim)
    assert verify_orthogonality(ctx).ok
    assert verify_biedenharn_elliott(ctx).ok
    assert bimod_to_deligne(bim) is bim.product_structure
    assert len(calls) == 1


@pytest.mark.parametrize("example,case", [("z2", "omega"), ("z3", "valid"),
                                          ("z3", "phi")])
def test_bimodule_symbols_match_the_closed_forms_on_the_whole_label_box(
        example, case):
    ctx = _bimodule_cases(example)[case]
    data = ctx.bimodule
    ng, nh, nx = data.left.group.order, data.right.group.order, data.X.size
    boxes = {"m": (ng, ng, nx, nx, nx, ng), "n": (nx, nh, nh, nx, nx, nh),
             "b": (ng, nx, nh, nx, nx, nx)}
    for kind in ctx.kinds():
        for labels in itertools.product(*map(range, boxes[kind[0]])):
            _assert_symbol(ctx, kind, labels)


def _s3_regular_bimodule():
    """S3 x S3 acting on the six points of S3 by (g, h).x = g x h^-1, with
    trivial Psi, Phi and Omega."""
    s3 = FiniteGroup(S3_TABLE)
    fus = FusionData(s3, UnitCochain.trivial(3, point_gset(s3), 1),
                     UnitCochain.trivial(1, point_gset(s3), 1))
    x = GSet(direct_product(s3, s3),
             [[s3.op(s3.op(g, y), s3.inv(h)) for y in range(6)]
              for g in range(6) for h in range(6)])
    emb_g, emb_h = product_embeddings(s3, s3)
    return BimoduleCategoryData(
        fus, fus, x, UnitCochain.trivial(2, restrict_gset(x, emb_g, s3), 1),
        UnitCochain.trivial(2, restrict_gset(x, emb_h, s3), 1),
        UnitCochain.trivial(2, x, 1, slot_groups=(s3, s3)))


def test_nonabelian_bimodule_biedenharn_elliott_matches_the_dense_reference():
    # K = S3 x S3 on six points, 36^3 * 6 pentagon points: the first
    # bimodule over groups that are not abelian, so ij and ji differ.  The
    # dense sweep sums over all of K at each point, so a bumped Omega is
    # swept in full and compared with the dense sweep on 300 random points
    # and every failing tuple: the two fail at the same tuples, in order
    bim = _s3_regular_bimodule()
    ctx = bimodule_context(bim)
    report = verify_biedenharn_elliott(ctx)
    assert report.ok and report.checked == 279_936
    assert verify_orthogonality(ctx).ok
    bad = bimodule_context(
        _with(bim, omega_mid=_bump(bim.omega_mid, (1, 2, 3), 3)))
    new = verify_biedenharn_elliott(bad)
    assert new.checked == 279_936 and new.failed == len(new.failures) > 0
    rng = random.Random(0)
    scope = [tuple(rng.randrange(n) for n in (36, 36, 36, 6))
             for _ in range(300)]
    scope += [f["tuple"] for f in new.failures]
    ref = dense_biedenharn_elliott(bad, scope)
    assert (ref.failed, ref.failures) == (new.failed, new.failures)


@pytest.mark.parametrize("example,seed", [("z2", 0), ("z3", 1), ("z2", 2),
                                          ("z3", 3)])
def test_bimodule_with_every_cochain_bumped_matches_the_dense_reference(
        example, seed):
    # Psi, Phi and Omega each bumped at a random position and a trace value
    # moved off its sign: both whole sweeps fail at many tuples at once
    rng = random.Random(seed)
    bim = _bimodule_cases(example)["valid"].bimodule
    root = {"z2": 4, "z3": 9}[example]
    bumped = {name: _bump(getattr(bim, name),
                          tuple(rng.randrange(size)
                                for size in getattr(bim, name).shape), root)
              for name in ("psi", "phi", "omega_mid")}
    bim = _with(bim, **bumped)
    values = list(bimodule_context(bim).trace.values)
    values[rng.randrange(len(values))] = Unit(root, rng.randrange(1, root))
    ctx = SixJContext(bimodule=bim, trace=ModuleTrace(tuple(values)))
    (orth, orth_ref), (ber, ber_ref) = _both(ctx)
    assert orth.failed and ber.failed
    assert_same_report(orth, orth_ref)
    assert_same_report(ber, ber_ref)


@pytest.mark.parametrize("seed", range(3))
def test_random_bimodule_traces_match_the_dense_reference(seed):
    # one to three trace values set to random roots: orthogonality weighs
    # each middle label by its trace, Biedenharn-Elliott cancels the trace
    rng = random.Random(seed)
    example = "z3" if seed % 2 else "z2"
    valid = _bimodule_cases(example)["valid"]
    values = list(valid.trace.values)
    for x in rng.sample(range(len(values)), rng.randint(1, 3)):
        root = rng.choice([3, 4, 6])
        values[x] = Unit(root, rng.randrange(1, root))
    ctx = SixJContext(bimodule=valid.bimodule,
                      trace=ModuleTrace(tuple(values)))
    (orth, orth_ref), (ber, ber_ref) = _both(ctx)
    assert orth.failed and ber.ok
    assert_same_report(orth, orth_ref)
    assert_same_report(ber, ber_ref)


@functools.cache
def _valid_bimodule(example):
    return _bimodule_cases(example)["valid"].bimodule


def _bumped(cochain, index, root, steps):
    """The cochain with its exponent at index raised by steps / root of a
    turn."""
    for _ in range(steps):
        cochain = _bump(cochain, index, root)
    return cochain


@st.composite
def _random_context(draw, family):
    """A Z/n fusion context (family ``Zn``) with a random s and spherical
    kappa, its omega kept or bumped, or the z2 or z3 bimodule with Psi, Phi
    or Omega bumped; a bump is at a random position by a random amount."""
    def bump(cochain):
        index = tuple(draw(st.integers(0, size - 1)) for size in cochain.shape)
        root = cochain.root_order * draw(st.integers(2, 3))
        return _bumped(cochain, index, root, draw(st.integers(1, root - 1)))

    if family in ("z2", "z3"):
        bim = _valid_bimodule(family)
        name = draw(st.sampled_from(["psi", "phi", "omega_mid"]))
        return bimodule_context(_with(bim, **{name: bump(getattr(bim, name))}))
    n = int(family[1:])
    grp = cyclic_group(n)
    omega = omega_cyclic(n, draw(st.integers(0, n - 1)))
    fus = draw(st.sampled_from(spherical_structures(grp, omega)))
    if draw(st.booleans()):
        return fusion_context(fus)
    return fusion_context(corrupted_fusion(grp, bump(omega), fus.kappa))


@pytest.mark.parametrize("family", ["Z2", "Z3", "Z4", "z2", "z3"])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_random_scalar_contexts_match_the_dense_reference(family, data):
    # a bump at 2 or 3 times a cochain's order raises the layout's root
    # order (4, 6, 8, 9, 12 ...), and the n layout's exchanged symbols meet
    # a bumped Phi
    for new, ref in _both(data.draw(_random_context(family))):
        assert_same_report(new, ref)


# ---------------------------------------------------------------------------
# functor contexts: the functor report corpus, multiplicity-2 blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(FUNCTOR_CASES))
def test_functor_orthogonality_matches_the_dense_reference(name):
    ctx = functor_context(FUNCTOR_CASES[name])
    assert_same_report(verify_orthogonality(ctx), dense_orthogonality(ctx))


def _doubled_identity(n, singular=False):
    """id + id on the regular Z/n category, every A block 2 x 2; with
    ``singular`` its block at (1, 0, 0) is replaced by a rank-one one."""
    f = identity_functor(regular_module_category(_fusion(n, 1)))
    f = direct_sum([f, f])
    if not singular:
        return f
    a = dict(f.a)
    a[(1, 0, 0)] = SMatrix([[1, 1], [1, 1]])
    return ModuleFunctorData(f.source, f.target, f.mult, a)


@pytest.mark.parametrize("n,singular", [(3, False), (4, False), (3, True)])
def test_multiplicity_two_orthogonality_matches_the_dense_reference(
        n, singular):
    ctx = functor_context(_doubled_identity(n, singular))
    new, ref = verify_orthogonality(ctx), dense_orthogonality(ctx)
    assert new.ok == (not singular)
    assert_same_report(new, ref)


@pytest.mark.parametrize("n,singular", [(3, False), (4, False), (3, True)])
def test_multiplicity_two_biedenharn_elliott_matches_the_dense_reference(
        n, singular):
    # the rank-one block breaks the composition rule at its instances
    ctx = functor_context(_doubled_identity(n, singular))
    new, ref = verify_biedenharn_elliott(ctx), dense_biedenharn_elliott(ctx)
    assert new.ok == (not singular)
    assert_same_report(new, ref)


@pytest.mark.parametrize("seed", range(3))
def test_random_multiplicity_two_blocks_match_the_dense_reference(seed):
    # two 2 x 2 blocks of id + id on the regular Z/3 category replaced by a
    # root times a permutation and by a random integer matrix: the composition
    # rule breaks, orthogonality fails only where the integer block is
    # singular
    rng = random.Random(seed)
    f = _doubled_identity(3)
    a = dict(f.a)
    first, second = rng.sample(sorted(a), 2)
    u = Unit(rng.choice([2, 3, 4]), 1).to_scalar()
    zero = Scalar.zero()
    a[first] = SMatrix([[zero, u], [u, zero]])
    a[second] = SMatrix([[rng.randint(-2, 2) for _ in range(2)]
                         for _ in range(2)])
    ctx = functor_context(ModuleFunctorData(f.source, f.target, f.mult, a))
    (orth, orth_ref), (ber, ber_ref) = _both(ctx)
    assert not ber.ok
    assert_same_report(orth, orth_ref)
    assert_same_report(ber, ber_ref)


@pytest.mark.parametrize("name", list(FUNCTOR_CASES))
def test_functor_biedenharn_elliott_matches_the_dense_reference(name):
    ctx = functor_context(FUNCTOR_CASES[name])
    assert_same_report(verify_biedenharn_elliott(ctx),
                       dense_biedenharn_elliott(ctx))


def _non_invariant_functor(mult):
    """Identity blocks on the regular Z/2 category (omega trivial) over a
    multiplicity table that the action does not preserve."""
    reg = regular_module_category(_fusion(2, 0))
    a = {(g, x, x): SMatrix.identity(mult[x][x])
         for g in range(2) for x in range(2) if mult[x][x]}
    return ModuleFunctorData(reg, reg, mult, a)


@pytest.mark.parametrize("mult,rhs", [
    # blocks of different sizes: the product is undefined, one failure each
    ([[2, 0], [0, 1]], {(0, 1, 0, 0): "'cannot multiply 2x2 by 1x1'",
                        (0, 1, 1, 1): "'cannot multiply 1x1 by 2x2'",
                        (1, 1, 0, 0): "'cannot multiply 2x2 by 1x1'",
                        (1, 1, 1, 1): "'cannot multiply 1x1 by 2x2'"}),
    # a missing moved block: the lhs against the zero matrix
    ([[1, 0], [0, 0]], {(0, 1, 0, 0): "SMatrix[0]",
                        (1, 1, 0, 0): "SMatrix[0]"}),
])
def test_non_invariant_multiplicities_fail_functor_biedenharn_elliott(mult,
                                                                      rhs):
    # the instances cond_A fails as moved blocks of another size or missing
    # ones; orthogonality pairs each block with its own inverse and passes
    f = _non_invariant_functor(mult)
    ctx = functor_context(f)
    report = verify_biedenharn_elliott(ctx)
    assert (report.checked, report.failed) == (4 * len(f.support()),
                                               len(rhs))
    assert {fail["tuple"]: fail["rhs"] for fail in report.failures} == rhs
    failing = [fail["tuple"] for fail in validate_modfun(f).failures
               if fail["condition"] == "cond_A"]
    assert failing == list(rhs)
    assert verify_orthogonality(ctx).ok
    assert_same_report(report, dense_biedenharn_elliott(ctx))


def test_functor_orthogonality_evaluates_one_term_per_composed_label(
        monkeypatch):
    # each composed label (l, j, a) of s and t has one a-sum and one c-sum
    # term, each one evaluation of the per-term routine
    sixj_module = importlib.import_module("twistcat.sixj")
    ctx = functor_context(_identity_bimodule_functor(3, 1, 2))
    labels = sum(len({row["labels"] for row in sixj_table(ctx, kind)})
                 for kind in ("s", "t"))
    calls = []
    term = sixj_module._orth_term

    def counting(*args):
        calls.append(args)
        return term(*args)

    monkeypatch.setattr(sixj_module, "_orth_term", counting)
    assert verify_orthogonality(ctx).ok
    assert labels == 54
    assert len(calls) == 2 * labels


def test_coherence_sides_are_built_once_per_functor_context(monkeypatch):
    # the A and B sides belong to the context: a symbol never rebuilds them
    sixj_module = importlib.import_module("twistcat.sixj")
    build = sixj_module.coherence_sides
    calls = []

    def counting(functor):
        calls.append(functor)
        return build(functor)

    monkeypatch.setattr(sixj_module, "coherence_sides", counting)
    ctx = functor_context(_identity_bimodule_functor(3, 1, 2))
    rows = 0
    for _ in range(5):
        rows += len(sixj_table(ctx, "s")) + len(sixj_table(ctx, "t^-1"))
    assert rows == 5 * 54
    assert len(calls) <= 1


def test_passing_functor_checks_multiply_no_matrices(monkeypatch):
    # on blocks that are roots times permutations the composition rule, the
    # hexagon, functor orthogonality and functor Biedenharn-Elliott are
    # decided on the exponent tables; a product matrix is built only for a
    # failure report.  Functor Biedenharn-Elliott is the composition
    # instance of A, so where it holds it multiplies no Unit either: the m
    # symbols and dimensions are read only for a failure
    f = _identity_bimodule_functor(3, 1, 2)
    ctx = functor_context(f)
    matmul, unit_mul = SMatrix.__matmul__, Unit.__mul__
    calls, unit_calls = [], []

    def counting(self, other):
        calls.append((self, other))
        return matmul(self, other)

    def counting_units(self, other):
        unit_calls.append((self, other))
        return unit_mul(self, other)

    monkeypatch.setattr(SMatrix, "__matmul__", counting)
    assert validate_bimodfun(f).ok
    assert verify_orthogonality(ctx).ok
    monkeypatch.setattr(Unit, "__mul__", counting_units)
    assert verify_biedenharn_elliott(ctx).ok
    monkeypatch.setattr(Unit, "__mul__", unit_mul)
    assert calls == [] and unit_calls == []
    # the products return for the failures of a corrupted block
    bad_a = dict(f.a)
    bad_a[(1, 0, 0)] = bad_a[(1, 0, 0)].scale(Unit(4, 1))
    bad = BimoduleFunctorData(f.source, f.target, f.mult, bad_a, f.b)
    report = validate_bimodfun(bad)
    assert not report.ok and calls


def test_passing_scalar_sweeps_multiply_no_units(monkeypatch):
    # the scalar symbols are exponents at one root order per layout: passing
    # orthogonality and Biedenharn-Elliott sweeps, layouts built included,
    # compare exponent sums and multiply no Unit
    contexts = [_bimodule_cases("z2")["valid"],
                fusion_context(FUSION_CASES["Z3-s1-k[0, 0, 0]"])]
    unit_mul, calls = Unit.__mul__, []

    def counting(self, other):
        calls.append((self, other))
        return unit_mul(self, other)

    monkeypatch.setattr(Unit, "__mul__", counting)
    for ctx in contexts:
        assert verify_orthogonality(ctx).ok
        assert verify_biedenharn_elliott(ctx).ok
    assert calls == []


def test_bimodule_biedenharn_elliott_keeps_its_layouts(monkeypatch):
    # the pentagon over K = G x H reads a fusion and an m layout of the
    # product structure, built by the first sweep and kept on the context
    ctx = _bimodule_cases("z2")["valid"]
    sixj_module = importlib.import_module("twistcat.sixj")
    build, built = sixj_module._layout, []

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sixj_module, "_layout", counting)
    first = verify_biedenharn_elliott(ctx)
    assert len(built) == 2
    second = verify_biedenharn_elliott(ctx)
    assert len(built) == 2
    assert (second.checked, second.failed) == (first.checked, first.failed)


def test_singular_matrix_symbol_raises_on_every_call():
    # a singular block has no inverse: each evaluation of it raises
    ctx = functor_context(_doubled_identity(3, singular=True))
    sixj_module = importlib.import_module("twistcat.sixj")
    (side,) = ctx.sides
    labels = (1, 0, 0, side.target.apply(1, 0), side.source.apply(1, 0))
    for _ in range(2):
        with pytest.raises(ValidationError, match="singular"):
            sixj_module._matrix_symbol(ctx, side, labels, True)
    assert sixj_module._matrix_symbol(ctx, side, labels, False) is not None


def _candidate_labels(ctx, kind):
    """Label tuples sixj might accept, in lexicographic order: the whole box
    of a scalar kind, and for a matrix kind every (l, j, a) with b = g.a and
    c = g.j, which the action fixes."""
    if kind in ("s", "s^-1", "t", "t^-1"):
        side = ctx.sides[kind[0] == "t"]
        for l, j, a in itertools.product(range(side.group.order),
                                         range(side.source.size),
                                         range(side.target.size)):
            g = side.acting(l)
            yield (l, j, a, side.target.apply(g, a), side.source.apply(g, j))
        return
    if ctx.fusion is not None:
        box = (ctx.fusion.group.order,) * 6
    else:
        data = ctx.bimodule
        ng, nh = data.left.group.order, data.right.group.order
        nx = data.X.size
        box = {"m": (ng, ng, nx, nx, nx, ng), "n": (nx, nh, nh, nx, nx, nh),
               "b": (ng, nx, nh, nx, nx, nx)}[kind[0]]
    yield from itertools.product(*map(range, box))


def _rows_label_by_label(ctx, kind):
    """sixj_table's rows from one sixj() call per label and index pair."""
    rows = []
    for labels in _candidate_labels(ctx, kind):
        try:
            value = sixj(SixJQuery(kind, ctx, labels))
        except UndefinedLabels:
            continue
        if value.matrix is None:
            rows.append({"labels": labels, "indices": (), "value": value.value})
            continue
        for indices in itertools.product(range(1, value.matrix.nrows + 1),
                                         range(1, value.matrix.ncols + 1)):
            rows.append({"labels": labels, "indices": indices, "value":
                         sixj(SixJQuery(kind, ctx, labels, indices)).value})
    return rows


def _outcome(evaluate):
    """The rows, or the message of the ValidationError (a singular block)."""
    try:
        return evaluate()
    except ValidationError as exc:
        return str(exc)


def _table_contexts():
    for path in sorted(EXAMPLES.glob("*.json")):
        contexts, _ = _all_contexts(parse_config(str(path)))
        for name, ctx in contexts:
            yield f"{path.name} {name}", ctx
    for name, f in FUNCTOR_CASES.items():
        yield name, functor_context(f)
    for singular in (False, True):
        yield (f"Z3 doubled identity singular={singular}",
               functor_context(_doubled_identity(3, singular)))


TABLE_CONTEXTS = dict(_table_contexts())


@pytest.mark.parametrize("name", list(TABLE_CONTEXTS))
def test_sixj_table_rows_are_the_per_label_symbols(name):
    ctx = TABLE_CONTEXTS[name]
    for kind in ctx.kinds():
        table = _outcome(lambda: sixj_table(ctx, kind))
        assert table == _outcome(lambda: _rows_label_by_label(ctx, kind))
        assert table  # every context has some symbol (or a singular block)


# ---------------------------------------------------------------------------
# which relation sees which defect
# ---------------------------------------------------------------------------

def _fusion_corruption(kind):
    grp = cyclic_group(3)
    if kind == "omega":
        return fusion_context(corrupted_fusion(
            grp, _random_omega(grp, 3, 1), _kappa(grp, 1, [0, 0, 0])))
    return fusion_context(corrupted_fusion(
        grp, omega_cyclic(3, 1), _kappa(grp, 3, [0, 1, 2])))


# Scalar orthogonality reduces to dim(a) dim(c) sym sym^-1 = dim(a)^2
# dim(c)^2 = 1: it sees dimensions that are not signs and nothing of the
# twists omega, Psi, Phi, Omega.  Fusion Biedenharn-Elliott multiplies out
# omega and leaves kappa(f)^2 uncancelled.  The bimodule relation is the
# module pentagon of the product structure Gamma: the trace appears twice
# on each side and cancels, and a Psi, Phi or Omega that breaks the bimodule
# conditions breaks the twisted-cocycle condition of Gamma, which the
# pentagon reports as failures.  Functor
# orthogonality pairs each coherence block with its own inverse, so it sees
# only singular blocks, on the side (s for A, t for B) that holds them; the
# functor Biedenharn-Elliott relation is the composition rule of A, so it
# reads A alone and sees a wrong A block, singular or not; a wrong B block
# shows only in validate_bimodfun.
DETECTION = [
    ("fusion-omega", "orthogonality", "passes"),
    ("fusion-omega", "biedenharn-elliott", "fails"),
    ("fusion-kappa", "orthogonality", "fails"),
    ("fusion-kappa", "biedenharn-elliott", "fails"),
    ("bimodule-trace", "orthogonality", "fails"),
    ("bimodule-trace", "biedenharn-elliott", "passes"),
    ("bimodule-psi", "orthogonality", "passes"),
    ("bimodule-psi", "biedenharn-elliott", "fails"),
    ("bimodule-phi", "orthogonality", "passes"),
    ("bimodule-phi", "biedenharn-elliott", "fails"),
    ("bimodule-omega", "orthogonality", "passes"),
    ("bimodule-omega", "biedenharn-elliott", "fails"),
    ("functor-Awrong", "orthogonality[s]", "passes"),
    ("functor-Awrong", "orthogonality[t]", "passes"),
    ("functor-Awrong", "biedenharn-elliott[s]", "fails"),
    ("functor-Awrong", "validate", "fails"),
    ("functor-Bwrong", "orthogonality[s]", "passes"),
    ("functor-Bwrong", "orthogonality[t]", "passes"),
    ("functor-Bwrong", "biedenharn-elliott[s]", "passes"),
    ("functor-Bwrong", "validate", "fails"),
    ("functor-Asingular", "orthogonality[s]", "fails"),
    ("functor-Asingular", "orthogonality[t]", "passes"),
    ("functor-Asingular", "biedenharn-elliott[s]", "fails"),
    ("functor-Asingular", "validate", "fails"),
    ("functor-Bsingular", "orthogonality[s]", "passes"),
    ("functor-Bsingular", "orthogonality[t]", "fails"),
    ("functor-Bsingular", "biedenharn-elliott[s]", "passes"),
    ("functor-Bsingular", "validate", "fails"),
]


def _functor_corruption(example, what):
    """The identity bimodule functor of the product bimodule over Z/2 x Z/2
    (twists 1, 0) or Z/3 x Z/3 (twists 1, 2) with its A or B block at
    (1, 0, 0) scaled by i (``wrong``) or made zero (``singular``)."""
    n, sh = {"z2": (2, 0), "z3": (3, 2)}[example]
    g = cyclic_group(n)
    trivial = UnitCochain.trivial(1, point_gset(g), 1)
    left = FusionData(g, omega_cyclic(n, 1), trivial)
    right = FusionData(g, omega_cyclic(n, sh), trivial)
    bim = deligne_to_bimod(regular_module_category(
        product_fusion(left, right)), left, right)
    bf = deligne_to_bimodfun(identity_functor(bimod_to_deligne(bim)), bim, bim)
    tables = {"A": dict(bf.a), "B": dict(bf.b)}
    side, how = what[0], what[1:]
    block = tables[side][(1, 0, 0)]
    tables[side][(1, 0, 0)] = (block.scale(Unit(4, 1)) if how == "wrong"
                               else SMatrix([[Scalar.zero()]]))
    return BimoduleFunctorData(bim, bim, bf.mult, tables["A"], tables["B"])


def _functor_check_passes(functor, relation) -> bool:
    """Whether one relation of a functor context (``orthogonality[s]``,
    ``orthogonality[t]``, ``biedenharn-elliott[s]``) or ``validate`` holds."""
    if relation == "validate":
        return validate_bimodfun(functor).ok
    verify = (verify_orthogonality if relation.startswith("orthogonality")
              else verify_biedenharn_elliott)
    report = verify(functor_context(functor))
    assert report.failed == len(report.failures)  # every failure sampled
    return not any(f["kind"].startswith(relation.rstrip("]"))
                   for f in report.failures)


@pytest.mark.parametrize("corruption,relation,outcome", DETECTION)
def test_detection_matrix(corruption, relation, outcome):
    family, what = corruption.split("-")
    if family == "functor":
        for example in ("z2", "z3"):
            bad = _functor_corruption(example, what)
            assert _functor_check_passes(bad, relation) == (outcome == "passes")
        return
    contexts = ([_fusion_corruption(what)] if family == "fusion"
                else [_bimodule_cases(ex)[what] for ex in ("z2", "z3")])
    verify = (verify_orthogonality if relation == "orthogonality"
              else verify_biedenharn_elliott)
    for ctx in contexts:
        assert verify(ctx).ok == (outcome == "passes")
