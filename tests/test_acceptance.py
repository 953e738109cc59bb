"""Acceptance gate: ten exact end-to-end criteria, one test per criterion.

Every check is exact (tolerance zero) and each criterion asserts its own
wall-clock budget.  A criterion prints one ``CRITERION n: PASS`` line with
its runtime; a failing body or a blown budget fails the corresponding test.
Randomized criteria use a fixed seed so runs are reproducible.
"""

import itertools
import json
import pathlib
import time

import numpy as np
import pytest
from click.testing import CliRunner

from twistcat.algebra import (FiniteGroup, GSet, characters, coset_gset,
                              cyclic_group, direct_product,
                              disjoint_union_gset, orbits, point_gset,
                              product_gset, regular_gset, solve_mod,
                              subgroups)
from twistcat.cli import main as cli_main
from twistcat.cohomology import (UnitCochain, cohomologous,
                                 differential, differential_matrix,
                                 is_cocycle, omega_cyclic)
from twistcat.errors import NoTrace
from twistcat.fusion import FusionData, spherical_structures
from twistcat.modcat import (ModuleCategoryData, product_fusion,
                             bimod_to_deligne, deligne_to_bimod, modcats_for,
                             module_trace, regular_module_category,
                             validate_bimodcat, validate_modcat)
from twistcat.modfun import (adjoint, bimodfun_to_deligne,
                             classify_simple_cyclic, count_simple_cyclic,
                             deligne_to_bimodfun, direct_sum,
                             functor_from_equivariant, hom_dimension,
                             identity_functor, invertible_hom,
                             validate_bimodfun, validate_modfun)
from twistcat.scalar import Scalar, Unit
from twistcat.sixj import (fusion_context, functor_context,
                           verify_biedenharn_elliott, verify_orthogonality)

from oracles import (oracle_characters, oracle_modcat_classes_fast,
                     oracle_trace_exists, oracle_trace_signs)

SEED = 20260815
EXAMPLES = pathlib.Path(__file__).parent.parent / "docs" / "examples"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _finish(num: int, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    line = f"CRITERION {num}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, line


def _trivial_kappa(grp: FiniteGroup) -> UnitCochain:
    return UnitCochain.trivial(1, point_gset(grp), 1)


# ---------------------------------------------------------------------------
# criterion 1: the differential squares to zero
# ---------------------------------------------------------------------------

def test_criterion_01_differential_squares_to_zero():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    groups = [cyclic_group(k) for k in range(1, 9)]
    groups.append(direct_product(cyclic_group(2), cyclic_group(2)))
    groups.append(direct_product(cyclic_group(2), cyclic_group(4)))
    groups.append(direct_product(cyclic_group(2),
                                 direct_product(cyclic_group(2),
                                                cyclic_group(2))))

    pool = []
    for grp in groups:
        options = [point_gset(grp)]
        if grp.order <= 4:
            options.append(regular_gset(grp))
        for sub in subgroups(grp):
            index = grp.order // len(sub.elements)
            if 1 < index <= 4:
                options.append(coset_gset(grp, sub))
        options.append(disjoint_union_gset(point_gset(grp), point_gset(grp)))
        pool.append((grp, [x for x in options if x.size <= 4]))

    roots = [1, 2, 3, 4, 6, 12]
    for _ in range(500):
        grp, options = pool[int(rng.integers(0, len(pool)))]
        x = options[int(rng.integers(0, len(options)))]
        degree = int(rng.integers(0, 4))
        root = roots[int(rng.integers(0, len(roots)))]
        shape = (grp.order,) * degree + (x.size,)
        eta = UnitCochain(degree, x, root, rng.integers(0, root, shape))
        dd = differential(differential(eta))
        assert dd.degree == degree + 2
        assert not dd.exponents.any()
    _finish(1, t0, 10.0)


# ---------------------------------------------------------------------------
# criterion 2: the cyclic cocycle family is normalized and inequivalent
# ---------------------------------------------------------------------------

def test_criterion_02_cyclic_cocycle_family():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for s in range(n):
            w = omega_cyclic(n, s)
            assert w.degree == 3 and w.root_order == n
            assert is_cocycle(w)
            assert w.normalized
    for n in range(1, 5):
        for s1, s2 in itertools.combinations(range(n), 2):
            assert not cohomologous(omega_cyclic(n, s1), omega_cyclic(n, s2))
    _finish(2, t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 3: fusion 6j orthogonality and pentagon-recoupling identities
# ---------------------------------------------------------------------------

def test_criterion_03_fusion_relations_with_negative_control():
    t0 = time.perf_counter()
    contexts = 0
    for n in (2, 3, 4):
        for s in range(n):
            omega = omega_cyclic(n, s)
            for fus in spherical_structures(cyclic_group(n), omega):
                ctx = fusion_context(fus)
                orth = verify_orthogonality(ctx)
                be = verify_biedenharn_elliott(ctx)
                assert orth.ok and orth.checked == n ** 6
                assert be.ok and be.checked == n ** 5
                contexts += 1
    assert contexts == 15

    # deliberately corrupted omega (not a cocycle) must trip the identity
    g2 = cyclic_group(2)
    bad_exps = np.zeros((2, 2, 2, 1), dtype=np.int64)
    bad_exps[1, 1, 1, 0] = 1
    bad_omega = UnitCochain(3, point_gset(g2), 4, bad_exps)
    corrupted = object.__new__(FusionData)
    object.__setattr__(corrupted, "group", g2)
    object.__setattr__(corrupted, "omega", bad_omega)
    object.__setattr__(corrupted, "kappa", _trivial_kappa(g2))
    object.__setattr__(corrupted, "spherical", True)
    report = verify_biedenharn_elliott(fusion_context(corrupted))
    assert not report.ok
    assert report.failures
    assert set(report.failures[0]) == {"kind", "tuple", "lhs", "rhs"}
    _finish(3, t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 4: module-structure counts against brute-force enumeration
# ---------------------------------------------------------------------------

def test_criterion_04_module_structure_counts():
    t0 = time.perf_counter()

    # Z/2 carriers, cross-checked at the solver's lifted root order 4
    g2 = cyclic_group(2)
    table2 = [list(r) for r in g2.table]
    inv2 = list(g2.inverse)
    expected2 = {("pt", 0): 1, ("pt", 1): 0, ("reg", 0): 1, ("reg", 1): 1}
    for s in (0, 1):
        fus = FusionData(g2, omega_cyclic(2, s), _trivial_kappa(g2))
        lifted = fus.omega.with_root_order(4)
        wexps = {(a, b, c): int(lifted.exponents[a, b, c, 0])
                 for a in range(2) for b in range(2) for c in range(2)}
        for x, label in ((point_gset(g2), "pt"), (regular_gset(g2), "reg")):
            found = modcats_for(fus, x)
            classes, _ = oracle_modcat_classes_fast(
                table2, inv2, [list(r) for r in x.action], wexps, 4)
            assert len(found) == classes == expected2[(label, s)]
            assert all(validate_modcat(mc).ok for mc in found)

    # the twisted point carrier admits no module structure at all
    fus21 = FusionData(g2, omega_cyclic(2, 1), _trivial_kappa(g2))
    assert modcats_for(fus21, point_gset(g2)) == []

    # Z/4 point carrier, brute force at the base root order 4
    g4 = cyclic_group(4)
    table4 = [list(r) for r in g4.table]
    inv4 = list(g4.inverse)
    pt4 = point_gset(g4)
    action4 = [list(r) for r in pt4.action]
    for s in range(4):
        fus = FusionData(g4, omega_cyclic(4, s), _trivial_kappa(g4))
        wexps = {(a, b, c): int(fus.omega.exponents[a, b, c, 0])
                 for a in range(4) for b in range(4) for c in range(4)}
        found = modcats_for(fus, pt4)
        classes, _ = oracle_modcat_classes_fast(table4, inv4, action4,
                                                wexps, 4)
        assert len(found) == classes == (1 if s == 0 else 0)

    # Z/4 regular carrier: the brute-force space is astronomically large,
    # so assert the known count of one structure per twist and validate it
    for s in range(4):
        fus = FusionData(g4, omega_cyclic(4, s), _trivial_kappa(g4))
        found = modcats_for(fus, regular_gset(g4))
        assert len(found) == 1
        assert validate_modcat(found[0]).ok
    _finish(4, t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 5: simple module functor classification
# ---------------------------------------------------------------------------

def _classification_cases():
    """The (source, target) module-category squares used by criteria 5 and 8:
    point, regular and point-union-regular carriers with the trivial
    structure cochain, plus the solver-produced nontrivial one, over Z/2
    and Z/3."""
    cases = []
    for n in (2, 3):
        grp = cyclic_group(n)
        pt, reg = point_gset(grp), regular_gset(grp)
        union = disjoint_union_gset(pt, reg)
        plain = FusionData(grp, omega_cyclic(n, 0), _trivial_kappa(grp))
        twisted = FusionData(grp, omega_cyclic(n, 1), _trivial_kappa(grp))
        for x in (pt, reg, union):
            mc = ModuleCategoryData(plain, x, UnitCochain.trivial(2, x, 1))
            cases.append((n, mc))
        solved = modcats_for(twisted, reg)
        assert len(solved) == 1 and not solved[0].psi.is_trivial()
        cases.append((n, solved[0]))
    return cases


def _holonomy_hom_dimension(f1, f2) -> int:
    """Independent naturality solver for simple cyclic functors.

    A natural transformation component propagates around the generator
    cycle of the (shared) support orbit with ratio A'/A; the hom space is
    one-dimensional exactly when the accumulated ratio closes up to 1.
    """
    support1, support2 = set(f1.support()), set(f2.support())
    if support1 != support2:
        return 0
    act_x = np.array(f1.source.X.action)
    act_y = np.array(f1.target.X.action)
    base = min(support1)
    sigma = 1 % f1.source.fusion.group.order
    point = base
    ratio = Scalar.one()
    while True:
        first = f1.a[(sigma, point[0], point[1])].entry(0, 0)
        second = f2.a[(sigma, point[0], point[1])].entry(0, 0)
        ratio = ratio * (second / first)
        point = (int(act_x[sigma, point[0]]), int(act_y[sigma, point[1]]))
        if point == base:
            break
    return 1 if ratio.is_one() else 0


def test_criterion_05_simple_functor_classification():
    t0 = time.perf_counter()
    for n, mc in _classification_cases():
        classes = classify_simple_cyclic(mc, mc)
        expected = sum(n // len(orbit)
                       for orbit in orbits(product_gset(mc.X, mc.X)))
        assert len(classes) == expected == count_simple_cyclic(mc, mc)
        for cls in classes:
            assert validate_modfun(cls.functor).ok
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                want = 1 if i == j else 0
                assert hom_dimension(ci.functor, cj.functor) == want
                assert _holonomy_hom_dimension(ci.functor, cj.functor) == want
    _finish(5, t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 6: adjoints of random functors
# ---------------------------------------------------------------------------

def test_criterion_06_adjoints_of_random_functors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    pools = {}
    for n in (2, 3):
        grp = cyclic_group(n)
        carriers = [point_gset(grp), regular_gset(grp),
                    disjoint_union_gset(point_gset(grp), regular_gset(grp))]
        for s in range(n):
            fus = FusionData(grp, omega_cyclic(n, s), _trivial_kappa(grp))
            bucket = []
            for x in carriers:
                bucket.extend(modcats_for(fus, x))
            if bucket:
                pools[(n, s)] = bucket
    keys = sorted(pools)

    for _ in range(20):
        bucket = pools[keys[int(rng.integers(0, len(keys)))]]
        src = bucket[int(rng.integers(0, len(bucket)))]
        tgt = bucket[int(rng.integers(0, len(bucket)))]
        simples = classify_simple_cyclic(src, tgt)
        count = int(rng.integers(1, 4))
        picks = [simples[int(rng.integers(0, len(simples)))].functor
                 for _ in range(count)]
        fn = picks[0] if count == 1 else direct_sum(picks)
        assert validate_modfun(fn).ok
        adj = adjoint(fn)
        assert validate_modfun(adj).ok
        double = adjoint(adj)
        assert validate_modfun(double).ok
        assert invertible_hom(double, fn) is not None
    _finish(6, t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 7: bimodule round trips through the product category
# ---------------------------------------------------------------------------

def _solved_translation(prod, modcat, base):
    f_map = prod.table[:, base]
    psi = modcat.psi
    pulled = UnitCochain(2, modcat.X, psi.root_order,
                         psi.exponents[..., f_map])
    rhs = psi.inverse() * pulled
    lifted = rhs.root_order * prod.order
    vec = solve_mod(differential_matrix(prod, modcat.X, 1),
                    (rhs.exponents.ravel() * prod.order) % lifted, lifted)
    assert vec is not None
    lam = UnitCochain(1, modcat.X, lifted,
                      np.array(vec, dtype=np.int64).reshape(prod.order, -1))
    return functor_from_equivariant(f_map, lam, modcat, modcat)


def test_criterion_07_bimodule_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    g2 = cyclic_group(2)
    prod = direct_product(g2, g2)

    for trial in range(20):
        sg, sh, kg, kh = (int(v) for v in rng.integers(0, 2, 4))
        left = FusionData(g2, omega_cyclic(2, sg), characters(g2, 2)[kg])
        right = FusionData(g2, omega_cyclic(2, sh), characters(g2, 2)[kh])
        fus_d = product_fusion(left, right)
        base_mc = regular_module_category(fus_d)

        # random gauge: shift the structure cochain by an exact differential
        mu_exps = rng.integers(0, base_mc.psi.root_order,
                               (prod.order, base_mc.X.size))
        mu_exps[0, :] = 0
        mu = UnitCochain(1, base_mc.X, base_mc.psi.root_order, mu_exps)
        shifted = ModuleCategoryData(fus_d, base_mc.X,
                                     base_mc.psi * differential(mu))
        assert validate_modcat(shifted).ok

        bimod = deligne_to_bimod(shifted, left, right)
        assert validate_bimodcat(bimod).ok
        product_form = bimod_to_deligne(bimod)
        assert deligne_to_bimod(product_form, left, right) == bimod
        assert bimod_to_deligne(
            deligne_to_bimod(product_form, left, right)) == product_form

        if trial % 2 == 0:
            fn = identity_functor(product_form)
        else:
            fn = _solved_translation(prod, product_form,
                                     int(rng.integers(0, prod.order)))
        assert validate_modfun(fn).ok
        bifn = deligne_to_bimodfun(fn, bimod, bimod)
        assert validate_bimodfun(bifn).ok
        back = bimodfun_to_deligne(bifn)
        assert back == fn
        assert deligne_to_bimodfun(back, bimod, bimod) == bifn
    _finish(7, t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 8: functor 6j relations for every classified simple functor
# ---------------------------------------------------------------------------

def test_criterion_08_functor_relations_and_trace_rejection():
    t0 = time.perf_counter()
    checked = 0
    for n, mc in _classification_cases():
        for cls in classify_simple_cyclic(mc, mc):
            ctx = functor_context(cls.functor)
            orth = verify_orthogonality(ctx)
            be = verify_biedenharn_elliott(ctx)
            assert orth.ok and be.ok
            checked += orth.checked + be.checked
    assert checked > 0

    # a sign structure that is nontrivial on the point stabilizer: no trace
    g2 = cyclic_group(2)
    sign = characters(g2, 2)[1]
    fus = FusionData(g2, omega_cyclic(2, 0), sign)
    pt = point_gset(g2)
    mc = ModuleCategoryData(fus, pt, UnitCochain.trivial(2, pt, 1))
    with pytest.raises(NoTrace):
        functor_context(identity_functor(mc))
    _finish(8, t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 9: trace existence matches the stabilizer criterion
# ---------------------------------------------------------------------------

def test_criterion_09_trace_existence_sweep():
    t0 = time.perf_counter()
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    groups = [cyclic_group(k) for k in (1, 2, 3, 4)] + [klein]
    cases = 0
    for grp in groups:
        table = [list(r) for r in grp.table]
        sign_chars = characters(grp, 2)
        assert sorted(tuple(int(v) for v in c.exponents.ravel())
                      for c in sign_chars) == sorted(oracle_characters(table, 2))

        cosets = [(coset_gset(grp, sub), grp.order // len(sub.elements))
                  for sub in subgroups(grp)]
        combos = []
        for count in range(1, 5):
            for combo in itertools.combinations_with_replacement(
                    range(len(cosets)), count):
                if sum(cosets[i][1] for i in combo) <= 4:
                    combos.append(combo)

        for kappa in sign_chars:
            signs = [(-1) ** int(e) for e in kappa.exponents.ravel()]
            fus = FusionData(grp, UnitCochain.trivial(3, point_gset(grp), 1),
                             kappa)
            for combo in combos:
                x = cosets[combo[0]][0]
                for i in combo[1:]:
                    x = disjoint_union_gset(x, cosets[i][0])
                mc = ModuleCategoryData(fus, x, UnitCochain.trivial(2, x, 1))
                trace = module_trace(mc)
                action = [list(r) for r in x.action]
                assert (trace is not None) == oracle_trace_exists(
                    table, action, signs)
                if trace is not None:
                    got = [1 if u == Unit(1, 0) else -1 for u in trace.values]
                    assert got == oracle_trace_signs(table, action, signs)
                cases += 1
    assert cases >= 100
    _finish(9, t0, 10.0)


# ---------------------------------------------------------------------------
# criterion 10: command-line golden outputs and exit codes
# ---------------------------------------------------------------------------

def test_criterion_10_cli_goldens_and_exit_codes(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    subset = [
        ("z2", ["validate"], "z2_validate.json"),
        ("z2", ["verify", "orthogonality"], "z2_verify_orthogonality.json"),
        ("z2", ["sixj-table", "fusion", "F"], "z2_sixj_table_fusion_F.json"),
        ("z2", ["deligne", "B", "--inverse"], "z2_deligne_B_inverse.json"),
        ("z3", ["validate"], "z3_validate.json"),
        ("z3", ["classify-simple", "M", "M"], "z3_classify_simple_M_M.json"),
        ("z3", ["sixj-table", "s", "act0"], "z3_sixj_table_s_act0.json"),
        ("z3", ["verify", "biedenharn-elliott"],
         "z3_verify_biedenharn_elliott.json"),
    ]
    for cfg, args, golden in subset:
        result = runner.invoke(
            cli_main, ["--config", str(EXAMPLES / f"{cfg}.json"),
                       "--format", "json", *args], catch_exceptions=False)
        assert result.exit_code == 0, (cfg, args, result.output)
        assert result.output == (GOLDEN / golden).read_text()

    assert runner.invoke(
        cli_main, ["--config", str(tmp_path / "missing.json"),
                   "validate"]).exit_code == 2
    assert runner.invoke(
        cli_main, ["--config", str(EXAMPLES / "z2.json"),
                   "classify", "NOPE"]).exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "groups": {"G": {"type": "cyclic", "n": 2}},
        "cochains": {"w": {"type": "table", "group": "G", "degree": 3,
                           "root_order": 4,
                           "exponents": [0, 0, 0, 0, 0, 0, 0, 1]}},
        "fusions": {"F": {"group": "G", "omega": "w"}},
    }))
    failing = runner.invoke(cli_main, ["--config", str(bad), "validate"])
    assert failing.exit_code == 1
    assert "not a 3-cocycle" in failing.stderr
    _finish(10, t0, 5.0)
