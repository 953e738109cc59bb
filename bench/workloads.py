"""The benchmark's four workloads: inputs, operation lists and exactness checks.

Each workload is a list of operations.  An operation makes one or more timed
calls into twistcat through a ``Timer`` and checks every output exactly
(outside the timed calls); it returns True only when all checks hold.  The
benchmark seed changes the inputs (a random coboundary gauge on every
associator or module structure) and the order of the operations, never the
list of operations, so every seed does the same work up to the gauge.

Library functions are always looked up on their module at call time
(``modcat.modcats_for``), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from click.testing import CliRunner

from twistcat import cli, cohomology, errors, fusion, modcat, modfun
from twistcat.algebra import (characters, coset_gset, cyclic_group,
                              direct_product, disjoint_union_gset, point_gset,
                              regular_gset, subgroups)
from twistcat.cohomology import UnitCochain, deligne_omega, omega_cyclic
from twistcat.scalar import Unit

# the package re-exports a function named sixj, which hides the module
sixj = importlib.import_module("twistcat.sixj")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "docs" / "examples"
GOLDEN = ROOT / "tests" / "golden"
RESULTS = ROOT / "bench" / "results"

WORKLOADS = ("cli-goldens", "modcat-enum", "sixj-fusion", "functor-calculus")

# Seed of the fixed trial list in functor-calculus (criterion 6 uses it too);
# the benchmark seed only gauges the trials' inputs and shuffles them.
TRIAL_SEED = 20260815


class Timer:
    """Times library calls; recording is on only inside the timed calls.

    ``elapsed`` sums the timed calls, so the benchmark's own checks, which run
    between them, are not timed (and not traced).
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.elapsed = 0.0
        self.relations = 0       # conditions checked by the calls' reports
        self.checked: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def __call__(self, fn, *args, **kwargs):
        rec = self.recorder
        if rec is not None:
            rec.active = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += time.perf_counter() - start
            if rec is not None:
                rec.active = False

    def verify(self, fn, *args):
        """Time a call that returns a ValidationReport and count its checks."""
        report = self(fn, *args)
        self.add_relations(fn.__name__, report.checked)
        return report

    def add_relations(self, name: str, checked: int) -> None:
        self.relations += checked
        self.checked[name] = self.checked.get(name, 0) + checked

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Op:
    label: str
    run: Callable[[Timer], bool]
    case: bool = False      # part of the workload's largest case


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]


def _shuffled(ops: list[Op], rng) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def _trivial_kappa(grp):
    return UnitCochain.trivial(1, point_gset(grp), 1)


def gauge(cochain: UnitCochain, rng) -> UnitCochain:
    """cochain * d(mu) for a random normalized mu one degree lower.

    mu takes the cochain's own root order, so the result is a cohomologous,
    normalized cochain of the same shape and root order.
    """
    grp, carrier = cochain.group, cochain.carrier
    degree = cochain.degree - 1
    mu = rng.integers(0, cochain.root_order,
                      (grp.order,) * degree + (carrier.size,))
    for axis in range(degree):
        np.moveaxis(mu, axis, 0)[grp.identity] = 0
    return cochain * cohomology.differential(
        UnitCochain(degree, carrier, cochain.root_order, mu))


# ---------------------------------------------------------------------------
# cli-goldens
# ---------------------------------------------------------------------------

# Every golden command of the test suite's CLI battery.
BATTERY = [
    ("z2", "validate"),
    ("z2", "spherical"),
    ("z2", "classify M"),
    ("z2", "trace M"),
    ("z2", "trace B"),
    ("z2", "equiv M M"),
    ("z2", "enumerate-modcats regG --fusion F"),
    ("z2", "deligne B --inverse"),
    ("z2", "deligne BF --inverse"),
    ("z2", "classify-simple M M"),
    ("z2", "adjoint idM"),
    ("z2", "sixj-table fusion F"),
    ("z2", "verify orthogonality"),
    ("z2", "verify biedenharn-elliott"),
    ("z3", "validate"),
    ("z3", "enumerate-modcats reg"),
    ("z3", "classify-simple M M"),
    ("z3", "sixj-table s act0"),
    ("z3", "trace M"),
    ("z3", "verify orthogonality"),
    ("z3", "verify biedenharn-elliott"),
]

# An associator table that is not a 3-cocycle: the CLI must exit 1.
BAD_OMEGA_CONFIG = {
    "groups": {"G": {"type": "cyclic", "n": 2}},
    "cochains": {"w": {"type": "table", "group": "G", "degree": 3,
                       "root_order": 4,
                       "exponents": [0, 0, 0, 0, 0, 0, 0, 1]}},
    "fusions": {"F": {"group": "G", "omega": "w"}},
}


def golden_path(cfg: str, cmd: str) -> Path:
    slug = cmd.replace(" --", "_").replace(" ", "_").replace("-", "_")
    return GOLDEN / f"{cfg}_{slug}.json"


def cli_subprocess(argv: list[str]) -> tuple[int, bytes, bytes]:
    """One command in a fresh interpreter, as a user runs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "twistcat.cli", *argv],
                          capture_output=True, env=env, cwd=ROOT,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_inprocess(argv: list[str]) -> tuple[int, bytes, bytes]:
    """One command through click's test runner in this interpreter."""
    result = CliRunner().invoke(cli.main, argv)
    if result.exception is not None and not isinstance(result.exception,
                                                       SystemExit):
        return -1, result.stdout_bytes, result.stderr_bytes
    return result.exit_code, result.stdout_bytes, result.stderr_bytes


def _cli_op(runner, label: str, argv: list[str], code: int,
            stdout: Optional[bytes] = None, stderr: Optional[bytes] = None,
            verify: bool = False, case: bool = False) -> Op:
    def run(t: Timer) -> bool:
        got_code, out, err = t(runner, argv)
        if verify and got_code == 0:
            doc = json.loads(out)
            t.add_relations("cli.verify",
                            sum(r["checked"] for r in doc["results"]))
        return (got_code == code
                and (stdout is None or out == stdout)
                and (stderr is None or stderr in err))
    return Op(label, run, case)


def build_cli(rng, small: bool, inprocess: bool) -> Workload:
    runner = cli_inprocess if inprocess else cli_subprocess
    RESULTS.mkdir(parents=True, exist_ok=True)
    bad = RESULTS / "cli-bad-omega.json"
    bad.write_text(json.dumps(BAD_OMEGA_CONFIG))
    missing = RESULTS / "cli-missing.json"
    if missing.exists():
        missing.unlink()

    def config(cfg: str) -> list[str]:
        return ["--config", str(EXAMPLES / f"{cfg}.json"), "--format", "json"]

    battery = [BATTERY[0], BATTERY[12]] if small else BATTERY
    # The largest case is the z3 commands: each re-solves the z3 module
    # structure while parsing its config.  (One command alone is too short
    # to time steadily on a shared machine.)
    ops = []
    for cfg, cmd in battery:
        ops.append(_cli_op(runner, f"{cfg}: {cmd}", config(cfg) + cmd.split(),
                           0, stdout=golden_path(cfg, cmd).read_bytes(),
                           verify=cmd.startswith("verify"),
                           case=cfg == "z3" or small))
    # the seed is echoed and changes nothing else
    seeded = golden_path("z3", "trace M").read_bytes()
    if seeded.count(b'"seed": 0,') != 1:
        raise ValueError("golden z3 trace M does not echo seed 0 once")
    ops.append(_cli_op(runner, "z3: --seed 7 trace M",
                       config("z3") + ["--seed", "7", "trace", "M"], 0,
                       stdout=seeded.replace(b'"seed": 0,', b'"seed": 7,')))
    # the exit-code contract: usage and parse errors 2, validation errors 1
    ops.append(_cli_op(runner, "missing config",
                       ["--config", str(missing), "validate"], 2,
                       stderr=b"parse error"))
    ops.append(_cli_op(runner, "unknown entity",
                       ["--config", str(EXAMPLES / "z2.json"),
                        "classify", "NOPE"], 2, stderr=b"NOPE"))
    ops.append(_cli_op(runner, "non-cocycle omega",
                       ["--config", str(bad), "validate"], 1,
                       stderr=b"not a 3-cocycle"))
    ops = _shuffled(ops, rng)
    # A fresh interpreter keeps no state between commands, so warming up
    # needs one command per config (byte-compiled modules, file cache);
    # in-process commands share caches, so they warm up on the whole list.
    warmup = ops if inprocess else [
        op for op in ops if op.label in ("z2: validate", "z3: validate")]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# modcat-enum
# ---------------------------------------------------------------------------

# Module-category classes per (associator, carrier).  A transitive carrier
# G/H carries structures iff omega restricted to H is a coboundary, and then
# they form an H^2(H, U(1))-torsor (Ostrik 2003): one class for cyclic H,
# two for H = Z/2 x Z/2.  A disjoint union multiplies its orbits' counts.
# The benchmark's tests cross-check every Z/2 count and the point-carrier
# counts against the brute-force oracle.
MODCAT_CLASSES = {
    "Z2 s=0 pt": 1, "Z2 s=0 reg": 1, "Z2 s=0 pt+reg": 1,
    "Z2 s=1 pt": 0, "Z2 s=1 reg": 1, "Z2 s=1 pt+reg": 0,
    "Z3 s=0 pt": 1, "Z3 s=0 reg": 1, "Z3 s=0 pt+reg": 1,
    "Z3 s=1 pt": 0, "Z3 s=1 reg": 1, "Z3 s=1 pt+reg": 0,
    "Z3 s=2 pt": 0, "Z3 s=2 reg": 1, "Z3 s=2 pt+reg": 0,
    "Z4 s=0 Z4/Z2": 1, "Z4 s=0 pt": 1,
    "Z4 s=1 Z4/Z2": 0, "Z4 s=1 pt": 0,
    "Z4 s=2 Z4/Z2": 1, "Z4 s=2 pt": 0,
    "Z4 s=3 Z4/Z2": 0, "Z4 s=3 pt": 0,
    "V4 s=00 V4/<1>": 1, "V4 s=00 V4/<2>": 1, "V4 s=00 V4/<3>": 1,
    "V4 s=00 pt": 2,
    "V4 s=01 V4/<1>": 0, "V4 s=01 V4/<2>": 1, "V4 s=01 V4/<3>": 0,
    "V4 s=01 pt": 0,
    "V4 s=10 V4/<1>": 1, "V4 s=10 V4/<2>": 0, "V4 s=10 V4/<3>": 0,
    "V4 s=10 pt": 0,
    "V4 s=11 V4/<1>": 0, "V4 s=11 V4/<2>": 0, "V4 s=11 V4/<3>": 1,
    "V4 s=11 pt": 0,
}
MODCAT_LARGEST = "V4 "   # label prefix: the Z/2 x Z/2 coset carriers
MODCAT_SMALL_LARGEST = "Z2 s=0 pt+reg"


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def klein_omega(a: int, b: int) -> UnitCochain:
    return deligne_omega(omega_cyclic(2, a), omega_cyclic(2, b))


def modcat_cases(small: bool):
    """(label, group, associator, carrier) for every enumeration case."""
    cases = []
    for n in (2,) if small else (2, 3):
        grp = cyclic_group(n)
        pt, reg = point_gset(grp), regular_gset(grp)
        for s in range(n):
            for name, x in (("pt", pt), ("reg", reg),
                            ("pt+reg", disjoint_union_gset(pt, reg))):
                cases.append((f"Z{n} s={s} {name}", grp, omega_cyclic(n, s), x))
    if small:
        return cases
    # coset carriers by the nontrivial subgroups, for every associator.  (The
    # regular carriers of Z/4 and Z/2 x Z/2, one call of 7 s and 5 s, are
    # scaling cases of the traced run: a timed run of S seconds would hold
    # too few of them to time steadily.)
    z4 = cyclic_group(4)
    for s in range(4):
        for sub in subgroups(z4):
            if len(sub) == 2:
                cases.append((f"Z4 s={s} Z4/Z2", z4, omega_cyclic(4, s),
                              coset_gset(z4, sub)))
            elif len(sub) == 4:
                cases.append((f"Z4 s={s} pt", z4, omega_cyclic(4, s),
                              point_gset(z4)))
    v4 = klein_group()
    for a in (0, 1):
        for b in (0, 1):
            for sub in subgroups(v4):
                if len(sub) == 2:
                    label = f"V4 s={a}{b} V4/<{sub.elements[1]}>"
                elif len(sub) == 4:
                    label = f"V4 s={a}{b} pt"
                else:
                    continue
                cases.append((label, v4, klein_omega(a, b),
                              coset_gset(v4, sub)))
    return cases


def _modcat_op(label: str, fus, x, expected: int, case: bool) -> Op:
    order = fus.group.order
    want_checked = ((2 * order - 1) + order ** 3) * x.size

    def run(t: Timer) -> bool:
        found = t(modcat.modcats_for, fus, x)
        t.count("modcat.classes_found", len(found))
        ok = len(found) == expected
        for data in found:
            report = t.verify(modcat.validate_modcat, data)
            ok = (ok and report.ok and report.checked == want_checked
                  and data.X == x and data.fusion == fus)
        return ok
    return Op(label, run, case)


def build_modcat(rng, small: bool) -> Workload:
    largest = MODCAT_SMALL_LARGEST if small else MODCAT_LARGEST
    ops = []
    for label, grp, omega, x in modcat_cases(small):
        fus = fusion.FusionData(grp, gauge(omega, rng), _trivial_kappa(grp))
        ops.append(_modcat_op(label, fus, x, MODCAT_CLASSES[label],
                              label.startswith(largest)))
    ops = _shuffled(ops, rng)
    # The library caches per (group, carrier), so one case of each carrier
    # warms the caches up.
    warm: dict = {}
    for op in ops:
        group, _, carrier = op.label.split(" ")
        warm.setdefault((group, carrier), op)
    return Workload(ops, list(warm.values()))


# ---------------------------------------------------------------------------
# sixj-fusion
# ---------------------------------------------------------------------------

def _fusion_table(fus, sign: str) -> list[tuple]:
    """Expected rows of sixj_table: kappa(a) omega(i,j,k) for '+', and
    kappa(c) omega(i,j,k)^-1 for '-', from the exponent tables."""
    grp = fus.group
    nk, nw = fus.kappa.root_order, fus.omega.root_order
    root = lcm(nk, nw)
    ek = fus.kappa.exponents[:, 0] * (root // nk)
    ew = fus.omega.exponents[..., 0] * (root // nw)
    rows = []
    for i in grp.elements():
        for j in grp.elements():
            c = grp.op(i, j)
            for k in grp.elements():
                a, b = grp.op(j, k), grp.op(c, k)
                e = ek[a] + ew[i, j, k] if sign == "+" else ek[c] - ew[i, j, k]
                rows.append(((i, j, k, a, b, c),
                             Unit(root, int(e) % root).to_scalar()))
    return rows


def _rows_match(rows: list[dict], want: list[tuple]) -> bool:
    return len(rows) == len(want) and all(
        row["labels"] == labels and row["indices"] == () and row["value"] == v
        for row, (labels, v) in zip(rows, want))


def _sixj_op(label: str, fus, n: int, case: bool) -> Op:
    tables = [(f"fusion{sign}", _fusion_table(fus, sign)) for sign in "+-"]

    def run(t: Timer) -> bool:
        ctx = t(sixj.fusion_context, fus)
        orth = t.verify(sixj.verify_orthogonality, ctx)
        be = t.verify(sixj.verify_biedenharn_elliott, ctx)
        ok = (orth.ok and orth.checked == n ** 6
              and be.ok and be.checked == n ** 5)
        for kind, want in tables:
            ok = _rows_match(t(sixj.sixj_table, ctx, kind), want) and ok
        return ok
    return Op(label, run, case)


def corrupted_fusion():
    """Z/2 data whose associator is not a cocycle (criterion 3's control)."""
    g2 = cyclic_group(2)
    exps = np.zeros((2, 2, 2, 1), dtype=np.int64)
    exps[1, 1, 1, 0] = 1
    bad = object.__new__(fusion.FusionData)
    object.__setattr__(bad, "group", g2)
    object.__setattr__(bad, "omega", UnitCochain(3, point_gset(g2), 4, exps))
    object.__setattr__(bad, "kappa", _trivial_kappa(g2))
    object.__setattr__(bad, "spherical", True)
    return bad


def _corrupted_op() -> Op:
    bad = corrupted_fusion()

    def run(t: Timer) -> bool:
        report = t.verify(sixj.verify_biedenharn_elliott,
                          t(sixj.fusion_context, bad))
        return (not report.ok and bool(report.failures)
                and set(report.failures[0]) == {"kind", "tuple", "lhs", "rhs"})
    return Op("corrupted omega", run)


def build_sixj(rng, small: bool) -> Workload:
    sizes = (2, 3) if small else (2, 3, 4, 5)
    ops = []
    for n in sizes:
        for s in range(n):
            omega = gauge(omega_cyclic(n, s), rng)
            for idx, fus in enumerate(
                    fusion.spherical_structures(cyclic_group(n), omega)):
                ops.append(_sixj_op(f"Z{n} s={s} kappa#{idx}", fus, n,
                                    n == sizes[-1]))
    ops.append(_corrupted_op())
    ops = _shuffled(ops, rng)
    # One context per group fills the library's caches; the first and
    # second passes in one process measured the same time per context.
    warm = {f"Z{n} s=0 kappa#0" for n in sizes} | {"corrupted omega"}
    return Workload(ops, [op for op in ops if op.label in warm])


# ---------------------------------------------------------------------------
# functor-calculus
# ---------------------------------------------------------------------------

# Orthogonality + Biedenharn-Elliott conditions over all simples of each
# classification square, as this commit counts them; gauge-invariant.
FUNCTOR_RELATIONS = {
    "Z2 pt": 16, "Z2 reg": 64, "Z2 pt+reg": 292, "Z2 solved": 64,
    "Z3 pt": 45, "Z3 reg": 405, "Z3 pt+reg": 1314, "Z3 solved": 405,
}
FUNCTOR_LARGEST = "Z3 "   # label prefix: the Z/3 squares
FUNCTOR_SMALL_LARGEST = "Z2 pt+reg"
# the z2 example's bimodule B (golden z2 verify outputs)
BIMODULE_RELATIONS = (1536, 256)


def simple_count(src, tgt) -> int:
    """Sum of n / |orbit| over the orbits of G on X x Y, counted directly."""
    n = src.fusion.group.order
    act_x, act_y = np.asarray(src.X.action), np.asarray(tgt.X.action)
    seen: set = set()
    total = 0
    for x in range(src.X.size):
        for y in range(tgt.X.size):
            if (x, y) in seen:
                continue
            orbit = {(int(act_x[g, x]), int(act_y[g, y])) for g in range(n)}
            seen |= orbit
            total += n // len(orbit)
    return total


def classification_squares(rng, small: bool):
    """(label, module category) for criteria 5 and 8's squares, gauged."""
    squares = []
    for n in (2,) if small else (2, 3):
        grp = cyclic_group(n)
        pt, reg = point_gset(grp), regular_gset(grp)
        plain = fusion.FusionData(grp, omega_cyclic(n, 0), _trivial_kappa(grp))
        twisted = fusion.FusionData(grp, omega_cyclic(n, 1),
                                    _trivial_kappa(grp))
        for name, x in (("pt", pt), ("reg", reg),
                        ("pt+reg", disjoint_union_gset(pt, reg))):
            squares.append((f"Z{n} {name}", modcat.ModuleCategoryData(
                plain, x, UnitCochain.trivial(2, x, 1))))
        (solved,) = modcat.modcats_for(twisted, reg)
        squares.append((f"Z{n} solved", solved))
    return [(label, modcat.ModuleCategoryData(mc.fusion, mc.X,
                                              gauge(mc.psi, rng)))
            for label, mc in squares]


def _square_op(label: str, mc, case: bool) -> Op:
    expected = simple_count(mc, mc)

    def run(t: Timer) -> bool:
        classes = t(modfun.classify_simple_cyclic, mc, mc)
        ok = len(classes) == expected
        for cls in classes:
            ok = t.verify(modfun.validate_modfun, cls.functor).ok and ok
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                dim = t(modfun.hom_dimension, ci.functor, cj.functor)
                ok = ok and dim == (1 if i == j else 0)
        relations = 0
        for cls in classes:
            ctx = t(sixj.functor_context, cls.functor)
            orth = t.verify(sixj.verify_orthogonality, ctx)
            be = t.verify(sixj.verify_biedenharn_elliott, ctx)
            ok = ok and orth.ok and be.ok
            relations += orth.checked + be.checked
        return ok and relations == FUNCTOR_RELATIONS[label]
    return Op(f"square {label}", run, case)


def _trial_op(index: int, src, tgt, picks: list[int]) -> Op:
    expected = simple_count(src, tgt)

    def run(t: Timer) -> bool:
        simples = t(modfun.classify_simple_cyclic, src, tgt)
        if len(simples) != expected:
            return False
        chosen = [simples[i].functor for i in picks]
        fn = chosen[0] if len(chosen) == 1 else t(modfun.direct_sum, chosen)
        ok = t.verify(modfun.validate_modfun, fn).ok
        adj = t(modfun.adjoint, fn)
        ok = t.verify(modfun.validate_modfun, adj).ok and ok
        double = t(modfun.adjoint, adj)
        ok = t.verify(modfun.validate_modfun, double).ok and ok
        return t(modfun.invertible_hom, double, fn) is not None and ok
    return Op(f"adjoint trial {index}", run)


def adjoint_trials(squares, count: int):
    """Criterion 6's pattern from a fixed generator: (src, tgt, picks)."""
    pools: dict = {}
    for _, mc in squares:
        key = (mc.fusion.group.order, mc.fusion.omega.exponents.tobytes())
        pools.setdefault(key, []).append(mc)
    keys = sorted(pools)
    gen = np.random.default_rng(TRIAL_SEED)
    trials = []
    for _ in range(count):
        bucket = pools[keys[int(gen.integers(0, len(keys)))]]
        src = bucket[int(gen.integers(0, len(bucket)))]
        tgt = bucket[int(gen.integers(0, len(bucket)))]
        simples = simple_count(src, tgt)
        picks = [int(gen.integers(0, simples))
                 for _ in range(int(gen.integers(1, 4)))]
        trials.append((src, tgt, picks))
    return trials


def _bimodule_op(bimod) -> Op:
    def run(t: Timer) -> bool:
        ctx = t(sixj.bimodule_context, bimod)
        orth = t.verify(sixj.verify_orthogonality, ctx)
        be = t.verify(sixj.verify_biedenharn_elliott, ctx)
        prod = t(modcat.bimod_to_deligne, bimod)
        back = t(modcat.deligne_to_bimod, prod, bimod.left, bimod.right)
        again = t(modcat.bimod_to_deligne, back)
        return (orth.ok and be.ok
                and (orth.checked, be.checked) == BIMODULE_RELATIONS
                and back == bimod and again == prod)
    return Op("z2 bimodule B", run)


def _no_trace_op() -> Op:
    g2 = cyclic_group(2)
    sign = characters(g2, 2)[1]
    fus = fusion.FusionData(g2, omega_cyclic(2, 0), sign)
    pt = point_gset(g2)
    mc = modcat.ModuleCategoryData(fus, pt, UnitCochain.trivial(2, pt, 1))

    def run(t: Timer) -> bool:
        fn = t(modfun.identity_functor, mc)
        try:
            t(sixj.functor_context, fn)
        except errors.NoTrace:
            return True
        return False
    return Op("no trace", run)


def build_functor(rng, small: bool) -> Workload:
    largest = FUNCTOR_SMALL_LARGEST if small else FUNCTOR_LARGEST
    squares = classification_squares(rng, small)
    ops = [_square_op(label, mc, label.startswith(largest))
           for label, mc in squares]
    for i, (src, tgt, picks) in enumerate(
            adjoint_trials(squares, 2 if small else 20)):
        ops.append(_trial_op(i, src, tgt, picks))
    ops.append(_bimodule_op(
        cli.parse_config(str(EXAMPLES / "z2.json")).bimodcats["B"]))
    ops.append(_no_trace_op())
    ops = _shuffled(ops, rng)
    return Workload(ops, ops)


# ---------------------------------------------------------------------------

def build(name: str, seed: int, small: bool = False,
          inprocess: bool = False) -> Workload:
    """The workload's inputs and operations for one seed."""
    rng = np.random.default_rng(seed)
    if name == "cli-goldens":
        return build_cli(rng, small, inprocess)
    if name == "modcat-enum":
        return build_modcat(rng, small)
    if name == "sixj-fusion":
        return build_sixj(rng, small)
    if name == "functor-calculus":
        return build_functor(rng, small)
    raise ValueError(f"unknown workload {name!r}")


class ScalingCases:
    """The traced run's |G|-scaling cases, each timed on its own."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def run(self, t: Timer) -> bool:
        ok = True
        for n in (2, 3, 4, 5):
            fus = fusion.spherical_structures(cyclic_group(n),
                                              omega_cyclic(n, 1))[0]
            mark = t.elapsed
            ctx = t(sixj.fusion_context, fus)
            orth = t(sixj.verify_orthogonality, ctx)
            be = t(sixj.verify_biedenharn_elliott, ctx)
            self.seconds[f"case.fusion.Z{n}_s"] = t.elapsed - mark
            ok = (ok and orth.ok and be.ok and orth.checked == n ** 6
                  and be.checked == n ** 5)
        for name, grp, omega in (("Z3", cyclic_group(3), omega_cyclic(3, 1)),
                                 ("Z4", cyclic_group(4), omega_cyclic(4, 1)),
                                 ("V4", klein_group(), klein_omega(1, 1))):
            fus = fusion.FusionData(grp, omega, _trivial_kappa(grp))
            mark = t.elapsed
            found = t(modcat.modcats_for, fus, regular_gset(grp))
            self.seconds[f"case.modcat.{name}_reg_s"] = t.elapsed - mark
            ok = ok and len(found) == 1
        return ok


def import_seconds() -> float:
    """Time for a fresh interpreter to import twistcat.cli."""
    code = ("import time; t = time.perf_counter(); import twistcat.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout)
