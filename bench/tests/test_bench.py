"""Tests of the benchmark itself, each workload at its smallest size.

Run from the repository root: python3 -m pytest bench/tests
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("sixj.relations_checked", "modcat.classes_found")


@pytest.fixture(autouse=True)
def _scaling_once(monkeypatch):
    """The scaling cases are fixed-size; time them once for all tests."""
    monkeypatch.setattr(workloads, "ScalingCases", _cached_cases())


@functools.cache
def _cached_cases():
    cases = workloads.ScalingCases()
    assert cases.run(workloads.Timer())

    class Cached:
        seconds = cases.seconds

        def run(self, t):
            return True
    return Cached


@functools.cache
def _report(workload, seed, trace):
    return run.report(workload, seed, 0, trace, small=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    result, info, extra = _report(workload, 1, trace)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    assert info["fail_ratio"] == 0
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in names]
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert extra["trace"]["spans"]["rows"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_seeds(workload):
    first = _report(workload, 1, True)[0]["metrics"]
    second = _report(workload, 2, True)[0]["metrics"]
    exact = [name for name in first
             if name.endswith(".calls") or name in EXACT_COUNTS]
    if workload == "modcat-enum":
        # normalize() returns early when the solver's particular solution is
        # already normalized, which depends on the gauge: at full size the
        # Z/2 x Z/2 cases make one solve_mod call more or less per seed.
        exact = [n for n in exact
                 if not n.startswith(("algebra.", "cohomology."))]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_rounds_time_every_operation_at_least_min_rounds_times():
    def op(label, seconds, checked=0, case=False):
        def run(t):
            t.elapsed += seconds  # a fake call that takes `seconds`
            t.add_relations(label, checked)
            return True
        return workloads.Op(label, run, case)
    ops = [op("a", 1.0, checked=3), op("b", 2.0, case=True), op("c", 4.0)]
    rounds = run.Rounds(ops, workloads.Timer()).until(0, run.MIN_ROUNDS)
    assert [len(times) for times in rounds.op_s] == [run.MIN_ROUNDS] * 3
    assert rounds.pass_s() == 7.0 and rounds.pass_s(case_only=True) == 2.0
    assert rounds.pass_relations() == 3.0
    assert run.percentile(rounds.mean_s(), 50) == 2.0
    assert rounds.failures == [] and rounds.attempted == 3 * run.MIN_ROUNDS


def test_corrupted_expectation_drives_fail_ratio_up(monkeypatch):
    monkeypatch.setitem(workloads.MODCAT_CLASSES, "Z2 s=1 reg", 2)
    result, info, _ = run.report("modcat-enum", 1, 0, False, small=True)
    assert not result["correct"]
    assert result["failed"] > 0 and info["fail_ratio"] > 0
    assert set(info["failures"]) == {"Z2 s=1 reg"}


def test_corrupted_golden_fails(monkeypatch):
    real = workloads.golden_path

    def corrupted(cfg, cmd):
        path = real(cfg, cmd)
        copy = workloads.RESULTS / f"corrupted-{path.name}"
        copy.write_bytes(path.read_bytes().replace(b'"ok": true', b'"ok": 1'))
        return copy
    monkeypatch.setattr(workloads, "golden_path", corrupted)
    result, info, _ = run.report("cli-goldens", 1, 0, False, small=True)
    assert info["fail_ratio"] > 0
    assert "z2: validate" in info["failures"]


def test_modcat_counts_match_the_oracle():
    """Every enumeration case small enough for the brute-force oracle."""
    from oracles import oracle_modcat_classes_fast

    rng = np.random.default_rng(3)
    checked = 0
    for label, grp, omega, x in workloads.modcat_cases(small=False):
        if not (x.size == 1 or grp.order == 2):
            continue
        for w in (omega, workloads.gauge(omega, rng)):
            root = 4 if grp.order == 2 else w.root_order
            lifted = w.with_root_order(root)
            exps = {(a, b, c): int(lifted.exponents[a, b, c, 0])
                    for a in range(grp.order) for b in range(grp.order)
                    for c in range(grp.order)}
            classes, _ = oracle_modcat_classes_fast(
                [list(r) for r in grp.table], list(grp.inverse),
                [list(r) for r in x.action], exps, root)
            assert classes == workloads.MODCAT_CLASSES[label], label
            checked += 1
    assert checked == 2 * (6 + 3 + 4 + 4)


def test_bare_directory_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "modcat-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
