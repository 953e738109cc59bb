"""End-to-end benchmark of twistcat, with a traced run for per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (one client, closed loop, one operation at a time):

  cli-goldens       every golden CLI command, each in a fresh interpreter,
                    plus the exit-code contract; what a CLI user waits for
  modcat-enum       modcats_for + validate_modcat over Z/2, Z/3, Z/4 and
                    Z/2 x Z/2 carriers; integer lattice and SNF work
  sixj-fusion       fusion 6j orthogonality, Biedenharn-Elliott and tables
                    for Z/2..Z/5; Scalar add/mul over root-of-unity sums
  functor-calculus  simple-functor classification squares, functor 6j
                    relations, adjoint trials, a bimodule; matrix symbols

A run builds the workload's inputs from the seed, makes one untimed warm-up
pass, then runs the operation list round after round until S seconds have
passed and at least MIN_ROUNDS rounds are done.  Each operation's time is
its mean over the run, so every metric spreads over all of the S seconds.
Every output is checked exactly.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it describes the machine and
the run, with the per-operation latency percentiles (over the operations'
means).  A results file with the same data (and, for a traced run, every
span) goes to bench/results/.
The exit code is 1 when an operation failed, 2 when the repository's
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
REQUIRED = [SRC / "twistcat" / "__init__.py", ROOT / "tests" / "golden",
            ROOT / "docs" / "examples"]
SETUP_REPEATS = 3
MIN_ROUNDS = 2   # every operation's mean holds at least two times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def machine() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def peak_rss_mib() -> float:
    """Peak resident memory of this process or any child it waited for."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024


def setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import twistcat and build the
    workload's inputs, over SETUP_REPEATS set-ups."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.build({workload!r}, {seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        # Reading the child's output ends as soon as it exits; a bare wait
        # with a timeout polls, in steps of up to 50 ms.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       timeout=170, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Rounds:
    """Operations run one at a time in list order, round after round.

    Each operation's times are kept apart, so a run that stops part-way
    through a round still weighs every operation once in ``pass_s``.
    """

    def __init__(self, ops, timer) -> None:
        self.ops, self.timer = ops, timer
        self.op_s: list[list[float]] = [[] for _ in ops]
        self.relations = [0] * len(ops)   # conditions checked, all runs
        self.failures: list[str] = []
        self.attempted = 0

    def step(self, index: int) -> None:
        op, timer = self.ops[index], self.timer
        if index == 0:
            gc.collect()  # every round starts from the same collector state
        if timer.recorder is not None:
            timer.recorder.op = op.label
        mark, checked = timer.elapsed, timer.relations
        try:
            ok = op.run(timer)
        except Exception as exc:  # an operation that raises has failed
            ok = False
            print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.op_s[index].append(timer.elapsed - mark)
        self.relations[index] += timer.relations - checked
        self.attempted += 1
        if not ok:
            self.failures.append(op.label)

    def once(self) -> "Rounds":
        for index in range(len(self.ops)):
            self.step(index)
        return self

    def until(self, seconds: float, rounds: int) -> "Rounds":
        """``rounds`` whole rounds, then single operations until ``seconds``
        have passed."""
        start = time.perf_counter()
        for _ in range(rounds):
            self.once()
        index = 0
        while time.perf_counter() - start < seconds:
            self.step(index)
            index = (index + 1) % len(self.ops)
        return self

    def mean_s(self) -> list[float]:
        """Each operation's mean time."""
        return [statistics.fmean(times) for times in self.op_s]

    def pass_s(self, case_only: bool = False) -> float:
        """One pass over the list: the sum of each operation's mean time."""
        return sum(mean for op, mean in zip(self.ops, self.mean_s())
                   if op.case or not case_only)

    def pass_relations(self) -> float:
        """Conditions one pass checks: the sum of each operation's mean."""
        return sum(checked / len(times)
                   for checked, times in zip(self.relations, self.op_s))

    def busy_s(self) -> float:
        return sum(map(sum, self.op_s))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, results-file extras)."""
    import workloads
    from workloads import Timer

    built = workloads.build(workload, seed, small=small, inprocess=trace)
    runs = [Rounds(built.warmup, Timer()).once()]
    extra: dict = {}
    if trace:
        import spans
        untraced = Rounds(built.ops, Timer()).once()
        recorder = spans.Recorder()
        timer = Timer(recorder)
        recorder.install()
        try:
            traced = Rounds(built.ops, timer).once()
        finally:
            recorder.uninstall()
        runs += [untraced, traced]
        metrics = recorder.layer_metrics()
        metrics["modcat.classes_found"] = timer.counts.get(
            "modcat.classes_found", 0)
        metrics["sixj.relations_checked"] = (
            timer.checked.get("verify_orthogonality", 0)
            + timer.checked.get("verify_biedenharn_elliott", 0))
        parse_s = metrics["cli.parse_config.busy_s"]
        metrics["cli.parse_share"] = (parse_s / traced.busy_s()
                                      if workload == "cli-goldens" else 0.0)
        metrics["trace.overhead_ratio"] = (traced.busy_s()
                                           / untraced.busy_s() - 1)
        cases = workloads.ScalingCases()
        runs.append(Rounds([workloads.Op("scaling cases", cases.run)],
                           Timer()).once())
        metrics.update(cases.seconds)
        metrics["cli.import_s"] = statistics.median(
            workloads.import_seconds() for _ in range(SETUP_REPEATS))
        extra["trace"] = recorder.dump()
    else:
        setup_s = setup_seconds(workload, seed)
        timer = Timer()
        timed = Rounds(built.ops, timer).until(seconds,
                                               1 if small else MIN_ROUNDS)
        runs.append(timed)
        metrics = {
            "setup_s": setup_s,
            "wall_s": timed.pass_s(),
            "largest_case_s": timed.pass_s(case_only=True),
            "relations_per_s": timed.pass_relations() / timed.pass_s(),
            "peak_rss_mib": peak_rss_mib(),
        }
        # Each percentile is one operation's mean, which samples the
        # machine's speed at a few moments only: too unsteady on a shared
        # host to bound, so it is reported in the run description.
        op_mean_s = timed.mean_s()
        extra["latency"] = {"op_samples": timed.attempted,
                            "op_p50_s": percentile(op_mean_s, 50),
                            "op_p80_s": percentile(op_mean_s, 80)}
        extra["op_s"] = {"labels": [op.label for op in built.ops],
                         "times": timed.op_s}
    attempted = sum(r.attempted for r in runs)
    failures = [label for r in runs for label in r.failures]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    extra["fail_ratio"] = len(failures) / attempted
    extra["failures"] = failures
    return result, extra


def report(workload: str, seed: int, seconds: float, trace: bool,
           small: bool = False) -> tuple[dict, dict, dict]:
    """(result line, run description, raw data) for one run; the raw data
    holds the per-operation times, or the spans of a traced run.

    The result line carries the metrics BENCHMARK.json names for the run's
    mode, each with its unit.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if trace else "end_to_end"]
    result, extra = measure(workload, seed, seconds, trace, small)
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in names}
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "machine": machine(),
            "fail_ratio": extra["fail_ratio"], "failures": extra["failures"]}
    info.update(extra.get("latency", {}))
    return result, info, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"bench: not a twistcat checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # One client: numpy's BLAS thread pool, which twistcat's exact
    # arithmetic never uses, would start extra threads in this process and
    # in every interpreter it starts.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(BENCH), str(SRC)]
    import twistcat
    if Path(twistcat.__file__).resolve().parent != SRC / "twistcat":
        print(f"bench: imported twistcat from {twistcat.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    result, info, extra = report(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    workloads.RESULTS.mkdir(parents=True, exist_ok=True)
    out = workloads.RESULTS / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    out.write_text(json.dumps({"info": info, "result": result,
                               "op_s": extra.get("op_s"),
                               "trace": extra.get("trace")}))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
