"""The repository benchmark: real CLI runs, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out REPORT.json]

Workloads (see workloads.py for why each exists): lookups and
branch-divisor, which BENCHMARK.json lists, and table-character and
crosscheck, which run by name only. Load shape: a closed loop with one
client. This process starts one `python -m hurwitz.cli` child at a time,
with the working tree's src on PYTHONPATH, and waits for it; the child
receives only the generated argv and files. The number of passes over a
workload (at least three) is set by --seconds and the workload's nominal
pass time, so two commits always measure the same invocations.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s          median seconds of one pass over the workload
  values_per_s    values or divisors correctly printed per second of pass
  latency_p50_s   median seconds of one invocation, interpreter start in
  latency_tail_s  the highest percentile with at least 10 samples beyond
                  it (the maximum when there are fewer than 20 samples)
  peak_rss_mb     largest max-RSS of a single CLI process (os.wait4)
  setup_s         median seconds of a fresh `python -m hurwitz.cli --help`
  ok_ratio        1 - fail_ratio: invocations that passed every check
                  over invocations attempted (help probes included)
--trace 1 makes rounds of one untraced pass and one traced pass, which
replays every invocation in two fresh interpreters (replay.py), and
reports the median per-layer metrics of BENCHMARK.json, with the traced
pass's total against untraced wall_s as the tracing overhead.

Every output is checked (checks.py); a failure counts toward `failed`
and never aborts the run. `correct` is false only when the program
printed a wrong answer or two runs of one invocation differed; crashes
and wrong exit codes are failures without being wrong answers. The last
stdout line is the JSON result; --out also writes the full report with
run metadata, percentiles, sample counts and every failure.

The run refuses to start (exit 2, no result) unless the imported
hurwitz package is the working tree's src/hurwitz.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import Verdict, check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 11
MIN_PASSES = 3
INVOCATION_TIMEOUT_S = 60
# stop starting new invocations after this long, so a run always ends
# well inside the 180 s a run may take
DEADLINE_S = 140
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

LAYER_SPANS = (
    "partitions.stats_s", "character.disconnected_s",
    "character.connected_s", "recursion.h0_s", "recursion.h1_s",
    "recursion.h2_s", "recursion.closed_form_s", "intersection.psi_sum_s",
    "oracle.count_s", "stablemap.load_s", "stablemap.validate_s",
    "stablemap.divisor_s", "stablemap.genus_s",
)
LAYER_COUNTS = (
    "partitions.enumerated", "character.cache_hits",
    "character.cache_misses", "recursion.cache_hits",
    "recursion.cache_misses", "intersection.calls", "oracle.calls",
    "stablemap.components", "stablemap.rejected",
)


class Refused(Exception):
    """The benchmark cannot measure this tree."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(args):
    return [sys.executable, "-m", "hurwitz.cli", *args]


def source_digest():
    digest = hashlib.sha256()
    for root in (SRC / "hurwitz", HERE):
        for path in sorted(root.glob("*")):
            if path.is_file() and path.suffix in (".py", ".pyx", ".json"):
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


class Bench:
    """One benchmark run: the spawn.py helper that starts every child,
    and the tally of checked CLI runs."""

    def __init__(self, workdir):
        self.started = time.perf_counter()
        self.stdout = workdir / "child.stdout"
        self.stderr = workdir / "child.stderr"
        self.helper = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []

    def close(self):
        self.helper.stdin.close()
        self.helper.wait(timeout=INVOCATION_TIMEOUT_S)
        self.helper.stdout.close()

    def left(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, argv):
        """(exit code or None on timeout, stdout, stderr, wall seconds,
        the child's own peak RSS in MB)."""
        request = {"argv": argv, "stdout": str(self.stdout),
                   "stderr": str(self.stderr),
                   "timeout": max(1, min(INVOCATION_TIMEOUT_S,
                                         self.left() + 20))}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        answer = json.loads(self.helper.stdout.readline())
        code = None if answer["timed_out"] else answer["code"]
        return (code, self.stdout.read_bytes(), self.stderr.read_bytes(),
                answer["seconds"], answer["maxrss_kb"] / 1024)

    def record(self, label, verdict):
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.wrong += verdict.wrong
            self.failures.append({"invocation": label,
                                  "wrong": verdict.wrong,
                                  "reason": verdict.reason[:300]})


def metadata(bench, seed):
    probe = ("import json, hurwitz; "
             "print(json.dumps([hurwitz.__file__, hurwitz.ORACLE_BACKEND]))")
    code, out, err, _, _ = bench.run([sys.executable, "-c", probe])
    if code != 0:
        raise Refused("cannot import hurwitz from the working tree: "
                      + err.decode(errors="replace").strip()[-300:])
    package_file, backend = json.loads(out)
    package = Path(package_file).resolve().parent
    if package != (SRC / "hurwitz").resolve():
        raise Refused(f"imported hurwitz from {package}, not {SRC}/hurwitz")
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "oracle_backend": backend,
        "package_path": str(package),
    }


def measure_setup(bench):
    """Median wall seconds of `--help` over fresh interpreters; the
    first, untimed run writes bytecode caches the way any first use
    would."""
    times, first = [], None
    for probe in range(SETUP_PROBES + 1):
        code, out, err, seconds, _ = bench.run(cli_argv(["--help"]))
        first = out if first is None else first
        ok = code == 0 and out.startswith(b"usage: hurwitz") and out == first
        bench.record("--help", Verdict(ok, wrong=code == 0 and not ok,
                                       reason=f"--help exit {code}"))
        if probe:
            times.append(seconds)
    return statistics.median(times)


def run_pass(workload, bench, reference_out):
    """One untraced pass; returns (wall, values, samples, peak RSS) or
    None when the deadline stopped it."""
    values, samples, peak = 0, [], 0.0
    start = time.perf_counter()
    for index, inv in enumerate(workload.invocations):
        if bench.left() <= 0:
            return None
        code, out, err, seconds, rss = bench.run(cli_argv(inv.argv))
        verdict = check(inv, code, out, err)
        if reference_out.setdefault(index, out) != out:
            verdict = Verdict(False, True, reason="output differs from an "
                              "earlier run of the same invocation")
        bench.record(" ".join(inv.argv), verdict)
        values += verdict.values
        samples.append(seconds)
        peak = max(peak, rss)
    return time.perf_counter() - start, values, samples, peak


def tail_latency(samples):
    """(seconds, percentile, samples beyond it): the highest percentile
    with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def end_to_end(workload, passes, bench, setup):
    reference_out = {}
    results = []
    for _ in range(passes):
        result = run_pass(workload, bench, reference_out)
        if result is None:
            break
        results.append(result)
    walls = [r[0] for r in results]
    samples = [s for r in results for s in r[2]]
    per_invocation = [[" ".join(inv.argv), [r[2][i] for r in results]]
                      for i, inv in enumerate(workload.invocations)]
    tail, percentile, beyond = tail_latency(samples)
    metrics = {
        "wall_s": statistics.median(walls),
        "values_per_s": statistics.median(r[1] / r[0] for r in results),
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail,
        "peak_rss_mb": max(r[3] for r in results),
        "setup_s": setup,
        "ok_ratio": 1 - bench.failed / bench.attempted,
    }
    details = {"passes": len(results), "pass_walls_s": walls,
               "invocations": len(samples), "tail_percentile": percentile,
               "tail_samples_beyond": beyond,
               "fail_ratio": bench.failed / bench.attempted,
               "invocation_s": per_invocation}
    return metrics, details


def replay(mode, inv, bench):
    request = json.dumps({"argv": inv.argv, "replay": inv.replay})
    code, out, err, _, _ = bench.run(
        [sys.executable, str(HERE / "replay.py"), mode, request])
    if code != 0:
        bench.record(f"replay {mode} {' '.join(inv.argv)}", Verdict(
            False, reason=err.decode(errors="replace").strip()[-300:]))
        return None
    return json.loads(out.splitlines()[-1])


def traced_pass(workload, bench, reference_out):
    """Replay every invocation in the two interpreters of replay.py;
    returns the pass's per-layer totals and its spans."""
    totals = dict.fromkeys(["cli.import_s", "cli.main_s", *LAYER_SPANS], 0.0)
    totals.update(dict.fromkeys(LAYER_COUNTS, 0))
    spans = []
    start = time.perf_counter()
    for index, inv in enumerate(workload.invocations):
        if bench.left() <= 0:
            break
        main = replay("main", inv, bench)
        layers = replay("layers", inv, bench)
        if main is None or layers is None:
            continue
        same = main["stdout"].encode() == reference_out[index]
        bench.record(f"traced {' '.join(inv.argv)}", Verdict(
            same, wrong=not same,
            reason="in-process output differs from the CLI run"))
        totals["cli.import_s"] += main["import_s"]
        totals["cli.main_s"] += main["main_s"]
        for name, value in main["cache"].items():
            if totals[name] is not None:
                totals[name] = None if value is None else totals[name] + value
        for name, _, seconds in layers["spans"]:
            totals[name] += seconds
        for name, value in layers["counts"].items():
            totals[name] += value
        spans.append({"invocation": index, "spans": layers["spans"]})
    totals["trace.total_s"] = time.perf_counter() - start
    totals["cli.self_s"] = totals["cli.main_s"] - sum(
        totals[name] for name in LAYER_SPANS)
    totals["cli.self_share"] = (totals["cli.self_s"] / totals["cli.main_s"]
                                if totals["cli.main_s"] else 0.0)
    return totals, spans


def traced(workload, rounds, bench):
    """Per-layer metrics: medians over rounds of one untraced pass and
    one traced pass each."""
    reference_out = {}
    walls, passes, spans = [], [], []
    for _ in range(rounds):
        result = run_pass(workload, bench, reference_out)
        if result is None:
            break
        walls.append(result[0])
        totals, spans = traced_pass(workload, bench, reference_out)
        passes.append(totals)
    metrics = {}
    for name in passes[0]:
        values = [t[name] for t in passes]
        metrics[name] = None if None in values else statistics.median(values)
    metrics["trace.overhead_ratio"] = (metrics["trace.total_s"]
                                       / statistics.median(walls))
    return metrics, {"untraced_walls_s": walls, "rounds": len(passes),
                     "spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time and check the hurwitz CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full report to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(workdir)
    try:
        meta = metadata(bench, args.seed)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            # a round costs about three untraced passes
            rounds = max(1, round(args.seconds / workload.nominal_pass_s / 3))
            metrics, details = traced(workload, rounds, bench)
        else:
            setup = measure_setup(bench)
            passes = max(MIN_PASSES,
                         round(args.seconds / workload.nominal_pass_s))
            metrics, details = end_to_end(workload, passes, bench, setup)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    report = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "meta": meta, "metrics": metrics,
        "details": details, "attempted": bench.attempted,
        "failed": bench.failed, "wrong": bench.wrong,
        "failures": bench.failures,
        "elapsed_s": time.perf_counter() - bench.started,
    }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    print("# " + json.dumps(meta))
    failures = Counter((f["invocation"], f["reason"]) for f in bench.failures)
    for (label, reason), times in failures.items():
        print(f"# failed {times}x: {label}: {reason}")
    for name, unit in units.items():
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"# {name} = {shown} {unit}")
    if args.trace:
        untraced = statistics.median(details["untraced_walls_s"])
        print(f"# cli.self_s is {metrics['cli.self_share']:.1%} of cli.main_s;"
              f" traced pass {metrics['trace.total_s']:.3f} s against "
              f"untraced wall_s {untraced:.3f} s")
    else:
        print(f"# latency_tail_s is p{details['tail_percentile']} of "
              f"{details['invocations']} invocations, "
              f"{details['tail_samples_beyond']} beyond it; fail_ratio = "
              f"{bench.failed}/{bench.attempted}")
    result = {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # a cache counter of a function without cache_info() is null in
        # the report and 0 here, where every value must be a number
        "metrics": {name: {"value": metrics[name] or 0, "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
