"""Compare two sets of benchmark reports written by run.py --out.

    python3 perfbench/compare.py --base A1.json A2.json ... \
                                 --new  B1.json B2.json ...

For each workload and end-to-end metric it prints each side's median,
the spread of each side (quartile distance over median), the change of
the median as a share of the base median (positive means worse), the
bound BENCHMARK.json fixes, and a verdict: `ok` within the bound,
`worse` beyond it, `unresolved` when either side's spread is wider than
the bound, unless every new run beats every base run. Exits 1 when a
metric is worse, and refuses (exit 2) to compare reports whose oracle
backends differ, since they time different kernels.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load(paths):
    runs = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        if report["trace"]:
            sys.exit(f"{path}: a traced report has no end-to-end metrics")
        runs.setdefault(report["workload"], []).append(report)
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    backends = {r["meta"]["oracle_backend"]
                for side in (base, new) for rs in side.values() for r in rs}
    if len(backends) > 1:
        print(f"refused: oracle backends differ ({sorted(backends)})",
              file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    worse = False
    print(f"{'workload':16} {'metric':15} {'base':>10} {'new':>10} "
          f"{'spread b/n':>13} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(base.keys() & new.keys()):
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            b = [r["metrics"][name] for r in base[workload]]
            n = [r["metrics"][name] for r in new[workload]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if lower else (mb - mn) / mb
            beats = max(n) < min(b) if lower else min(n) > max(b)
            if max(spread(b), spread(n)) > metric["bound"] and not beats:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict, worse = "worse", True
            else:
                verdict = "ok"
            print(f"{workload:16} {name:15} {mb:10.4g} {mn:10.4g} "
                  f"{spread(b):6.3f}/{spread(n):6.3f} {change:+8.3f} "
                  f"{metric['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
