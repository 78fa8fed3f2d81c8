"""Repeat benchmark runs and compare two sets of them.

    python3 bench/steady.py run --out RUNS.jsonl [--a DIR] [--b DIR]
                                [--workloads W,...] [--seeds 1-10] [--trace 0|1]
    python3 bench/steady.py compare RUNS.jsonl [RUNS_B.jsonl]

`run` makes two sets of runs, A and B, interleaved so that a drift of the
machine falls on both alike: for each seed it goes round the workloads, and
for each workload runs A and B back to back, A first on even-numbered seeds
and B first on odd ones.  A and B are source checkouts that hold this
benchmark, each running its own `bench/run.py` (by default both are this
checkout, which shows how well two sets of the same code agree).  Every run
uses the `run_seconds` of this checkout's BENCHMARK.json and appends one JSON
line, tagged with its side.

`compare` prints, per workload and metric, each set's median, quartiles and
spread (q3 - q1) / median, how far B's median is from A's, and the median of
the per-seed ratios B/A, and in how many seed pairs B reads better than A.
With two files, the first is A and the second B.  End-to-end metrics are
marked against their bound: a spread above the bound or a B median worse
than A's by more than the bound is "FAIL", a spread above a third of the
bound "wide".  The exit code is 1 if anything is "FAIL".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds, trace: int):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{root} {workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def cmd_run(args) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    roots = {"A": Path(args.a).resolve(), "B": Path(args.b).resolve()}
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            for name in names:
                for side in ("A", "B") if seed % 2 == 0 else ("B", "A"):
                    result = run_once(roots[side], name, seed, spec["run_seconds"], args.trace)
                    if result is None:
                        continue
                    record = {"side": side, "workload": name, "seed": seed,
                              "trace": args.trace, **result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{side} {name} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return 0


def read_sets(paths) -> dict:
    """{side: {workload: {metric: {seed: value}}}}; "_failed" counts failures."""
    sets = {}
    for i, path in enumerate(paths):
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            side = "AB"[i] if len(paths) == 2 else rec.get("side", "A")
            per = sets.setdefault(side, {}).setdefault(rec["workload"], {})
            for name, m in rec["metrics"].items():
                per.setdefault(name, {})[rec["seed"]] = m["value"]
            per.setdefault("_failed", {})[rec["seed"]] = rec["failed"]
    return sets


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(side, values, bound):
    q1, med, q3 = summary(values)
    spread = (q3 - q1) / med if med else float("nan")
    flag = ""
    if bound is not None:
        flag = "FAIL" if spread > bound else "wide" if spread > bound / 3 else ""
    return med, flag, (f"    {side} n={len(values):<3d} median {med:12.6g}  q1 {q1:12.6g}  "
                       f"q3 {q3:12.6g}  spread {spread:7.2%}")


def cmd_compare(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sets = read_sets(args.files)
    a, b = sets.get("A", {}), sets.get("B")
    bad = False
    for workload, metrics in a.items():
        other = (b or {}).get(workload, {})
        print(f"== {workload}  runs A={len(metrics['_failed'])} failed A="
              f"{sum(metrics['_failed'].values())}" + (
                  f"  runs B={len(other['_failed'])} failed B="
                  f"{sum(other['_failed'].values())}" if other else ""))
        for name, by_seed in metrics.items():
            if name == "_failed":
                continue
            bound = bounds.get(name, {}).get("bound")
            med_a, flag_a, line_a = describe("A", list(by_seed.values()), bound)
            print(f"  {name}")
            print(line_a + (f"  {flag_a}" if flag_a else ""))
            bad |= flag_a == "FAIL"
            if name not in other:
                continue
            med_b, flag_b, line_b = describe("B", list(other[name].values()), bound)
            change = (med_b - med_a) / med_a if med_a else float("nan")
            ratios = [other[name][s] / v for s, v in by_seed.items()
                      if s in other[name] and v]
            paired = statistics.median(ratios) if ratios else float("nan")
            lower = better.get(name, "lower") == "lower"
            wins = sum(r < 1.0 if lower else r > 1.0 for r in ratios)
            if bound is not None:
                worse = change if lower else -change
                if worse > bound:
                    flag_b = "FAIL"
            bad |= flag_b == "FAIL"
            print(line_b + f"  change {change:+.2%}  paired B/A {paired:.4f}"
                  f"  B better in {wins}/{len(ratios)} pairs"
                  + (f"  {flag_b}" if flag_b else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--a", default=str(ROOT), help="checkout of set A")
    run.add_argument("--b", default=str(ROOT), help="checkout of set B")
    run.add_argument("--workloads", default="")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("files", nargs="+", help="one file of both sides, or A then B")
    args = ap.parse_args(argv)
    if args.cmd == "compare" and len(args.files) > 2:
        ap.error("compare takes one or two files")
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
