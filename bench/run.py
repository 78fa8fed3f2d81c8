"""The secexp benchmark: whole-CLI wall time and exact-enumeration throughput.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's `src/` directory, never from an installed copy, and the run fails
at once if `src/secexp` is missing.

`--trace 0` measures what a user of the CLI sees.  It runs the workload's
fixed job schedule (see `workloads.py`), one fresh process per job and one
job at a time, repeating whole cycles of the schedule for about S seconds:
the whole number of cycles, at least one, nearest to S over the workload's
nominal cycle time (`workloads.CYCLE_S`).  The count depends on S alone, not
on how fast this run's first cycle went, so every run with the same S
takes each job's statistic over the same number of samples.
A fresh interpreter running `import secexp.cli` is timed before the first
cycle and in the middle of each cycle (`setup_s` is their median), after an
untimed import if the bytecode caches are not written yet.
The fixed probe of `speed.py` runs before every timed process and once after
the last cycle; every time reported is a wall time scaled by
`speed.REFERENCE_S / mean probe time`, so that a slow spell of a shared host
does not read as a slower program.  Reported:

    setup_s      median wall time of `import secexp.cli` in a fresh process
    job_p50_s    median over the schedule's jobs of each job's wall time,
                 start-up included
    work_per_s   work units of one cycle over the sum of each job's wall time
    peak_rss_mb  largest peak resident set of any job

where a job's wall time is its low median across the cycles (the median of
an odd count, the lower middle value of an even one).  The unscaled values,
the scale and every probe time go to the run's detail file.

`--trace 1` runs one cycle of the same jobs, whatever S is, inside one
interpreter twice: untraced (followed by the baseline cases of `inproc.py`),
then with the layer wrappers of `tracer.py`.  It reports the per-layer
counts and self times, the tracing overhead and the baseline cases.  The
spans are written to `bench/_work/spans-<workload>.npz`.

Every job's output is checked (`checks.py`), most against the output of a
twin job that runs untimed after the timed jobs; a job fails if it exits
non-zero, fails a check, or prints different bytes on a repeat of the same
input.  A traced run also fails if a layer could not be wrapped.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; per-job times and failures of the last run go to
`bench/_work/last-<workload>-trace<0|1>.json`.  `--record` stores
the outputs of a passing run as the reference outputs for its workload.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PYTHON = sys.executable
REFERENCE_SEED = 0
# No job starts after this many seconds, so a run ends well within 180 s.
RUN_DEADLINE_S = 150.0


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("SECEXP_THREADS", None)  # the documented default: one thread
    # An installed program has its bytecode compiled; so should the one timed.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts one process at a time, each bounded by the run's deadline."""

    def __init__(self):
        self.env = program_env()
        self.t0 = time.perf_counter()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t0)

    def run(self, argv, stdout, stderr):
        """Run to completion; returns (wall s, exit code, peak RSS in KiB)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(max(self.remaining(), 5.0) + 20.0, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss


def median(values):
    return statistics.median(values) if values else 0.0


# -- checking ----------------------------------------------------------------


def check_outputs(jobs, texts, twins, reference) -> dict[str, list[str]]:
    """Failures per job name for one set of outputs (None = no output)."""
    fails = {job.name: [] for job in jobs}
    parsed = {}
    for job in jobs:
        text = texts.get(job.name)
        if text is None:
            fails[job.name].append("no output")
            continue
        try:
            parsed[job.name] = out = checks.parse(text, job.fmt)
            fails[job.name] += checks.check(job, out, twins.get(job.name))
        except (ValueError, KeyError, TypeError, IndexError) as e:
            fails[job.name].append(f"unreadable output: {e!r}")
        if reference is not None and job.name in parsed:
            fails[job.name] += checks.compare_reference(
                reference.get(job.name), parsed[job.name], job.name)
    return fails


def load_reference(workload: str, seed: int):
    path = REFERENCE / f"{workload}.json"
    if seed != REFERENCE_SEED or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def run_twins(runner, jobs, work) -> dict:
    """Outputs of the jobs' twins, run in one untimed process.  A twin that
    fails is left out, which fails the check of its job."""
    specs = [{"name": j.name, "command": j.command, "argv": list(j.twin),
              "out": str(work / f"{j.name}.twin")} for j in jobs if j.twin]
    if not specs:
        return {}
    result = run_inproc(runner, work, "twins", {"jobs": specs})
    twins = {}
    for spec, rec in zip(specs, result.get("jobs", [])):
        if rec["exit"] == 0:
            twins[spec["name"]] = json.loads(Path(spec["out"]).read_text())
    return twins


def run_inproc(runner, work, tag, spec, importtime=False) -> dict:
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [PYTHON] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH / "inproc.py"), str(spec_path), str(result_path)]
    _, code, _ = runner.run(argv, work / f"{tag}.stdout", work / f"{tag}.stderr")
    if code != 0 or not result_path.is_file():
        err = (work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        print(f"in-process run {tag} failed ({code}):\n{err}", file=sys.stderr)
        return {}
    return json.loads(result_path.read_text(encoding="utf-8"))


# -- trace 0: end to end -------------------------------------------------------


def run_end_to_end(runner, workload, jobs, seconds, work, twins_fn, reference):
    devnull = work / "import.out"
    import_argv = [PYTHON, "-c", "import secexp.cli"]
    if not Path(importlib.util.cache_from_source(str(SRC / "secexp" / "cli.py"))).is_file():
        runner.run(import_argv, devnull, devnull)  # writes the bytecode caches
    setup, probes = [], []
    speed.probe_s()  # untimed: the probe's arrays and code paths warm up

    def timed_run(argv, stdout, stderr):
        probes.append(speed.probe_s())
        return runner.run(argv, stdout, stderr)

    def time_import():
        wall, code, _ = timed_run(import_argv, devnull, devnull)
        if code != 0:
            raise SystemExit("`import secexp.cli` failed in a fresh interpreter")
        setup.append(wall)

    records = []  # (cycle, job, wall, exit, rss KiB)

    def cycle(c):
        # Import timings are spread over the run, so that a slow spell of
        # the machine does not decide setup_s alone.
        for i, job in enumerate(jobs):
            if i == len(jobs) // 2:
                time_import()
            out = work / f"{job.name}.c{c}.out"
            argv = [PYTHON, "-m", "secexp.cli", *job.argv, "--out", str(out)]
            wall, code, rss = timed_run(argv, work / f"{job.name}.c{c}.stdout",
                                         work / f"{job.name}.c{c}.stderr")
            records.append((c, job, wall, code, rss))

    time_import()
    t0 = time.perf_counter()
    n_cycles = max(1, round(seconds / workloads.CYCLE_S[workload]))
    for c in range(n_cycles):
        # Only a machine several times slower than usual ends a run early.
        if c and runner.remaining() < 1.5 * (time.perf_counter() - t0) / c:
            n_cycles = c
            break
        cycle(c)
    probes.append(speed.probe_s())

    twins = twins_fn()
    first = {}
    for c, job, _, code, _ in records:
        if c == 0 and code == 0:
            first[job.name] = (work / f"{job.name}.c0.out").read_text()
    fails0 = check_outputs(jobs, first, twins, reference)
    failed = []
    for c, job, _, code, _ in records:
        msgs = [f"exit code {code}"] if code != 0 else []
        if c == 0:
            msgs += fails0[job.name]
        elif code == 0:
            if (work / f"{job.name}.c{c}.out").read_text() != first.get(job.name):
                msgs.append(f"cycle {c} output differs from cycle 0")
            msgs += fails0[job.name]
        if msgs:
            failed.append((job.name, c, msgs))

    by_job = {}
    for _, job, wall, _, _ in records:
        by_job.setdefault(job.name, []).append(wall)
    # Slow spells of the machine make a job slower, rarely faster, so the
    # low median over the cycles drops the spell where a mean would keep
    # it.  The median over jobs of those moves smoothly with every job's
    # time, where the median of all walls jumps between two jobs of
    # different size.
    job_walls = [statistics.median_low(w) for w in by_job.values()]
    units = sum(job.units for job in jobs)

    def timings(scale):
        return {
            "setup_s": (scale * median(setup), "s"),
            "job_p50_s": (scale * median(job_walls), "s"),
            "work_per_s": (units / (scale * sum(job_walls)), "units/s"),
        }

    scale = speed.REFERENCE_S / statistics.fmean(probes)
    metrics = timings(scale)
    metrics["peak_rss_mb"] = (max(r[4] for r in records) / 1024.0, "MB")
    detail = {
        "scale": scale,
        "unscaled": {k: v for k, (v, _) in timings(1.0).items()},
        "probe_s": probes,
        "setup_s": setup,
        "cycles": n_cycles,
        "jobs": [{"name": r[1].name, "cycle": r[0], "wall_s": r[2],
                  "exit": r[3], "rss_kb": r[4]} for r in records],
    }
    return len(records), failed, metrics, detail, first


# -- trace 1: in-process layers ------------------------------------------------


def scipy_import_s(stderr_text: str) -> float:
    """Seconds that `-X importtime` attributes to scipy's own modules."""
    total = 0
    for line in stderr_text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().split(".")[0] == "scipy":
            total += int(fields[0])
    return total / 1e6


def run_traced(runner, workload, seed, jobs, work, twins_fn, reference):
    passes = {}
    for tag, trace in (("untraced", False), ("traced", True)):
        specs = [{"name": j.name, "command": j.command, "argv": list(j.argv),
                  "out": str(work / f"{j.name}.{tag}.out")} for j in jobs]
        spec = {"jobs": specs, "trace": trace}
        if trace:
            spec["spans"] = str(WORK / f"spans-{workload}.npz")
        else:
            spec["baselines"] = workloads.baseline_inputs(seed)
        passes[tag] = (specs, run_inproc(runner, work, tag, spec, importtime=trace))

    twins = twins_fn()
    attempted, failed, outputs = 0, [], {}
    for tag, (specs, result) in passes.items():
        recs = {r["name"]: r for r in result.get("jobs", [])}
        texts = {}
        for spec in specs:
            rec = recs.get(spec["name"])
            if rec is not None and rec["exit"] == 0:
                texts[spec["name"]] = Path(spec["out"]).read_text()
        fails = check_outputs(jobs, texts, twins, reference)
        for job in jobs:
            attempted += 1
            rec = recs.get(job.name)
            msgs = list(fails[job.name])
            if rec is None or rec["exit"] != 0:
                msgs.insert(0, f"exit code {rec and rec['exit']}")
            if tag == "traced" and texts.get(job.name) != outputs.get(job.name):
                msgs.append("traced output differs from the untraced run")
            if msgs:
                failed.append((job.name, tag, msgs))
        if tag == "untraced":
            outputs = texts

    untraced, traced = passes["untraced"][1], passes["traced"][1]
    # A layer the tracer could not wrap would read 0: the traced run fails.
    attempted += 1
    if traced.get("missing"):
        failed.append(("tracer", "traced", [f"layer targets missing: {traced['missing']}"]))
    metrics = tracer.layer_metrics(traced, untraced)
    metrics["cli.import_scipy_s"] = (
        scipy_import_s((work / "traced.stderr").read_text(errors="replace")), "s")
    for name, row in untraced.get("baselines", {}).items():
        metrics[name] = (row["seconds"], "s")
    detail = {
        "missing_targets": traced.get("missing", []),
        "baselines": untraced.get("baselines", {}),
        "untraced_jobs": untraced.get("jobs", []),
        "traced_jobs": traced.get("jobs", []),
    }
    return attempted, failed, metrics, detail, outputs


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the workload's reference")
    args = ap.parse_args(argv)

    if not (SRC / "secexp" / "cli.py").is_file():
        print(f"no program source at {SRC / 'secexp'}", file=sys.stderr)
        return 2

    runner = Runner()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, work / "inputs")
        reference = None if args.record else load_reference(args.workload, args.seed)
        twins_fn = lambda: run_twins(runner, jobs, work)  # noqa: E731
        if args.trace:
            result = run_traced(runner, args.workload, args.seed, jobs, work,
                                twins_fn, reference)
        else:
            result = run_end_to_end(runner, args.workload, jobs, args.seconds,
                                    work, twins_fn, reference)
        attempted, failed, metrics, detail, outputs = result
        for name, where, msgs in failed:
            print(f"FAILED {name} ({where}): {'; '.join(msgs)}", file=sys.stderr)
        detail["failed"] = failed
        (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1), encoding="utf-8")
        if args.record:
            if failed or len(outputs) != len(jobs):
                print("not recording a reference from a failing run", file=sys.stderr)
                return 1
            REFERENCE.mkdir(exist_ok=True)
            parsed = {j.name: checks.parse(outputs[j.name], j.fmt) for j in jobs}
            (REFERENCE / f"{args.workload}.json").write_text(
                json.dumps(parsed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
