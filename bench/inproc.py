"""Run CLI jobs inside one interpreter, traced or not.

    python3 bench/inproc.py SPEC.json RESULT.json

The program's `src` directory must be on PYTHONPATH.  SPEC holds

    {"jobs": [{"name", "command", "argv", "out"}, ...],
     "trace": bool, "spans": path or null, "baselines": {...} or null}

Each job runs as `secexp.cli.cli.main(argv + ["--out", out])` with
`standalone_mode=False`, so every job shares one import of the program.
With `trace`, the layer wrappers of `tracer.py` are installed first and each
job is a root span named `cli.<command>`.  With `baselines`, the fixed
baseline cases run after the jobs, timed call by call.  RESULT receives the
import time, each job's wall time and exit code, and the trace summary.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def _exit_code(call) -> int:
    import click

    try:
        call()
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except click.exceptions.ClickException as e:
        e.show()
        return e.exit_code
    except Exception:  # a crash in one job must not hide the others
        traceback.print_exc()
        return 1
    return 0


def run_jobs(cli, jobs, tracer: Tracer | None) -> list[dict]:
    out = []
    for job in jobs:
        args = list(job["argv"]) + ["--out", job["out"]]

        def call(args=args):
            cli.main(args=args, prog_name="secexp", standalone_mode=False)

        if tracer is not None:
            call = tracer.span(f"cli.{job['command']}", call)
        t0 = time.perf_counter()
        code = _exit_code(call)
        out.append({"name": job["name"], "wall_s": time.perf_counter() - t0,
                    "exit": code})
    return out


def run_baselines(spec: dict) -> dict:
    """The fixed in-process cases quoted as the performance baseline."""
    from secexp.dists import Alphabet, SubDist
    from secexp.figures import figure_sweep
    from secexp.hashing import FullyRandomFamily, ToeplitzFamily
    from secexp.privacy import expected_d1
    from secexp.wiretap import Channel, wiretap_ensemble_exact

    def timed(fn):
        t0 = time.perf_counter()
        value = fn()
        return time.perf_counter() - t0, value

    rows = {}
    dt, fig = timed(lambda: figure_sweep(4, 50))
    rows["baseline.figure4_50pt_s"] = (dt, len(fig.rows))

    mass = spec["fullrandom_mass"]
    p = SubDist(Alphabet(tuple(f"x{i}" for i in range(len(mass)))), mass)
    fam = FullyRandomFamily(p.alphabet, 4)
    dt, est = timed(lambda: expected_d1(p, fam))
    rows["baseline.fullrandom_65536_seeds_s"] = (dt, est.value)

    fam = ToeplitzFamily(2, 12, 4)
    p = SubDist(fam.input_alphabet, spec["toeplitz_mass"])
    dt, est = timed(lambda: expected_d1(p, fam))
    rows["baseline.toeplitz_2_12_4_s"] = (dt, est.value)

    def channel(matrix):
        return Channel(Alphabet(("0", "1", "2")),
                       Alphabet(tuple(f"y{j}" for j in range(len(matrix[0])))),
                       matrix)

    wb, we = channel(spec["wb"]), channel(spec["we"])
    p = SubDist.uniform(wb.input_alphabet)
    fam = ToeplitzFamily(2, 3, 1)
    dt, res = timed(lambda: wiretap_ensemble_exact(p, 2, 4, fam, wb, we))
    rows["baseline.wiretap_ternary_26244_s"] = (dt, len(res.entries))
    return {k: {"seconds": v[0], "value": v[1]} for k, v in rows.items()}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    from secexp.cli import cli

    import_s = time.perf_counter() - t0
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
    jobs = run_jobs(cli, spec["jobs"], tracer)
    result = {"import_s": import_s, "jobs": jobs}
    if tracer is not None:
        tracer.uninstall()
        tracer.flush_counts()
        result["self_times"] = tracer.self_times()
        result["counts"] = tracer.counts
        result["missing"] = tracer.missing
        result["span_cost"] = tracer.cost
        if spec.get("spans"):
            tracer.write(spec["spans"])
    if spec.get("baselines"):
        result["baselines"] = run_baselines(spec["baselines"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
