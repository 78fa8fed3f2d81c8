"""Seeded inputs and fixed job schedules for the benchmark workloads.

Every workload is a fixed list of `secexp` CLI jobs.  The sizes of the jobs
(alphabet sizes, M, L, q, k, sample counts, sweep points) never depend on
the seed; the seed only draws the numbers the program reads: masses, channel
rows, joints and rates.  So the cost of a workload is the same for every
seed, and the program sees nothing but the generated JSON files and flags.

Each job carries a fixed count of work units (what `work_per_s` counts), a
check kind for `checks.py`, and, where a check needs one, a twin: a second,
untimed job whose output the check compares against (see `Job`).

Inputs are drawn with Python's own `random.Random`, seeded from the workload
name and the seed, so this module needs no third-party package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Why each exists is recorded in BENCHMARK.json and bench/meta.json.
WORKLOADS = ("exponent-sweep", "exact-pa", "wiretap-ensemble")

# Wall seconds of one cycle of each schedule at the probe's reference speed
# (speed.py), from which a run's cycle count follows.
CYCLE_S = {"exponent-sweep": 11.0, "exact-pa": 12.5, "wiretap-ensemble": 11.5}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `secexp <argv...> --out <file>`.

    `twin` is the argv of the job's check counterpart, run untimed: the
    exact ensemble for a Monte Carlo job that is still enumerable, a Monte
    Carlo estimate for an exact ensemble, an independent Monte Carlo run for
    one past the exact limit, and the universal form for a divergence
    exponent.
    """

    name: str
    argv: tuple[str, ...]
    units: float
    check: str
    info: dict = field(default_factory=dict)
    twin: tuple[str, ...] | None = None

    @property
    def command(self) -> str:
        """Metric key of the CLI command, e.g. `simulate_pa`."""
        if self.argv[0] in ("simulate", "hash"):
            return f"{self.argv[0]}_{self.argv[1]}"
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return "csv" if self.argv[0] == "figure" else "json"


# -- pure-Python information measures used to place rates ------------------


def shannon(mass) -> float:
    return -math.fsum(p * math.log(p) for p in mass if p > 0.0)


def critical_rate(mass) -> float:
    """2 H~'(1) - H~(1), the lower end of the rates where the universal and
    divergence forms of the exponent agree."""
    sq = math.fsum(p * p for p in mass)
    h2 = -math.log(sq)
    h2_prime = -math.fsum(p * p * math.log(p) for p in mass if p > 0.0) / sq
    return 2.0 * h2_prime - h2


def cond_entropy(rows) -> float:
    """H(A|E) of a joint given as rows over A and columns over E."""
    flat = [v for row in rows for v in row]
    pe = [math.fsum(col) for col in zip(*rows)]
    return shannon(flat) - shannon(pe)


# -- random inputs ----------------------------------------------------------


def _simplex(rng: random.Random, n: int) -> list[float]:
    """A random distribution with every atom bounded away from zero."""
    raw = [rng.expovariate(1.0) + 0.05 for _ in range(n)]
    total = math.fsum(raw)
    return [v / total for v in raw]


def _dist(mass) -> dict:
    return {"alphabet": [f"x{i}" for i in range(len(mass))], "mass": mass}


def _joint(rows) -> dict:
    return {
        "alphabet": [f"a{i}" for i in range(len(rows))],
        "alphabet_e": [f"e{j}" for j in range(len(rows[0]))],
        "mass": rows,
    }


def _random_joint(rng: random.Random, pa: list[float], n_side: int) -> list[list[float]]:
    """P(a, e) = P(a) P(e|a) with the given A-marginal."""
    return [[p * c for c in _simplex(rng, n_side)] for p in pa]


def _channel(rng: random.Random, n_in: int, n_out: int) -> dict:
    return {
        "input_alphabet": [f"x{i}" for i in range(n_in)],
        "output_alphabet": [f"y{j}" for j in range(n_out)],
        "matrix": [_simplex(rng, n_out) for _ in range(n_in)],
    }


def _rate_between(rng: random.Random, lo: float, hi: float) -> float:
    """A rate strictly inside [lo, hi], away from both ends."""
    return lo + (0.1 + 0.8 * rng.random()) * (hi - lo)


class _Builder:
    """Collects input files and jobs for one workload and seed."""

    def __init__(self, workload: str, seed: int, input_dir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.input_dir = input_dir
        self.inputs: dict[str, dict] = {}
        self.jobs: list[Job] = []

    def file(self, name: str, obj: dict) -> str:
        self.inputs[name] = obj
        return str(self.input_dir / name)

    def job(self, name, argv, units, check, info=None, twin=None):
        self.jobs.append(
            Job(name, _strs(argv), float(units), check, info or {},
                _strs(twin) if twin is not None else None)
        )

    def mc(self, samples) -> list:
        """Flags of a Monte Carlo run with a seeded sampler."""
        return ["--mode", "mc", "--samples", samples, "--seed", self.rng.randrange(2**63)]


def _strs(argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv)


# Jobs are sized so that the program's own work, not interpreter start-up,
# is most of each job's wall time.


def _exponent_sweep(b: _Builder):
    # One value per sweep point and curve (three curves per figure).
    b.job("fig2", ["figure", "--id", 2, "--points", 300], 3 * 300, "figure")
    b.job("fig3", ["figure", "--id", 3, "--points", 150], 3 * 150, "figure")
    b.job("fig4", ["figure", "--id", 4, "--points", 50], 3 * 50, "figure4")
    mass = _simplex(b.rng, 32)
    r = _rate_between(b.rng, critical_rate(mass), shannon(mass))
    argv = ["exponent", "--dist", b.file("p32.json", _dist(mass)), "--R", repr(r)]
    b.job("divergence32", argv + ["--form", "divergence"], 1, "exponent",
          twin=argv + ["--form", "universal"])
    rows = _random_joint(b.rng, _simplex(b.rng, 256), 64)
    r = _rate_between(b.rng, 0.0, cond_entropy(rows))
    path = b.file("j256x64.json", _joint(rows))
    b.job("cond256x64", ["exponent", "--joint", path, "--R", repr(r), "--form",
                         "cond"], 2, "cond")


def _exact_pa(b: _Builder):
    def pa_job(name, mass, flags, seeds, samples, info=None):
        argv = ["simulate", "pa", "--dist", b.file(f"{name}.json", _dist(mass)), *flags]
        b.job(f"pa_{name}", argv, seeds * len(mass), "pa", info,
              twin=argv + b.mc(samples))

    pa_job("fullrandom_8_4", _simplex(b.rng, 8), ["--family", "fullrandom", "--M", 4],
           4**8, 3000, {"fullrandom": True})
    for q, k, m in ((2, 12, 4), (4, 6, 3)):
        pa_job(f"toeplitz_{q}_{k}_{m}", _simplex(b.rng, q**k),
               ["--family", "toeplitz", "--q", q, "--k", k, "--m", m], q ** (k - 1), 400)
    b.job("hash_toeplitz_2_8_3",
          ["hash", "check", "--family", "toeplitz", "--q", 2, "--k", 8, "--m", 3],
          2**7 * 2**8, "hash_toeplitz")
    path = b.file("intr2.json", _dist(_simplex(b.rng, 2)))
    b.job("intrinsic_2_17", ["intrinsic", "--dist", path, "--n", 17, "--M", 2048],
          2**17, "intrinsic")
    # Past EXACT_WORK_LIMIT (2^13 seeds x 2^14 symbols), so sampled one seed
    # at a time, and checked against an independent, smaller sampled run.
    argv = ["simulate", "pa", "--dist", b.file("mc2_14_5.json", _dist(_simplex(b.rng, 2**14))),
            "--family", "toeplitz", "--q", 2, "--k", 14, "--m", 5]
    b.job("pa_mc_toeplitz_2_14_5", argv + b.mc(200), 200 * 2**14, "pa_mc",
          twin=argv + b.mc(100))


def _wiretap_files(b: _Builder, name: str, n_in: int, n_b: int, n_e: int):
    wb = b.file(f"{name}_wb.json", _channel(b.rng, n_in, n_b))
    we = b.file(f"{name}_we.json", _channel(b.rng, n_in, n_e))
    return ["--wb", wb, "--we", we]


def _ensemble_size(n_in: int, m: int, l: int, q: int = 2) -> int:
    """Codebooks x seeds of the Toeplitz(q, k, m') family with q^k = M L."""
    k = round(math.log(m * l, q))
    return n_in ** (m * l) * q ** (k - 1)


def _distill_files(b: _Builder, name: str, size_a: int, n_b: int, n_e: int):
    pa = _simplex(b.rng, size_a)
    pab = b.file(f"{name}_pab.json", _joint(_random_joint(b.rng, pa, n_b)))
    pae = b.file(f"{name}_pae.json", _joint(_random_joint(b.rng, pa, n_e)))
    return ["--pab", pab, "--pae", pae]


def _wiretap_ensemble(b: _Builder):
    # Exact: the ternary M=2, L=4 ensemble (26,244 entries) and distillation
    # over F_3 with M=L=3 (59,049), each against a sampled twin.
    flags = _wiretap_files(b, "wt3_2_4", 3, 4, 4)
    argv = ["simulate", "wiretap", *flags, "--M", 2, "--L", 4]
    b.job("wiretap_3_2_4", argv, _ensemble_size(3, 2, 4), "wiretap", twin=argv + b.mc(1000))
    argv = ["distill", *_distill_files(b, "ds3", 3, 2, 3), "--M", 3, "--L", 3,
            "--module-q", 3]
    b.job("distill_3_3_3", argv, _ensemble_size(3, 3, 3, 3), "distill",
          twin=argv + b.mc(1000))
    # Sampled: one random code per sample, against the exact twin.
    flags = _wiretap_files(b, "wtmc3_2_4", 3, 4, 4)
    argv = ["simulate", "wiretap", *flags, "--M", 2, "--L", 4]
    b.job("wiretap_mc_3_2_4", argv + b.mc(2500), 2500 * 8, "wiretap_mc", twin=argv)
    argv = ["distill", *_distill_files(b, "dsmc2", 2, 2, 3), "--M", 2, "--L", 2]
    b.job("distill_mc_2_2_2", argv + b.mc(3500), 3500 * 4, "distill_mc", twin=argv)


_BUILDERS = {
    "exponent-sweep": _exponent_sweep,
    "exact-pa": _exact_pa,
    "wiretap-ensemble": _wiretap_ensemble,
}


def build(workload: str, seed: int, input_dir: Path) -> list[Job]:
    """Write the workload's inputs for this seed into input_dir; return its jobs."""
    b = _Builder(workload, seed, input_dir)
    _BUILDERS[workload](b)
    input_dir.mkdir(parents=True, exist_ok=True)
    for name, obj in b.inputs.items():
        (input_dir / name).write_text(json.dumps(obj), encoding="utf-8")
    return b.jobs


def baseline_inputs(seed: int) -> dict:
    """Inputs of the fixed in-process baseline cases: an 8-symbol source for
    the FullyRandom M=4 sweep, a 4096-symbol source for Toeplitz(2,12,4), and
    a ternary channel pair for the M=2, L=4 ensemble."""
    rng = random.Random(f"baseline:{seed}")
    return {
        "fullrandom_mass": _simplex(rng, 8),
        "toeplitz_mass": _simplex(rng, 2**12),
        "wb": _channel(rng, 3, 4)["matrix"],
        "we": _channel(rng, 3, 4)["matrix"],
    }
