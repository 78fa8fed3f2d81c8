"""The golden-output cases: fixed CLI invocations and the files they write.

Each case runs one `secexp` command on the inputs in `tests/golden/inputs/`
and compares the file it writes with `tests/golden/<case>.<ext>`.  Only the
runtime dependencies are imported, so an install without the test extra can
rerun every case: `python tests/golden_cases.py` exits 1 on any mismatch.
`tests/test_golden.py` runs the same cases under pytest.
"""

import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from secexp.cli import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _in(name: str) -> str:
    return str(INPUTS / name)


CASES = {
    "entropy.json": ["entropy", "--dist", _in("bern.json"), "--s", "0.5", "--s", "1.0"],
    "exponent-universal.json": [
        "exponent", "--dist", _in("bern.json"), "--R", "0.4", "--form", "universal",
    ],
    "exponent-divergence.json": [
        "exponent", "--dist", _in("skew3.json"), "--R", "0.9", "--form", "divergence",
    ],
    "exponent-cond.json": [
        "exponent", "--joint", _in("joint.json"), "--R", "0.2", "--form", "cond",
    ],
    "figure-2.csv": ["figure", "--id", "2", "--points", "7"],
    "figure-3.csv": ["figure", "--id", "3", "--points", "9"],
    "figure-4.csv": ["figure", "--id", "4", "--points", "5"],
    "figure-6.csv": ["figure", "--id", "6", "--points", "5"],
    "hash-toeplitz.json": [
        "hash", "check", "--family", "toeplitz", "--q", "2", "--k", "4", "--m", "2",
    ],
    "hash-fullrandom.json": [
        "hash", "check", "--family", "fullrandom", "--size", "3", "--M", "2",
    ],
    "pa-exact.json": [
        "simulate", "pa", "--dist", _in("src8.json"), "--family", "toeplitz",
        "--q", "2", "--k", "3", "--m", "1", "--mode", "exact",
    ],
    "pa-mc.json": [
        "simulate", "pa", "--dist", _in("skew3.json"), "--M", "2",
        "--mode", "mc", "--samples", "200", "--seed", "7",
    ],
    "wiretap-exact.json": [
        "simulate", "wiretap", "--wb", _in("wb.json"), "--we", _in("we.json"),
        "--M", "2", "--L", "2",
    ],
    "wiretap-exact-n3.json": [
        "simulate", "wiretap", "--wb", _in("wb.json"), "--we", _in("we.json"),
        "--M", "2", "--L", "2", "--n", "3",
    ],
    "wiretap-generic-n2.json": [
        "simulate", "wiretap", "--wb", _in("gb.json"), "--we", _in("ge.json"),
        "--M", "2", "--L", "2", "--n", "2",
    ],
    "wiretap-mc.json": [
        "simulate", "wiretap", "--wb", _in("wb.json"), "--we", _in("we.json"),
        "--M", "2", "--L", "2", "--mode", "mc", "--samples", "200", "--seed", "3",
    ],
    "distill-exact.json": [
        "distill", "--pab", _in("pab.json"), "--pae", _in("pae.json"),
        "--M", "2", "--L", "2",
    ],
    "distill-mc.json": [
        "distill", "--pab", _in("pab.json"), "--pae", _in("pae.json"),
        "--M", "2", "--L", "2", "--mode", "mc", "--samples", "200", "--seed", "5",
    ],
    "intrinsic.json": ["intrinsic", "--dist", _in("bern.json"), "--n", "4", "--M", "4"],
}


def run_case(name: str, out: Path) -> bytes:
    """Run one case, writing its file to `out`; return the bytes written."""
    res = CliRunner().invoke(cli, CASES[name] + ["--out", str(out)])
    if res.exit_code != 0:
        raise RuntimeError(f"{name}: exit {res.exit_code}: {res.output}")
    return out.read_bytes()


def main() -> int:
    """Rerun every case and compare its bytes with the golden file; print
    each mismatch and return 1 if there is one."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = [
            name for name in sorted(CASES)
            if run_case(name, Path(tmp) / name) != (GOLDEN / name).read_bytes()
        ]
    for name in bad:
        print(f"{name}: differs from tests/golden/{name}")
    print(f"{len(CASES) - len(bad)} of {len(CASES)} golden cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
