"""Golden-output oracle: fixed CLI invocations must reproduce committed bytes.

Each case runs one `secexp` command on the inputs in `tests/golden/inputs/`
and compares the file it writes with `tests/golden/<case>.<ext>`.  A change
that alters a digit must regenerate the file and say why in CHANGES.md;
`python tests/test_golden.py` rewrites every golden file from the current
code.
"""

from pathlib import Path

import pytest
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
    "figure-4.csv": ["figure", "--id", "4", "--points", "5"],
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
    res = CliRunner().invoke(cli, CASES[name] + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path / name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        run_case(case, GOLDEN / case)
