"""Golden-output oracle: fixed CLI invocations must reproduce committed bytes.

The cases are in `golden_cases.py`, which also runs them without pytest.
A change that alters a digit must regenerate the file and say why in
CHANGES.md; `python tests/test_golden.py` rewrites every golden file from
the current code.
"""

import pytest

from golden_cases import CASES, GOLDEN, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path / name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        run_case(case, GOLDEN / case)
