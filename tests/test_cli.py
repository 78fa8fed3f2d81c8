import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import secexp
from secexp.cli import cli

_GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"alphabet": ["a", "b", "c"], "mass": [0.5, 0.25, 0.25]}))
    return str(path)


@pytest.fixture
def bern_file(tmp_path):
    path = tmp_path / "bern.json"
    path.write_text(json.dumps({"alphabet": ["0", "1"], "mass": [0.2, 0.8]}))
    return str(path)


@pytest.fixture
def joint_file(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(
        json.dumps(
            {
                "alphabet": ["0", "1"],
                "alphabet_e": ["u", "v"],
                "mass": [[0.4, 0.1], [0.2, 0.3]],
            }
        )
    )
    return str(path)


@pytest.fixture
def channel_files(tmp_path):
    wb = tmp_path / "wb.json"
    wb.write_text(
        json.dumps(
            {
                "structure": "additive",
                "noise": {"alphabet": ["0", "1"], "mass": [0.9, 0.1]},
                "module": {"q": 2, "n": 1},
            }
        )
    )
    we = tmp_path / "we.json"
    we.write_text(
        json.dumps(
            {
                "structure": "additive",
                "noise": {"alphabet": ["0", "1"], "mass": [0.7, 0.3]},
                "module": {"q": 2, "n": 1},
            }
        )
    )
    return str(wb), str(we)


class TestEntropy:
    def test_basic(self, runner, bern_file):
        res = runner.invoke(cli, ["entropy", "--dist", bern_file, "--s", "1.0"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["shannon"] == pytest.approx(0.500402, abs=1e-5)
        assert payload["critical_rate"] == pytest.approx(0.223718, abs=1e-5)

    def test_orders_whose_summands_underflow(self, runner, tmp_path, flat4096):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"alphabet": flat4096.alphabet.symbols, "mass": flat4096.mass.tolist()}))
        res = runner.invoke(cli, ["entropy", "--dist", str(path), "--s", "100"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["renyi_tilde"]["100"] == pytest.approx(794.6713919, abs=1e-7)
        res = runner.invoke(cli, ["exponent", "--dist", str(path), "--R", "8.09", "--form", "cramer"])
        assert res.exit_code == 0, res.output
        assert math.isfinite(json.loads(res.output)["value"])

    def test_a_sub_distribution_whose_squares_underflow(self, runner, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"alphabet": ["a", "b"], "mass": [1e-170, 1e-170]}))
        res = runner.invoke(cli, ["entropy", "--dist", str(path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["renyi_tilde_2"] == pytest.approx(340.0 * math.log(10.0) - math.log(2.0))
        assert payload["renyi_tilde_2_derivative"] == pytest.approx(170.0 * math.log(10.0))


class TestExponentCommand:
    def test_universal(self, runner, bern_file):
        res = runner.invoke(
            cli, ["exponent", "--dist", bern_file, "--R", "0.4", "--form", "universal"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["value"] > 0.0

    def test_cond_requires_joint(self, runner, bern_file):
        res = runner.invoke(
            cli, ["exponent", "--dist", bern_file, "--R", "0.4", "--form", "cond"]
        )
        assert res.exit_code == 2

    def test_cond(self, runner, joint_file):
        res = runner.invoke(
            cli, ["exponent", "--joint", joint_file, "--R", "0.1", "--form", "cond"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["phi_form"]["value"] >= payload["pinsker_form"]["value"] - 1e-9

    @pytest.mark.parametrize("form", ["universal", "divergence", "cramer", "hr", "cond"])
    def test_rejects_negative_rate(self, runner, bern_file, joint_file, form):
        source = ["--joint", joint_file] if form == "cond" else ["--dist", bern_file]
        res = runner.invoke(cli, ["exponent", *source, "--R", "-0.1", "--form", form])
        assert res.exit_code == 2
        assert "rate must be finite and >= 0" in res.output

    def test_hr(self, runner, bern_file):
        res = runner.invoke(
            cli, ["exponent", "--dist", bern_file, "--R", "0.46", "--form", "hr"]
        )
        payload = json.loads(res.output)
        assert payload["lower_applicable"] and payload["upper_applicable"]


class TestFigure:
    @pytest.mark.parametrize("fig_id", ["2", "3", "4"])
    def test_csv_shape(self, runner, fig_id):
        res = runner.invoke(cli, ["figure", "--id", fig_id, "--points", "10"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "x,curve,value"
        assert len(data) == 1 + 3 * 10
        assert comments

    def test_headers_echo_reference_scalars(self, runner):
        res2 = runner.invoke(cli, ["figure", "--id", "2", "--points", "5"])
        assert "0.500402" in res2.output and "0.30469" in res2.output
        assert "0.4546269" in res2.output
        res3 = runner.invoke(cli, ["figure", "--id", "3", "--points", "5"])
        assert "0.223718" in res3.output
        res4 = runner.invoke(cli, ["figure", "--id", "4", "--points", "5"])
        assert "0.119008" in res4.output

    def test_invalid_id(self, runner):
        res = runner.invoke(cli, ["figure", "--id", "7"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "fig_id, points, shown",
        [("2", "1024", "1049600 grid cells (1024 rates x 1025 orders) exceed cap 1048576"),
         ("6", "101", "101 points of figure 6 (n = 20, 40, .. up to 2000) exceed cap 100")],
    )
    def test_points_past_the_cap_are_a_size_limit(self, runner, fig_id, points, shown):
        # both are work caps: exit 3, before any point is solved
        res = runner.invoke(cli, ["figure", "--id", fig_id, "--points", points])
        assert res.exit_code == 3, res.output
        assert f"size limit exceeded: {shown}" in res.output

    def test_json_format(self, runner):
        res = runner.invoke(
            cli, ["figure", "--id", "3", "--points", "4", "--format", "json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["figure"] == 3
        assert len(payload["rows"]) == 12
        assert payload["header"]["critical_rate"] == pytest.approx(0.223718, abs=1e-5)


class TestHashCheck:
    def test_toeplitz_report(self, runner):
        res = runner.invoke(
            cli, ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "3", "--m", "1"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["condition1"] == "pass"
        assert payload["condition2"] == "pass"
        assert payload["condition3"] == "fail"
        assert payload["max_collision"] <= 0.5 + 1e-12

    def test_toeplitz_histogram_under_its_own_cap(self, runner):
        # 4096 x 64 histogram cells, though 64 x 4096 x 64 pair counts
        # would exceed the cap
        res = runner.invoke(
            cli, ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "12", "--m", "6"]
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert [payload[f"condition{i}"] for i in (1, 2, 3)] == ["pass", "pass", "fail"]

    def test_fullrandom_report(self, runner):
        res = runner.invoke(
            cli, ["hash", "check", "--family", "fullrandom", "--size", "3", "--M", "2"]
        )
        payload = json.loads(res.output)
        assert payload["condition1"] == "pass"
        assert payload["condition2"] == "fail"
        assert payload["condition3"] == "pass"


class TestSimulatePA:
    def test_exact(self, runner, dist_file):
        res = runner.invoke(
            cli,
            ["simulate", "pa", "--dist", dist_file, "--M", "2", "--mode", "exact"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["expected_d1"] == pytest.approx(0.5, abs=1e-12)
        assert payload["expected_d1"] <= payload["bound_universal_hash"] + 1e-12
        assert payload["lower_bound_subset_best"] <= payload["expected_d1"] + 1e-12

    def test_mc_deterministic(self, runner, dist_file):
        args = [
            "simulate", "pa", "--dist", dist_file, "--M", "2",
            "--mode", "mc", "--samples", "50", "--seed", "9",
        ]
        out1 = runner.invoke(cli, args).output
        out2 = runner.invoke(cli, args).output
        assert out1 == out2

    def test_huge_output_size(self, runner, dist_file):
        # sampled maps need (samples x M) histograms, so M = 10^11 is a size
        # limit; the exact subset law builds nothing M-sized
        args = ["simulate", "pa", "--dist", dist_file, "--M", "100000000000"]
        res = runner.invoke(cli, args + ["--mode", "mc"])
        assert res.exit_code == 3, res.output
        assert "100000000000 outputs" in res.output
        res = runner.invoke(cli, args + ["--mode", "exact"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        # each atom gets an output of its own but for O(1/M): d1 -> 2 P(A)
        assert payload["expected_d1"] == pytest.approx(2.0, abs=1e-9)
        assert payload["lower_bound_subset_best"] <= payload["expected_d1"]

    @pytest.mark.parametrize(
        "digits, order2", [(400, pytest.approx(6.12372435696e199, rel=1e-11)), (1000, "inf")]
    )
    def test_output_size_past_the_float_range(self, runner, dist_file, digits, order2):
        # M's powers go through log M: the best bound is 3 at s = 0, and the
        # order-2 bound sqrt(M) e^(-H_2/2) is inf once it leaves the floats
        args = ["simulate", "pa", "--dist", dist_file, "--M", str(10**digits), "--mode", "exact"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(cli, args)
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["bound_universal_hash"] == 3.0
        assert payload["bound_order2"] == order2
        assert payload["expected_d1"] == pytest.approx(2.0, abs=1e-9)


class TestSimulateWiretap:
    def test_exact_with_bounds(self, runner, channel_files):
        wb, we = channel_files
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", wb, "--we", we, "--M", "2", "--L", "2"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["eps_b"] <= payload["bound_eps_ensemble"] + 1e-12
        assert payload["d1"] <= payload["bound_d1_ensemble"] + 1e-12
        assert payload["selected_eps"] <= 2 * payload["eps_b"] + 1e-12

    def test_bad_sizes(self, runner, channel_files):
        wb, we = channel_files
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", wb, "--we", we, "--M", "3", "--L", "2"],
        )
        assert res.exit_code == 2
        assert "do not fit a Toeplitz family over F_2, F_3, F_5 or F_7" in res.output

    def test_family_is_the_first_field_that_fits(self, runner, channel_files):
        # without --q, M = L = 3 runs over F_3, the family distill picks
        wb, we = channel_files
        args = ["simulate", "wiretap", "--wb", wb, "--we", we, "--M", "3", "--L", "3"]
        res = runner.invoke(cli, args)
        assert res.exit_code == 0, res.output
        assert res.output == runner.invoke(cli, [*args, "--q", "3"]).output
        res = runner.invoke(cli, [*args, "--q", "2"])
        assert res.exit_code == 2
        assert "over F_2" in res.output

    def test_exact_binary_m2_l8(self, runner):
        # 2^16 codebooks x 8 seeds = 524,288 entries, under the exact limit
        inputs = Path(__file__).parent / "golden" / "inputs"
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", str(inputs / "wb.json"),
             "--we", str(inputs / "we.json"), "--M", "2", "--L", "8"],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["mode"] == "exact"
        assert payload["eps_b"] <= payload["bound_eps_ensemble"] + 1e-12
        assert payload["d1"] <= payload["bound_d1_ensemble"] + 1e-12
        assert payload["selected_eps"] <= 2 * payload["eps_b"] + 1e-12
        assert payload["selected_d1"] <= 2 * payload["d1"] + 1e-12

    def test_ternary_m2_l8_refused_before_enumeration(self, runner, tmp_path, monkeypatch):
        # 3^16 codebooks x 8 seeds: exit 3 before any codebook is built
        def no_enumeration(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(secexp.wiretap, "rank_digits", no_enumeration)
        noise = {"alphabet": ["0", "1", "2"], "mass": [0.8, 0.1, 0.1]}
        path = tmp_path / "w3.json"
        path.write_text(json.dumps(
            {"structure": "additive", "noise": noise, "module": {"q": 3, "n": 1}}
        ))
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", str(path), "--we", str(path),
             "--M", "2", "--L", "8"],
        )
        assert res.exit_code == 3, res.output
        assert "3^16 codebooks exceed cap 1048576" in res.output

    @pytest.mark.parametrize("uses", ["0", "-3"])
    def test_rejects_nonpositive_uses(self, runner, channel_files, uses):
        wb, we = channel_files
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", wb, "--we", we, "--M", "2", "--L", "2",
             "--n", uses],
        )
        assert res.exit_code == 2
        assert "--n must be at least 1" in res.output

    def test_additive_channel_past_ten_field_elements(self, runner, tmp_path):
        # the module labels of F_13^2 join digits by "|": unjoined, the
        # digits (1, 12) and (11, 2) both read "112"
        weights = [i % 7 + 1 for i in range(169)]
        noise = {"alphabet": [f"z{i}" for i in range(169)],
                 "mass": [w / sum(weights) for w in weights]}
        w = _additive_channel(tmp_path, {"q": 13, "n": 2}, noise=noise)
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", w, "--we", w, "--M", "13", "--L", "13",
             "--q", "13", "--mode", "mc", "--samples", "20"],
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["mode"] == "mc"


class TestExtensionCap:
    def test_hash_check_alphabet_over_cap(self, runner):
        # 2^22 input symbols: exit 3 before the alphabet is built
        res = runner.invoke(
            cli, ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "22", "--m", "1"]
        )
        assert res.exit_code == 3, res.output
        assert "input symbols exceed cap" in res.output

    def test_wiretap_extension_over_cap(self, runner):
        # the additive golden channels at n = 11: 4^11 matrix cells
        inputs = Path(__file__).parent / "golden" / "inputs"
        res = runner.invoke(
            cli,
            ["simulate", "wiretap", "--wb", str(inputs / "wb.json"),
             "--we", str(inputs / "we.json"), "--M", "2", "--L", "2", "--n", "11"],
        )
        assert res.exit_code == 3, res.output
        assert "4194304 matrix cells exceed cap" in res.output


def _additive_channel(tmp_path, module, name="w.json", noise=None) -> str:
    path = tmp_path / name
    if noise is None:
        noise = {"alphabet": ["0", "1", "2"], "mass": [0.5, 0.25, 0.25]}
    path.write_text(json.dumps({"structure": "additive", "noise": noise, "module": module}))
    return str(path)


def _one_symbol(tmp_path) -> str:
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"alphabet": ["a"], "mass": [1.0]}))
    return str(path)


def _uniform_source(tmp_path, size: int) -> str:
    path = tmp_path / f"u{size}.json"
    path.write_text(json.dumps({"alphabet": [str(i) for i in range(size)], "mass": [1.0 / size] * size}))
    return str(path)


def _wide_channel(tmp_path) -> str:
    """A generic binary-input channel with 256 outputs."""
    path = tmp_path / "wide.json"
    rows = [[1 + (x + y) % 3 for y in range(256)] for x in range(2)]
    rows = [[v / sum(row) for v in row] for row in rows]
    path.write_text(json.dumps({
        "input_alphabet": ["0", "1"], "output_alphabet": [f"y{y}" for y in range(256)], "matrix": rows,
    }))
    return str(path)


# Each run asks for a size far past every cap; each used to run for minutes.
_OVERSIZED = {
    "toeplitz-k": ["hash", "check", "--q", "3", "--k", "100000000", "--m", "1"],
    "toeplitz-q": ["hash", "check", "--q", "1000000000000000003", "--k", "2", "--m", "1"],
    "pair-counts": ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "12", "--m", "9"],
    # the strong check's 2^20 x 2 histogram is refused before universal_2 runs
    "toeplitz-kernel": ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "20",
                        "--m", "1"],
    "pair-counts-first": ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "17",
                          "--m", "16"],
    # 2,000,000 seeds of one-hot maps of 2,000,000 cells each
    "pair-count-sweep": ["hash", "check", "--family", "fullrandom", "--size", "1",
                         "--M", "2000000"],
    "distill-q": ["distill", "--pab", "{pab}", "--pae", "{pae}", "--M", "2", "--L", "2",
                  "--module-q", "1000000000000000003"],
    "distill-n": ["distill", "--pab", "{pab}", "--pae", "{pae}", "--M", "2", "--L", "2",
                  "--module-q", "3", "--module-n", "100000000"],
    "intrinsic-n": ["intrinsic", "--dist", "{skew3}", "--n", "100000000", "--M", "4"],
    "intrinsic-types": ["intrinsic", "--dist", "{skew3}", "--n", "2000", "--M", "4"],
    "intrinsic-one-symbol": ["intrinsic", "--dist", "{one}", "--n", "20000", "--M", "4"],
    # C(14999, 9000) types: a count past Python's 4,300-digit printing limit
    "intrinsic-digits": ["intrinsic", "--dist", "{u6000}", "--n", "9000", "--M", "4"],
    "channel-q": ["simulate", "wiretap", "--wb", "{big_q}", "--we", "{big_q}",
                  "--M", "2", "--L", "2"],
    "channel-n": ["simulate", "wiretap", "--wb", "{big_n}", "--we", "{big_n}",
                  "--M", "2", "--L", "2"],
    "channel-cells": ["simulate", "wiretap", "--wb", "{cells}", "--we", "{cells}",
                      "--M", "2", "--L", "2", "--mode", "mc"],
    "figure-points": ["figure", "--id", "2", "--points", "1000000"],
    "pa-samples": ["simulate", "pa", "--dist", "{skew3}", "--M", "2", "--mode", "mc",
                   "--samples", "1000000000000"],
    # 2,000 seeds, each filling a histogram of 2^20 outputs
    "pa-outputs": ["simulate", "pa", "--dist", "{skew3}", "--family", "fullrandom",
                   "--M", "1048576", "--mode", "mc", "--samples", "2000"],
    "pa-samples-toeplitz": ["simulate", "pa", "--dist", "{src8}", "--family", "toeplitz",
                            "--q", "2", "--k", "3", "--m", "1", "--mode", "mc",
                            "--samples", "100000000"],
    "wiretap-samples": ["simulate", "wiretap", "--wb", "{wb}", "--we", "{we}", "--M", "2",
                        "--L", "2", "--mode", "mc", "--samples", "100000000"],
    "distill-samples": ["distill", "--pab", "{pab}", "--pae", "{pae}", "--M", "2", "--L", "2",
                        "--mode", "mc", "--samples", "100000000"],
    # 2^16 codebooks x 8 seeds = 2^19 entries, under the entry cap, of
    # 16 (2 + 256 + 256) kernel cells each: 4 times the cell cap
    "wiretap-cells-exact": ["simulate", "wiretap", "--wb", "{wide}", "--we", "{wide}",
                            "--M", "2", "--L", "8"],
    "wiretap-cells-mc": ["simulate", "wiretap", "--wb", "{wide}", "--we", "{wide}",
                         "--M", "2", "--L", "8", "--mode", "mc", "--samples", "1000000"],
}

_RUN_TIMED = """
import json, sys, time
from click.testing import CliRunner
from secexp.cli import cli
out = {}
for name, args in json.loads(sys.argv[1]).items():
    start = time.perf_counter()
    res = CliRunner().invoke(cli, args)
    out[name] = [res.exit_code, time.perf_counter() - start, res.output]
print(json.dumps(out))
"""


class TestOversizedInputs:
    def test_each_is_a_size_limit_within_two_seconds(self, tmp_path):
        inputs = Path(__file__).parent / "golden" / "inputs"
        files = {
            "pab": str(inputs / "pab.json"),
            "pae": str(inputs / "pae.json"),
            "skew3": str(inputs / "skew3.json"),
            "src8": str(inputs / "src8.json"),
            "wb": str(inputs / "wb.json"),
            "we": str(inputs / "we.json"),
            "one": _one_symbol(tmp_path),
            "big_q": _additive_channel(tmp_path, {"q": 1000000000000000003, "n": 1}, "q.json"),
            "big_n": _additive_channel(tmp_path, {"q": 3, "n": 100000000}, "n.json"),
            # 2^11 symbols: a 2^22-cell matrix
            "cells": _additive_channel(tmp_path, {"q": 2, "n": 11}, "cells.json", {
                "alphabet": [str(i) for i in range(2048)], "mass": [1.0 / 2048] * 2048,
            }),
            "wide": _wide_channel(tmp_path),
            "u6000": _uniform_source(tmp_path, 6000),
        }
        runs = {
            name: [a.format(**files) for a in args] for name, args in _OVERSIZED.items()
        }
        # one fresh interpreter, killed if any run hangs
        src = str(Path(secexp.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_TIMED, json.dumps(runs)],
            cwd=src, capture_output=True, text=True, timeout=60, check=True,
        )
        for name, (code, seconds, output) in json.loads(proc.stdout).items():
            assert code == 3, (name, output)
            assert "size limit exceeded" in output, name
            assert seconds < 2.0, (name, seconds)

    @pytest.mark.parametrize(
        "module, shown",
        [({"q": 3.0, "n": 1}, "module/q: 3.0"), ({"q": 3, "n": 1.0}, "module/n: 1.0"),
         ({"q": True, "n": 1}, "module/q: True")],
    )
    def test_module_sizes_must_be_integers(self, runner, tmp_path, module, shown):
        wb = _additive_channel(tmp_path, module)
        res = runner.invoke(
            cli, ["simulate", "wiretap", "--wb", wb, "--we", wb, "--M", "2", "--L", "2"]
        )
        assert res.exit_code == 2, res.output
        assert f"{shown} is not of type 'integer'" in res.output

    @pytest.mark.parametrize("m", [1, 4, 6, 12])
    def test_strong_check_refuses_first_within_a_second(self, runner, m):
        # its 2^20 x 2^m histogram is refused before any check sweeps a seed
        start = time.perf_counter()
        res = runner.invoke(
            cli, ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", "20", "--m", str(m)]
        )
        seconds = time.perf_counter() - start
        assert res.exit_code == 3, res.output
        assert f"histogram cells (1048576 symbols x {2**m} outputs)" in res.output
        assert seconds < 1.0

    @pytest.mark.parametrize("k, m", [(16, 4), (17, 1), (19, 1)])
    def test_strong_check_runs_under_the_histogram_cap(self, runner, k, m):
        # the 2^k x 2^m histogram fits the cap: counted by transforms, no
        # map built; the identity block fails condition 3 at every seed
        res = runner.invoke(
            cli, ["hash", "check", "--family", "toeplitz", "--q", "2", "--k", str(k), "--m", str(m)]
        )
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        s, big_m = 2 ** (k - 1), 2**m
        assert (out["condition1"], out["condition2"], out["condition3"]) == ("pass", "pass", "fail")
        assert out["max_pair_deviation"] == (s - s / (big_m * big_m)) / s

    def test_enumeration_limit_is_a_size_limit(self, runner):
        res = runner.invoke(
            cli, ["hash", "check", "--family", "fullrandom", "--size", "7", "--M", "8"]
        )
        assert res.exit_code == 3, res.output
        assert "size limit exceeded: 2097152 seeds exceed cap 2000000" in res.output
        # past the one-hot cap too, which the strong check reads first
        res = runner.invoke(
            cli, ["hash", "check", "--family", "fullrandom", "--size", "8", "--M", "8"]
        )
        assert res.exit_code == 3, res.output
        assert (
            "1073741824 one-hot map cells (1 tiles x 16777216 seeds x 8 symbols x 8 outputs)"
            " exceed cap 1000000000"
        ) in res.output


class TestIntrinsicCommand:
    def test_report(self, runner, bern_file):
        res = runner.invoke(
            cli, ["intrinsic", "--dist", bern_file, "--n", "4", "--M", "4"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["d1_exact"] <= payload["bound_construction"] + 1e-12
        assert payload["d1_exact"] >= payload["lower_bound_heavy_mass"] - 1e-12
        assert payload["cells_assigned"] <= 4

    def test_size_limit_exit_code(self, runner, bern_file):
        # n past MAX_N, and 9,501 types of 28,500-bit string masses past
        # MAX_RECORD_BYTES
        for n, shown in (
            ("10001", "10001 trials (n) exceed cap 10000"),
            ("9500", "36274818 record bytes (9501 types of 28500-bit string masses) exceed cap 33554432"),
        ):
            res = runner.invoke(
                cli, ["intrinsic", "--dist", bern_file, "--n", n, "--M", "4"]
            )
            assert res.exit_code == 3, res.output
            assert shown in res.output

    def test_reaches_n_1000_within_a_second(self, runner, bern_file):
        m = str(round(math.exp(300.0)))
        start = time.perf_counter()
        res = runner.invoke(cli, ["intrinsic", "--dist", bern_file, "--n", "1000", "--M", m])
        seconds = time.perf_counter() - start
        assert res.exit_code == 0, res.output
        assert seconds < 1.0
        payload = json.loads(res.output)
        floor, d1 = payload["lower_bound_heavy_mass"], payload["d1_exact"]
        bound = payload["bound_construction"]
        assert all(isinstance(v, float) and math.isfinite(v) for v in (floor, d1, bound))
        assert 0.0 < floor <= d1 <= bound
        assert payload["cells_assigned"] <= int(m)

    def test_wide_source_within_two_seconds(self, runner, tmp_path):
        # 1,200 symbols: the types once came from one recursion per symbol
        # (a RecursionError) and the exact normalization re-summed the source
        # for every symbol
        path = tmp_path / "wide.json"
        size = 1200
        path.write_text(json.dumps({"alphabet": [f"s{i}" for i in range(size)], "mass": [1.0 / size] * size}))
        start = time.perf_counter()
        res = runner.invoke(cli, ["intrinsic", "--dist", str(path), "--n", "1", "--M", "4"])
        seconds = time.perf_counter() - start
        assert res.exit_code == 0, res.output
        assert seconds < 2.0
        payload = json.loads(res.output)
        assert payload["partition_summary"] == {"T1": 0, "T2": 0, "T3": size}
        assert payload["d1_exact"] == pytest.approx(1.5)

    @pytest.mark.parametrize("m", ["1000000000000", str(10**400)])
    def test_output_size_needs_no_cap(self, runner, bern_file, m):
        # nothing M-sized is built: M = 10^12 used to end in a MemoryError
        res = runner.invoke(cli, ["intrinsic", "--dist", bern_file, "--n", "2", "--M", m])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["d1_exact"] == pytest.approx(2.0, abs=1e-9)
        assert payload["lower_bound_heavy_mass"] == pytest.approx(1.0)


class TestDistillCommand:
    def test_report(self, runner, tmp_path):
        pab = tmp_path / "pab.json"
        pab.write_text(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "alphabet_e": ["0", "1"],
                    "mass": [[0.45, 0.05], [0.05, 0.45]],
                }
            )
        )
        pae = tmp_path / "pae.json"
        pae.write_text(
            json.dumps(
                {
                    "alphabet": ["0", "1"],
                    "alphabet_e": ["0", "1"],
                    "mass": [[0.375, 0.125], [0.125, 0.375]],
                }
            )
        )
        res = runner.invoke(
            cli, ["distill", "--pab", str(pab), "--pae", str(pae), "--M", "2", "--L", "2"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["d1"] <= payload["bound_d1_ensemble"] + 1e-12
        assert payload["rate"] > 0

    def test_sizes_that_fit_no_toeplitz_family(self, runner):
        inputs = Path(__file__).parent / "golden" / "inputs"
        res = runner.invoke(cli, ["distill", "--pab", str(inputs / "pab.json"),
                                  "--pae", str(inputs / "pae.json"), "--M", "2", "--L", "1"])
        assert res.exit_code == 2, res.output
        assert (
            "invalid input: M=2, L=1 do not fit a Toeplitz family over F_2, F_3, F_5 or F_7"
        ) in res.output


def _channel_file(path, w) -> str:
    """A channel written as its plain matrix; json floats round-trip exactly."""
    path.write_text(json.dumps({
        "input_alphabet": list(w.input_alphabet.symbols),
        "output_alphabet": list(w.output_alphabet.symbols),
        "matrix": w.matrix.tolist(),
    }))
    return str(path)


def _ternary_triple(tmp_path):
    """P(A,B) and P(A,E) over F_3 with a skewed A marginal (0.5, 0.3, 0.2), so
    that the reduced channels' negation of A is not the identity."""
    paths = []
    for name, mass in (
        ("pab3.json", [[0.4, 0.1], [0.05, 0.25], [0.05, 0.15]]),
        ("pae3.json", [[0.3, 0.2], [0.1, 0.2], [0.1, 0.1]]),
    ):
        (tmp_path / name).write_text(json.dumps(
            {"alphabet": ["0", "1", "2"], "alphabet_e": ["u", "v"], "mass": mass}
        ))
        paths.append(str(tmp_path / name))
    return paths


MC_FLAGS = ["--mode", "mc", "--samples", "40", "--seed", "3"]


class TestDistillIsTheWiretapPipeline:
    """`distill` equals `simulate wiretap` run on its reduced channels
    (`channels_from_joint`): same family, ensemble, selection and samples."""

    @pytest.mark.parametrize("mode", [[], MC_FLAGS], ids=["exact", "mc"])
    @pytest.mark.parametrize("triple", ["golden", "ternary"])
    def test_same_numbers(self, runner, tmp_path, monkeypatch, triple, mode):
        from secexp import cli as cli_module
        from secexp.distill import CorrelationTriple, channels_from_joint
        from secexp.gf import Module
        from secexp.jsonio import load_joint

        monkeypatch.setattr(cli_module, "_FLOAT_FMT", ".17g")  # floats round-trip
        if triple == "golden":
            inputs = Path(__file__).parent / "golden" / "inputs"
            pab, pae, q, m, l = str(inputs / "pab.json"), str(inputs / "pae.json"), 2, 2, 2
        else:
            (pab, pae), q, m, l = _ternary_triple(tmp_path), 3, 3, 3
        sizes = ["--M", str(m), "--L", str(l)]
        res = runner.invoke(
            cli, ["distill", "--pab", pab, "--pae", pae, "--module-q", str(q), *sizes, *mode]
        )
        assert res.exit_code == 0, res.output
        dist = json.loads(res.output)
        tri = CorrelationTriple(load_joint(pab), load_joint(pae), Module(q, 1))
        wb, we = channels_from_joint(tri)
        res = runner.invoke(cli, [
            "simulate", "wiretap", "--wb", _channel_file(tmp_path / "wb.json", wb),
            "--we", _channel_file(tmp_path / "we.json", we), *sizes, *mode,
        ])
        assert res.exit_code == 0, res.output
        wire = json.loads(res.output)
        assert dist["mode"] == wire["mode"] == ("mc" if mode else "exact")
        for key, wire_key in (("eps", "eps_b"), ("d1", "d1"), ("selected_eps", None),
                              ("selected_d1", None), ("eps_stderr", None),
                              ("d1_stderr", None)):
            assert dist[key] == wire.get(wire_key or key), key
        for key in ("bound_eps_ensemble", "bound_d1_ensemble"):
            assert abs(dist[key] - wire[key]) <= 1e-12, key
        if triple == "golden" and not mode:
            assert (dist["eps"], dist["d1"], dist["selected_eps"]) == (0.375, 0.1875, 0.5)
            assert dist["bound_eps_ensemble"] == 1.0
            assert dist["bound_d1_ensemble"] == 2.3717082451262845


class TestBrokenInvariantExit4:
    """A broken internal invariant exits 4 with a message naming it."""

    @pytest.mark.parametrize("command", ["wiretap", "distill"])
    def test_markov_selection(self, runner, channel_files, monkeypatch, command):
        # a negative slack leaves no realization within twice both averages
        monkeypatch.setattr(secexp.wiretap, "MARKOV_SLACK", -1.0)
        inputs = Path(__file__).parent / "golden" / "inputs"
        wb, we = channel_files
        args = {
            "wiretap": ["simulate", "wiretap", "--wb", wb, "--we", we],
            "distill": ["distill", "--pab", str(inputs / "pab.json"),
                        "--pae", str(inputs / "pae.json")],
        }[command]
        res = runner.invoke(cli, [*args, "--M", "2", "--L", "2"])
        assert res.exit_code == 4, res.output
        assert (
            "internal invariant broken: Markov selection found no realization "
            "within twice both averages"
        ) in res.output

    def test_specialized_cell_budget(self, runner, bern_file, monkeypatch):
        monkeypatch.setattr(
            secexp.intrinsic.SpecializedMap, "cells_assigned", lambda self: self.m + 1
        )
        res = runner.invoke(cli, ["intrinsic", "--dist", bern_file, "--n", "4", "--M", "4"])
        assert res.exit_code == 4, res.output
        assert "internal invariant broken: specialized-map cell budget exceeded: 5 > 4" in res.output


class TestProgramFaultExit1:
    """A ValueError raised outside secexp is a fault of the program, not of
    its input: it leaves with its traceback and exit 1, not as exit 2."""

    def test_numpy_value_error(self, runner, monkeypatch):
        # numpy._core.function_base raises for a negative sample count
        monkeypatch.setattr(secexp.cli, "figure_sweep", lambda fig, points: np.linspace(0, 1, -1))
        res = runner.invoke(cli, ["figure", "--id", "4"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, ValueError)
        assert "invalid input" not in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "pa", "--dist", "skew3.json", "--M", "2"],
            ["simulate", "wiretap", "--wb", "wb.json", "--we", "we.json", "--M", "2", "--L", "2"],
            ["distill", "--pab", "pab.json", "--pae", "pae.json", "--M", "2", "--L", "2"],
        ],
    )
    def test_negative_seed_is_refused_before_numpy(self, runner, args):
        # numpy's SeedSequence would raise its own ValueError for it: exit 1
        args = [str(_GOLDEN_INPUTS / a) if a.endswith(".json") else a for a in args]
        res = runner.invoke(cli, args + ["--mode", "mc", "--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert "invalid input: Monte Carlo seed -1 is negative" in res.output

    @pytest.mark.parametrize(
        "args, shown",
        [
            # past the cap, np.linspace allocates (or refuses) before the grid cap
            (["figure", "--id", "2", "--points", "1048577"],
             "1048577 sweep points exceed cap 1048576"),
            # past the cap, the labels of an alphabet fill memory before the seed cap
            (["hash", "check", "--family", "fullrandom", "--size", "1048577", "--M", "2"],
             "1048577 alphabet symbols exceed cap 1048576"),
        ],
    )
    def test_sizes_are_refused_before_any_array(self, runner, args, shown):
        res = runner.invoke(cli, args)
        assert res.exit_code == 3, res.output
        assert f"size limit exceeded: {shown}" in res.output


class TestErrorsAndDeterminism:
    def test_malformed_json_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(cli, ["entropy", "--dist", str(bad)])
        assert res.exit_code == 2
        assert "line" in res.output or "line" in (res.stderr or "")

    def test_schema_violation_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alphabet": ["a"], "mass": ["x"]}))
        res = runner.invoke(cli, ["entropy", "--dist", str(bad)])
        assert res.exit_code == 2

    def test_mass_length_mismatch(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alphabet": ["a", "b"], "mass": [1.0]}))
        res = runner.invoke(cli, ["entropy", "--dist", str(bad)])
        assert res.exit_code == 2

    def test_repeated_runs_byte_identical(self, runner, bern_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            res = runner.invoke(
                cli, ["figure", "--id", "3", "--points", "12", "--out", str(out)]
            )
            assert res.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exponent_runs_byte_identical(self, runner, bern_file):
        args = ["exponent", "--dist", bern_file, "--R", "0.3", "--form", "universal"]
        assert runner.invoke(cli, args).output == runner.invoke(cli, args).output

    @pytest.mark.parametrize(
        "case, shown",
        [("missing", "cannot be read"), ("directory", "cannot be read"),
         ("out", "cannot be written")],
    )
    def test_unusable_paths_exit_2(self, runner, bern_file, tmp_path, case, shown):
        missing = str(tmp_path / "missing" / "x.json")
        args = {
            "missing": ["entropy", "--dist", missing],
            "directory": ["entropy", "--dist", str(tmp_path)],
            "out": ["entropy", "--dist", bern_file, "--out", missing],
        }[case]
        res = runner.invoke(cli, args)
        assert res.exit_code == 2, res.output
        path = str(tmp_path) if case == "directory" else missing
        assert f"invalid input: {path}: {shown}" in res.output


_INPUTS = sorted(str(p) for p in _GOLDEN_INPUTS.glob("*.json"))
_INT, _FLOAT, _PATH, _OUT = "int", "float", "path", "out"
_MODES = ["exact", "mc"]
_FAMILIES = ["toeplitz", "fullrandom"]
# every command with the kind of value each of its flags takes
_COMMANDS = {
    ("entropy",): {"--dist": _PATH, "--s": _FLOAT, "--out": _OUT},
    ("exponent",): {"--dist": _PATH, "--joint": _PATH, "--R": _FLOAT, "--out": _OUT,
                    "--form": ["universal", "divergence", "cramer", "hr", "cond"]},
    ("figure",): {"--id": ["2", "3", "4", "6"], "--points": _INT,
                  "--format": ["csv", "json"], "--out": _OUT},
    ("hash", "check"): {"--family": _FAMILIES, "--q": _INT, "--k": _INT, "--m": _INT,
                        "--size": _INT, "--M": _INT, "--out": _OUT},
    ("simulate", "pa"): {"--dist": _PATH, "--family": _FAMILIES, "--q": _INT, "--k": _INT,
                         "--m": _INT, "--M": _INT, "--mode": _MODES, "--samples": _INT,
                         "--seed": _INT, "--out": _OUT},
    ("simulate", "wiretap"): {"--wb": _PATH, "--we": _PATH, "--M": _INT, "--L": _INT,
                              "--n": _INT, "--mode": _MODES, "--samples": _INT, "--q": _INT,
                              "--seed": _INT, "--out": _OUT},
    ("intrinsic",): {"--dist": _PATH, "--n": _INT, "--M": _INT, "--out": _OUT},
    ("distill",): {"--pab": _PATH, "--pae": _PATH, "--M": _INT, "--L": _INT,
                   "--module-q": _INT, "--module-n": _INT, "--mode": _MODES,
                   "--samples": _INT, "--seed": _INT, "--out": _OUT},
}


def _reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


def _nonfinite_numbers(obj, at=""):
    """The paths of the non-finite numbers in a JSON output (written as the
    strings "nan", "inf" and "-inf"), save the documented one: `value` "inf"
    beside `"diverges": true`, the Cramer form below -log max P."""
    if isinstance(obj, dict):
        diverges = obj.get("diverges") is True
        return [path for key, v in obj.items() if not (diverges and key == "value" and v == "inf")
                for path in _nonfinite_numbers(v, f"{at}/{key}")]
    if isinstance(obj, list):
        return [path for i, v in enumerate(obj) for path in _nonfinite_numbers(v, f"{at}/{i}")]
    return [at] if obj in ("nan", "inf", "-inf") else []


class TestFlagFuzz:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_every_command_exits_with_a_documented_code(self, tmp_path_factory, data):
        # as tests/test_jsonio.py fuzzes the parsers: every flag of a command
        # at small, extreme and non-finite values, and unusable paths
        here = tmp_path_factory.mktemp("fuzz")
        missing = str(here / "missing" / "x.json")
        # masses whose total overflows a float, as a distribution and a joint
        overflow = [str(here / "overflow.json"), str(here / "overflow_joint.json")]
        Path(overflow[0]).write_text('{"alphabet": ["a", "b"], "mass": [1e308, 1e308]}')
        Path(overflow[1]).write_text(
            '{"alphabet": ["a", "b"], "alphabet_e": ["u"], "mass": [[1e308], [1e308]]}'
        )
        values = {
            _INT: st.integers(-2, 9).map(str),
            _FLOAT: st.sampled_from(["0", "1e-300", "0.3", "1", "1e308", "nan", "inf"]),
            _PATH: st.sampled_from(_INPUTS + overflow + [missing, str(here)]),
            _OUT: st.sampled_from(["-", missing, str(here)]),
        }
        command = data.draw(st.sampled_from(sorted(_COMMANDS)))
        args = list(command)
        for flag, kind in _COMMANDS[command].items():
            kind = st.sampled_from(kind) if isinstance(kind, list) else values[kind]
            args += [flag, data.draw(kind)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = CliRunner().invoke(cli, args)
        assert res.exit_code in (0, 2, 3, 4), (args, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), args
        if res.exit_code == 0 and (command != ("figure",) or "json" in args):
            payload = json.loads(res.stdout, parse_constant=_reject_constant)
            assert not _nonfinite_numbers(payload), (args, _nonfinite_numbers(payload))

    def test_only_a_diverging_value_may_be_inf(self):
        assert _nonfinite_numbers({"value": "inf", "diverges": True, "note": "inf"}) == ["/note"]
        assert _nonfinite_numbers({"value": "inf", "diverges": False}) == ["/value"]
        assert _nonfinite_numbers({"a": [1.0, {"value": "nan"}], "b": "-inf"}) == ["/a/1/value", "/b"]


class TestNonFiniteInput:
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_entropy_rejects_nonfinite_mass(self, runner, tmp_path, number):
        path = tmp_path / "p.json"
        path.write_text('{"alphabet": ["a", "b"], "mass": [%s, 0.5]}' % number)
        res = runner.invoke(cli, ["entropy", "--dist", str(path)])
        assert res.exit_code == 2
        assert "not a finite number" in res.output

    @pytest.mark.parametrize(
        "flag, obj",
        [
            ("--dist", {"alphabet": ["a", "b"], "mass": [1, "HUGE"]}),
            ("--joint", {"alphabet": ["a", "b"], "alphabet_e": ["u"], "mass": [[1], ["HUGE"]]}),
            ("--wb", {"input_alphabet": ["0", "1"], "output_alphabet": ["0", "1"],
                      "matrix": [[1, 0], [0, "HUGE"]]}),
        ],
    )
    def test_huge_integer_mass_exit_2(self, runner, tmp_path, flag, obj):
        # an integer past the float range is as non-finite as 1e999
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj).replace('"HUGE"', "1" + "0" * 330))
        args = {
            "--dist": ["exponent", "--dist", str(path), "--R", "0.1"],
            "--joint": ["exponent", "--joint", str(path), "--R", "0.1", "--form", "cond"],
            "--wb": ["simulate", "wiretap", "--wb", str(path), "--we", str(path),
                     "--M", "2", "--L", "1"],
        }[flag]
        res = runner.invoke(cli, args)
        assert res.exit_code == 2, res.output
        assert "not a finite number" in res.output

    @pytest.mark.parametrize(
        "args, obj, shown",
        [
            (["entropy"], {"alphabet": ["a", "b"], "mass": [1e308, 1e308]},
             "total mass inf exceeds 1"),
            (["exponent", "--R", "0.1", "--form", "cond"],
             {"alphabet": ["a", "b"], "alphabet_e": ["u"], "mass": [[1e308], [1e308]]},
             "joint mass sums to inf, expected 1"),
        ],
    )
    def test_total_past_the_float_range_exit_2(self, runner, tmp_path, args, obj, shown):
        # finite masses whose sum overflows: a total above 1, not a traceback
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        flag = "--joint" if "alphabet_e" in obj else "--dist"
        res = runner.invoke(cli, args + [flag, str(path)])
        assert res.exit_code == 2, res.output
        assert shown in res.output

    def test_integer_past_digit_limit_names_the_file(self, runner, tmp_path):
        # json.load's own ValueError for more than 4,300 digits gets the path
        path = tmp_path / "digits.json"
        path.write_text('{"alphabet": ["a", "b"], "mass": [1%s, 0.5]}' % ("0" * 4400))
        res = runner.invoke(cli, ["entropy", "--dist", str(path)])
        assert res.exit_code == 2, res.output
        assert f"invalid input: {path}: Exceeds the limit" in res.output

    def test_simulate_pa_rejects_nan_mass(self, runner, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"alphabet": ["a", "b"], "mass": [NaN, 0.5]}')
        res = runner.invoke(cli, ["simulate", "pa", "--dist", str(path), "--M", "2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("form", ["universal", "divergence"])
    def test_exponent_rejects_nan_rate(self, runner, bern_file, form):
        res = runner.invoke(
            cli, ["exponent", "--dist", bern_file, "--R", "nan", "--form", form]
        )
        assert res.exit_code == 2

    def test_entropy_rejects_nan_order(self, runner, bern_file):
        res = runner.invoke(cli, ["entropy", "--dist", bern_file, "--s", "nan"])
        assert res.exit_code == 2


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency and jsonschema none at all: a fresh
    # interpreter importing the CLI must pull in neither
    src = str(Path(secexp.__file__).resolve().parents[1])
    code = "import sys, secexp.cli; print('scipy' in sys.modules, 'jsonschema' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


def test_cold_jobs_do_not_import_numpy_ma():
    # numpy's unique and setdiff1d import numpy.ma, 10-17 ms of a CLI run:
    # a fresh interpreter that runs the optimizer (figure 4) and an exact
    # wiretap ensemble must not load it, which pytest's own process cannot show
    src = str(Path(secexp.__file__).resolve().parents[1])
    inputs = Path(__file__).parent / "golden" / "inputs"
    code = (
        "import contextlib, io, sys\n"
        "from secexp.cli import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli(['figure', '--id', '4', '--points', '3'], standalone_mode=False)\n"
        "    cli(['simulate', 'wiretap', '--wb', sys.argv[1], '--we', sys.argv[2],\n"
        "         '--M', '2', '--L', '2'], standalone_mode=False)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    argv = [sys.executable, "-c", code, str(inputs / "wb.json"), str(inputs / "we.json")]
    out = subprocess.run(argv, cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# The result records, with their fields in declaration order.
RECORD_FIELDS = {
    "exponents.ExponentResult": ["value", "argmax", "method", "witness", "diverges", "note"],
    "exponents.HashBoundCurve": ["min_value", "argmin_s"],
    "exponents.HRExponents": ["lower", "lower_applicable", "upper", "upper_applicable", "gap"],
    "hashing.Universal2Report": ["passed", "max_collision", "bound", "worst_pair"],
    "hashing.BalancedReport": ["passed", "bad_seed_index", "preimage_sizes"],
    "hashing.StronglyUniversal2Report": [
        "passed", "single_uniform", "pairwise_independent",
        "max_single_deviation", "max_pair_deviation",
    ],
    "intrinsic.TypeRecord": ["counts", "category", "class_size", "n_cells", "weight"],
    "intrinsic.IdentityReport": [
        "branch", "lhs", "rhs_restricted", "rhs_unrestricted", "order2_value", "max_discrepancy",
    ],
    "privacy.EnsembleEstimate": ["value", "stderr", "mode", "n_samples"],
    "wiretap.EnsembleEntry": ["codebook", "seed_index", "weight", "eps", "d1"],
    "wiretap.Condition4Report": ["passed", "max_membership", "bound"],
    "wiretap.AdditiveIdentityReport": [
        "psi_form", "phi_form", "closed_form", "max_discrepancy", "escort_form",
    ],
    "wiretap.HolderReport": ["passed", "min_margin", "t_grid"],
    "distill.DistillationReport": [
        "m", "l", "mode", "eps", "d1", "eps_stderr", "d1_stderr",
        "bound_eps_ensemble", "bound_eps_code", "bound_d1_ensemble", "bound_d1_code",
        "selected_eps", "selected_d1", "rate", "h_a_given_e", "h_a_given_b",
    ],
    "figures.FigureData": ["figure_id", "header", "rows"],
}


def test_cli_import_builds_no_dataclass_record_and_no_fractions():
    # each frozen dataclass costs about 1 ms of generated code at import, and
    # `fractions` is only needed by exact rationals the CLI never builds: a
    # fresh interpreter importing the CLI loads no `fractions`, and every
    # result record is a NamedTuple with its declared fields
    src = str(Path(secexp.__file__).resolve().parents[1])
    code = (
        "import sys, secexp.cli\n"
        "cold = 'fractions' not in sys.modules\n"
        "import dataclasses, json\n"
        "records = {}\n"
        "for path in sys.argv[1:]:\n"
        "    module, name = path.split('.')\n"
        "    cls = getattr(sys.modules['secexp.' + module], name)\n"
        "    records[path] = [dataclasses.is_dataclass(cls), list(cls._fields)]\n"
        "print(json.dumps([cold, records]))\n"
    )
    argv = [sys.executable, "-c", code, *RECORD_FIELDS]
    out = subprocess.run(argv, cwd=src, capture_output=True, text=True, check=True)
    cold, records = json.loads(out.stdout)
    assert cold
    assert records == {path: [False, fields] for path, fields in RECORD_FIELDS.items()}


def test_main_freezes_the_imports_before_dispatch(monkeypatch):
    # main() moves what the imports built out of the collector's reach, so the
    # collection at exit skips it; the group runs after the freeze, and both
    # are stand-ins here so the test process itself is never frozen
    from secexp import cli as cli_module

    calls = []
    monkeypatch.setattr(cli_module.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli_module, "cli", lambda: calls.append("cli"))
    cli_module.main()
    assert calls == ["freeze", "cli"]
