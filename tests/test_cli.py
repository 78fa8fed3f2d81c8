import json

import pytest
from click.testing import CliRunner

from secexp.cli import cli


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
        # 2^21 strings exceed the configured cell cap
        res = runner.invoke(
            cli, ["intrinsic", "--dist", bern_file, "--n", "21", "--M", "4"]
        )
        assert res.exit_code == 3


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


class TestNonFiniteInput:
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_entropy_rejects_nonfinite_mass(self, runner, tmp_path, number):
        path = tmp_path / "p.json"
        path.write_text('{"alphabet": ["a", "b"], "mass": [%s, 0.5]}' % number)
        res = runner.invoke(cli, ["entropy", "--dist", str(path)])
        assert res.exit_code == 2
        assert "not a finite number" in res.output

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
