"""Command line behavior: formats, determinism, and exit codes."""

import json
import math
import subprocess
import sys

import pytest

from toeplitz_bounds import BlaschkeProduct, lambda_functional
from toeplitz_bounds.cli import main, parse_complex, zeros_digest
from toeplitz_bounds.errors import InvalidConfiguration

SCHWARZ_PROBLEM = {"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [0.25, 0.0]]}
# Close nodes and a level near 215: a bisected level sat below the true one here.
CLOSE_NODE_PROBLEM = {
    "nodes": [[-0.0323, 0.249], [-0.0145, 0.0256], [-0.0102, 0.189], [0.4508, 0.3138]],
    "targets": [[-0.723, -1.8404], [0.0437, 1.639], [-0.6242, -2.025], [1.2346, -0.041]],
}


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_complex_tokens(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
        with pytest.raises(InvalidConfiguration):
            parse_complex("abc")
        with pytest.raises(InvalidConfiguration):
            parse_complex("1,2,3")

    def test_digest_is_twelve_hex_characters_and_stable(self):
        d1 = zeros_digest((0.5 + 0j, -0.25j))
        d2 = zeros_digest((0.5 + 0j, -0.25j))
        assert d1 == d2
        assert len(d1) == 12
        assert all(c in "0123456789abcdef" for c in d1)
        assert zeros_digest((0.5 + 0j,)) != d1


class TestLambdaCommand:
    def test_identity_symbol_prints_four_over_pi(self, capsys):
        code, out, _ = run_main(capsys, ["lambda", "--zeros", "0"])
        assert code == 0
        assert float(out) == pytest.approx(4.0 / math.pi, abs=1e-10)

    def test_csv_output_schema(self, capsys, tmp_path):
        target = tmp_path / "lambda.csv"
        code, _, _ = run_main(capsys, ["lambda", "--zeros", "0.5", "--out", str(target)])
        assert code == 0
        header, row = target.read_text().splitlines()
        assert header == "degree,zeros_digest,lambda,eta_argmax,error"
        fields = row.split(",")
        assert fields[0] == "1"
        assert len(fields[1]) == 12
        assert float(fields[2]) > 0

    def test_output_is_byte_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_main(capsys, ["lambda", "--zeros", "0.5", "--out", str(a)])
        run_main(capsys, ["lambda", "--zeros", "0.5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_readme_example_with_a_negative_real_part(self, capsys):
        code, out, err = run_main(capsys, ["lambda", "--zeros", "0.5", "-0.25,0.1"])
        assert code == 0, err
        value = lambda_functional(BlaschkeProduct(zeros=(0.5, -0.25 + 0.1j))).value
        assert out == format(value, ".17g") + "\n"

    def test_bad_zero_token_exits_two(self, capsys):
        code, _, err = run_main(capsys, ["lambda", "--zeros", "abc"])
        assert code == 2
        assert "error" in err


class TestApplyCommand:
    def test_residue_value_prints_as_bare_real(self, capsys):
        code, out, _ = run_main(capsys, ["apply", "--zeros", "0.5", "--h", "1", "--z", "0"])
        assert code == 0
        assert out == "-0.5\n"

    def test_contour_agrees_with_residue(self, capsys):
        _, res, _ = run_main(
            capsys, ["apply", "--zeros", "0.5", "--h", "0;0;1", "--z", "0.1,0.2"]
        )
        _, con, _ = run_main(
            capsys,
            ["apply", "--zeros", "0.5", "--h", "0;0;1", "--z", "0.1,0.2", "--method", "contour"],
        )

        def parse_value(text):
            parts = text.strip().split(",")
            return complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)

        assert abs(parse_value(res) - parse_value(con)) < 1e-8

    def test_point_on_a_zero_exits_two(self, capsys):
        code, _, err = run_main(capsys, ["apply", "--zeros", "0.5", "--z", "0.5"])
        assert code == 2
        assert "error" in err


class TestPickCommand:
    def test_minimal_level_of_the_derivative_problem(self, capsys, tmp_path):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(SCHWARZ_PROBLEM))
        code, out, _ = run_main(capsys, ["pick", "--problem-file", str(pf)])
        assert code == 0
        assert float(out) == pytest.approx(0.5, abs=1e-9)

    def test_construct_emits_a_full_witness(self, capsys, tmp_path):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(SCHWARZ_PROBLEM))
        code, out, _ = run_main(capsys, ["pick", "--problem-file", str(pf), "--construct"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"interpolant", "level", "residuals", "sup_norm", "minimal_level"}
        assert payload["sup_norm"] <= payload["level"] * (1 + 1e-12)

    def test_construct_succeeds_at_the_default_slack_on_close_nodes(self, capsys, tmp_path):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(CLOSE_NODE_PROBLEM))
        code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf), "--construct"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["level"] == payload["minimal_level"] * (1 + 1e-6)

    def test_construct_at_the_exact_minimal_level_fails_numerically(self, capsys, tmp_path):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(SCHWARZ_PROBLEM))
        code, _, err = run_main(
            capsys, ["pick", "--problem-file", str(pf), "--construct", "--level", "0.5"]
        )
        assert code == 1
        assert "numeric failure" in err

    def test_missing_problem_file_exits_two(self, capsys):
        code, _, _ = run_main(capsys, ["pick", "--problem-file", "/nonexistent/problem.json"])
        assert code == 2


class TestBracketCommand:
    def test_plain_symbol_prints_lower_and_upper(self, capsys):
        code, out, _ = run_main(capsys, ["bracket", "--zeros", "0.5"])
        assert code == 0
        lower, upper = map(float, out.split())
        assert lower == 1.0
        assert upper > lower

    def test_ray_configuration_produces_a_certified_lower_bound(self, capsys):
        code, out, _ = run_main(
            capsys, ["bracket", "--q", "0.5", "--n", "1", "--m", "3", "--m-offsets", "2,4"]
        )
        assert code == 0
        lower, upper = map(float, out.split())
        assert lower > 1.5
        assert lower <= upper + 1e-6

    def test_json_form_carries_provenance(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["bracket", "--q", "0.5", "--n", "1", "--m", "3", "--m-offsets", "2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"lower", "upper", "lower_provenance", "upper_provenance"}
        assert payload["lower_provenance"]["certified"] == payload["lower"]

    def test_invalid_q_exits_two(self, capsys):
        code, _, _ = run_main(capsys, ["bracket", "--q", "1.5", "--n", "1", "--m", "3"])
        assert code == 2

    def test_malformed_m_offsets_exit_two(self, capsys):
        code, _, err = run_main(
            capsys, ["bracket", "--q", "0.5", "--n", "1", "--m", "3", "--m-offsets", "2,x"]
        )
        assert code == 2
        assert "'x'" in err


class TestOmegaStudyCommand:
    ARGS = ["omega-study", "--n", "1", "--q-schedule", "0.3", "--m-offsets", "2,4"]

    def test_csv_schema_on_stdout(self, capsys):
        code, out, _ = run_main(capsys, self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,xi_re,xi_im,q,m,lower,upper,ideal_limit,interp_norm,warnings"
        assert len(lines) == 3

    def test_json_form_parses(self, capsys):
        code, out, _ = run_main(capsys, self.ARGS + ["--json"])
        assert code == 0
        payload = json.loads(out)
        assert {r["m"] for r in payload["rows"]} == {3, 5}

    @pytest.mark.parametrize(
        "flag, value, token",
        [("--q-schedule", "abc", "abc"), ("--q-schedule", "0.3,,1e", "1e"), ("--m-offsets", "2,1.5", "1.5")],
    )
    def test_malformed_list_exits_two(self, capsys, flag, value, token):
        argv = ["omega-study", "--n", "1", "--q-schedule", "0.3", "--m-offsets", "2"] + [flag, value]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"{token!r}" in err


class TestNaNInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", "--zeros", "nan"],
            ["bracket", "--zeros", "0.5,nan"],
            ["omega-study", "--n", "1", "--q-schedule", "nan"],
            ["omega-study", "--n", "1", "--xi", "nan"],
            ["apply", "--zeros", "0.5", "--h", "1", "--z", "nan"],
            ["apply", "--zeros", "0.5", "--h", "1", "--z", "nan", "--method", "contour"],
            ["apply", "--zeros", "0.5", "--h", "nan", "--z", "0"],
            ["apply", "--zeros", "0.5", "--h", "inf", "--z", "0"],
            ["apply", "--zeros", "0.5", "--h", "nan", "--z", "0", "--method", "contour"],
            ["apply", "--zeros", "0.5", "--h", "1;nan", "--z", "0"],
            ["apply", "--zeros", "0.5", "--h", "1;nan", "--z", "0", "--method", "contour"],
            ["apply", "--zeros", "0.5", "--h", "0,inf;1", "--z", "0.1"],
        ],
    )
    def test_nan_input_exits_two(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestEntryPoint:
    def test_module_invocation_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "toeplitz_bounds.cli", "apply", "--zeros", "0.5"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "-0.5\n"

    def test_importing_the_package_and_cli_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import toeplitz_bounds, toeplitz_bounds.cli, sys; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
