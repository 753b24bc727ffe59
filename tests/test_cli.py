"""Command line behavior: formats, determinism, and exit codes."""

import argparse
import hashlib
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from toeplitz_bounds import BlaschkeProduct, cli, lambda_functional, omega_bounds, toeplitz_op
from toeplitz_bounds.cli import build_parser, main, parse_complex, zeros_digest
from toeplitz_bounds.errors import InvalidConfiguration

from test_scripts import acceptance_plans

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

SCHWARZ_PROBLEM = {"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [0.25, 0.0]]}
# Close nodes and a level near 215: a bisected level sat below the true one here.
CLOSE_NODE_PROBLEM = {
    "nodes": [[-0.0323, 0.249], [-0.0145, 0.0256], [-0.0102, 0.189], [0.4508, 0.3138]],
    "targets": [[-0.723, -1.8404], [0.0437, 1.639], [-0.6242, -2.025], [1.2346, -0.041]],
}

# Seven nodes, one within 1e-11 of the circle, and a single node: `pick
# --construct` prints the same bytes as with one boundary_values call per
# Schur level, before the levels shared one half-angle sweep.
NEAR_CIRCLE_PROBLEM = {
    "nodes": [[1 - 1e-11, 0.0], [0.1, 0.5], [-0.6, 0.2], [0.3, -0.7], [-0.2, -0.4], [0.75, 0.35], [0.0, 0.0]],
    "targets": [[0.4, 0.1], [-0.3, 0.6], [0.2, -0.5], [0.7, 0.2], [-0.1, -0.3], [0.5, -0.4], [0.05, 0.0]],
}
ONE_NODE_PROBLEM = {"nodes": [[0.3, -0.2]], "targets": [[0.6, 0.25]]}


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_brackets_near(out, before):
    """The (lower, upper) pairs of a `bracket --json` payload, or of every
    row and then the best of an `omega-study --json` one, against the pairs
    recorded before the 1,024-node rotation grid and the 8-panel first
    sweep: every lower keeps its bits, every upper stays within 1e-8."""
    payload = json.loads(out)
    rows = payload["rows"] + [payload["best"]] if "rows" in payload else [payload]
    assert len(rows) == len(before)
    for row, (lower, upper) in zip(rows, before):
        assert row["lower"] == lower
        assert abs(row["upper"] - upper) <= 1e-8


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


# Every option of every subcommand. A new option is a diff of this table.
OPTIONS = {
    "lambda": {"--zeros", "--zeros-file", "--tolerance", "--out"},
    "apply": {"--zeros", "--zeros-file", "--h", "--z", "--method", "--tolerance", "--out"},
    "pick": {"--problem-file", "--construct", "--level", "--out"},
    "bracket": {
        "--zeros", "--zeros-file", "--xi", "--q", "--n", "--m", "--m-offsets", "--json", "--tolerance", "--out",
    },
    "omega-study": {"--n", "--xi", "--q-schedule", "--m-offsets", "--json", "--tolerance", "--out"},
}
# Arguments each subcommand parses with; the error names only what follows them.
MINIMAL_ARGS = {
    "lambda": ["--zeros", "0.5"],
    "apply": ["--zeros", "0.5"],
    "pick": ["--problem-file", "problem.json"],
    "bracket": ["--zeros", "0.5"],
    "omega-study": ["--n", "1"],
}


def option_strings(parser) -> set:
    return {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}


class TestOptionCensus:
    def test_every_subcommand_has_exactly_the_listed_options(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert option_strings(parser) == set()
        assert {name: option_strings(p) for name, p in sub.choices.items()} == OPTIONS

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_rotation_grid_is_not_an_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command] + MINIMAL_ARGS[command] + ["--rotation-grid", "256"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --rotation-grid 256" in captured.err

    @pytest.mark.parametrize(
        "argv", [["bracket", "--q", "0.3", "--n", "1", "--m", "3"], ["omega-study", "--n", "1"]]
    )
    def test_eps_is_not_an_option(self, capsys, argv):
        # the ray zeros lie in E_xi for every eps <= 1 - q, so a ray takes no eps
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--eps", "0.2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --eps 0.2" in captured.err


class TestDefaultSchedule:
    """Without schedule flags the CLI passes the omega_bounds defaults, the
    one owner of the default (q, m) schedule. The call is captured; no study
    runs."""

    class Captured(Exception):
        pass

    def capture(self, monkeypatch, name, argv):
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            raise self.Captured

        monkeypatch.setattr(cli, name, record)
        with pytest.raises(self.Captured):
            main(argv)
        (call,) = calls
        return call

    def test_omega_study_passes_the_default_schedule(self, monkeypatch):
        _, kwargs = self.capture(monkeypatch, "omega_convergence_study", ["omega-study", "--n", "1"])
        assert kwargs["q_schedule"] == omega_bounds.DEFAULT_Q_SCHEDULE
        assert kwargs["m_offsets"] == omega_bounds.DEFAULT_M_OFFSETS

    def test_ray_bracket_passes_the_default_offsets(self, monkeypatch):
        (ray, m_offsets, _), _ = self.capture(
            monkeypatch, "bracket_norm", ["bracket", "--q", "0.3", "--n", "1", "--m", "3"]
        )
        assert (ray.q, ray.n, ray.m) == (0.3, 1, 3)
        assert m_offsets == omega_bounds.DEFAULT_M_OFFSETS


class TestReadmeCommands:
    def test_every_readme_command_line_parses(self):
        # each `toeplitz-bounds ...` line of the README's sh blocks, split as
        # a shell would, parses; nothing runs
        parser = build_parser()
        text = README.read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("toeplitz-bounds ")]
        commands = set()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            try:
                commands.add(parser.parse_args(argv).command)
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")
        assert commands == set(OPTIONS)


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

    def test_stdout_and_csv_are_pinned(self, capsys, tmp_path):
        # the README example on stdout, and the CSV that --out writes, which
        # leaves stdout empty
        code, out, err = run_main(capsys, ["lambda", "--zeros", "0.5", "-0.25,0.1"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "15ca654126b4c3e55226a346ef6a9249ff6bd53119e86b5fd7b35b9d2fd1e5de"
        )
        target = tmp_path / "lambda.csv"
        code, out, err = run_main(capsys, ["lambda", "--zeros", "0.5", "--out", str(target)])
        assert (code, out) == (0, ""), err
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "c3f1a860b48d4031881dae178c9e26f0dc3e1c537c909cc925a320504df105d9"
        )

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

    @pytest.mark.parametrize("h", ["-0.5;1", "-0.5,0.25;1;0,-2"])
    def test_a_negative_constant_term_is_a_value(self, capsys, h):
        # "--h -0.5;1" reads the same as "--h=-0.5;1"
        code, out, err = run_main(capsys, ["apply", "--zeros", "0.5", "--h", h, "--z", "0.1"])
        assert code == 0, err
        assert out == run_main(capsys, ["apply", "--zeros", "0.5", f"--h={h}", "--z", "0.1"])[1]

    @pytest.mark.parametrize("h", ["", " "], ids=["empty", "blank"])
    def test_h_without_a_coefficient_exits_two(self, capsys, h):
        # an empty coefficient list names no function; it is not h = 0
        code, out, err = run_main(capsys, ["apply", "--zeros", "0.5", "--h", h])
        assert code == 2
        assert out == ""
        assert err == "error: --h needs at least one coefficient\n"

    def test_point_on_a_zero_exits_two(self, capsys):
        code, _, err = run_main(capsys, ["apply", "--zeros", "0.5", "--z", "0.5"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--zeros", "0.5", "-0.25,0.1", "0.3,-0.6", "--h", "1;0.5;0.25,0.1", "--z", "0.1,0.2"],
                "191fa2bff0a626c87f5385e38d7010ae60116ff24ad1c30974fccc4c2b2abf7c",
            ),
            (
                ["--zeros", "0.999999", "--h", "1;0.5", "--z", "0.2", "--method", "contour"],
                # a1a664df...b471e6d6 with the 28-node midpoint panels
                "7fa171a9a005f92b032c0b6cf23589afd1ba7bc85e7fd8e840dfdc91da8afc9c",
            ),
            (
                ["--zeros", "0.5", "--h", "0;0;1", "--z", "0.1,0.2", "--method", "contour"],
                # 67ebc935...75f1791c with trapezoid doubling, 0.46499999999999997,0.13
                "5d9af94d6d6c54acd8e373174974841b046372a4710e8b44f9a3016d8679b03b",
            ),
            (
                ["--zeros", "0.5", "--h", "1", "--z", "0", "--method", "contour"],
                # 4a233290...ed1f5655 with trapezoid doubling, -0.5
                "dfe34e9956c271d88bb1da4ae518224e8e8c12e72fb742e4787caaad98a08f1f",
            ),
            (
                [
                    "--zeros", "0.5", "-0.25,0.1", "0.3,-0.6", "--h", "1;0.5;0.25,0.1", "--z", "0.1,0.2",
                    "--method", "contour",
                ],
                # b88b22b7...127b385b with trapezoid doubling
                "14f83d49a252be324505aa2ddddefa5b5d769d41fa7a28ddec0e78fe64e26d9b",
            ),
        ],
        ids=["residue", "contour-fallback", "contour-readme", "contour-constant", "contour-degree-3"],
    )
    def test_stdout_is_pinned(self, capsys, monkeypatch, argv, digest):
        # the residue route on a degree-3 symbol, and the contour route, one
        # integrate_circle call, on the README example, on a constant, on
        # that degree-3 case and next to a zero 1e-6 from the circle. That
        # last digest is older than the single integrator: trapezoid
        # doubling stalled there and handed over to integrate_circle, so
        # dropping the doubling kept its bits. Digests recorded when B' at
        # the zeros came from the full product rule, the near-circle one
        # again with the Gauss-Kronrod panels, which moved its value from
        # 1.4e-8 to 1.3e-13 off the residue route's.
        integrals = []
        real = toeplitz_op.integrate_circle

        def counted(g, spec):
            integrals.append(spec)
            return real(g, spec)

        monkeypatch.setattr(toeplitz_op, "integrate_circle", counted)
        code, out, err = run_main(capsys, ["apply"] + argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(integrals) == ("contour" in argv)


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

    @pytest.mark.parametrize(
        "problem, digest",
        [
            (NEAR_CIRCLE_PROBLEM, "b8ae5caefcb40459f29c4c7bfa660fc2c36471e75dc8a2f39e941f9e845c85da"),
            (ONE_NODE_PROBLEM, "3621429721c22d9be9d225006d0960a771d87f83a58dfd0408929f4ff78a8735"),
        ],
    )
    def test_construct_stdout_is_pinned(self, capsys, tmp_path, problem, digest):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(problem))
        code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf), "--construct"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("level", ["inf", "nan", "0"])
    def test_construct_at_a_level_that_is_not_positive_and_finite_exits_two(self, capsys, tmp_path, level):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(SCHWARZ_PROBLEM))
        code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf), "--construct", "--level", level])
        assert code == 2
        assert out == ""
        assert err.startswith("error: level mu must be positive and finite")

    def test_construct_with_every_target_zero_needs_a_level(self, capsys, tmp_path):
        # the minimal level is 0, and no relative slack lifts it
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps({"nodes": [[0.1, 0.0], [0.5, 0.2]], "targets": [[0.0, 0.0], [0.0, 0.0]]}))
        code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf), "--construct"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: every target is 0, so the minimal level is 0")
        code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf), "--construct", "--level", "1"])
        assert code == 0, err
        assert json.loads(out)["sup_norm"] == 0.0

    def test_missing_problem_file_exits_two(self, capsys):
        code, _, _ = run_main(capsys, ["pick", "--problem-file", "/nonexistent/problem.json"])
        assert code == 2

    @pytest.mark.parametrize("extra", [["--rotation-grid", "7"], ["--tolerance", "-5"]])
    def test_options_pick_does_not_read_exit_two(self, capsys, tmp_path, extra):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(SCHWARZ_PROBLEM))
        with pytest.raises(SystemExit) as exc:
            main(["pick", "--problem-file", str(pf)] + extra)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("target", ["NaN", "1e400", "-Infinity"])
    def test_non_finite_target_exits_two(self, capsys, tmp_path, target):
        pf = tmp_path / "problem.json"
        pf.write_text('{"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [[0.0, 0.0], [%s, 0.0]]}' % target)
        for extra in ([], ["--construct"]):
            code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf)] + extra)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")


class TestBracketCommand:
    def test_ray_json_stdout_is_pinned(self, capsys):
        # the certificate carries V, the residue value at the probe; digest
        # recorded with the Gauss-Kronrod panels, which moved the upper side
        # by 8.9e-9 (1bb618d3...51b191f8 with the 28-node midpoint panels),
        # then with the 1,024-node grid and the 8-panel first sweep, which
        # moved it by 1.1e-9 (92caa47b...ca01c27b before), then with the
        # one-stage screen and one seed ladder per ray, which raised it by
        # 3.0e-9 (2ad14d2a...5de70a318 before)
        code, out, err = run_main(capsys, ["bracket", "--q", "0.002", "--n", "2", "--m", "4", "--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b8f751057b1d4a69e372c81e6edb17694042e644ca2feb65a9a0deea3ed623a9"
        )
        assert_brackets_near(out, [(4.588174221489721, 4.786330172159058)])

    @pytest.mark.parametrize(
        "argv, digest, before",
        [
            (
                ["--q", "0.3", "--n", "1", "--m", "3", "--m-offsets", "8,2", "--json"],
                # 99a8f4fe...1618e032 with the 28-node midpoint panels,
                # 3c47b5c8...50ea81c0 with the 4,096-node grid and 64 panels
                "e4028aab4626f40083c9465a99c8ec2bc14a8a006490a9d99aff67604de91de5",
                (2.6602277425178857, 2.8024150662393397),
            ),
            (
                ["--q", "0.3", "--n", "1", "--m", "3", "--xi", "0,1", "--json"],
                # a0ac60b3...739e799a with the 28-node midpoint panels,
                # 8ed4f1f5...d77b1284 with the 4,096-node grid and 64 panels,
                # 34d41e55...faf4a3c8 with "--eps 0.2", which changed only the
                # printed "eps"; this digest is of the same argv without it,
                # recorded before the option was removed
                "c055581716d6ad4888df1c991241dd45715e40d50b95d576c2f7c968d84ee892",
                (2.6996706943501745, 2.8024150662393397),
            ),
        ],
        ids=["unsorted-offsets", "xi"],
    )
    def test_ray_options_stdout_is_pinned(self, capsys, argv, digest, before):
        # digests recorded while the ray bracket kept a loop over m of its own,
        # then again with the Gauss-Kronrod panels: the upper side moved by
        # 3.2e-10; then with the 1,024-node grid and the 8-panel first sweep,
        # which moved it by 7e-13
        code, out, err = run_main(capsys, ["bracket"] + argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert_brackets_near(out, [before])

    @pytest.mark.parametrize(
        "argv",
        [
            ["bracket", "--zeros", "0.9", "--q", "0.1", "--n", "1", "--m", "8"],
            ["bracket", "--zeros-file", "ZEROS", "--q", "0.1", "--n", "1", "--m", "8"],
            ["bracket", "--zeros", "0.5", "--n", "3", "--m", "9"],
            ["bracket", "--zeros", "0.5", "--n", "1"],
            ["bracket", "--zeros", "0.5", "--m", "3"],
            ["bracket", "--zeros", "0.5", "--xi", "1"],
            ["bracket", "--zeros", "0.5", "--m-offsets", "2,4"],
            ["bracket", "--zeros-file", "ZEROS", "--n", "1"],
            ["bracket", "--zeros", "0.5", "--zeros-file", "ZEROS"],
            ["lambda", "--zeros", "0.5", "--zeros-file", "ZEROS"],
            ["lambda", "--zeros", "abc", "--zeros-file", "ZEROS"],
            ["apply", "--zeros", "0.5", "--zeros-file", "ZEROS"],
            ["apply", "--zeros", "0.5", "--h", "1;2", "--z", "0.3", "--tolerance", "1e-3"],
            ["pick", "--problem-file", "PROBLEM", "--level", "1"],
        ],
    )
    def test_conflicting_inputs_exit_two(self, capsys, tmp_path, argv):
        # on every subcommand: inputs one of which would be dropped without
        # a word
        zf = tmp_path / "zeros.json"
        zf.write_text(json.dumps([[0.3, 0.0]]))
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps(SCHWARZ_PROBLEM))
        argv = [{"ZEROS": str(zf), "PROBLEM": str(pf)}.get(a, a) for a in argv]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_zero_token_exits_two(self, capsys):
        code, out, err = run_main(capsys, ["bracket", "--zeros", "0.5", "abc"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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

    # (digest, then the (lower, upper) of every row and of the best) of each
    # acceptance plan's `omega-study --json` stdout at the default --xi. The
    # n = 2 digest was recorded while each cell's configuration was built
    # inside its row, then again with the Gauss-Kronrod panels: the uppers
    # moved by at most 8.9e-9 (02524a01...be207b3e with the 28-node midpoint
    # panels); then with the 1,024-node grid and the 8-panel first sweep,
    # which moved them by at most 1.1e-9 (6f75e529...ba1a7e47 before); then
    # with the one-stage screen and one seed ladder per ray, which raised
    # them by at most 3.0e-9 (87c61db4...5591c08a88e before). The n = 1 and
    # n = 3 digests were recorded while every certificate still sampled the
    # interpolant's boundary sup-norm.
    PINNED_STUDIES = {
        1: (
            "c49a5814dd61ce159c529aa642aed841aab4dc034d5238bc50ca840fc7536bea",
            [
                (1.7393321308795866, 2.8024150662400347),
                (2.3133411664739576, 2.8024150662400347),
                (2.6602277425178857, 2.8024150662400347),
                (2.6996706943501745, 2.8024150662400347),
                (2.0248930106815712, 2.869814126144191),
                (2.601628121046399, 2.869814126144191),
                (2.7915209111576904, 2.869814126144191),
                (2.799983599705744, 2.869814126144191),
                (2.422914595354966, 2.935639217312558),
                (2.8444671963842425, 2.935639217312558),
                (2.8994318881388463, 2.935639217312558),
                (None, 2.935639217312558),
                (2.683284104688322, 2.9679963022401785),
                (2.9354984746115775, 2.9679963022401785),
                (2.949960639500069, 2.9679963022401785),
                (None, 2.9679963022401785),
                (2.949960639500069, 2.9679963022401785),
            ],
        ),
        2: (
            "d506c98a35a6468b5622c1abf25c357dc43fb2a12d835a3a16a137376c7d81cf",
            [
                (3.8462354341979537, 4.557430887069555),
                (4.162302655152227, 4.557430887069555),
                (4.136720823574585, 4.6742178508130445),
                (4.37783308603527, 4.6742178508130445),
                (4.424733631315801, 4.786330172159058),
                (4.588174221489721, 4.786330172159058),
                (4.588174221489721, 4.786330172159058),
            ],
        ),
        3: (
            "89650a626782ffdf834cef8683f3649825c04760a7e487d64b16869fa44c911e",
            [
                (5.643167130522234, 6.3498389083679),
                (6.090148239903235, 6.573442173249596),
                (6.336675189945882, 6.692625076805629),
                (6.336675189945882, 6.692625076805629),
            ],
        ),
    }

    @pytest.mark.parametrize(
        "n, q_schedule, m_offsets", [pytest.param(*plan, id=f"n{plan[0]}") for plan in acceptance_plans()]
    )
    def test_acceptance_plan_json_stdout_is_pinned(self, capsys, n, q_schedule, m_offsets):
        argv = [
            "omega-study",
            "--n", str(n),
            "--q-schedule", ",".join(map(str, q_schedule)),
            "--m-offsets", ",".join(map(str, m_offsets)),
            "--json",
        ]
        code, out, err = run_main(capsys, argv)
        assert code == 0, err
        digest, brackets = self.PINNED_STUDIES[n]
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert_brackets_near(out, brackets)

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

    @pytest.mark.parametrize(
        "flag, value, token",
        [("--q-schedule", "0.3,0.3", "q 0.3"), ("--m-offsets", "2,2", "m offset 2")],
    )
    def test_repeated_schedule_entry_exits_two(self, capsys, flag, value, token):
        # each cell of a repeated entry would run twice and print its row twice
        argv = ["omega-study", "--n", "1", "--q-schedule", "0.3", "--m-offsets", "2"] + [flag, value]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert token in err


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
            ["lambda", "--zeros", "0.5", "--tolerance", "inf"],
            ["apply", "--zeros", "0.999999", "--h", "1;0.5", "--z", "0.2", "--method", "contour", "--tolerance", "inf"],
        ],
    )
    def test_nan_input_exits_two(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestMalformedFiles:
    """A file entry that is not an [re, im] pair is invalid input, not a traceback."""

    @pytest.mark.parametrize("entries", [[[0.5, 0.0, 1.0]], [[0.5]], [[0.5, 0.0], [0.25]]])
    @pytest.mark.parametrize("command", ["lambda", "bracket"])
    def test_zeros_file_entry_exits_two(self, capsys, tmp_path, command, entries):
        zf = tmp_path / "zeros.json"
        zf.write_text(json.dumps(entries))
        code, out, err = run_main(capsys, [command, "--zeros-file", str(zf)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("key, entries", [("nodes", [[0.5, 0.0, 1.0]]), ("targets", [[0.5]])])
    def test_problem_file_entry_exits_two(self, capsys, tmp_path, key, entries):
        pf = tmp_path / "problem.json"
        pf.write_text(json.dumps({"nodes": [[0.5, 0.0]], "targets": [[0.25, 0.0]], key: entries}))
        code, out, err = run_main(capsys, ["pick", "--problem-file", str(pf)])
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
