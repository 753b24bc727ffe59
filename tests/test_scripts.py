"""The experiment scripts run end to end on small inputs."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def acceptance_plans():
    """The three acceptance studies as (n, q schedule, m offsets), from the
    PLANS of scripts/run_omega_study.py, their one owner."""
    plans = load_script("run_omega_study").PLANS
    return tuple((n, qs, offsets) for n, (qs, offsets) in sorted(plans.items()))


def test_omega_study_script_writes_one_csv_per_degree(capsys, tmp_path):
    assert load_script("run_omega_study").main(["--degrees", "1", "--out-dir", str(tmp_path)]) == 0
    header = (tmp_path / "omega_study_n1.csv").read_text().splitlines()[0]
    assert header == "n,xi_re,xi_im,q,m,lower,upper,ideal_limit,interp_norm,warnings"
    assert capsys.readouterr().out.startswith("n=1: bracket [")


def test_lambda_survey_script_prints_every_panel(capsys):
    assert load_script("lambda_survey").main(["--tolerance", "1e-8", "--products", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("closed=") == 10
    assert out.count("cap=") == 2
