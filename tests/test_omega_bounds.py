"""Ray configurations, lower-bound certificates, and convergence studies."""

import cmath
import math

import numpy as np
import pytest

from toeplitz_bounds import (
    BlaschkeProduct,
    InvalidConfiguration,
    RayConfiguration,
    bracket_norm,
    certify_lower_bound,
    closed_form_functional,
    ideal_limit,
    lemma1_upper_bound,
    omega_convergence_study,
    study_to_csv,
    study_to_json,
)
from toeplitz_bounds import omega_bounds, toeplitz_op
from toeplitz_bounds.omega_bounds import PROBE_DEFICIT_FLOOR

from test_scripts import acceptance_plans


def mild_config(xi=1.0, q=0.1, n=1, m=8):
    return RayConfiguration(xi=xi, q=q, n=n, m=m)


@pytest.fixture(scope="module")
def small_study():
    return omega_convergence_study(1, 1.0, q_schedule=(0.3, 0.1), m_offsets=(2, 16))


class TestConfiguration:
    def test_parameter_validation(self):
        with pytest.raises(InvalidConfiguration):
            RayConfiguration(xi=1.0, q=1.5, n=1, m=3)
        with pytest.raises(InvalidConfiguration):
            RayConfiguration(xi=1.0, q=0.5, n=0, m=3)
        with pytest.raises(InvalidConfiguration):
            RayConfiguration(xi=1.0, q=0.5, n=2, m=2)

    def test_eps_is_not_a_field(self):
        # the zeros lie in E_xi for every eps <= 1 - q, so a ray takes no eps
        with pytest.raises(TypeError):
            RayConfiguration(xi=1.0, q=0.5, n=1, m=3, eps=0.2)
        assert RayConfiguration(xi=1.0, q=0.3, n=1, m=3).to_dict()["eps"] == 0.5 * (1.0 - 0.3)

    def test_zeros_and_probe_lie_on_the_ray(self):
        cfg = RayConfiguration(xi=1j, q=0.5, n=2, m=4)
        assert np.allclose(cfg.zeros(), (0.5j, 0.75j))
        assert cfg.probe() == pytest.approx(0.9375j)

    def test_probe_below_the_deficit_floor_is_rejected(self):
        with pytest.raises(InvalidConfiguration):
            RayConfiguration(xi=1.0, q=0.1, n=1, m=20)
        assert 0.1**12 >= PROBE_DEFICIT_FLOOR

    def test_parameters_are_normalised(self):
        cfg = RayConfiguration(xi=1.0, q=np.float64(0.5), n=np.int64(1), m=3)
        assert [type(v) for v in (cfg.q, cfg.n, cfg.m)] == [float, int, int]

    def test_integral_floats_are_normalised_and_fractions_rejected(self):
        cfg = RayConfiguration(xi=1.0, q=0.5, n=2.0, m=np.float64(5.0))
        assert (cfg.n, cfg.m) == (2, 5) and [type(cfg.n), type(cfg.m)] == [int, int]
        for n, m in ((1.9, 3.7), (1.9, 4), (1, 3.7), ("1", 3), (True, 3), (1, math.inf)):
            with pytest.raises(InvalidConfiguration):
                RayConfiguration(xi=1.0, q=0.5, n=n, m=m)


class TestTargets:
    def test_single_zero_target_is_exactly_minus_xi(self):
        prob = RayConfiguration(xi=1.0, q=0.5, n=1, m=3).problem()
        assert prob.targets[0] == -1.0

    def test_probe_target_closed_form(self):
        # (d1 - dm) / (d1 + dm - d1 dm) = (1/2 - 1/8) / (1/2 + 1/8 - 1/16)
        prob = RayConfiguration(xi=1.0, q=0.5, n=1, m=3).problem()
        assert prob.targets[1] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_symbol_zeros_match_the_configuration(self):
        symbol = RayConfiguration(xi=1.0, q=0.5, n=2, m=4).symbol()
        assert symbol.zeros == ((0.5 + 0j), (0.75 + 0j))

    def test_targets_never_exceed_unit_modulus(self):
        for q in (0.5, 0.2, 0.05):
            for n in (1, 2, 3):
                for m in (n + 1, n + 4):
                    if q**m < PROBE_DEFICIT_FLOOR:
                        continue
                    prob = RayConfiguration(xi=np.exp(0.7j), q=q, n=n, m=m).problem()
                    assert max(abs(y) for y in prob.targets) <= 1.0 + 1e-10


class TestFunctionalValue:
    def test_closed_form_is_exact_for_dyadic_deficits(self):
        cfg = RayConfiguration(xi=1.0, q=0.5, n=1, m=3)
        assert closed_form_functional(cfg) == 3.0

    def test_value_decreases_toward_the_ideal_limit(self):
        values = [
            closed_form_functional(RayConfiguration(xi=1.0, q=0.5, n=1, m=m))
            for m in range(2, 9)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > ideal_limit(1, 0.5) for v in values)

    def test_residue_evaluation_agrees_with_the_closed_form(self):
        cfg = mild_config()
        cert = certify_lower_bound(cfg)
        assert abs(cert.functional_value - closed_form_functional(cfg)) <= 1e-7 * (
            1.0 + abs(cert.functional_value)
        )
        assert not any("deviates" in w for w in cert.warnings)

    def test_ideal_limit_closed_form(self):
        assert ideal_limit(1, 0.5) == 2.5
        assert ideal_limit(2, 0.25) == 4.6875
        assert ideal_limit(3, 0.1) == pytest.approx(7.0 - 0.111, abs=1e-12)


class TestCertificates:
    def test_mild_certificate_value_window(self):
        cert = certify_lower_bound(mild_config())
        assert 2.5 <= cert.certified <= ideal_limit(1, 0.1) + 1e-6
        assert cert.certified == pytest.approx(2.898210437722819, abs=1e-9)
        assert cert.warnings == ()

    def test_certified_never_exceeds_the_ideal_limit(self):
        for q, n in ((0.3, 1), (0.1, 1), (0.3, 2), (0.1, 2)):
            cert = certify_lower_bound(RayConfiguration(xi=1.0, q=q, n=n, m=n + 4))
            assert cert.certified <= ideal_limit(n, q) + 1e-6

    def test_rotating_the_ray_does_not_change_the_bound(self):
        c1 = certify_lower_bound(mild_config(xi=1.0))
        ci = certify_lower_bound(mild_config(xi=1j))
        assert abs(c1.certified - ci.certified) < 1e-8

    @pytest.mark.parametrize(
        "n, q_schedule, m_offsets", [pytest.param(*plan, id=f"n{plan[0]}") for plan in acceptance_plans()]
    )
    def test_certificates_take_no_boundary_sample(self, monkeypatch, n, q_schedule, m_offsets):
        # each certificate divides by the level, so none needs the sampled norm
        def no_sample(self):
            raise AssertionError("a certificate sampled the interpolant's boundary")

        monkeypatch.setattr(toeplitz_op.RationalFunction, "sup_norm", no_sample)
        study = omega_convergence_study(n, cmath.exp(0.7j), q_schedule=q_schedule, m_offsets=m_offsets)
        assert any(row.certificate is not None for row in study.rows)

    def test_certificate_dict_shape(self):
        d = certify_lower_bound(mild_config()).to_dict()
        assert set(d) == {
            "configuration",
            "functional_value",
            "interpolant_norm",
            "certified",
            "ideal_limit",
            "level",
            "warnings",
        }


class TestBracket:
    def test_degree_zero_brackets_at_one(self):
        br = bracket_norm(BlaschkeProduct(zeros=()))
        assert (br.lower, br.upper) == (1.0, 1.0)

    def test_without_configuration_lower_falls_back_to_one(self):
        br = bracket_norm(BlaschkeProduct(zeros=(0.5,)))
        assert br.lower == 1.0
        assert br.upper > 1.0

    def test_bracket_takes_the_best_probe_in_the_schedule(self):
        cfg = RayConfiguration(xi=1.0, q=0.5, n=1, m=3)
        br = bracket_norm(cfg, m_offsets=(2, 4))
        per_m = [
            certify_lower_bound(RayConfiguration(xi=1.0, q=0.5, n=1, m=m)).certified
            for m in (3, 5)
        ]
        assert br.lower == pytest.approx(max(per_m), rel=1e-12)
        assert br.lower <= br.upper + 1e-6

    def test_a_repeated_offset_is_rejected_as_in_the_study(self):
        ray = RayConfiguration(xi=1.0, q=0.1, n=1, m=3)
        with pytest.raises(InvalidConfiguration, match="m offset 4 appears more than once"):
            bracket_norm(ray, (4, 4))

    def test_ray_bracket_is_the_study_of_its_one_q(self):
        cfg = RayConfiguration(xi=1j, q=0.3, n=1, m=3)
        br = bracket_norm(cfg, m_offsets=(8, 2))
        best = omega_convergence_study(1, 1j, q_schedule=(0.3,), m_offsets=(2, 8)).best
        assert (br.lower, br.upper, br.lower_provenance) == (best.lower, best.upper, best.lower_provenance)
        assert br.upper == lemma1_upper_bound(cfg.symbol())
        assert br.upper_provenance == "1 + oscillation functional + quadrature error"


class TestStudy:
    def test_rows_follow_the_schedule_order(self, small_study):
        assert [(r.q, r.m) for r in small_study.rows] == [
            (0.3, 3),
            (0.3, 17),
            (0.1, 3),
            (0.1, 17),
        ]

    def test_unrepresentable_probe_rows_are_marked_not_dropped(self, small_study):
        nan_row = small_study.rows[3]
        assert 0.1**17 < PROBE_DEFICIT_FLOOR
        assert math.isnan(nan_row.lower)
        assert any("floor" in w for w in nan_row.warnings)
        assert not math.isnan(nan_row.upper)

    def test_best_bracket_aggregates_the_rows(self, small_study):
        finite = [r.lower for r in small_study.rows if not math.isnan(r.lower)]
        assert small_study.best.lower == max(finite)
        assert small_study.best.upper == max(r.upper for r in small_study.rows)
        assert small_study.best.lower <= small_study.best.upper + 1e-6

    def test_thread_pool_reproduces_serial_rows(self, small_study):
        threaded = omega_convergence_study(
            1, 1.0, q_schedule=(0.3, 0.1), m_offsets=(2, 16), threads=2
        )
        for a, b in zip(small_study.rows, threaded.rows):
            assert (a.q, a.m) == (b.q, b.m)
            assert (a.lower == b.lower) or (math.isnan(a.lower) and math.isnan(b.lower))
            assert a.upper == b.upper

    def test_csv_header_and_determinism(self, small_study):
        text = study_to_csv(small_study)
        assert text.splitlines()[0] == "n,xi_re,xi_im,q,m,lower,upper,ideal_limit,interp_norm,warnings"
        assert text == study_to_csv(small_study)
        assert "nan" in text

    def test_json_round_trips_through_the_standard_parser(self, small_study):
        import json

        payload = json.loads(study_to_json(small_study))
        assert len(payload["rows"]) == 4
        assert payload["rows"][3]["lower"] is None
        assert payload["best"]["lower"] == small_study.best.lower

    def test_empty_schedules_are_rejected(self):
        with pytest.raises(InvalidConfiguration):
            omega_convergence_study(1, 1.0, q_schedule=())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, q_schedule=(0.3, 1.5)),
            dict(n=1, q_schedule=(0.3, 0.0)),
            dict(n=1, q_schedule=(0.3, -0.2)),
            dict(n=1, q_schedule=(0.3, math.nan)),
            dict(n=3, q_schedule=(0.005, 0.002, 0.001), m_offsets=(0,)),
            dict(n=0),
            dict(n=1, q_schedule=(0.3,), m_offsets=(2.5,)),
            dict(n=1, q_schedule=(0.001,), m_offsets=(2, 20.5)),
            dict(n=1.5, q_schedule=(0.3,)),
            dict(n=1, q_schedule=(0.01, 0.02), m_offsets=(10, 12)),
            dict(n=1, q_schedule=(0.3, 0.3), m_offsets=(2,)),
            dict(n=1, q_schedule=(0.3,), m_offsets=(2, 2)),
        ],
        ids=["1.5", "0.0", "-0.2", "nan", "m-equal-to-n", "n-zero", "fractional-offset",
             "fractional-offset-below-the-floor", "fractional-n", "no-cell-above-the-floor", "repeated-q",
             "repeated-offset"],
    )
    def test_each_q_is_checked_before_any_upper_bound(self, monkeypatch, kwargs):
        # each q, and the configuration of each cell above the deficit floor
        def no_upper_bound(*args):
            raise AssertionError("upper bound computed for an invalid schedule")

        monkeypatch.setattr(omega_bounds, "lemma1_upper_bound", no_upper_bound)
        with pytest.raises(InvalidConfiguration):
            omega_convergence_study(xi=1.0, **kwargs)
