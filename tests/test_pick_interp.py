"""Minimal level, and constructive interpolation as the feasibility test."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from toeplitz_bounds import (
    BlaschkeProduct,
    InterpolationProblem,
    InvalidConfiguration,
    NotStrictlyFeasible,
    RayConfiguration,
    construct_interpolant,
    minimal_level,
    boundary_values,
)
from toeplitz_bounds import disk_core, pick_interp, toeplitz_op
from toeplitz_bounds.omega_bounds import SLACK_LADDER

from test_scripts import acceptance_plans

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def random_problem(rng, max_nodes=6):
    n = int(rng.integers(1, max_nodes + 1))
    nodes = tuple(0.8 * rng.uniform(0.05, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
    targets = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return InterpolationProblem(nodes=nodes, targets=targets)


def panel_problem(rng):
    """2-7 nodes uniform in angle and in radius below 0.95, complex Gaussian targets."""
    n = int(rng.integers(2, 8))
    nodes = tuple(rng.uniform(0.0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
    targets = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
    return InterpolationProblem(nodes=nodes, targets=targets)


def benchmark_problem(seed, round_index, k):
    """Problem k of a pick_panel benchmark round, drawn as PickPanel.make_round
    draws it: ten problems of each size 2..7 from default_rng([seed, 0, round])."""
    rng = np.random.default_rng([seed, 0, round_index])
    for size in range(2, 8):
        for _ in range(10):
            nodes = rng.uniform(0.0, 0.95, size) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size))
            targets = rng.normal(size=size) + 1j * rng.normal(size=size)
            if k == 0:
                return InterpolationProblem(nodes=tuple(nodes), targets=tuple(targets))
            k -= 1
    raise IndexError("a round holds 60 problems")


def near_circle_problem(rng, n):
    """n nodes with deficits log-uniform down to 1e-11, the first at 1 - 1e-11."""
    deficits = 10.0 ** rng.uniform(-11.0, 0.0, n)
    deficits[0] = 1e-11
    nodes = (1.0 - deficits) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    targets = rng.normal(size=n) + 1j * rng.normal(size=n)
    return InterpolationProblem(nodes=tuple(nodes), targets=tuple(targets))


def near_circle_level(n):
    """A near_circle_problem of n nodes and a level 1e-3 above its minimal one."""
    p = near_circle_problem(np.random.default_rng(103 + n), n)
    return p, minimal_level(p) * (1 + 1e-3)


def per_level_chain(x, gammas, mu):
    """The boundary chain as it was with one boundary_values call, and so one
    half-angle sweep, per Schur level, inline."""
    factors = [BlaschkeProduct((complex(a),)) for a in x[:-1]]
    g = gammas.astype(complex)

    def evaluate(theta):
        f = np.full(np.shape(theta), g[-1])
        for j in range(len(factors) - 1, -1, -1):
            bf = boundary_values(factors[j], theta) * f
            f = (bf + g[j]) / (1.0 + np.conj(g[j]) * bf)
        return mu * f

    return evaluate


def reference_sup_norm(h, samples=4096, peaks=8):
    """The earlier sup_norm: a sweep through the interpolant's clongdouble chain
    evaluator, then golden-section refinement of each top peak over one grid
    step either side, to brackets narrower than 1e-13, all brackets batched."""
    theta = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    mags = np.abs(h(np.exp(1j * theta)))
    chosen = []
    for k in np.argsort(mags)[::-1]:
        if len(chosen) >= peaks:
            break
        if all(min(abs(k - c), samples - abs(k - c)) > 2 for c in chosen):
            chosen.append(int(k))

    def modulus(t):
        return np.abs(h(np.exp(1j * t)))

    lo = theta[chosen] - 2.0 * math.pi / samples
    hi = theta[chosen] + 2.0 * math.pi / samples
    x1, x2 = hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo)
    f1, f2 = modulus(x1), modulus(x2)
    for _ in range(80):
        active = ~(hi - lo < 1e-13)
        if not active.any():
            break
        up, down = active & (f1 < f2), active & ~(f1 < f2)
        x_new = np.where(up, x1 + INVPHI * (hi - x1), x2 - INVPHI * (x2 - lo))
        f_new = modulus(x_new)
        lo, hi = np.where(up, x1, lo), np.where(down, x2, hi)
        x1, x2, f1, f2 = (
            np.where(up, x2, np.where(down, x_new, x1)),
            np.where(up, x_new, np.where(down, x1, x2)),
            np.where(up, f2, np.where(down, f_new, f1)),
            np.where(up, f_new, np.where(down, f1, f2)),
        )
    return max(float(np.max(mags)), float(np.max(np.maximum(f1, f2))))


def acceptance_certificates():
    """Interpolants of every cell of the three acceptance plans, on one ray."""
    certs = []
    for n, qs, offsets in acceptance_plans():
        for q in qs:
            for off in offsets:
                if q ** (n + off) < 1e-12:
                    continue
                problem = RayConfiguration(np.exp(0.7j), q, n, n + off).problem()
                mu = minimal_level(problem)
                for slack in SLACK_LADDER:
                    try:
                        certs.append(construct_interpolant(problem, mu * (1 + slack)))
                        break
                    except NotStrictlyFeasible:
                        continue
    return certs


def construct_with_slack(problem, mu):
    # ill-conditioned random instances need more headroom above the minimal
    # level; walk the same ladder the bound certification uses
    for slack in SLACK_LADDER:
        try:
            return construct_interpolant(problem, mu * (1 + slack))
        except NotStrictlyFeasible:
            continue
    raise AssertionError("no slack rung was strictly feasible")


class TestProblemValidation:
    def test_rejects_empty_and_mismatched_data(self):
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem(nodes=(), targets=())
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem(nodes=(0.1, 0.2), targets=(0.3,))

    def test_rejects_nodes_outside_the_open_disk(self):
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem(nodes=(1.0,), targets=(0.5,))
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem(nodes=(0.1, complex("nan")), targets=(0.5, 0.2))

    def test_rejects_coincident_nodes(self):
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem(nodes=(0.5, 0.5), targets=(0.1, 0.2))

    def test_from_dict(self):
        p = InterpolationProblem(nodes=(0.2, -0.4j), targets=(0.3, 0.1 + 0.2j))
        q = InterpolationProblem.from_dict({"nodes": [[0.2, 0.0], [0.0, -0.4]], "targets": [[0.3, 0.0], [0.1, 0.2]]})
        assert q.nodes == p.nodes
        assert q.targets == p.targets

    @pytest.mark.parametrize("target", [complex("nan"), complex(0.5, float("nan")), complex("inf"), complex(0.0, -1e400)])
    def test_rejects_non_finite_targets(self, target):
        # minimal_level's SVD would otherwise fail with a LinAlgError
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem(nodes=(0.1, 0.5j), targets=(0.3, target))

    @pytest.mark.parametrize(
        "key, entries",
        [("nodes", [[0.2, 0.0, 1.0], [0.5, 0.0]]), ("nodes", [[0.2], [0.5, 0.0]]), ("targets", [[0.3, 0.0], 0.5])],
    )
    def test_from_dict_rejects_entries_that_are_not_pairs(self, key, entries):
        d = {"nodes": [[0.2, 0.0], [0.5, 0.0]], "targets": [[0.3, 0.0], [0.1, 0.2]], key: entries}
        with pytest.raises(InvalidConfiguration):
            InterpolationProblem.from_dict(d)


class TestMinimalLevel:
    def test_one_node_level_is_the_target_modulus(self):
        p = InterpolationProblem(nodes=(0.3,), targets=(0.25,))
        assert minimal_level(p) == 0.25

    def test_zero_target_gives_zero_level(self):
        p = InterpolationProblem(nodes=(0.3,), targets=(0.0,))
        assert minimal_level(p) == 0.0

    def test_two_node_derivative_constraint(self):
        # h(0) = 0 forces |h(x)| <= mu x, so the minimal level is y/x = 1/2
        p = InterpolationProblem(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        assert minimal_level(p) == pytest.approx(0.5, abs=1e-9)

    def test_feasibility_is_monotone_in_the_level(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            p = random_problem(rng)
            mu = minimal_level(p)
            construct_interpolant(p, mu * 1.5)
            with pytest.raises(NotStrictlyFeasible):
                construct_interpolant(p, mu * 0.5)

    def test_level_scales_with_the_targets(self):
        p = InterpolationProblem(
            nodes=(0.2, -0.4j, 0.5 + 0.1j), targets=(0.3, -0.2 + 0.1j, 0.05j)
        )
        mu = minimal_level(p)
        for c in (2.0, 0.25):
            scaled = InterpolationProblem(nodes=p.nodes, targets=tuple(c * y for y in p.targets))
            assert minimal_level(scaled) == pytest.approx(c * mu, rel=1e-12)

    def test_level_ignores_a_common_rotation_of_targets(self):
        p = InterpolationProblem(
            nodes=(0.2, -0.4j, 0.5 + 0.1j), targets=(0.3, -0.2 + 0.1j, 0.05j)
        )
        rotated = InterpolationProblem(
            nodes=p.nodes, targets=tuple(np.exp(0.7j) * y for y in p.targets)
        )
        assert minimal_level(rotated) == pytest.approx(minimal_level(p), rel=1e-12)

    def test_infeasible_below_the_minimal_level(self):
        p = InterpolationProblem(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        construct_interpolant(p, 0.5 * (1 + 1e-6))
        for mu in (0.45, 0.4):
            with pytest.raises(NotStrictlyFeasible):
                construct_interpolant(p, mu)


class TestLevelIsTheBoundary:
    """The reported level separates feasible from infeasible on random problems."""

    PROBLEMS = 200
    SEED = 0

    def test_construction_succeeds_just_above_the_level(self):
        rng = np.random.default_rng(self.SEED)
        refused = []
        for k in range(self.PROBLEMS):
            p = panel_problem(rng)
            try:
                construct_interpolant(p, minimal_level(p) * (1 + 1e-6))
            except NotStrictlyFeasible:
                refused.append(k)
        assert refused == []

    def test_construction_is_refused_just_below_the_level(self):
        rng = np.random.default_rng(self.SEED)
        for _ in range(self.PROBLEMS):
            p = panel_problem(rng)
            with pytest.raises(NotStrictlyFeasible):
                construct_interpolant(p, minimal_level(p) * (1 - 1e-6))


class TestLevelIsTheBoundarySeed1(TestLevelIsTheBoundary):
    """Seed 1 draws kernel matrices of condition 7e12 and 4e13 (problems 29
    and 17), where a double-precision factor misplaces the level."""

    SEED = 1


class TestIllConditionedKernel:
    """Two pick_panel benchmark problems whose 7-node kernel matrices have
    condition about 4e18 and 8e18: a double-precision Cholesky factor
    breaks down on them."""

    @pytest.mark.parametrize("seed, round_index, k", [(803, 214, 58), (820, 44, 57)])
    def test_level_factors_and_the_interpolant_constructs(self, seed, round_index, k):
        p = benchmark_problem(seed, round_index, k)
        mu = minimal_level(p)
        cert = construct_interpolant(p, mu * (1 + 1e-6))
        ymax = max(abs(y) for y in p.targets)
        assert max(cert.residuals) <= 1e-8 * (1.0 + ymax)

    @pytest.mark.parametrize("seed, round_index, k", [(803, 214, 58), (820, 44, 57)])
    def test_infeasible_well_below_the_level(self, seed, round_index, k):
        # the true levels lie within 2.3 % of mu, so 0.9 mu is infeasible
        p = benchmark_problem(seed, round_index, k)
        with pytest.raises(NotStrictlyFeasible):
            construct_interpolant(p, 0.9 * minimal_level(p))


class TestSupNorm:
    """The double-precision sweep with parabolic refinement against the
    clongdouble sweep with golden refinement it replaced."""

    def check(self, certs):
        assert certs
        for cert in certs:
            reference = reference_sup_norm(cert.interpolant)
            assert abs(cert.sup_norm - reference) <= 1e-13 * reference
            assert cert.sup_norm <= cert.level * (1 + 1e-12)

    def test_matches_the_reference_on_panel_problems(self):
        rng = np.random.default_rng(0)
        certs = []
        for _ in range(200):
            p = panel_problem(rng)
            certs.append(construct_interpolant(p, minimal_level(p) * (1 + 1e-6)))
        self.check(certs)

    def test_matches_the_reference_on_acceptance_certificates(self):
        self.check(acceptance_certificates())


def panel_problems_by_size(seed=41):
    """Two panel_problem draws of each node count 2-7, the first two of
    each count that a generator seeded with seed draws."""
    rng = np.random.default_rng(seed)
    by_size = {n: [] for n in range(2, 8)}
    while any(len(problems) < 2 for problems in by_size.values()):
        p = panel_problem(rng)
        if len(by_size[len(p.nodes)]) < 2:
            by_size[len(p.nodes)].append(p)
    return by_size


class TestSupNormBits:
    """float.hex of cert.sup_norm as recorded before the sweep took its trig
    from an import-time table and the refinement ran in Python floats, each
    beside float.hex of cert.level as recorded before minimal_level took the
    2-norm from its own singular value call; the sampled norm and the level
    are not to move by a bit without a reason."""

    PANEL = {
        2: (("0x1.4f975a0ede5a1p+1", "0x1.4f976f641c960p+1"), ("0x1.5afc8dff7d0b1p+2", "0x1.5afca2a26f5a3p+2")),
        3: (("0x1.d8a22f627b9b6p+1", "0x1.d8a237d71ace9p+1"), ("0x1.a8639625cf148p+1", "0x1.a86396d32e0bfp+1")),
        4: (("0x1.d987276f02c23p+4", "0x1.d9872eaa61054p+4"), ("0x1.535fd98356af0p+1", "0x1.535fdb7921712p+1")),
        5: (("0x1.c99f5fb350b9bp+3", "0x1.c99f6ea975a89p+3"), ("0x1.54818b2c41366p+3", "0x1.5481912dd7c66p+3")),
        6: (("0x1.0f14cb5f7b44dp+4", "0x1.0f14ce6f0acc7p+4"), ("0x1.40c30263cce60p+2", "0x1.40c302f082f56p+2")),
        7: (("0x1.f2184b30c5312p+3", "0x1.f2184ceb9b695p+3"), ("0x1.83daaf3069484p+12", "0x1.83dab23d72a51p+12")),
    }
    ILL_CONDITIONED = {
        (803, 214, 58): ("0x1.b59f7edd3aaaap+28", "0x1.b6f7cb61b2460p+28"),
        (820, 44, 57): ("0x1.abcccae229c66p+30", "0x1.b58a031378e11p+30"),
    }
    ACCEPTANCE = (
        ("0x1.a623d6fe66c09p+0", "0x1.a623da8697c56p+0"), ("0x1.2c532b083d1e3p+0", "0x1.2c532b4a801d2p+0"),
        ("0x1.03d68e8963ce5p+0", "0x1.03d68e89dfd30p+0"), ("0x1.0007fe8773a8dp+0", "0x1.0007fe8773aadp+0"),
        ("0x1.6b79d939ebf9ap+0", "0x1.6b79dabfcce59p+0"), ("0x1.13cdba2ff27f6p+0", "0x1.13cdba3d02689p+0"),
        ("0x1.00c72b8d03e68p+0", "0x1.00c72b8d08fb1p+0"), ("0x1.000062450472cp+0", "0x1.000062450472ap+0"),
        ("0x1.346f8381aaeb5p+0", "0x1.346f83dea09bap+0"), ("0x1.0503d7f2fb68fp+0", "0x1.0503d7f3cf5fap+0"),
        ("0x1.000cd76bda794p+0", "0x1.000cd76bda7e8p+0"), ("0x1.19e99491ffb85p+0", "0x1.19e994a873010p+0"),
        ("0x1.0144060891e7cp+0", "0x1.014406089f5bdp+0"), ("0x1.0000dfda127c5p+0", "0x1.0000dfda127c4p+0"),
        ("0x1.4d7a7eb3ce633p+0", "0x1.4d7a7eb5fe2ecp+0"), ("0x1.32e9cf1b7bfb4p+0", "0x1.32e9cf1b7e9c5p+0"),
        ("0x1.35bce6b0d83cap+0", "0x1.35bce6b15bbffp+0"), ("0x1.2417580d340ebp+0", "0x1.2417580d345eep+0"),
        ("0x1.21663c52eba95p+0", "0x1.21663c52ff756p+0"), ("0x1.16dde06264268p+0", "0x1.16dde062642b5p+0"),
        ("0x1.3dc84c79b7c6dp+0", "0x1.3dc84c79b902bp+0"), ("0x1.26548babb2d3ep+0", "0x1.26548babb2e68p+0"),
        ("0x1.1ad6a37dddadfp+0", "0x1.1ad6a37dddb01p+0"),
    )

    @staticmethod
    def bits(cert):
        return cert.sup_norm.hex(), cert.level.hex()

    def certificate_bits(self, p):
        return self.bits(construct_interpolant(p, minimal_level(p) * (1 + 1e-6)))

    def test_panel_problems(self):
        for n, problems in panel_problems_by_size().items():
            assert tuple(self.certificate_bits(p) for p in problems) == self.PANEL[n]

    def test_ill_conditioned_benchmark_problems(self):
        for args, bits in self.ILL_CONDITIONED.items():
            assert self.certificate_bits(benchmark_problem(*args)) == bits

    def test_acceptance_certificates(self):
        assert tuple(self.bits(cert) for cert in acceptance_certificates()) == self.ACCEPTANCE


class TestBoundaryChain:
    """All Schur levels share one half-angle sweep per boundary evaluation."""

    # nodes at the origin, 1e-12 and 1e-7 from the circle, and inside
    EDGE_NODES = (0.0, 1.0 - 1e-12, -(1.0 - 1e-12) * 1j, 0.5, -0.3 + 0.4j, (1.0 - 1e-7) * np.exp(2.5j))
    BEYOND_PI = np.array([-9.5, -2.0 * np.pi, -np.pi, 0.0, 1e-13, np.pi, 4.0, 12.25])
    STENCIL = (np.array([[-0.02], [0.0], [0.02]]) + np.linspace(-3.0, 3.0, 8)).ravel()

    SWEEP = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    ANGLES = {
        "sweep": (SWEEP, None),
        "sweep-table": (SWEEP, toeplitz_op._SUP_HALF),
        "stencil": (STENCIL, None),
        "beyond-pi": (BEYOND_PI, None),
        "one-point": (np.array([0.3]), None),
    }
    EDGE_ANGLES = {**ANGLES, "scalar": (0.3, None)}

    @staticmethod
    def edge_chain():
        """A 17-node chain: the edge nodes and ten with deficits log-uniform
        down to 1e-12, with parameters anywhere in the disk."""
        rng = np.random.default_rng(89)
        deficits = 10.0 ** rng.uniform(-12.0, 0.0, 10)
        x = TestBoundaryChain.EDGE_NODES + tuple((1.0 - deficits) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 10)))
        x += (0.1,)
        gammas = rng.uniform(0.0, 0.999, len(x)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, len(x)))
        return np.array(x, dtype=np.clongdouble), np.array(gammas, dtype=np.clongdouble)

    def test_matches_the_per_level_chain_bit_for_bit(self):
        # the sweep of sup_norm, with and without its import-time trig table,
        # angles beyond +-pi, a fixed 24-point stencil, and a 24-point stencil
        # of 8 centres, half of them at node angles, where the factors turn
        # fastest; a 1-node chain has no factor
        rng = np.random.default_rng(101)
        angles = tuple(self.ANGLES.values())
        for n in range(1, 8):
            for _ in range(3):
                p = near_circle_problem(rng, n)
                mu = 1.5 * minimal_level(p)
                x, gammas = pick_interp._schur_parameters(p.nodes, p.targets, mu)
                shared = toeplitz_op.RationalFunction(x, gammas, mu)._on_circle
                reference = per_level_chain(x, gammas, mu)
                centres = np.concatenate([np.angle(p.nodes[:4]), rng.uniform(-math.pi, math.pi, 8)])[:8]
                width = 2.0 * math.pi / 4096 / 8.0 ** rng.integers(0, 7)
                stencil = np.concatenate([centres - width, centres, centres + width])
                for theta, half in angles + ((stencil, None),):
                    assert np.array_equal(shared(theta, half), reference(theta))

    @pytest.mark.parametrize("angles", list(EDGE_ANGLES))
    def test_edge_nodes_match_the_per_level_chain_bit_for_bit(self, angles):
        # nodes at the origin and within 1e-12 of the circle, at every kind
        # of angle the sweep and the refinement pass; a scalar angle has the
        # bits of a one-point sweep (numpy's scalar arithmetic is not the
        # arrays' fused loop, so the reference takes the raveled angles)
        theta, half = self.EDGE_ANGLES[angles]
        x, gammas = self.edge_chain()
        values = toeplitz_op.RationalFunction(x, gammas, 2.5)._on_circle(theta, half)
        assert np.shape(values) == np.shape(theta)
        assert np.array_equal(np.ravel(values), per_level_chain(x, gammas, 2.5)(np.ravel(theta)))

    def test_with_zero_parameters_the_chain_is_the_blaschke_product(self):
        # f_j = b_j f_{j+1} when gamma_j = 0, so the factors multiply to the
        # Blaschke product of the nodes but the last
        rng = np.random.default_rng(97)
        r = 0.9 * rng.uniform(0.05, 1.0, 5)
        x = np.append(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 5)), 0.1).astype(np.clongdouble)
        gammas = np.zeros(6, dtype=np.clongdouble)
        gammas[-1] = 1.0
        theta = np.linspace(-np.pi, np.pi, 257)
        values = toeplitz_op.RationalFunction(x, gammas, 1.0)._on_circle(theta)
        B = BlaschkeProduct(tuple(complex(a) for a in x[:-1]))
        assert np.max(np.abs(values - boundary_values(B, theta))) < 1e-14

    def test_a_one_node_chain_is_its_constant_on_the_circle(self):
        h = toeplitz_op.RationalFunction((0.3,), (0.2j,), 2.5)
        values = h._on_circle(np.linspace(-np.pi, np.pi, 24))
        assert values.shape == (24,)
        assert np.all(values == 2.5 * 0.2j)
        assert np.shape(h._on_circle(0.3)) == ()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_trig_sweep_per_boundary_evaluation(self, monkeypatch, n):
        # a deterministic work budget whatever the node count; one sweep per
        # Schur level would take n - 1 per evaluation
        sweeps, evaluations = [], []
        cos, on_circle = np.cos, toeplitz_op.RationalFunction._on_circle

        def counting_cos(*args, **kwargs):
            sweeps.append(1)
            return cos(*args, **kwargs)

        def counted(self, theta, *half):
            evaluations.append(1)
            return on_circle(self, theta, *half)

        p, mu = near_circle_level(n)
        monkeypatch.setattr(np, "cos", counting_cos)
        monkeypatch.setattr(toeplitz_op.RationalFunction, "_on_circle", counted)
        construct_interpolant(p, mu)
        assert len(evaluations) >= 1
        assert len(sweeps) <= len(evaluations)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_level_is_put_in_polar_form_once(self, monkeypatch, n):
        # the levels' (gamma, rho) pairs are taken once per interpolant, not
        # once per boundary evaluation: construction's sup_norm evaluates
        # the chain on its sweep and on every refinement stencil, and a
        # second sup_norm takes none
        calls = []
        real = disk_core.zero_polar
        monkeypatch.setattr(disk_core, "zero_polar", lambda a: calls.append(a) or real(a))
        p, mu = near_circle_level(n)
        h = construct_interpolant(p, mu).interpolant
        assert calls == list(p.nodes[:-1])
        h.sup_norm()
        assert calls == list(p.nodes[:-1])

    @pytest.mark.parametrize("n", range(2, 8))
    def test_the_sup_norm_sweep_takes_no_trig(self, monkeypatch, n):
        # the sweep's half-angle pair is a table built at import; only the
        # refinement stencils take theirs, one sin and one cos each
        h = construct_interpolant(*near_circle_level(n)).interpolant
        trig, sizes = [], []
        for name in ("sin", "cos"):
            real = getattr(np, name)

            def counting(x, *args, _name=name, _real=real, **kwargs):
                trig.append((_name, np.size(x)))
                return _real(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        on_circle = toeplitz_op.RationalFunction._on_circle

        def counted(self, theta, *half):
            sizes.append(np.size(theta))
            return on_circle(self, theta, *half)

        monkeypatch.setattr(toeplitz_op.RationalFunction, "_on_circle", counted)
        h.sup_norm()
        stencils = [size for size in sizes if size != toeplitz_op.SUP_SAMPLES]
        assert len(stencils) == len(sizes) - 1
        assert all(size != toeplitz_op.SUP_SAMPLES for _, size in trig)
        for name in ("sin", "cos"):
            assert sum(called == name for called, _ in trig) <= len(stencils)

    def test_the_sweep_memory_does_not_grow_with_the_levels(self):
        # a work budget: the levels share their buffers, so a 7-node chain
        # peaks less than one more sweep-sized complex buffer above a
        # 3-node one; one table row per level would take four more
        def peak(n):
            h = construct_interpolant(*near_circle_level(n)).interpolant
            tracemalloc.start()
            try:
                h._on_circle(toeplitz_op._SUP_THETA, toeplitz_op._SUP_HALF)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(7) - peak(3) < toeplitz_op.SUP_SAMPLES * np.dtype(complex).itemsize


class TestConstruction:
    def test_one_node_interpolant_is_constant(self):
        p = InterpolationProblem(nodes=(0.3,), targets=(0.25,))
        cert = construct_interpolant(p, 0.25 * (1 + 1e-6))
        for z in (0.0, 0.7j, -0.5 + 0.2j):
            assert complex(cert.interpolant(z)) == pytest.approx(0.25, abs=1e-9)

    def test_schwarz_interpolant_is_half_the_coordinate(self):
        p = InterpolationProblem(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        cert = construct_interpolant(p, minimal_level(p) * (1 + 1e-6))
        t = np.linspace(-0.9, 0.9, 21)
        assert np.max(np.abs(cert.interpolant(t) - 0.5 * t)) < 1e-5

    def test_residuals_are_certified_small(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_problem(rng, max_nodes=5)
            mu = minimal_level(p)
            if mu == 0.0:
                continue
            cert = construct_with_slack(p, mu)
            ymax = max(abs(y) for y in p.targets)
            assert max(cert.residuals) <= 1e-8 * (1.0 + ymax)

    def test_sup_norm_stays_at_the_level(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_problem(rng, max_nodes=5)
            mu = minimal_level(p)
            if mu == 0.0:
                continue
            cert = construct_with_slack(p, mu)
            assert cert.sup_norm <= cert.level * (1 + 1e-12)

    def test_without_a_sample_the_certificate_is_otherwise_the_same(self):
        for problems in panel_problems_by_size().values():
            for p in problems:
                mu = minimal_level(p) * (1 + 1e-6)
                sampled = construct_interpolant(p, mu)
                bare = construct_interpolant(p, mu, sample=False)
                assert bare.sup_norm is None
                assert sampled.sup_norm is not None
                # clongdouble values, compared as values: their padding bytes are not data
                for field in ("nodes", "gammas"):
                    a, b = getattr(sampled.interpolant, field), getattr(bare.interpolant, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert (bare.level, bare.residuals, bare.warnings) == (
                    sampled.level, sampled.residuals, sampled.warnings
                )

    def test_exactly_minimal_level_is_rejected(self):
        p = InterpolationProblem(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        with pytest.raises(NotStrictlyFeasible):
            construct_interpolant(p, 0.5)

    def test_clustered_nodes_carry_a_conditioning_warning(self):
        p = InterpolationProblem(nodes=(0.5, 0.5 + 1e-5), targets=(0.1, 0.1))
        cert = construct_interpolant(p, minimal_level(p) * (1 + 1e-4))
        assert any("pseudohyperbolically" in w for w in cert.warnings)

    def test_level_must_be_positive(self):
        p = InterpolationProblem(nodes=(0.3,), targets=(0.25,))
        with pytest.raises(InvalidConfiguration):
            construct_interpolant(p, -1.0)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, -math.inf, 0.0])
    def test_level_must_be_positive_and_finite(self, mu):
        # an infinite level would reach the Schur recursion, whose targets
        # y / mu warn before the interpolant's coefficients are refused
        p = InterpolationProblem(nodes=(0.0, 0.5), targets=(0.0, 0.25))
        with pytest.raises(InvalidConfiguration, match=f"got {mu!r}"):
            construct_interpolant(p, mu)


FAULT_PROBE = """
import resource
import numpy as np
from toeplitz_bounds import InterpolationProblem, construct_interpolant, minimal_level
rng = np.random.default_rng(0)
problems = []
for _ in range(40):
    nodes = rng.uniform(0.0, 0.95, 6) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 6))
    targets = rng.normal(size=6) + 1j * rng.normal(size=6)
    problems.append(InterpolationProblem(nodes=tuple(nodes), targets=tuple(targets)))
for p in problems[:2]:
    construct_interpolant(p, minimal_level(p) * (1 + 1e-6))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for p in problems:
    construct_interpolant(p, minimal_level(p) * (1 + 1e-6))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(problems))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc page faults")
def test_constructions_do_not_fault_heap_pages_back_in():
    # without the package's import-time 8 MB block, each degree-6 construction
    # here takes about 250 minor page faults; with it, under one
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20.0
