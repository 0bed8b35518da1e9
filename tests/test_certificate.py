"""Constant formulas, data radius and hypothesis verdicts."""
import math

import numpy as np
import pytest

from kirchhofflab import (
    GevreyParams,
    ModeBasis,
    RangeOverflowError,
    check_hypotheses,
    data_radius,
    eta0,
    k0_constant,
    q_from_s,
)


def basis(n=4):
    return ModeBasis.interval_dirichlet(n)


class TestQFromS:
    def test_reference_value(self):
        assert q_from_s(2.0) == pytest.approx(1.5, rel=1e-15)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            q_from_s(1.0)
        with pytest.raises(ValueError):
            q_from_s(0.5)

    def test_large_s_limit(self):
        assert q_from_s(1000.0) == pytest.approx(1.001, rel=1e-12)
        s_values = [1.5, 2.0, 5.0, 50.0]
        qs = [q_from_s(s) for s in s_values]
        assert all(1.0 < q < 2.0 for q in qs)
        assert all(qs[i + 1] < qs[i] for i in range(len(qs) - 1))


class TestEta0:
    def test_zero_radius_leaves_only_quadratic_term(self):
        for m, t, s in ((2.5, 1.0, 2.0), (3.0, 0.5, 1.5), (4.0, 2.0, 3.0)):
            assert eta0(m, 0.0, t, s) == pytest.approx(4.0 * m * m, rel=1e-15)

    def test_reference_value(self):
        # 2*2*9*e^36*1*1 + 36 = 36 e^36 + 36
        expected = 36.0 * math.exp(36.0) + 36.0
        assert eta0(3.0, 1.0, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)
        assert eta0(3.0, 1.0, 1.0, 2.0) == pytest.approx(1.5520433569614704e17, rel=1e-12)

    def test_identity_with_slope_scale(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            M = float(rng.uniform(2.0, 5.0))
            R = float(rng.uniform(0.0, 10.0))
            T = float(rng.uniform(0.05, 3.0))
            s = float(rng.uniform(1.01, 5.0))
            left = eta0(M, R, T, s)
            right = 2.0 * s * k0_constant(M, R, T, q_from_s(s)) + 4.0 * M * M
            assert left == pytest.approx(right, rel=1e-12)

    def test_overflow_reports_log_value(self):
        with pytest.raises(RangeOverflowError) as err:
            eta0(14.0, 1.0, 1.0, 2.0)
        assert err.value.log_value == pytest.approx(4.0 * 14.0**2, rel=0.01)

    def test_monotone_in_each_argument(self):
        base = dict(M=2.5, R=1.0, T=1.0, s=2.0)
        v0 = eta0(**base)
        assert eta0(3.0, base["R"], base["T"], base["s"]) > v0
        assert eta0(base["M"], 2.0, base["T"], base["s"]) > v0
        assert eta0(base["M"], base["R"], 2.0, base["s"]) > v0


class TestDataRadius:
    def test_zero_data(self):
        gp = GevreyParams(2.0, 1.0)
        assert data_radius(np.zeros(4), np.zeros(4), basis(), gp) == 0.0

    def test_position_single_mode(self):
        a, eta = 0.25, 1.7
        gp = GevreyParams(2.0, eta)
        got = data_radius([a, 0, 0, 0], np.zeros(4), basis(), gp)
        assert got == pytest.approx(math.exp(eta) * a**2, rel=1e-13)

    def test_velocity_single_mode(self):
        # mode mu = 2 at eta = 1, s = 2: weight e^(sqrt 2), order-1/2 factor mu = 2
        b = 0.4
        gp = GevreyParams(2.0, 1.0)
        got = data_radius(np.zeros(4), [0, b, 0, 0], basis(), gp)
        assert got == pytest.approx(math.exp(math.sqrt(2.0)) * 2.0 * b**2, rel=1e-13)


class TestCheckHypotheses:
    def test_zero_data_minimal_constants(self):
        cert = check_hypotheses(np.zeros(4), np.zeros(4), basis(), s=2.0, eta=17.0, T=1.0)
        assert cert.H0 == 0.0 and cert.R == 0.0 and cert.K0 == 0.0
        assert cert.M == pytest.approx(2.0 * (1.0 + 1e-6), rel=1e-15)
        assert cert.eta0 == pytest.approx(4.0 * cert.M**2, rel=1e-15)
        assert cert.passed and cert.machine_verdict() == "PASS"

    def test_zero_data_radius_verdict_boundary(self):
        # eta0 is slightly above 16; eta = 16 must fail, eta just above passes
        cert = check_hypotheses(np.zeros(4), np.zeros(4), basis(), s=2.0, eta=16.0, T=1.0)
        assert not cert.passed
        assert cert.machine_verdict() == "FAIL eta>eta0"
        cert2 = check_hypotheses(np.zeros(4), np.zeros(4), basis(), s=2.0, eta=16.1, T=1.0)
        assert cert2.passed

    def test_single_mode_energy_margin(self):
        a = 0.1
        cert = check_hypotheses([a, 0, 0, 0], np.zeros(4), basis(), s=2.0, eta=2.0, T=1.0)
        h0 = a**2 / 2 + a**4 / 4
        assert cert.H0 == pytest.approx(h0, rel=1e-14)
        margin = next(v for v in cert.verdicts if v.code == "2H0<M^2/4-1").margin
        assert margin == pytest.approx(cert.M**2 / 4.0 - 1.0 - 2.0 * h0, rel=1e-12)

    def test_forced_small_M_fails_energy_gap(self):
        cert = check_hypotheses(
            [1.0, 0, 0, 0], np.zeros(4), basis(), s=2.0, eta=5.0, T=1.0, M_choice=2.01
        )
        verdict = next(v for v in cert.verdicts if v.code == "2H0<M^2/4-1")
        assert not verdict.passed and verdict.margin < 0.0
        assert "2H0<M^2/4-1" in cert.machine_verdict()

    def test_eta_prime_sign_matches_radius_verdict(self):
        for eta in (2.0, 17.0, 30.0):
            cert = check_hypotheses([1e-8, 0, 0, 0], np.zeros(4), basis(), s=2.0, eta=eta, T=1.0)
            verdict = next(v for v in cert.verdicts if v.code == "eta>eta0")
            assert verdict.passed == (cert.eta_prime > 0.0)
            assert cert.eta_prime == cert.eta - cert.eta0

    def test_certificate_identity_its_own_constants(self):
        cert = check_hypotheses([1e-8, 0, 0, 0], np.zeros(4), basis(), s=2.0, eta=17.0, T=1.0)
        assert cert.q == pytest.approx(1.0 + 1.0 / cert.s, rel=1e-15)
        assert cert.eta0 == pytest.approx(2.0 * cert.s * cert.K0 + 4.0 * cert.M**2, rel=1e-14)

    def test_huge_M_choice_stores_log_scale(self):
        cert = check_hypotheses(
            [0.1, 0, 0, 0], np.zeros(4), basis(), s=2.0, eta=5.0, T=1.0, M_choice=20.0
        )
        assert math.isinf(cert.K0) and math.isinf(cert.eta0)
        assert math.isfinite(cert.log_K0) and math.isfinite(cert.log_eta0)
        assert cert.eta_prime == -math.inf
        assert not cert.passed

    def test_tiny_M_choice_keeps_log_eta0_finite(self):
        # 4*M^2 underflows to 0: log eta0 comes from log(2M)
        M, s = 1e-200, 2.0
        u0 = np.array([0.1, 0.0, 0.0, 0.0])
        cert = check_hypotheses(u0, np.zeros(4), basis(), s=s, eta=5.0, T=1.0, M_choice=M)
        assert cert.K0 == 0.0 and cert.eta0 == 0.0
        expected = 2.0 * math.log(M) + math.log(2.0 * s * cert.R + 4.0)
        assert cert.log_eta0 == pytest.approx(expected, rel=1e-12)
        assert cert.machine_verdict() == "FAIL M>2,2H0<M^2/4-1"

    def test_data_shrinkage_preserves_pass(self):
        u0 = np.array([1e-8, 0.0, 0.0, 0.0])
        cert = check_hypotheses(u0, np.zeros(4), basis(), s=2.0, eta=17.0, T=1.0)
        assert cert.passed
        for alpha in (0.5, 0.1, 0.01):
            shrunk = check_hypotheses(
                alpha * u0, np.zeros(4), basis(), s=2.0, eta=17.0, T=1.0, M_choice=cert.M
            )
            assert shrunk.passed
            assert shrunk.R <= cert.R and shrunk.H0 <= cert.H0

    def test_as_dict_round_trips_verdicts(self):
        cert = check_hypotheses(np.zeros(2), np.zeros(2), basis(2), s=2.0, eta=17.0, T=1.0)
        d = cert.as_dict()
        assert d["machine_verdict"] == "PASS"
        assert [v["code"] for v in d["verdicts"]] == ["M>2", "2H0<M^2/4-1", "eta>eta0"]
