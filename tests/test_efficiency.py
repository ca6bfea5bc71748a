"""Energy-efficiency objective: hand values, budget closure, monotonicity."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mimo_ee.efficiency import EfficiencyRangeError, evaluate_efficiency
from mimo_ee.link import AntennaConfig, Detector, InfeasibleError
from mimo_ee.units import SystemParams

MRC, ZF = Detector.MRC, Detector.ZF


def _theta(R=4.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0):
    return SystemParams(R=R, alpha=alpha, rho_r=rho_r, rho_d=rho_d, rho_s=rho_s)


class TestHandValues:
    def test_all_circuit_powers_zero(self):
        rep = evaluate_efficiency(AntennaConfig(M=2, K=1),
                                  _theta(R=1.0, rho_r=0, rho_d=0, rho_s=0), MRC)
        # gamma = 1, so the only power is the PA term alpha*1*1 = 2
        assert rep.zeta == 0.5
        assert rep.pa_fraction == 1.0

    def test_mrc_two_user_breakdown(self):
        rep = evaluate_efficiency(AntennaConfig(M=8, K=2), _theta(), MRC)
        assert rep.power_pa == pytest.approx(3.0, rel=1e-15)       # 2*2*0.75
        assert rep.power_bs_antennas == 8.0
        assert rep.power_user_circuits == 2.0
        assert rep.power_residual == 1.0
        assert rep.zeta == pytest.approx(4.0 / 14.0, rel=1e-15)
        assert rep.pa_fraction == pytest.approx(3.0 / 14.0, rel=1e-15)

    def test_zf_same_design_does_better(self):
        mrc = evaluate_efficiency(AntennaConfig(M=8, K=2), _theta(), MRC)
        zf = evaluate_efficiency(AntennaConfig(M=8, K=2), _theta(), ZF)
        assert zf.zeta == pytest.approx(4.0 / 13.0, rel=1e-15)
        assert zf.zeta > mrc.zeta

    def test_infeasible_propagates(self):
        with pytest.raises(InfeasibleError):
            evaluate_efficiency(AntennaConfig(M=4, K=2), _theta(), MRC)


class TestRangeGuard:
    def test_subnormal_zeta_rejected(self):
        theta = _theta(R=1.0, rho_r=1.0, rho_d=0.0, rho_s=1e308)
        with pytest.raises(EfficiencyRangeError):
            evaluate_efficiency(AntennaConfig(M=2, K=1), theta, MRC)

    def test_overflowing_total_rejected(self):
        theta = _theta(R=1.0, rho_r=1e308, rho_d=0.0, rho_s=1e308)
        with pytest.raises(EfficiencyRangeError):
            evaluate_efficiency(AntennaConfig(M=2, K=1), theta, MRC)


def _feasible_case(draw_m_extra, k, per_user, det):
    rate = per_user * k
    e = 2.0 ** per_user - 1.0
    # clamp to k so ZF's M > K holds even below one bit per user
    m = max(math.ceil(1 + (k - 1) * e), k) + draw_m_extra
    return AntennaConfig(M=m, K=k), rate


class TestInvariants:
    @settings(max_examples=150)
    @given(det=st.sampled_from([MRC, ZF]), k=st.integers(1, 30),
           extra=st.integers(1, 100), per_user=st.floats(0.1, 8.0),
           alpha=st.floats(1.01, 5.0), rho_r=st.floats(1e-3, 1e3),
           rho_d=st.floats(0, 1e3), rho_s=st.floats(0, 1e3))
    def test_budget_closure(self, det, k, extra, per_user, alpha, rho_r,
                            rho_d, rho_s):
        cfg, rate = _feasible_case(extra, k, per_user, det)
        theta = SystemParams(R=rate, alpha=alpha, rho_r=rho_r, rho_d=rho_d,
                             rho_s=rho_s)
        rep = evaluate_efficiency(cfg, theta, det)
        assert rep.total_power == pytest.approx(rate / rep.zeta, rel=1e-12)
        assert 0 < rep.pa_fraction <= 1
        assert rep.power_pa > 0

    @pytest.mark.parametrize("bump", ["rho_r", "rho_d", "rho_s"])
    def test_zeta_strictly_decreases_in_each_circuit_power(self, bump):
        base = dict(R=6.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0)
        lo = evaluate_efficiency(AntennaConfig(M=12, K=3),
                                 SystemParams(**base), MRC).zeta
        base[bump] *= 2.0
        hi = evaluate_efficiency(AntennaConfig(M=12, K=3),
                                 SystemParams(**base), MRC).zeta
        assert hi < lo

    @given(k=st.integers(2, 20), extra=st.integers(1, 80),
           per_user=st.floats(1.0, 6.0))
    def test_zf_at_least_as_efficient_for_per_user_rate_above_one(
            self, k, extra, per_user):
        cfg, rate = _feasible_case(extra, k, per_user, ZF)
        theta = SystemParams(R=rate, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0)
        assert evaluate_efficiency(cfg, theta, ZF).zeta >= \
            evaluate_efficiency(cfg, theta, MRC).zeta


def _pa_fraction(cfg, theta):
    return evaluate_efficiency(cfg, theta, MRC).pa_fraction


class TestPaFraction:
    def test_equals_report_field(self):
        rep = evaluate_efficiency(AntennaConfig(M=8, K=2), _theta(), MRC)
        assert rep.pa_fraction == rep.power_pa / rep.total_power

    def test_only_pa_power_gives_one(self):
        theta = _theta(R=2.0, rho_r=0.0, rho_d=0.0, rho_s=0.0)
        assert _pa_fraction(AntennaConfig(M=4, K=1), theta) == 1.0

    def test_doubling_residual_power_shrinks_fraction(self):
        a = _pa_fraction(AntennaConfig(M=8, K=2), _theta(rho_s=1.0))
        b = _pa_fraction(AntennaConfig(M=8, K=2), _theta(rho_s=2.0))
        assert b < a
