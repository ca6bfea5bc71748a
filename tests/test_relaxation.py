"""Continuous relaxation: closed forms, solver quality, oracle agreement."""

import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from mimo_ee import relaxation
from mimo_ee.efficiency import evaluate_efficiency
from mimo_ee.link import (AntennaConfig, Detector, InfeasibleError,
                          _exp2m1, _headroom, _interference, _rate_headroom)
from mimo_ee.relaxation import (_objective_grid, _reduced_power,
                                minimize_relaxed, optimal_m)
from mimo_ee.units import SystemParams

MRC, ZF = Detector.MRC, Detector.ZF


def _theta(R=4.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0):
    return SystemParams(R=R, alpha=alpha, rho_r=rho_r, rho_d=rho_d, rho_s=rho_s)


class TestInnerMinimum:
    """ZF with rho_d = rho_s = 0: _reduced_power is the AM-GM minimum of the
    PA and antenna-surplus terms, 2 sqrt(alpha rho_r k (2^(R/k)-1)), plus
    the k * rho_r the k user-matched antennas draw."""

    def test_hand_values(self):
        assert _reduced_power(1.0, _theta(R=2.0, alpha=3.0, rho_d=0.0,
                                          rho_s=0.0), ZF) == \
            pytest.approx(6.0 + 1.0, rel=1e-15)
        assert _reduced_power(1.0, _theta(R=2.0, alpha=4.0, rho_d=0.0,
                                          rho_s=0.0), ZF) == \
            pytest.approx(2.0 * math.sqrt(12.0) + 1.0, rel=1e-15)
        assert _reduced_power(2.0, _theta(R=4.0, alpha=2.0, rho_d=0.0,
                                          rho_s=0.0), ZF) == \
            pytest.approx(2.0 * math.sqrt(12.0) + 2.0, rel=1e-15)

    def test_matches_numeric_minimization_over_antenna_surplus(self):
        theta = _theta(R=4.0, alpha=2.0, rho_r=1.0, rho_d=0.0, rho_s=0.0)
        k = 2.0
        e = 2.0 ** (theta.R / k) - 1.0
        res = optimize.minimize_scalar(
            lambda t: t * theta.rho_r + theta.alpha * k * e / t,
            bounds=(1e-9, 1e6), method="bounded",
            options={"xatol": 1e-12})
        assert _reduced_power(k, theta, ZF) == \
            pytest.approx(res.fun + k * theta.rho_r, rel=1e-9)

    @settings(max_examples=100)
    @given(k=st.floats(1.0, 200.0), t=st.floats(1e-3, 1e5),
           alpha=st.floats(1.01, 5.0), rho_r=st.floats(1e-3, 1e3),
           rate=st.floats(0.1, 100.0))
    def test_am_gm_lower_bound(self, k, t, alpha, rho_r, rate):
        theta = _theta(R=rate, alpha=alpha, rho_r=rho_r, rho_d=0.0, rho_s=0.0)
        e = 2.0 ** (rate / k) - 1.0
        two_term = t * rho_r + alpha * k * e / t
        assert two_term + k * rho_r >= \
            _reduced_power(k, theta, ZF) * (1.0 - 1e-12)

    def test_equality_at_closed_form_surplus(self):
        theta = _theta(R=6.0, alpha=2.0, rho_r=0.3, rho_d=0.0, rho_s=0.0)
        k = 3.0
        e = 2.0 ** (theta.R / k) - 1.0
        t_star = math.sqrt(theta.alpha * k * e / theta.rho_r)
        two_term = t_star * theta.rho_r + theta.alpha * k * e / t_star
        assert two_term + k * theta.rho_r == \
            pytest.approx(_reduced_power(k, theta, ZF), rel=1e-12)

    def test_rejects_free_antennas(self):
        with pytest.raises(ValueError, match="rho_r"):
            _reduced_power(1.0, _theta(rho_r=0.0), ZF)


class TestReducedPower:
    def test_single_user_last_term_vanishes(self):
        theta = _theta(R=3.0, alpha=2.0, rho_r=0.5, rho_d=0.7, rho_s=0.9)
        expect = (2.0 * math.sqrt(2.0 * 0.5 * (2.0 ** 3 - 1.0))
                  + 0.5 + 0.9 + 0.7)
        assert _reduced_power(1.0, theta, MRC) == pytest.approx(expect, rel=1e-14)

    def test_one_bit_per_user_collapses_exponent(self):
        R = 8.0
        theta = _theta(R=R, alpha=2.0, rho_r=0.5, rho_d=0.7, rho_s=0.9)
        expect = (2.0 * math.sqrt(2.0 * 0.5 * R) + 0.5 + 0.9 + R * 0.7
                  + (R - 1.0) * 0.5)
        assert _reduced_power(R, theta, MRC) == pytest.approx(expect, rel=1e-14)

    def test_two_user_hand_value(self):
        assert _reduced_power(2.0, _theta(), MRC) == \
            pytest.approx(2.0 * math.sqrt(12.0) + 7.0, rel=1e-14)

    def test_zf_form(self):
        theta = _theta(R=4.0)
        expect = 2.0 * math.sqrt(2.0 * 1.0 * 2.0 * 3.0) + 2.0 * 2.0 + 1.0
        assert _reduced_power(2.0, theta, ZF) == pytest.approx(expect, rel=1e-14)

    def test_summation_order_bit_for_bit(self):
        # both detectors sum in one order and differ only in I, (k - 1) e
        # for MRC and k - 1 for ZF; e = 2^(R/k) - 1 is expm1(R ln2 / k), so
        # the relaxed bytes do not move; approx would hide a reordering
        rng = np.random.default_rng(17)
        for _ in range(500):
            R, rho_r, rho_d, rho_s = 10.0 ** rng.uniform(-2, 3, 4)
            theta = _theta(R=R, alpha=rng.uniform(1.01, 4.0), rho_r=rho_r,
                           rho_d=rho_d, rho_s=rho_s)
            k = np.float64(10.0 ** rng.uniform(0, 4))
            e = np.expm1((theta.R * math.log(2.0)) / k)
            h = 2.0 * np.sqrt(theta.alpha * theta.rho_r * k * e)
            for det, interference in ((MRC, (k - 1.0) * e), (ZF, k - 1.0)):
                want = (h + theta.rho_r + theta.rho_s + k * theta.rho_d
                        + theta.rho_r * interference)
                assert _reduced_power(float(k), theta, det) == want

    def test_one_user_is_one_design_for_both_detectors(self):
        # at k = 1 the interference is 0 for both, so both price the same
        # bits, also where 2^R overflows and MRC's (k - 1) e is 0 * inf
        rng = np.random.default_rng(31)
        rates = np.concatenate([10.0 ** rng.uniform(-3, 3, 400),
                                rng.uniform(1024.0, 1e6, 100)])
        for R in rates:
            alpha, rho_r, rho_d, rho_s = 10.0 ** rng.uniform(-2, 2, 4)
            theta = _theta(R=float(R), alpha=1.0 + alpha, rho_r=rho_r,
                           rho_d=rho_d, rho_s=rho_s)
            mrc = _reduced_power(1.0, theta, MRC)
            assert mrc == _reduced_power(1.0, theta, ZF)
            assert math.isinf(mrc) == (R >= 1024.0)

    @staticmethod
    def _decimal_objective(k, theta, det):
        # the same formula at 50 digits, from the exact doubles
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            R, alpha, rho_r, rho_d, rho_s, k = map(decimal.Decimal, (
                theta.R, theta.alpha, theta.rho_r, theta.rho_d, theta.rho_s,
                k))
            e = (R / k * decimal.Decimal(2).ln()).exp() - 1
            h = 2 * (alpha * rho_r * k * e).sqrt()
            if det is ZF:
                return float(h + k * (rho_r + rho_d) + rho_s)
            return float(h + rho_r + rho_s + k * rho_d + rho_r * (k - 1) * e)

    @pytest.mark.parametrize("per_user", [1e-12, 3.6e-8, 0.5, 1.0, 2.5, 4.0])
    def test_within_a_few_ulps_of_fifty_digits(self, per_user):
        # 2^(R/k) - 1 by subtraction was off by up to 1.2e-9 relative at
        # R/k = 3.6e-8; expm1 is not. The bound is 8 ulps because exp
        # scales the rounding of R ln2 / k by R ln2 / k, ~3 ulps at 4 bits
        rng = np.random.default_rng(29)
        for _ in range(40):
            # R >= 2 R/k keeps k >= 2, clear of MRC's k - 1 cancellation
            R = float(10.0 ** rng.uniform(math.log10(max(1.0, 2.0 * per_user)),
                                          3.0))
            theta = _theta(R=R, alpha=rng.uniform(1.01, 4.0),
                           rho_r=10.0 ** rng.uniform(-2, 2),
                           rho_d=10.0 ** rng.uniform(-10, -6),
                           rho_s=10.0 ** rng.uniform(-10, -6))
            ks = R / per_user * np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6])
            for det in (MRC, ZF):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _objective_grid(ks, theta, det)
                for k, value in zip(ks, got):
                    exact = self._decimal_objective(float(k), theta, det)
                    assert abs(value - exact) <= 8 * math.ulp(exact), \
                        (per_user, theta, det, float(k))

    def test_overflow_maps_to_infinity(self):
        assert _reduced_power(1.0, _theta(R=2000.0), MRC) == math.inf
        assert _reduced_power(1.0, _theta(R=2000.0), ZF) == math.inf

    def test_an_underflowed_rate_is_no_nan(self):
        # at k = 1e300, R ln2 / k underflows to 0 and alpha rho_r k
        # overflows, so the square root's product is inf * 0: the grid
        # gives +inf there, not the nan that argmin would pick
        theta = _theta(R=1e-300, rho_r=1e10)
        for det in (MRC, ZF):
            with np.errstate(over="ignore", invalid="ignore"):
                grid = _objective_grid(np.array([2.0, 1e300]), theta, det)
            assert grid[1] == math.inf
            out = minimize_relaxed(theta, det, k_max=1e300)
            assert (out.k_star, out.objective) == (1.0, 1e10 + 2.0)

    @settings(max_examples=100)
    @given(det=st.sampled_from([MRC, ZF]), k=st.floats(1.0, 50.0),
           rate=st.floats(0.5, 60.0), alpha=st.floats(1.01, 4.0),
           rho_r=st.floats(1e-2, 1e2), rho_d=st.floats(1e-2, 1e2),
           rho_s=st.floats(0.0, 1e2))
    def test_agrees_with_direct_evaluation_at_optimal_m(
            self, det, k, rate, alpha, rho_r, rho_d, rho_s):
        theta = SystemParams(R=rate, alpha=alpha, rho_r=rho_r, rho_d=rho_d,
                             rho_s=rho_s)
        m = optimal_m(theta, k, det)
        rep = evaluate_efficiency(
            AntennaConfig(M=m, K=k, relaxed=True), theta, det)
        assert _reduced_power(k, theta, det) == \
            pytest.approx(rep.total_power, rel=1e-9)


class TestOptimalM:
    def test_unit_case(self):
        assert optimal_m(_theta(R=1.0, alpha=4.0), 1.0, MRC) == 3.0

    def test_zf_is_k_plus_surplus_past_2_53(self):
        # 1 + (k - 1) rounds to k - 2 at an odd-mantissa k in [2^53, 2^54),
        # so ZF's M is K + surplus, rounded once, not 1 + I + surplus
        theta = _theta(R=10.0)
        for j in np.random.default_rng(17).integers(0, 2 ** 52, 200):
            k = 2.0 ** 53 + 2.0 * float(j)
            surplus = math.sqrt(theta.alpha * k * (2.0 ** (10.0 / k) - 1.0)
                                / theta.rho_r)
            assert optimal_m(theta, k, ZF) == k + surplus

    def test_two_user_hand_value(self):
        assert optimal_m(_theta(), 2.0, MRC) == \
            pytest.approx(4.0 + math.sqrt(12.0), rel=1e-14)

    def test_dense_grid_confirms_two_user_value(self):
        theta = _theta()
        ms = np.linspace(4.001, 60.0, 400_000)
        e = 3.0
        power = (theta.alpha * 2.0 * e / (ms - 1.0 - e)
                 + ms * theta.rho_r + 2.0 * theta.rho_d + theta.rho_s)
        best = ms[int(np.argmin(power))]
        assert optimal_m(theta, 2.0, MRC) == pytest.approx(best, abs=1e-3)

    @given(k=st.floats(1.0, 100.0), rate=st.floats(0.5, 50.0),
           alpha=st.floats(1.01, 4.0), rho_r=st.floats(1e-2, 1e2))
    def test_detector_gap_is_the_array_gain_deficit(self, k, rate, alpha, rho_r):
        theta = _theta(R=rate, alpha=alpha, rho_r=rho_r)
        gap = optimal_m(theta, k, MRC) - optimal_m(theta, k, ZF)
        e = 2.0 ** (rate / k) - 1.0
        assert gap == pytest.approx((k - 1.0) * (e - 1.0), rel=1e-9, abs=1e-9)

    def test_plain_formula_bit_for_bit_where_it_is_finite(self):
        # _m_cont, which optimal_m and the exact kernel share, forms
        # sqrt(alpha k e / rho_r) wherever that is finite, on floats and on
        # ascending arrays; past it, sqrt(k) sqrt(e) sqrt(alpha) / sqrt(rho_r)
        # stays within 4 ulps of 40 digits, or is inf where M has no double
        import mpmath

        rng = np.random.default_rng(33)
        overflowed = 0
        for i in range(300):
            theta = _theta(R=float(10.0 ** rng.uniform(-1, 4)),
                           alpha=float(rng.uniform(1.01, 10.0)),
                           rho_r=float(10.0 ** rng.uniform(-322, 4)))
            det = MRC if i % 2 else ZF
            k0 = math.floor(theta.R / 1024.0) + 1 + int(rng.integers(0, 50))
            ks = np.arange(k0, k0 + 64, dtype=float)
            e = _exp2m1(theta.R / ks)
            with np.errstate(over="ignore"):
                product = theta.alpha * ks * e / theta.rho_r
                interference = _interference(ks, e, det)
                got = relaxation._m_cont(theta, ks, e, interference, det)
            plain = np.sqrt(product) - _headroom(0.0, ks, interference, det)
            finite = product < math.inf
            assert got[finite].tolist() == plain[finite].tolist(), theta
            for k in ks.tolist():
                e_k = _exp2m1(theta.R / k)
                product_k = theta.alpha * k * e_k / theta.rho_r
                if product_k < math.inf:
                    assert optimal_m(theta, k, det) == math.sqrt(product_k) \
                        - _headroom(0.0, k, _interference(k, e_k, det), det)
            with mpmath.workdps(40):
                for j in np.flatnonzero(~finite).tolist():
                    mp_k, mp_e = mpmath.mpf(ks[j]), mpmath.mpf(e[j])
                    want = mpmath.sqrt(theta.alpha * mp_k * mp_e
                                       / mpmath.mpf(theta.rho_r))
                    want += mp_k if det is ZF else 1 + (mp_k - 1) * mp_e
                    if want > sys.float_info.max:
                        assert got[j] == math.inf
                    else:
                        assert abs(got[j] - want) <= 4 * math.ulp(got[j])
                        assert optimal_m(theta, ks[j], det) == got[j]
            overflowed += not finite.all()
        assert overflowed > 20

    def test_rejects_free_antennas(self):
        with pytest.raises(ValueError, match="rho_r"):
            optimal_m(_theta(rho_r=0.0), 2.0, MRC)

    @pytest.mark.parametrize("k", [0.5, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_user_count_that_is_no_design(self, k):
        with pytest.raises(ValueError, match="k must be finite and >= 1"):
            optimal_m(_theta(), k, MRC)
        with pytest.raises(ValueError, match="k must be finite and >= 1"):
            _reduced_power(k, _theta(), MRC)


def _dense_oracle(theta, det, k_hi, points=40960):
    """Solver-independent reduction: brute grid plus local parabolic zoom."""
    ks = np.geomspace(1.0, k_hi, points)
    e = np.exp2(theta.R / ks) - 1.0
    h = 2.0 * np.sqrt(theta.alpha * theta.rho_r * ks * e)
    if det is MRC:
        vals = (h + theta.rho_r + theta.rho_s + ks * theta.rho_d
                + theta.rho_r * np.where(ks > 1.0, (ks - 1.0) * e, 0.0))
    else:
        vals = h + ks * (theta.rho_r + theta.rho_d) + theta.rho_s
    i = int(np.argmin(vals))
    lo, hi = ks[max(i - 1, 0)], ks[min(i + 1, points - 1)]
    res = optimize.minimize_scalar(
        lambda k: float(_reduced_power(float(k), theta, det)),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return float(res.x), float(theta.R / res.fun)


class TestMinimizeRelaxed:
    def test_matches_independent_nested_minimization(self):
        # frozen from a scipy-based nested 2-D minimization over real (M, K)
        theta = _theta(R=100.0)
        assert minimize_relaxed(theta, MRC).zeta == \
            pytest.approx(0.45565322674181935, rel=1e-9)
        assert minimize_relaxed(theta, ZF).zeta == \
            pytest.approx(0.9457767043906645, rel=1e-9)

    @pytest.mark.parametrize("rate", [50.0, 200.0, 800.0])
    def test_dense_grid_oracle_heavy_circuit_power(self, rate):
        theta = _theta(R=rate, rho_r=1e3, rho_d=1e3, rho_s=1e3)
        got = minimize_relaxed(theta, MRC)
        k_ref, zeta_ref = _dense_oracle(theta, MRC, k_hi=max(4.0, rate))
        assert got.zeta == pytest.approx(zeta_ref, rel=1e-6)
        assert got.k_star == pytest.approx(k_ref, rel=1e-4)

    def test_beats_random_feasible_points(self):
        theta = _theta(R=40.0)
        rng = np.random.default_rng(11)
        best = minimize_relaxed(theta, MRC)
        for _ in range(100):
            k = float(rng.uniform(1.0, 60.0))
            e = 2.0 ** (theta.R / k) - 1.0
            m = 1.0 + (k - 1.0) * e + float(rng.uniform(0.1, 200.0))
            rep = evaluate_efficiency(
                AntennaConfig(M=m, K=k, relaxed=True), theta, MRC)
            assert best.zeta >= rep.zeta * (1.0 - 1e-12)

    def test_residual_power_shift_property(self):
        # minimizing with rho_s = 0 then adding rho_s afterwards is the same
        # problem: the argmin cannot move, the objective shifts by rho_s
        with_rs = minimize_relaxed(_theta(R=100.0, rho_r=1e3, rho_d=1e3,
                                          rho_s=1e3), ZF)
        without = minimize_relaxed(_theta(R=100.0, rho_r=1e3, rho_d=1e3,
                                          rho_s=0.0), ZF)
        assert with_rs.objective == pytest.approx(without.objective + 1e3,
                                                  rel=1e-9)
        assert with_rs.k_star == pytest.approx(without.k_star, rel=1e-6)

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_argmin_independent_of_residual_power(self, det):
        ks = [minimize_relaxed(_theta(R=60.0, rho_s=rho_s), det).k_star
              for rho_s in (0.0, 1.0, 1e3)]
        assert ks[0] == pytest.approx(ks[1], rel=1e-6)
        assert ks[0] == pytest.approx(ks[2], rel=1e-6)

    def test_result_invariants(self):
        for det in (MRC, ZF):
            out = minimize_relaxed(_theta(R=100.0), det)
            assert out.objective == pytest.approx(100.0 / out.zeta, rel=1e-12)
            assert out.m_star == optimal_m(_theta(R=100.0), out.k_star, det)
            assert _rate_headroom(
                AntennaConfig(M=out.m_star, K=out.k_star, relaxed=True),
                100.0, det)[1] > 0.0

    def test_explicit_k_max_restricts_domain(self):
        theta = _theta(R=100.0)
        capped = minimize_relaxed(theta, MRC, k_max=5.0)
        assert capped.k_star <= 5.0
        assert capped.zeta < minimize_relaxed(theta, MRC).zeta

    def test_k_max_of_one_degenerates_to_single_user(self):
        out = minimize_relaxed(_theta(R=4.0), MRC, k_max=1.0)
        assert out.k_star == 1.0
        assert out.objective == _reduced_power(1.0, _theta(R=4.0), MRC)

    def test_error_cases(self):
        with pytest.raises(ValueError, match="rho_r"):
            minimize_relaxed(_theta(rho_r=0.0), MRC)
        with pytest.raises(ValueError, match="k_max"):
            minimize_relaxed(_theta(rho_d=0.0), MRC)
        # an explicit cap makes the free-user-circuit problem well posed
        out = minimize_relaxed(_theta(rho_d=0.0), MRC, k_max=50.0)
        assert out.k_star <= 50.0
        with pytest.raises(InfeasibleError):
            minimize_relaxed(_theta(R=2000.0), MRC, k_max=1.0)
        # an integer cap with no double is refused, not an OverflowError
        for k_max in (10 ** 400, int(sys.float_info.max) + 1):
            with pytest.raises(ValueError, match="k_max must be finite"):
                minimize_relaxed(_theta(), MRC, k_max=k_max)

    def test_huge_rate_reaches_the_large_rate_limit(self):
        # the incumbent's cap 1e300 / rho_d is past int64; MRC's relaxed
        # efficiency tends to 1 / (e ln 2) as R grows at alpha = 2, rho = 1
        out = minimize_relaxed(_theta(R=1e300), MRC)
        assert out.zeta == pytest.approx(1.0 / (math.e * math.log(2.0)),
                                         rel=0, abs=1e-9)

    @pytest.mark.parametrize("det", [MRC, ZF])
    @pytest.mark.parametrize("profile", [{"rho_d": 5e-324},
                                         {"rho_r": 1e10, "rho_d": 1e-300}])
    def test_overflowing_cap_asks_for_k_max(self, det, profile):
        # incumbent / rho_d overflows, so no cap can be derived; clamping
        # it to the largest double would let 2^(R/k) - 1 round to 0
        theta = _theta(R=10.0, **profile)
        with pytest.raises(ValueError, match="k_max"):
            minimize_relaxed(theta, det)
        out = minimize_relaxed(theta, det, k_max=1e6)
        assert 1.0 <= out.k_star <= 1e6 and 0.0 < out.zeta < math.inf

    def test_huge_k_max_is_no_false_optimum(self):
        # 2^(R/k) - 1 by subtraction rounded to 0 past k ~ 1e16, where the
        # PA and interference terms vanished: zeta 5.0 at k ~ 7.25e16
        theta = _theta(R=10.0, rho_d=5e-324)
        huge = minimize_relaxed(theta, MRC, k_max=1.7e308)
        assert huge.zeta == pytest.approx(
            minimize_relaxed(theta, MRC, k_max=1e12).zeta, rel=0, abs=1e-6)
        assert huge.zeta >= minimize_relaxed(theta, MRC, k_max=1e6).zeta

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_antenna_count_past_double_range_is_refused(self, det):
        # at R/k near 1024 bits the surplus sqrt(alpha k e / rho_r) is about
        # 2.6e314, while h = 2 sqrt(alpha rho_r k e) stays tiny: the grid's
        # winner, k* = 1.953 at zeta 677.2, has no double M
        theta = _theta(R=2000.0, rho_r=1e-320)
        with pytest.raises(InfeasibleError, match="overflows double range"):
            minimize_relaxed(theta, det)

    @pytest.mark.parametrize("k_max", [True, False])
    def test_bool_k_max_is_not_a_count(self, k_max):
        with pytest.raises(ValueError, match="k_max must be finite and >= 1"):
            minimize_relaxed(_theta(), MRC, k_max=k_max)


class TestGlobalMinimum:
    """The MRC objective is not unimodal, so no bracketing search alone is
    safe; the solver must look at the whole of [1, k_cap]."""

    # global minimum on the boundary k = 1, a hump near k = 5.5, and an
    # interior local minimum near k = 45.06 that is 12 % worse
    BOUNDARY = SystemParams(R=1.8350427952080244, alpha=1.1773640808511252,
                            rho_r=1.6871425199908638,
                            rho_d=1.015681971172033e-4,
                            rho_s=0.3455529913653919)

    def test_boundary_minimum_beats_interior_local_minimum(self):
        out = minimize_relaxed(self.BOUNDARY, MRC)
        assert out.k_star == 1.0
        assert out.objective == _reduced_power(1.0, self.BOUNDARY, MRC)
        interior = _reduced_power(45.06, self.BOUNDARY, MRC)
        hump = _reduced_power(5.5, self.BOUNDARY, MRC)
        assert interior > out.objective * 1.12
        assert hump > interior
        # 45.06 is a local minimum: its neighbours are higher
        assert _reduced_power(44.0, self.BOUNDARY, MRC) > interior
        assert _reduced_power(46.0, self.BOUNDARY, MRC) > interior

    @staticmethod
    def _k_cap(theta, det, k_max):
        # the documented incumbent rule: no k with k * rho_d above the
        # objective at the seed point max(1, R/2) can win
        if k_max is not None:
            return float(k_max)
        k_seed = max(1.0, theta.R / 2.0)
        return max(k_seed, math.ceil(
            _reduced_power(k_seed, theta, det) / theta.rho_d))

    def test_never_worse_than_a_five_times_denser_grid(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            theta = SystemParams(
                R=float(10.0 ** rng.uniform(0.0, 3.5)),
                alpha=float(rng.uniform(1.01, 8.0)),
                rho_r=float(10.0 ** rng.uniform(-1.0, 1.0)),
                rho_d=float(10.0 ** rng.uniform(-1.0, 1.0)),
                rho_s=float(10.0 ** rng.uniform(-1.0, 1.0)))
            k_cap_drawn = float(rng.integers(1, 200))
            for det in (MRC, ZF):
                for k_max in (None, k_cap_drawn):
                    out = minimize_relaxed(theta, det, k_max=k_max)
                    k_cap = self._k_cap(theta, det, k_max)
                    # the grid leaves overflow warnings to its caller
                    with np.errstate(over="ignore", invalid="ignore"):
                        dense = _objective_grid(
                            np.geomspace(1.0, k_cap, 20001), theta, det)
                    assert out.objective <= dense.min() * (1.0 + 1e-12), \
                        (theta, det, k_max)
                    for k in (out.k_star * (1.0 - 1e-7),
                              out.k_star * (1.0 + 1e-7)):
                        if 1.0 <= k <= k_cap:
                            assert out.objective <= \
                                _reduced_power(k, theta, det), \
                                (theta, det, k_max, k)


class TestGrids:
    """The coarse grid is exp(unit ln k_cap) and each zoom grid
    unit (hi - lo) + lo, with both ends set exactly."""

    def test_ends_brackets_and_rounds(self, monkeypatch):
        grids = []
        objective = relaxation._objective_grid

        def recording(k, theta, det):
            if k.size > 1:   # not _reduced_power's incumbent
                grids.append(k.copy())
            return objective(k, theta, det)

        monkeypatch.setattr(relaxation, "_objective_grid", recording)
        rng = np.random.default_rng(18)
        inexact = 0
        for _ in range(60):
            theta = SystemParams(
                R=float(10.0 ** rng.uniform(0.0, 3.0)),   # k_max = 1 reaches it
                alpha=float(rng.uniform(1.01, 8.0)),
                rho_r=float(10.0 ** rng.uniform(-1.0, 1.0)),
                rho_d=float(10.0 ** rng.uniform(-3.0, 1.0)),
                rho_s=float(10.0 ** rng.uniform(-1.0, 1.0)))
            for det in (MRC, ZF):
                for k_max in (None, 1.0, 1.0 + 2.0 ** -50,
                              float(rng.uniform(1.0, 1e4)),
                              float(10.0 ** rng.uniform(4.0, 308.0))):
                    grids.clear()
                    out = minimize_relaxed(theta, det, k_max=k_max)
                    k_cap = TestGlobalMinimum._k_cap(theta, det, k_max)
                    inexact += math.exp(math.log(k_cap)) != k_cap
                    assert grids[0][0] == 1.0 and grids[0][-1] == k_cap
                    assert 1.0 <= out.k_star <= k_cap
                    assert out.solver_diag.refine_iters == len(grids) - 1 <= 4
                    for prev, cur in zip(grids, grids[1:]):
                        assert cur[0] in prev and cur[-1] in prev
                        assert np.all(np.diff(cur) >= 0.0)
                    assert out.k_star in np.concatenate(grids)
        assert inexact > 100
