"""Constant per-user-rate scaling family, its limit, and detector bounds."""

import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from mimo_ee.asymptotics import (TrajectorySpec,
                                 mrc_upper_bound_check, thresholds,
                                 trajectory_limit, trajectory_point,
                                 trajectory_zeta)
from mimo_ee.efficiency import evaluate_efficiency
from mimo_ee.link import AntennaConfig, Detector, _rate_headroom
from mimo_ee.relaxation import minimize_relaxed
from mimo_ee.report import SweepSpec, sweep_records
from mimo_ee.units import PowerProfile, SystemParams

MRC = Detector.MRC


def _profile(alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0):
    return PowerProfile(alpha=alpha, rho_r=rho_r, rho_d=rho_d, rho_s=rho_s)


_CANON = TrajectorySpec(c=2.0, profile=_profile())


class TestTrajectoryPoint:
    def test_frozen_design_point(self):
        pt = trajectory_point(_CANON, 1e4)
        assert pt.k == 5000.0
        assert pt.m == pytest.approx(15171.205080756888, rel=1e-14)
        assert pt.zeta == pytest.approx(0.4915113492730865, rel=1e-14)

    def test_closed_form_equals_direct_evaluation(self):
        # the reduced power and evaluate_efficiency at the produced (m, k)
        # are two paths to one number, compared on a seeded corpus
        rng = random.Random(26)
        for _ in range(300):
            spec = TrajectorySpec(
                c=10.0 ** rng.uniform(-1, 1),
                profile=PowerProfile(
                    alpha=rng.uniform(1.01, 10.0),
                    rho_r=10.0 ** rng.uniform(-3, 3),
                    rho_d=10.0 ** rng.uniform(-3, 3),
                    rho_s=10.0 ** rng.uniform(-3, 3)))
            R = spec.c * 10.0 ** rng.uniform(math.log10(1.01), 6)
            pt = trajectory_point(spec, R)
            direct = evaluate_efficiency(
                AntennaConfig(M=pt.m, K=pt.k, relaxed=True),
                spec.profile.at_rate(R), MRC).zeta
            assert pt.zeta == pytest.approx(direct, rel=1e-12), (spec, R)

    def test_per_user_rate_is_pinned(self):
        for R in (1e3, 1e5):
            pt = trajectory_point(_CANON, R)
            assert abs(R / pt.k - _CANON.c) <= 4 * math.ulp(_CANON.c)

    def test_points_are_feasible_designs(self):
        for R in (10.0, 1e4):
            pt = trajectory_point(_CANON, R)
            cfg = AntennaConfig(M=pt.m, K=pt.k, relaxed=True)
            assert _rate_headroom(cfg, R, MRC)[1] > 0.0

    def test_never_beats_the_relaxed_optimum(self):
        for R in (10.0, 100.0, 1e4):
            pt = trajectory_point(_CANON, R)
            best = minimize_relaxed(_CANON.profile.at_rate(R), MRC)
            assert pt.zeta <= best.zeta * (1.0 + 1e-12)

    def test_rate_must_exceed_per_user_rate(self):
        with pytest.raises(ValueError, match="exceed"):
            trajectory_point(_CANON, 2.0)
        with pytest.raises(ValueError, match="exceed"):
            trajectory_point(_CANON, 1.5)

    @pytest.mark.parametrize("R", [0.5, 1.0, 0.0, True, 10 ** 400])
    def test_zeta_refuses_rates_at_most_c(self, R):
        spec = TrajectorySpec(c=1.0, profile=_profile())
        with pytest.raises(ValueError, match="^R must be finite and exceed"):
            trajectory_zeta(spec, R)

    def test_overflowing_antenna_count_is_refused(self):
        # the surplus sqrt(alpha k (2^c - 1) / rho_r) is 1.22e310 at
        # R = 1e20, past double range; zeta stays finite
        spec = TrajectorySpec(c=2.0, profile=_profile(alpha=1e300,
                                                      rho_r=1e-300))
        assert 0.0 < trajectory_zeta(spec, 1e20) < math.inf
        with pytest.raises(ValueError, match="^M must be finite"):
            trajectory_point(spec, 1e20)
        # at R = 1e10 only the product alpha k e / rho_r overflows, and M,
        # the surplus 1.2247e305 (plus I and 1), has a double
        pt = trajectory_point(spec, 1e10)
        assert pt.m == pytest.approx(math.sqrt(1.5e10) * 1e300, rel=1e-15)
        assert 0.0 < pt.zeta < math.inf

    def test_overflowing_power_is_refused(self):
        # at c = 1100 the relaxed MRC power overflows, since 2^(R/k) does
        spec = TrajectorySpec(c=1100.0, profile=_profile(alpha=20.0))
        for solve in (trajectory_zeta, trajectory_point):
            with pytest.raises(ValueError, match=r"^the relaxed MRC power at "
                               r"k = R/c = 1\.0909090909090908 overflows "
                               r"double range$"):
                solve(spec, 1200.0)
        # a sweep row keeps the refusal in its error cell
        rows = sweep_records(SweepSpec(
            r_values=(1200.0,), theta_base=_profile(alpha=20.0),
            detectors=(MRC,), outputs=frozenset({"trajectory"}),
            trajectory_c=1100.0))
        assert rows[0]["zeta_trajectory"] is None
        assert rows[0]["error"].startswith(
            "trajectory: the relaxed MRC power at k = R/c")

    def test_power_past_its_overflowing_product_is_answered(self):
        # at c = 1020 and alpha = 20 the product alpha rho_r k e overflows,
        # but the power, 1.1e305, has a double. M's surplus, 1.5e154, is
        # below M's ulp, so M - 1 - I rounds to 0 and evaluate_efficiency
        # refuses the point: 50 digits of the same terms price it instead
        import mpmath

        spec = TrajectorySpec(c=1020.0, profile=_profile(alpha=20.0))
        pt = trajectory_point(spec, 1030.0)
        assert trajectory_zeta(spec, 1030.0) == pt.zeta
        with mpmath.workdps(50):
            k, e = mpmath.mpf(pt.k), mpmath.mpf(2) ** 1020 - 1
            surplus = mpmath.sqrt(20 * k * e)
            power = 2 * surplus + 2 + k + (k - 1) * e
            zeta, m = 1030 / power, 1 + (k - 1) * e + surplus
        assert abs(pt.zeta - float(zeta)) <= 1e-12 * zeta
        assert abs(pt.m - float(m)) <= 1e-12 * m
        with pytest.raises(ValueError, match="unachievable"):
            evaluate_efficiency(AntennaConfig(M=pt.m, K=pt.k, relaxed=True),
                                spec.profile.at_rate(1030.0), MRC)

    def test_tiny_per_user_rate_against_mpmath(self):
        # pow(2, c) - 1 cancels at so small a c; expm1(c ln2) does not
        import mpmath

        spec = TrajectorySpec(c=1e-9, profile=_profile())
        R = 1e-6
        with mpmath.workdps(50):
            p, c, r = spec.profile, mpmath.mpf(spec.c), mpmath.mpf(R)
            k, e = r / c, mpmath.expm1(c * mpmath.log(2))
            power = (2 * mpmath.sqrt(p.alpha * p.rho_r * k * e) + p.rho_r
                     + p.rho_s + k * p.rho_d + p.rho_r * (k - 1) * e)
            want = r / power
        assert abs(trajectory_zeta(spec, R) - float(want)) <= 1e-15 * want

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="c must be"):
            TrajectorySpec(c=0.0, profile=_profile())
        with pytest.raises(ValueError, match="c must be"):
            TrajectorySpec(c=math.inf, profile=_profile())


class TestTrajectoryLimit:
    def test_hand_values(self):
        assert trajectory_limit(_CANON) == 0.5
        spec = TrajectorySpec(c=1.0, profile=_profile(rho_r=0.5, rho_d=0.5))
        assert trajectory_limit(spec) == 1.0

    def test_frozen_approach_values(self):
        assert trajectory_zeta(_CANON, 1e6) == \
            pytest.approx(0.49913572113897536, rel=1e-14)
        err = abs(trajectory_zeta(_CANON, 1e6) - 0.5) / 0.5
        assert err == pytest.approx(0.0017285577220492732, rel=1e-9)

    def test_error_decays_like_inverse_square_root(self):
        # quadrupling R should roughly halve the gap to the limit
        lim = trajectory_limit(_CANON)
        for R in (1e4, 4e4, 1.6e5):
            e1 = abs(trajectory_zeta(_CANON, R) - lim)
            e2 = abs(trajectory_zeta(_CANON, 4.0 * R) - lim)
            assert e2 / e1 <= 0.6

    def test_limit_reached_at_extreme_rates(self):
        rng = random.Random(7)
        for _ in range(10):
            spec = TrajectorySpec(
                c=rng.uniform(0.5, 4.0),
                profile=PowerProfile(
                    alpha=rng.uniform(1.2, 4.0),
                    rho_r=10.0 ** rng.uniform(-1, 1),
                    rho_d=10.0 ** rng.uniform(-1, 1),
                    rho_s=10.0 ** rng.uniform(-1, 1)))
            lim = trajectory_limit(spec)
            assert abs(trajectory_zeta(spec, 1e14) - lim) / lim < 1e-4

    def test_degenerate_profiles_rejected(self):
        spec = TrajectorySpec(c=2.0, profile=_profile(rho_r=0.0, rho_d=0.0))
        with pytest.raises(ValueError, match="positive"):
            trajectory_limit(spec)
        with pytest.raises(ValueError, match="overflows"):
            trajectory_limit(TrajectorySpec(c=2000.0, profile=_profile()))

    def test_limit_past_an_overflowing_denominator(self):
        # rho_r (2^c - 1) overflows at c = 1020, rho_r = 100, though 2^c
        # and the limit have doubles
        import mpmath

        spec = TrajectorySpec(c=1020.0, profile=_profile(rho_r=100.0))
        with mpmath.workdps(50):
            want = 1020 / (1 + 100 * (mpmath.mpf(2) ** 1020 - 1))
        assert trajectory_limit(spec) == 9.078301342709381e-307
        assert abs(trajectory_limit(spec) - float(want)) <= 1e-15 * want
        # where the denominator overflowed, a limit below the normal range
        # is refused, naming it
        for c, rho_r, rho_d in ((1023.9, 1e10, 1e308), (1.0, 1e307, 1.7e308)):
            spec = TrajectorySpec(c=c, profile=_profile(rho_r=rho_r,
                                                        rho_d=rho_d))
            with pytest.raises(ValueError, match=r"^limit below the normal "
                               rf"range at c={c!r}: "):
                trajectory_limit(spec)
        # where it is finite, c / den keeps its bytes, a subnormal too
        spec = TrajectorySpec(c=1.0, profile=_profile(rho_r=1.0, rho_d=1.7e308))
        assert trajectory_limit(spec) == 1.0 / (1.7e308 + 1.0)
        assert 0.0 < trajectory_limit(spec) < sys.float_info.min
        # 2^c itself overflows from c = 1024 on
        spec = TrajectorySpec(c=1024.0, profile=_profile(rho_r=1e-300))
        with pytest.raises(ValueError, match="^2\\^c overflows"):
            trajectory_limit(spec)


class TestThresholds:
    def test_frozen_values(self):
        t = thresholds(SystemParams(R=100.0, alpha=2.0, rho_r=1e3,
                                    rho_d=1e3, rho_s=1e3))
        assert t.r1 == 4.0
        assert t.r2 == pytest.approx(29.16098825755459, rel=1e-14)

    def test_pa_slope_dominated_regime(self):
        # with rho_r = alpha/49 the hardware branch of r2 vanishes and the
        # remaining branch evaluates to exactly one bit
        t = thresholds(SystemParams(R=10.0, alpha=2.0, rho_r=2.0 / 49.0,
                                    rho_d=2.0 / 21.0, rho_s=0.0))
        assert t.r2 == pytest.approx(1.0, rel=1e-12)

    @given(alpha=st.floats(1.01, 10.0), rho_r=st.floats(1e-3, 1e3),
           rho_d=st.floats(0.0, 1e3))
    def test_first_threshold_floor(self, alpha, rho_r, rho_d):
        t = thresholds(SystemParams(R=1.0, alpha=alpha, rho_r=rho_r,
                                    rho_d=rho_d, rho_s=0.0))
        assert t.r1 >= 4.0
        assert math.isfinite(t.r2)

    def test_past_double_range_against_fifty_digits(self):
        # rho_d ** 2, 9 rho_d^2, alpha / rho_r and 49 rho_r leave double
        # range on this grid, and rho_d ** 2 of a tiny rho_d loses bits to
        # underflow; every threshold is still within a few ulps, or within
        # 2e-15 bits where log2(1 + x) of a double sits near 0
        import mpmath

        rhos = [10.0 ** e for e in range(-320, 309, 8)] + [1e308, 3e-162]
        with mpmath.workdps(50):
            for rho_r in rhos:
                for rho_d in [0.0] + rhos:
                    t = thresholds(SystemParams(R=1.0, alpha=2.0, rho_r=rho_r,
                                                rho_d=rho_d, rho_s=0.0))
                    a, r, d = (mpmath.mpf(x) for x in (2.0, rho_r, rho_d))
                    r1 = max(4, 4 * mpmath.log(1 + a / r, 2))
                    r2 = max(mpmath.log(1 + 9 * d ** 2 / (a * r), 2),
                             2 * mpmath.log(49 * r / a, 2))
                    case = (rho_r, rho_d)
                    assert t.r1 == pytest.approx(float(r1), rel=4e-16), case
                    assert t.r2 == pytest.approx(float(r2), rel=4e-16,
                                                 abs=2e-15), case

    def test_examples_past_double_range(self):
        def both(rho_r, rho_d):
            t = thresholds(SystemParams(R=1.0, alpha=2.0, rho_r=rho_r,
                                        rho_d=rho_d, rho_s=0.0))
            return t.r1, t.r2

        # rho_d ** 2 raised; 49 rho_r and alpha / rho_r were inf
        assert both(1.0, 1e200)[1] == pytest.approx(1330.941162956387,
                                                    rel=1e-15)
        assert both(1e308, 1.0)[1] == pytest.approx(2055.537126138845,
                                                    rel=1e-15)
        assert both(1e-320, 1.0)[0] == pytest.approx(4256.068025701223,
                                                     rel=1e-15)
        # the plain formula's bytes stay where its steps stay in range
        assert both(1.0, 1.0) == (max(4.0, 4.0 * math.log2(3.0)),
                                  max(math.log2(1.0 + 9.0 / 2.0),
                                      2.0 * math.log2(49.0 / 2.0)))

    def test_rejects_free_antennas(self):
        with pytest.raises(ValueError, match="rho_r"):
            thresholds(SystemParams(R=1.0, alpha=2.0, rho_r=0.0,
                                    rho_d=1.0, rho_s=0.0))


class TestMrcUpperBound:
    def test_holds_in_circuit_heavy_regime(self):
        assert mrc_upper_bound_check(SystemParams(
            R=100.0, alpha=2.0, rho_r=1e3, rho_d=1e3, rho_s=1e3))

    def test_holds_in_unit_regime(self):
        assert mrc_upper_bound_check(SystemParams(
            R=40.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0))

    def test_small_rates_refuse_a_verdict(self):
        with pytest.raises(ValueError, match="hypotheses unmet"):
            mrc_upper_bound_check(SystemParams(
                R=5.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0))


def _relaxed_zetas(rate, profile):
    theta = profile.at_rate(rate)
    return (minimize_relaxed(theta, MRC).zeta,
            minimize_relaxed(theta, Detector.ZF).zeta)


class TestDetectorComparison:
    def test_order_and_consistency(self):
        rates = (0.5, 2.0, 20.0, 200.0)
        rows = sweep_records(SweepSpec(
            r_values=rates, theta_base=_profile(), detectors=(MRC,),
            outputs=frozenset({"comparison"})))
        assert tuple(r["R"] for r in rows) == rates
        for r in rows:
            zeta_mrc, zeta_zf = _relaxed_zetas(r["R"], _profile())
            assert zeta_mrc > 0 and zeta_zf > 0
            assert r["relaxed_mrc_less_than_zf"] == (zeta_mrc < zeta_zf)

    def test_interference_suppression_wins_at_high_rate(self):
        zeta_mrc, zeta_zf = _relaxed_zetas(200.0, _profile())
        assert zeta_mrc < zeta_zf

    def test_sub_bit_per_user_rates_favor_mrc(self):
        # below one bit per user the required SNR gap reverses, so the
        # relaxed MRC design needs no more power than the ZF one
        zeta_mrc, zeta_zf = _relaxed_zetas(0.5, _profile())
        assert not zeta_mrc < zeta_zf

    def test_detectors_coincide_when_one_user_is_optimal(self):
        zeta_mrc, zeta_zf = _relaxed_zetas(3.0, _profile(rho_d=1e8))
        assert zeta_mrc == pytest.approx(zeta_zf, rel=1e-9)
        assert not zeta_mrc < zeta_zf
