"""Transmit-SNR and rate formulas: hand values, inverses, orderings."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mimo_ee.link as link
from mimo_ee.link import (AntennaConfig, Detector, InfeasibleError, _exp2m1,
                          _rate_headroom, gamma_required, rate_achieved)

MRC, ZF = Detector.MRC, Detector.ZF


def _feasible(cfg, rate, det):
    """Whether (M, K) reaches the sum rate with finite transmit power."""
    return _rate_headroom(cfg, rate, det)[1] > 0.0


class TestAntennaConfig:
    def test_exact_mode_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="integer"):
            AntennaConfig(M=2.5, K=1)
        with pytest.raises(ValueError, match="integer"):
            AntennaConfig(M=4, K=1.5)

    def test_exact_mode_accepts_ints_without_a_float(self):
        # 2^53 + 1 and 2^60 + 1 are integers no double holds; each count
        # is stored as its nearest double
        cfg = AntennaConfig(M=2 ** 53 + 1, K=2 ** 60 + 1)
        assert (cfg.M, cfg.K) == (2.0 ** 53, 2.0 ** 60)

    def test_relaxed_mode_accepts_reals(self):
        cfg = AntennaConfig(M=2.5, K=1.25, relaxed=True)
        assert (cfg.M, cfg.K) == (2.5, 1.25)

    @pytest.mark.parametrize("m,k", [
        (0, 1), (1, 0), (math.inf, 1), (2, math.nan),
        # an int with no double is refused as a ValueError, not an
        # OverflowError; the message does not print it
        pytest.param(10 ** 400, 1, id="10**400-1"),
        pytest.param(2, int(sys.float_info.max) + 1, id="2-largest_double+1"),
    ])
    def test_counts_below_one_or_nonfinite_rejected(self, m, k):
        with pytest.raises(ValueError, match="[MK] must be finite and >= 1"):
            AntennaConfig(M=m, K=k, relaxed=True)

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("m,k,name", [(True, 1, "M"), (2, True, "K"),
                                          (True, True, "M")])
    def test_bools_are_not_counts(self, m, k, name, relaxed):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 1"):
            AntennaConfig(M=m, K=k, relaxed=relaxed)


class TestFeasibility:
    def test_single_user_boundary_term_vanishes(self):
        assert _feasible(AntennaConfig(M=2, K=1), 4.0, MRC)

    def test_equality_boundary_is_infeasible(self):
        # M-1 = 3 equals (K-1)(2^{R/K}-1) = 3: infinite power, excluded
        assert not _feasible(AntennaConfig(M=4, K=2), 4.0, MRC)
        assert _feasible(AntennaConfig(M=5, K=2), 4.0, MRC)

    def test_zf_needs_strictly_more_antennas_than_users(self):
        assert _feasible(AntennaConfig(M=3, K=2), 4.0, ZF)
        assert not _feasible(AntennaConfig(M=2, K=2), 4.0, ZF)

    def test_single_user_feasible_even_when_exponent_overflows(self):
        assert _feasible(AntennaConfig(M=2, K=1), 5000.0, MRC)

    def test_rate_must_be_positive_finite(self):
        with pytest.raises(ValueError):
            _feasible(AntennaConfig(M=2, K=1), 0.0, MRC)
        with pytest.raises(ValueError):
            _feasible(AntennaConfig(M=2, K=1), math.inf, MRC)
        for rate in (True, 10 ** 400, int(sys.float_info.max) + 1):
            for call in (_rate_headroom, gamma_required):
                with pytest.raises(ValueError, match="rate must be finite"):
                    call(AntennaConfig(M=2, K=1), rate, MRC)


class TestGammaRequired:
    def test_unit_case_both_detectors(self):
        cfg = AntennaConfig(M=2, K=1)
        assert gamma_required(cfg, 1.0, MRC) == 1.0
        assert gamma_required(cfg, 1.0, ZF) == 1.0

    def test_hand_values_two_users(self):
        cfg = AntennaConfig(M=8, K=2)
        assert gamma_required(cfg, 4.0, MRC) == pytest.approx(0.75, rel=1e-15)
        assert gamma_required(cfg, 4.0, ZF) == pytest.approx(0.5, rel=1e-15)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            gamma_required(AntennaConfig(M=4, K=2), 4.0, MRC)
        with pytest.raises(InfeasibleError):
            gamma_required(AntennaConfig(M=2, K=2), 4.0, ZF)

    def test_overflowing_exponent_raises_even_when_feasible(self):
        # K=1 keeps the config feasible, but 2^R is not a double anymore
        with pytest.raises(InfeasibleError, match="overflows double range"):
            gamma_required(AntennaConfig(M=2, K=1), 5000.0, MRC)

    @pytest.mark.parametrize("m,k,rate", [(3, 2, 1e-320), (2, 1, 1e-17),
                                          (2 ** 1023, 1, 2e-16)])
    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_power_that_rounds_to_zero_is_named(self, m, k, rate, det):
        # 2^(R/K) rounds to 1, or e / (M - 1 - I) underflows: gamma is 0
        cfg = AntennaConfig(M=m, K=k)
        assert _feasible(cfg, rate, det)
        with pytest.raises(InfeasibleError, match="rounds to 0"):
            gamma_required(cfg, rate, det)

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_two_to_the_rate_is_formed_once(self, monkeypatch, det):
        calls = []
        monkeypatch.setattr(link, "_exp2m1",
                            lambda x: calls.append(x) or _exp2m1(x))
        assert gamma_required(AntennaConfig(M=8, K=2), 4.0, det) > 0
        assert calls == [2.0]

    def test_gamma_decreases_with_antennas(self):
        # K=4 at two bits per user needs M - 1 > 3 * 3, so M >= 11
        gammas = [gamma_required(AntennaConfig(M=m, K=4), 8.0, MRC)
                  for m in range(11, 40)]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_zf_headroom_is_rounded_once_past_2_53(self):
        # M - K rounds once; (M - 1) - (K - 1) rounds twice and moves
        # gamma on about one draw in five
        rng = random.Random(17)
        for _ in range(2000):
            m, k = rng.randrange(2 ** 53, 2 ** 56), rng.randrange(1, 1001)
            rate = rng.uniform(0.5, 50.0)
            e = 2.0 ** (rate / k) - 1.0
            assert gamma_required(AntennaConfig(M=m, K=k), rate, ZF) == \
                e / (float(m) - float(k))

    @given(k=st.integers(2, 32), extra=st.integers(1, 200),
           per_user=st.floats(1.0, 8.0))
    def test_zf_array_gain_exceeds_mrc(self, k, extra, per_user):
        # denominator identity: denom_zf - denom_mrc = (K-1)(2^{R/K}-2),
        # so gamma_mrc >= gamma_zf whenever the per-user rate is >= 1
        rate = per_user * k
        e = 2.0 ** per_user - 1.0
        m = math.ceil(1 + (k - 1) * e) + extra
        cfg = AntennaConfig(M=m, K=k)
        assert gamma_required(cfg, rate, MRC) >= gamma_required(cfg, rate, ZF)


class TestRateAchieved:
    def test_unit_case(self):
        assert rate_achieved(AntennaConfig(M=2, K=1), 1.0, MRC) == 1.0

    def test_mrc_many_antenna_value(self):
        # 10 * log2(1 + 0.1*100 / (0.1*9 + 1)) computed independently
        got = rate_achieved(AntennaConfig(M=101, K=10), 0.1, MRC)
        assert got == pytest.approx(26.46890249864358, rel=1e-14)

    def test_zf_exact_power_of_two(self):
        # 5 * log2(1 + 0.2*15) = 5 * log2(4) = 10 exactly
        assert rate_achieved(AntennaConfig(M=20, K=5), 0.2, ZF) == 10.0

    def test_zf_rejects_square_or_fat_config(self):
        with pytest.raises(ValueError, match="M > K"):
            rate_achieved(AntennaConfig(M=3, K=3), 1.0, ZF)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            rate_achieved(AntennaConfig(M=2, K=1), 0.0, MRC)
        for gamma in (True, 10 ** 400, int(sys.float_info.max) + 1):
            with pytest.raises(ValueError, match="gamma must be finite"):
                rate_achieved(AntennaConfig(M=2, K=1), gamma, MRC)

    @settings(max_examples=200)
    @given(det=st.sampled_from([MRC, ZF]), k=st.integers(1, 40),
           extra=st.integers(1, 300), per_user=st.floats(0.05, 10.0))
    def test_inverse_pair(self, det, k, extra, per_user):
        rate = per_user * k
        e = 2.0 ** per_user - 1.0
        # clamp to k so ZF's M > K holds even below one bit per user
        m = max(math.ceil(1 + (k - 1) * e), k) + extra
        cfg = AntennaConfig(M=m, K=k)
        gamma = gamma_required(cfg, rate, det)
        assert rate_achieved(cfg, gamma, det) == pytest.approx(rate, rel=1e-12)

    def test_detectors_coincide_for_single_user(self):
        cfg = AntennaConfig(M=7, K=1)
        for rate in (0.3, 1.0, 9.0):
            assert gamma_required(cfg, rate, MRC) == gamma_required(cfg, rate, ZF)


class TestSaturation:
    # from 2^-60 to the last double below 1024, and a seeded sample
    _X = np.concatenate((
        2.0 ** np.arange(-60.0, 10.0), [1023.0, 1023.9, np.nextafter(1024, 0)],
        np.random.default_rng(23).uniform(0.0, 1024.0, 2000),
        np.random.default_rng(24).uniform(1e-9, 1e-3, 2000)))

    def test_equals_python_pow_bit_for_bit(self):
        want = [2.0 ** x - 1.0 for x in self._X.tolist()]
        assert [_exp2m1(x) for x in self._X.tolist()] == want
        assert _exp2m1(self._X).tolist() == want
        assert _exp2m1(self._X[::-1]).tolist() == want[::-1]

    def test_exp2_saturates_instead_of_raising(self):
        assert _exp2m1(1023.9) < math.inf
        assert _exp2m1(1024.0) == math.inf
        assert _exp2m1(10.0) == 1023.0
        over = [1024.0, np.nextafter(1024, 2048), 5000.0, 1e308, math.inf]
        assert all(_exp2m1(x) == math.inf for x in over)
        # in any position of an array, the rest of it unchanged
        x = np.array([3.0, *over, 0.5, 1023.9])
        got = _exp2m1(x)
        assert got[1:6].tolist() == [math.inf] * 5
        assert [got[0], *got[6:]] == [7.0, 2.0 ** 0.5 - 1.0,
                                      2.0 ** 1023.9 - 1.0]
