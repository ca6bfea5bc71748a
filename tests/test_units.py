"""Physical-to-normalized conversion and its failure modes."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from mimo_ee import (Detector, McConfig, SweepSpec, TrajectorySpec,
                     bound_gap_sweep, optimal_m, trajectory_point)
from mimo_ee.relaxation import _reduced_power
from mimo_ee.units import PhysicalParams, PowerProfile, SystemParams, normalize


def _params(**over):
    base = dict(bandwidth_hz=2e7, noise_psd=1e-20, path_gain=1e-7,
                pa_slope=2.0, p_r=0.5, p_t=0.1, p_dec=0.1, p_s=10.0)
    base.update(over)
    return PhysicalParams(**base)


class TestNormalize:
    def test_hand_computed_scale(self):
        # scale = path_gain / (noise_psd * bandwidth) = 1e-7 / 2e-13 = 5e5
        profile = normalize(_params())
        assert isinstance(profile, PowerProfile)
        assert profile.alpha == 2.0
        assert profile.rho_r == pytest.approx(0.5 * 5e5, rel=1e-12)
        assert profile.rho_d == pytest.approx(0.2 * 5e5, rel=1e-12)
        assert profile.rho_s == pytest.approx(10.0 * 5e5, rel=1e-12)

    def test_decoding_and_terminal_power_pool_together(self):
        a = normalize(_params(p_t=0.3, p_dec=0.0))
        b = normalize(_params(p_t=0.0, p_dec=0.3))
        assert a.rho_d == b.rho_d

    def test_overflowing_ratio_rejected(self):
        p = _params(path_gain=1e10, noise_psd=1e-300, bandwidth_hz=1e-8)
        with pytest.raises(ValueError, match="finite"):
            normalize(p)

    def test_underflowing_noise_power_rejected(self):
        # 1e-200 * 1e-200 rounds to 0, which would divide by zero
        p = _params(noise_psd=1e-200, bandwidth_hz=1e-200)
        with pytest.raises(ValueError, match="underflows"):
            normalize(p)

    @given(p_r=st.floats(1e-6, 1e3), p_t=st.floats(1e-6, 1e3),
           p_dec=st.floats(1e-6, 1e3))
    def test_power_ratios_survive_normalization(self, p_r, p_t, p_dec):
        profile = normalize(_params(p_r=p_r, p_t=p_t, p_dec=p_dec))
        assert profile.rho_r / profile.rho_d == pytest.approx(
            p_r / (p_t + p_dec), rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("bandwidth_hz", 0.0), ("bandwidth_hz", -1.0),
        ("noise_psd", 0.0), ("path_gain", math.inf),
        ("pa_slope", 1.0), ("pa_slope", 0.9),
        ("p_r", -0.1), ("p_s", math.nan),
        # a bool is no number, and an int with no double is refused as a
        # ValueError, not an OverflowError
        ("bandwidth_hz", True), ("p_r", True),
        pytest.param("noise_psd", 10 ** 400, id="noise_psd-10**400"),
        pytest.param("pa_slope", 10 ** 400, id="pa_slope-10**400"),
        pytest.param("p_t", int(sys.float_info.max) + 1,
                     id="p_t-largest_double+1"),
    ])
    def test_bad_physical_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            _params(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        dict(R=0.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
        dict(R=1.0, alpha=1.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
        dict(R=1.0, alpha=2.0, rho_r=-1.0, rho_d=1.0, rho_s=1.0),
        dict(R=math.inf, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
        dict(R=True, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
        dict(R=1.0, alpha=2.0, rho_r=1.0, rho_d=True, rho_s=1.0),
        dict(R=10 ** 400, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
        dict(R=1.0, alpha=10 ** 400, rho_r=1.0, rho_d=1.0, rho_s=1.0),
        dict(R=1.0, alpha=2.0, rho_r=1.0, rho_d=1.0,
             rho_s=int(sys.float_info.max) + 1),
    ])
    def test_bad_system_params(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_zero_circuit_powers_are_legal(self):
        theta = SystemParams(R=1.0, alpha=2.0, rho_r=0.0, rho_d=0.0, rho_s=0.0)
        assert theta.rho_r == 0.0


class TestProfile:
    def test_at_rate_refuses_a_bool(self):
        # float(True) is 1.0, so the check must see the rate as given
        with pytest.raises(ValueError, match="^R must be finite and > 0"):
            PowerProfile(alpha=2.0, rho_r=1.0, rho_d=2.0,
                         rho_s=3.0).at_rate(True)

    def test_at_rate_only_changes_r(self):
        profile = PowerProfile(alpha=2.0, rho_r=1.0, rho_d=2.0, rho_s=3.0)
        a, b = profile.at_rate(1.0), profile.at_rate(100.0)
        assert (a.alpha, a.rho_r, a.rho_d, a.rho_s) == \
            (b.alpha, b.rho_r, b.rho_d, b.rho_s)
        assert (a.R, b.R) == (1.0, 100.0)


_PROFILE = PowerProfile(alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0)
_POINT = dict(m=4, k=2, gamma=0.5, detector=Detector.MRC, trials=10)

# entry points that take a number, each with the name its refusal gives
_ENTRY_POINTS = [
    ("c", lambda v: TrajectorySpec(c=v, profile=_PROFILE)),
    ("r_values", lambda v: SweepSpec(r_values=(v,), theta_base=_PROFILE)),
    ("trajectory_c", lambda v: SweepSpec(
        r_values=(4.0,), theta_base=_PROFILE, trajectory_c=v)),
    ("R", lambda v: trajectory_point(
        TrajectorySpec(c=2.0, profile=_PROFILE), v)),
    ("k", lambda v: optimal_m(_PROFILE.at_rate(8.0), v, Detector.MRC)),
    ("k", lambda v: _reduced_power(v, _PROFILE.at_rate(8.0), Detector.MRC)),
    ("m", lambda v: McConfig(**{**_POINT, "m": v})),
    ("k", lambda v: McConfig(**{**_POINT, "k": v})),
    ("trials", lambda v: McConfig(**{**_POINT, "trials": v})),
    ("gamma", lambda v: McConfig(**{**_POINT, "gamma": v})),
    ("threads", lambda v: bound_gap_sweep([McConfig(**_POINT)], threads=v)),
    ("R", _PROFILE.at_rate),
    ("seed", lambda v: McConfig(**{**_POINT, "seed": v})),
]


class TestOneInputRule:
    @pytest.mark.parametrize("value", [
        pytest.param(10 ** 400, id="10**400"),
        pytest.param(int(sys.float_info.max) + 1, id="largest_double+1")])
    @pytest.mark.parametrize("name,call", [
        pytest.param(name, call, id=f"{i}-{name}")
        for i, (name, call) in enumerate(_ENTRY_POINTS)])
    def test_int_past_double_range_is_a_value_error(self, name, call, value):
        # ValueError naming the parameter, not OverflowError, and the
        # message never prints the integer
        with pytest.raises(ValueError, match=f"^{name} must be") as exc:
            call(value)
        assert str(value)[:20] not in str(exc.value)

    def test_largest_double_as_an_int_is_a_number(self):
        largest = int(sys.float_info.max)
        assert SystemParams(R=largest, alpha=2.0, rho_r=0.0, rho_d=0.0,
                            rho_s=0.0).R == largest
        assert McConfig(**{**_POINT, "gamma": largest}).gamma == largest
