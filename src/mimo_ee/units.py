"""Conversion between physical transceiver parameters and the dimensionless
normalized quantities that drive the optimizer.

All inputs are linear units (Watts, Hz, unitless gains), never dB.

`_require_number` and `_require_count` are the package's one input rule: they
refuse bools, nan, infinities and ints past double range with ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


def _refuse(name: str, rule: str, value: object) -> None:
    """Raise that `name` must be `rule`, printing no int past double range."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} must be {rule} within double range, "
                         "got one past it")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _require_number(name: str, value: float, low: float, *,
                    strict: bool = True) -> None:
    """A real within double range above low, or at it when not strict."""
    if isinstance(value, bool) or not (   # an int is compared exactly
            -sys.float_info.max <= value <= sys.float_info.max
            and (value > low if strict else value >= low)):
        _refuse(name, f"finite and {'>' if strict else '>='} {low}", value)


def _require_count(name: str, value: int) -> None:
    """An int, not a bool, from 1 up to the largest double."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 1 <= value <= sys.float_info.max):
        _refuse(name, "an integer >= 1", value)


def _require_profile(p: "PowerProfile | SystemParams") -> None:
    """The PA slope and circuit-power checks both parameter types share."""
    _require_number("alpha", p.alpha, 1)
    for name in ("rho_r", "rho_d", "rho_s"):
        _require_number(name, getattr(p, name), 0, strict=False)


@dataclass(frozen=True)
class PhysicalParams:
    """Raw hardware and propagation parameters of the uplink."""

    bandwidth_hz: float  # transmission bandwidth B
    noise_psd: float     # noise power spectral density N0, W/Hz
    path_gain: float     # average channel attenuation, linear scale
    pa_slope: float      # PA draw per unit radiated power, > 1
    p_r: float           # hardware power per BS antenna, W
    p_t: float           # per-user terminal circuitry excluding the PA, W
    p_dec: float         # per-user decoding power at the BS, W
    p_s: float           # residual site power independent of M and K, W

    def __post_init__(self) -> None:
        for name in ("bandwidth_hz", "noise_psd", "path_gain"):
            _require_number(name, getattr(self, name), 0)
        _require_number("pa_slope", self.pa_slope, 1)
        for name in ("p_r", "p_t", "p_dec", "p_s"):
            _require_number(name, getattr(self, name), 0, strict=False)


@dataclass(frozen=True)
class SystemParams:
    """Normalized operating point: target sum rate plus dimensionless powers.

    Every power is expressed in units of the receiver noise power N0*B
    referred through the path gain, which removes B, N0 and Gc from all
    later formulas.
    """

    R: float      # sum spectral efficiency target, bits/s/Hz
    alpha: float  # PA slope, > 1
    rho_r: float  # normalized per-BS-antenna hardware power
    rho_d: float  # normalized per-user circuit plus decoding power
    rho_s: float  # normalized residual power

    def __post_init__(self) -> None:
        _require_number("R", self.R, 0)
        _require_profile(self)


@dataclass(frozen=True)
class PowerProfile:
    """The rate-independent part of SystemParams, reused across an R sweep."""

    alpha: float
    rho_r: float
    rho_d: float
    rho_s: float

    def __post_init__(self) -> None:
        _require_profile(self)

    def at_rate(self, rate: float) -> SystemParams:
        _require_number("R", rate, 0)   # before float(), which takes a bool
        return SystemParams(R=float(rate), alpha=self.alpha, rho_r=self.rho_r,
                            rho_d=self.rho_d, rho_s=self.rho_s)


def normalize(p: PhysicalParams) -> PowerProfile:
    """Normalize physical powers by N0*B/Gc.

    The scale depends on the hardware and the channel only, never on the
    target rate, so the result is a profile; `at_rate` attaches a rate.
    Rejects inputs whose ratios overflow double precision rather than
    letting infinities leak into the optimizer.
    """
    noise = p.noise_psd * p.bandwidth_hz
    if noise == 0.0:
        raise ValueError("noise power noise_psd * bandwidth_hz underflows to 0; "
                         "input ratios exceed double range")
    scale = p.path_gain / noise
    rhos = {"rho_r": p.p_r * scale, "rho_d": (p.p_t + p.p_dec) * scale,
            "rho_s": p.p_s * scale}
    for name, value in rhos.items():
        if not math.isfinite(value):
            raise ValueError(f"normalized {name} is not finite; "
                             "input ratios exceed double range")
    return PowerProfile(alpha=p.pa_slope, **rhos)
