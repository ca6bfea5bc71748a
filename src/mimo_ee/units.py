"""Conversion between physical transceiver parameters and the dimensionless
normalized quantities that drive the optimizer.

All inputs are linear units (Watts, Hz, unitless gains), never dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _require_profile(p: "PowerProfile | SystemParams") -> None:
    """The PA slope and circuit-power checks both parameter types share."""
    if not (math.isfinite(p.alpha) and p.alpha > 1):
        raise ValueError(f"alpha must be finite and > 1, got {p.alpha!r}")
    for name in ("rho_r", "rho_d", "rho_s"):
        _require_nonnegative(name, getattr(p, name))


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
        _require_positive("bandwidth_hz", self.bandwidth_hz)
        _require_positive("noise_psd", self.noise_psd)
        _require_positive("path_gain", self.path_gain)
        if not (math.isfinite(self.pa_slope) and self.pa_slope > 1):
            raise ValueError(f"pa_slope must be finite and > 1, got {self.pa_slope!r}")
        for name in ("p_r", "p_t", "p_dec", "p_s"):
            _require_nonnegative(name, getattr(self, name))


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
        _require_positive("R", self.R)
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
    rho_r = p.p_r * scale
    rho_d = (p.p_t + p.p_dec) * scale
    rho_s = p.p_s * scale
    for name, value in (("rho_r", rho_r), ("rho_d", rho_d), ("rho_s", rho_s)):
        if not math.isfinite(value):
            raise ValueError(f"normalized {name} is not finite; "
                             "input ratios exceed double range")
    return PowerProfile(alpha=p.pa_slope, rho_r=rho_r, rho_d=rho_d,
                        rho_s=rho_s)
