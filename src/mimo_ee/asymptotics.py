"""Large-rate behavior: constant per-user-rate scaling and detector bounds.

Growing the rate target along the trajectory K = R/c with the matching
closed-form antenna count keeps the per-user spectral efficiency pinned
at c. Its efficiency is R over the relaxation's reduced MRC power at
k = R/c, and its limit in R is finite, which explains the saturation seen
in exact-optimizer sweeps.
The module also provides the analytic cap on the relaxed MRC efficiency,
valid beyond explicit rate thresholds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .link import Detector, _exp2m1
from .relaxation import _reduced_power, minimize_relaxed, optimal_m
from .units import PowerProfile, SystemParams, _refuse, _require_number


@dataclass(frozen=True)
class TrajectorySpec:
    """Scaling family with fixed per-user spectral efficiency c."""

    c: float                 # bits/s/Hz per user, > 0
    profile: PowerProfile    # rate-independent power parameters

    def __post_init__(self) -> None:
        _require_number("c", self.c, 0)


@dataclass(frozen=True)
class TrajectoryPoint:
    R: float
    k: float      # R / c users
    m: float      # matching closed-form MRC antenna count
    zeta: float


@dataclass(frozen=True)
class Thresholds:
    """Rate floors above which the relaxed-MRC efficiency cap is proven."""

    r1: float
    r2: float


def trajectory_zeta(spec: TrajectorySpec, R: float) -> float:
    """Efficiency of the constant-per-user-rate design at R: R over the
    relaxed MRC power at k = R/c with the antenna count optimized out."""
    if isinstance(R, bool) or not spec.c < R <= sys.float_info.max:
        _refuse("R", f"finite and exceed the per-user rate c={spec.c}", R)
    power = _reduced_power(R / spec.c, spec.profile.at_rate(R), Detector.MRC)
    if not power < math.inf:
        raise ValueError(f"the relaxed MRC power at k = R/c = {R / spec.c!r} "
                         "overflows double range")
    return R / power


def trajectory_point(spec: TrajectorySpec, R: float) -> TrajectoryPoint:
    """Design point and efficiency of the scaling family at rate target R."""
    zeta = trajectory_zeta(spec, R)
    k = R / spec.c
    m = optimal_m(spec.profile.at_rate(R), k, Detector.MRC)
    _require_number("M", m, 1, strict=False)   # M may have no double
    return TrajectoryPoint(R=float(R), k=k, m=m, zeta=zeta)


def trajectory_limit(spec: TrajectorySpec) -> float:
    """Efficiency that the constant-per-user-rate family approaches as R grows."""
    c, p = spec.c, spec.profile
    den = p.rho_d + p.rho_r * _exp2m1(c)
    if den <= 0:
        raise ValueError(
            "limit undefined: rho_d + rho_r*(2^c - 1) must be positive")
    if not math.isfinite(den):
        raise ValueError("2^c overflows double range; c is unrealistically large")
    return c / den


def _log2(ratio: Callable[..., float], theta: SystemParams) -> float:
    """log2 of ratio(alpha, rho_r, rho_d) > 0: of its double where that is
    within 2^-50 of its exact rational value (each step stayed in the normal
    range), else of the exact value, finite however far out of range."""
    powers = (theta.alpha, theta.rho_r, theta.rho_d)
    exact = ratio(*map(Fraction, powers))
    try:
        value = ratio(*powers)
    except OverflowError:   # float ** raises where * and / give inf
        value = math.inf
    if 0 < value < math.inf and abs(exact - Fraction(value)) <= exact / 2 ** 50:
        return math.log2(value)
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    return e + math.log2(exact / Fraction(2) ** e)   # a ratio in (1/2, 2)


def thresholds(theta: SystemParams) -> Thresholds:
    """Rate floors for the relaxed-MRC efficiency cap at theta's power profile."""
    if theta.rho_r <= 0:
        raise ValueError(f"rho_r must be > 0, got {theta.rho_r!r}")
    r1 = max(4.0, 4.0 * _log2(lambda a, r, d: 1 + a / r, theta))
    r2 = max(_log2(lambda a, r, d: 1 + 9 * d ** 2 / (a * r), theta),
             2.0 * _log2(lambda a, r, d: 49 * r / a, theta))
    return Thresholds(r1=r1, r2=r2)


def mrc_upper_bound_check(theta: SystemParams) -> bool:
    """Verify that the relaxed MRC efficiency sits below its analytic cap.

    The cap 1 / min(1/zeta''_zf, rho_d + rho_r/R + rho_s/R) is only proven
    for rates above both thresholds, so smaller rates raise instead of
    returning a vacuous verdict.
    """
    t = thresholds(theta)
    if not theta.R > max(t.r1, t.r2):
        raise ValueError(
            f"hypotheses unmet: need R > max(r1, r2) = {max(t.r1, t.r2)!r}, "
            f"got R = {theta.R!r}; no claim can be checked")
    zeta_mrc = minimize_relaxed(theta, Detector.MRC).zeta
    zeta_zf = minimize_relaxed(theta, Detector.ZF).zeta
    cap = 1.0 / min(1.0 / zeta_zf,
                    theta.rho_d + theta.rho_r / theta.R + theta.rho_s / theta.R)
    return zeta_mrc < cap
