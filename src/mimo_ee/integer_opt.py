"""Exact optimization of integer antenna and user counts.

The search enumerates K in ascending order. For each K the power is convex
in M, so only the floor and ceiling of the continuous optimum (clamped to
the feasible region) need to be checked. A per-K lower bound on the total
power prunes the tail of the K range, which keeps the enumeration finite
without any externally supplied cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .efficiency import (EfficiencyReport, _total_power,
                         evaluate_efficiency)
from .link import AntennaConfig, Detector, InfeasibleError, _EXP2_OVERFLOW
from .relaxation import optimal_m
from .units import SystemParams


@dataclass(frozen=True)
class Optimum:
    m_star: int
    k_star: int
    zeta_star: float
    report: EfficiencyReport
    detector: Detector
    k_range_searched: tuple[int, int]  # inclusive K interval actually evaluated
    pruned_at: int | None              # first K excluded by the tail bound

    @property
    def objective(self) -> float:
        """Total normalized power at the optimum, i.e. R / zeta_star."""
        return self.report.total_power


def _best_m_for_k(k: int, theta: SystemParams,
                  det: Detector) -> tuple[float, int]:
    """Least total power at integer K = k and the smallest M attaining it.

    The power is +inf when no M reaches the rate with finite power.
    """
    if theta.R / k >= _EXP2_OVERFLOW:
        return math.inf, 0
    if det is Detector.ZF:
        m_lo = k + 1
    else:
        # MRC needs M - 1 > (K-1)(2^(R/K) - 1)
        boundary = (k - 1) * (2.0 ** (theta.R / k) - 1.0)
        if boundary == math.inf:
            return math.inf, 0
        m_lo = math.floor(boundary) + 2
    m_cont = optimal_m(theta, float(k), det)
    if math.isfinite(m_cont):
        candidates = (max(m_lo, math.floor(m_cont)),
                      max(m_lo, math.ceil(m_cont)))
    else:
        candidates = (m_lo, m_lo + 1)
    return min((_total_power(float(m), float(k), theta, det), m)
               for m in candidates)


def _tail_lower_bound(k: int, theta: SystemParams, det: Detector) -> float:
    """Power lower bound valid for every user count >= k."""
    if det is Detector.ZF:
        return (k + 1) * theta.rho_r + k * theta.rho_d + theta.rho_s
    return theta.rho_r + k * theta.rho_d + theta.rho_s


def optimize_exact(theta: SystemParams, det: Detector, *,
                   k_max: int | None = None) -> Optimum:
    """Find the integer (M, K) maximizing energy efficiency.

    Ties break toward smaller K and then smaller M; incumbents are only
    replaced on strict power improvement during the ascending enumeration.
    Requires rho_d > 0 when k_max is not supplied, since otherwise ever
    larger user counts can keep improving and no finite answer exists.
    """
    if theta.rho_r <= 0:
        raise ValueError(
            "rho_r must be > 0: with free BS antennas the optimal M is unbounded")
    if k_max is None and theta.rho_d <= 0:
        raise ValueError(
            "optimum may lie at K -> inf: supply k_max or a positive rho_d")
    if k_max is not None and k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max!r}")

    power_star, m_star, k_star = math.inf, 0, 0
    pruned_at: int | None = None
    k_hi_seen = 0
    k = 1
    # hard stop well past any sane design; the tail bound normally fires
    # long before this and the cap only guards against degenerate inputs
    k_ceiling = k_max if k_max is not None else 10_000_000
    while k <= k_ceiling:
        if k_star and _tail_lower_bound(k, theta, det) >= power_star:
            pruned_at = k
            break
        power, m = _best_m_for_k(k, theta, det)
        k_hi_seen = k
        if power < power_star:
            power_star, m_star, k_star = power, m, k
        k += 1

    if not k_star:
        raise InfeasibleError(
            "no integer design achieves the rate with finite power")
    report = evaluate_efficiency(AntennaConfig(M=m_star, K=k_star), theta, det)
    return Optimum(m_star=m_star, k_star=k_star, zeta_star=report.zeta,
                   report=report, detector=det,
                   k_range_searched=(1, k_hi_seen), pruned_at=pruned_at)
