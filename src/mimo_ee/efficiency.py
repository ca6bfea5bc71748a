"""Energy-efficiency objective and the additive power-budget breakdown.

Total normalized power at a design point splits into four parts: PA draw
of the user terminals, BS antenna hardware, per-user circuitry, and a
residual site overhead. The exact search prices integer designs with
`_power_terms` and reports its winner through `evaluate_efficiency`; the
relaxation ranks real designs by its own reduced objective.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .link import AntennaConfig, Detector, gamma_required
from .units import SystemParams


class EfficiencyRangeError(ValueError):
    """The efficiency fell outside the representable double range."""


@dataclass(frozen=True)
class EfficiencyReport:
    """Normalized efficiency together with its power budget."""

    zeta: float                 # rate per unit normalized power
    power_pa: float             # alpha * K * gamma
    power_bs_antennas: float    # M * rho_r
    power_user_circuits: float  # K * rho_d
    power_residual: float       # rho_s
    pa_fraction: float          # power_pa / total

    @property
    def total_power(self) -> float:
        return (self.power_pa + self.power_bs_antennas
                + self.power_user_circuits + self.power_residual)


def _power_terms(m: float, k: float, gamma: float, theta: SystemParams
                 ) -> tuple[float, float, float, float, float]:
    """PA, antenna, user-circuit and residual power, then their total."""
    power_pa = theta.alpha * k * gamma
    power_bs = m * theta.rho_r
    power_users = k * theta.rho_d
    total = power_pa + power_bs + power_users + theta.rho_s
    return power_pa, power_bs, power_users, theta.rho_s, total


def evaluate_efficiency(cfg: AntennaConfig, theta: SystemParams,
                        det: Detector) -> EfficiencyReport:
    """Evaluate zeta and its budget at a feasible design point.

    A zeta that overflows or lands in the subnormal range is rejected:
    optimizers must never rank design points by garbage values.
    """
    gamma = gamma_required(cfg, theta.R, det)
    power_pa, power_bs, power_users, power_residual, total = _power_terms(
        cfg.M, cfg.K, gamma, theta)
    zeta = theta.R / total
    if not (math.isfinite(zeta) and zeta >= sys.float_info.min):
        raise EfficiencyRangeError(
            f"zeta out of double range at M={cfg.M}, K={cfg.K}: "
            f"total power {total!r}")
    return EfficiencyReport(zeta, power_pa, power_bs, power_users,
                            power_residual, pa_fraction=power_pa / total)
