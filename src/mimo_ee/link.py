"""Required transmit SNR and achievable rate for MRC and ZF reception.

The rate expressions are the standard lower bounds on the ergodic rate of
an i.i.d. Rayleigh uplink with perfect CSI at the receiver; they are exact
algebraic inverses of the SNR expressions used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# 2**x overflows IEEE double at x >= 1024
_EXP2_OVERFLOW = 1024.0


class Detector(Enum):
    MRC = "mrc"
    ZF = "zf"


class InfeasibleError(ValueError):
    """The demanded rate is unachievable at any transmit power."""


def exp2_sat(x: float) -> float:
    """2**x, saturating to +inf instead of raising OverflowError."""
    if x >= _EXP2_OVERFLOW:
        return math.inf
    return 2.0 ** x


@dataclass(frozen=True)
class AntennaConfig:
    """A candidate design point: M BS antennas serving K users.

    Exact mode (the default) requires integral counts; relaxed mode admits
    the real-valued configurations used by the continuous optimizer.
    """

    M: float
    K: float
    relaxed: bool = False

    def __post_init__(self) -> None:
        for name in ("M", "K"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (math.isfinite(v) and v >= 1):
                raise ValueError(f"{name} must be finite and >= 1, got {v!r}")
            if not self.relaxed and v != int(v):
                raise ValueError(f"{name} must be an integer in exact mode, got {v!r}")
            object.__setattr__(self, name, float(v))


def is_feasible(cfg: AntennaConfig, rate: float, det: Detector) -> bool:
    """Whether (M, K) can deliver sum rate `rate` with finite transmit power."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")
    if det is Detector.ZF:
        return cfg.M > cfg.K
    e = exp2_sat(rate / cfg.K) - 1.0
    # the K=1 guard avoids 0 * inf when 2^R overflows
    boundary = 0.0 if cfg.K == 1 else (cfg.K - 1.0) * e
    return cfg.M - 1.0 > boundary


def gamma_required(cfg: AntennaConfig, rate: float, det: Detector) -> float:
    """Normalized per-user transmit SNR needed to reach the sum rate.

    Raises InfeasibleError when the configuration cannot reach the rate,
    including the case where the required power overflows double range.
    """
    if not is_feasible(cfg, rate, det):
        raise InfeasibleError(
            f"rate {rate} unachievable at any transmit power "
            f"for M={cfg.M}, K={cfg.K} with {det.value}")
    e = exp2_sat(rate / cfg.K) - 1.0
    if det is Detector.ZF:
        denom = cfg.M - cfg.K
    else:
        denom = cfg.M - 1.0 - (0.0 if cfg.K == 1 else (cfg.K - 1.0) * e)
    # denom > 0 on a feasible design; gamma is 0 where 2^(R/K) rounds to 1
    gamma = e / denom
    if not 0.0 < gamma < math.inf:
        raise InfeasibleError(
            f"required transmit power overflows double range "
            f"for M={cfg.M}, K={cfg.K}, rate {rate} with {det.value}")
    return gamma


def rate_achieved(cfg: AntennaConfig, gamma: float, det: Detector) -> float:
    """Sum spectral efficiency delivered at transmit SNR `gamma`."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
    if det is Detector.ZF:
        if cfg.M <= cfg.K:
            raise ValueError(f"ZF needs M > K, got M={cfg.M}, K={cfg.K}")
        return cfg.K * math.log2(1.0 + gamma * (cfg.M - cfg.K))
    sinr = gamma * (cfg.M - 1.0) / (gamma * (cfg.K - 1.0) + 1.0)
    return cfg.K * math.log2(1.0 + sinr)
