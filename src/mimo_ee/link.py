"""Required transmit SNR and achievable rate for MRC and ZF reception.

The rate expressions are the standard lower bounds on the ergodic rate of
an i.i.d. Rayleigh uplink with perfect CSI at the receiver; they are exact
algebraic inverses of the SNR expressions used here.

The detectors differ only in the interference I, (K - 1) e for MRC with
e = 2^(R/K) - 1 and K - 1 for ZF: a design needs M - 1 > I, its SNR is
e / (M - 1 - I), and its least M is floor(I) + 2, K + 1 for ZF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def _interference(k, e, det: Detector):
    """I = (K - 1) e for MRC, K - 1 for ZF, on floats or arrays; a float
    K = 1 gives 0 even where e is inf, an array nan (its power is inf)."""
    if det is Detector.ZF:
        return k - 1.0
    return (k - 1.0) * e if isinstance(k, np.ndarray) or k != 1 else 0.0


def _headroom(m, k, e, det: Detector, interference=None):
    """SNR denominator M - 1 - I; ZF's is M - K, so it is rounded once.
    A caller that already holds `_interference(k, e, det)` passes it."""
    if det is Detector.ZF:
        return m - k
    if interference is None:
        interference = _interference(k, e, det)
    return m - 1.0 - interference


def is_feasible(cfg: AntennaConfig, rate: float, det: Detector) -> bool:
    """Whether (M, K) can deliver sum rate `rate` with finite transmit power."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")
    return _headroom(cfg.M, cfg.K, exp2_sat(rate / cfg.K) - 1.0, det) > 0.0


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
    # gamma is 0 where 2^(R/K) rounds to 1
    gamma = e / _headroom(cfg.M, cfg.K, e, det)
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
