"""Required transmit SNR and achievable rate for MRC and ZF reception.

The rate expressions are the standard lower bounds on the ergodic rate of
an i.i.d. Rayleigh uplink with perfect CSI at the receiver; they are exact
algebraic inverses of the SNR expressions used here.

The detectors differ only in the interference I, (K - 1) e for MRC with
e = 2^(R/K) - 1 and K - 1 for ZF: a design needs M - 1 > I, its SNR is
e / (M - 1 - I), and its least M is floor(I) + 2, K + 1 for ZF. The
relaxation follows the same rule: its objective names the detector only
through I. Every integer design forms e by `_exp2m1`, the one 2^x - 1 of
the package; only the relaxed grid forms it by expm1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .units import _require_number

# 2**x overflows IEEE double at x >= 1024
_EXP2_OVERFLOW = 1024.0


class Detector(Enum):
    MRC = "mrc"
    ZF = "zf"


class InfeasibleError(ValueError):
    """The demanded rate is unachievable at any transmit power."""


def _exp2m1(x):
    """2^x - 1 on a float or a float array, +inf from x = 1024 on: 2^x is the
    C library's pow, which Python's ** and numpy's float_power call (numpy's
    power and exp2 differ from it in the last bit on some arguments)."""
    if not isinstance(x, np.ndarray):
        return math.inf if x >= _EXP2_OVERFLOW else math.pow(2.0, x) - 1.0
    with np.errstate(over="ignore"):
        return np.float_power(2.0, x) - 1.0


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
        for name, v in (("M", self.M), ("K", self.K)):
            _require_number(name, v, 1, strict=False)
            if not self.relaxed and v != int(v):
                raise ValueError(f"{name} must be an integer in exact mode, got {v!r}")
            object.__setattr__(self, name, float(v))


def _interference(k, e, det: Detector):
    """I = (K - 1) e for MRC, K - 1 for ZF, on floats or arrays; a float
    K = 1 gives 0 even where e is inf, an array nan (its power is inf)."""
    if det is Detector.ZF:
        return k - 1.0
    return (k - 1.0) * e if isinstance(k, np.ndarray) or k != 1 else 0.0


def _headroom(m, k, interference, det: Detector):
    """SNR denominator M - 1 - I, with I from `_interference`; ZF's is
    M - K, so it is rounded once."""
    if det is Detector.ZF:
        return m - k
    return m - 1.0 - interference


def _rate_headroom(cfg: AntennaConfig, rate: float, det: Detector):
    """(2^(R/K) - 1, SNR denominator) of a validated rate; feasible iff > 0."""
    _require_number("rate", rate, 0)
    e = _exp2m1(rate / cfg.K)
    return e, _headroom(cfg.M, cfg.K, _interference(cfg.K, e, det), det)


def gamma_required(cfg: AntennaConfig, rate: float, det: Detector) -> float:
    """Normalized per-user transmit SNR needed to reach the sum rate.

    Raises InfeasibleError when the configuration cannot reach the rate,
    and where the required power overflows double range or rounds to 0.
    """
    e, headroom = _rate_headroom(cfg, rate, det)
    if not headroom > 0.0:
        raise InfeasibleError(
            f"rate {rate} unachievable at any transmit power "
            f"for M={cfg.M}, K={cfg.K} with {det.value}")
    gamma = e / headroom
    if gamma == 0.0:   # 2^(R/K) rounds to 1, or e / headroom underflows
        raise InfeasibleError(
            f"required transmit power rounds to 0 "
            f"for M={cfg.M}, K={cfg.K}, rate {rate} with {det.value}")
    if not gamma < math.inf:
        raise InfeasibleError(
            f"required transmit power overflows double range "
            f"for M={cfg.M}, K={cfg.K}, rate {rate} with {det.value}")
    return gamma


def rate_achieved(cfg: AntennaConfig, gamma: float, det: Detector) -> float:
    """Sum spectral efficiency delivered at transmit SNR `gamma`."""
    _require_number("gamma", gamma, 0)
    if det is Detector.ZF:
        if cfg.M <= cfg.K:
            raise ValueError(f"ZF needs M > K, got M={cfg.M}, K={cfg.K}")
        return cfg.K * math.log2(1.0 + gamma * (cfg.M - cfg.K))
    sinr = gamma * (cfg.M - 1.0) / (gamma * (cfg.K - 1.0) + 1.0)
    return cfg.K * math.log2(1.0 + sinr)
