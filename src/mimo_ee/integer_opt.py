"""Exact optimization of integer antenna and user counts.

For each K the power is convex in M, so only the floor and ceiling of the
continuous optimum, clamped to link's least feasible M, are priced, by
`_block_powers` for a block of K; only the winner is built into a report.
The search prices one window of K and certifies every other K by branch
and bound on `_interval_bound`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyReport, _power_terms, evaluate_efficiency
from .link import (AntennaConfig, Detector, InfeasibleError, _EXP2_OVERFLOW,
                   _exp2m1, _headroom, _interference)
from .relaxation import _require_inputs
from .units import SystemParams, _require_count

# K are priced as doubles, which hold every integer below 2^53
_K_EXACT = 2 ** 53
# the window holds 512 K without a relaxed k* and at most 32 768 with one; a
# leaf holds at most 512 K, so a pass of 64 pieces prices at most 32 768 K
_FIRST_BLOCK, _LAST_BLOCK = 512, 32_768
# with the relaxed k*, the window ends at ceil(reach k*) + 32, well past K*
_RELAXED_REACH = {Detector.MRC: 1.3, Detector.ZF: 1.6}
# a pass bounds the first 64 pieces of the queue and cuts each it keeps that
# is no leaf into pieces of ratio 1.1, and into at least 16
_PASS, _PIECE_RATIO, _SPLIT = 64, 1.1, 16
# without k_max, a search is refused once it prices this many K: where the
# best integer M lies far from the real one, the bound keeps huge ranges
_PRICED_MAX = 10_000_000
_NO_DESIGN = "no integer design achieves the rate with finite power"


@dataclass(frozen=True)
class Optimum:
    m_star: int
    k_star: int
    zeta_star: float
    report: EfficiencyReport
    detector: Detector
    k_range_searched: tuple[int, int]  # least and greatest K priced
    pruned_at: int | None              # first K past them the bound excluded

    @property
    def objective(self) -> float:
        """Total normalized power at the optimum, i.e. R / zeta_star."""
        return self.report.total_power


def _block_powers(ks: np.ndarray, theta: SystemParams, det: Detector
                  ) -> tuple[np.ndarray, Callable[[int], int]]:
    """Least total power and its M at every K in ks.

    ks is a float array. Per K the candidates are the floor and ceiling of
    `optimal_m`'s continuous optimum, clamped to the least feasible M, or
    that M and the next where the optimum is not finite; both are priced
    in one pass. Each power repeats `evaluate_efficiency`'s operations in
    its order, so it equals that function's total power bit for bit, and
    is +inf where it would raise; e = 2^(R/K) - 1 comes from link's
    `_exp2m1`, as there. best_m(i) is the least M attaining a finite
    powers[i], as an exact int also past 2^53.
    """
    e = _exp2m1(theta.R / ks)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        surplus = np.sqrt(theta.alpha * ks * e / theta.rho_r)
        interference = _interference(ks, e, det)
        # the least feasible M, floor(I) + 2, and the next, each rounded
        # once, as the float of best_m's exact int is
        least = np.floor(interference) + [[2.0], [3.0]]
        # as in optimal_m
        m_cont = surplus - _headroom(0.0, ks, interference, det)
        finite = np.isfinite(m_cont)
        # row 0 holds the floor candidates, row 1 the ceilings
        rounded = np.empty_like(least)
        np.floor(m_cont, out=rounded[0])
        np.ceil(m_cont, out=rounded[1])
        m = np.where(finite, np.maximum(least[0], rounded, out=rounded), least)
        gamma = e / _headroom(m, ks, interference, det)
        power = _power_terms(m, ks, gamma, theta)[4]
        zeta = theta.R / power
        # gamma > 0 implies a positive headroom; an infinite one, zeta 0
        lower, upper = np.where((gamma > 0) & np.isfinite(zeta)
                                & (zeta >= sys.float_info.min),
                                power, math.inf)

    def best_m(i: int) -> int:
        # float(m_lo) rounds past 2^53, so the clamp is rebuilt as an int;
        # a tie goes to the lower candidate, which is never the larger M
        upper_wins = bool(upper[i] < lower[i])
        m_min = math.floor(interference[i]) + 2
        if not finite[i]:
            return m_min + upper_wins
        rounded = math.ceil(m_cont[i]) if upper_wins else math.floor(m_cont[i])
        return max(m_min, rounded)

    return np.minimum(lower, upper), best_m


def _interval_bound(lo: np.ndarray, hi: np.ndarray, theta: SystemParams,
                    det: Detector) -> np.ndarray:
    """Power lower bound for every integer K in [lo_i, hi_i], on float arrays.

    Minimizing over a real M, with e = 2^(R/K) - 1, the power is at least
    MRC: 2 sqrt(alpha rho_r K e) + rho_r + rho_s + K rho_d + rho_r (K-1) e;
    ZF: max(rho_r, 2 sqrt(alpha rho_r K e)) + K (rho_r + rho_d) + rho_s.
    K e and e fall as K grows, so on the interval K e >= u = hi e(hi), and
    K - 1 >= (1 - 1/lo) K.

    Rounding: pow errs by under one ulp of 2^x and R/K by half an ulp, so
    the priced e is within 8.5e-14 relative of 2^(R/K) - 1 where R/K >= 1,
    and within 2^-51 absolute below. So u is hi (e(hi) - 2^-49), which no
    priced K e on the interval undercuts by 1.7e-13 relative; or R ln2 / 2.
    Below R/K = 1, pow alone errs by under 2^-52 and 2^x - 1 >= x ln2, so
    K e >= R ln2 (1 - 2^-53) - K 2^-52; where K 2^-52 exceeds R ln2 / 2, a
    priced e > 0 is >= 2^-52, which gives K e > R ln2 / 2 by itself (an e
    of 0 is priced +inf). Above, K e >= R ln2 (1 - 1e-13). The priced
    power rounds its terms, all >= 0, under 1e-15 relative, and its
    headroom M - 1 - I is exact within its own rounding, which the
    minimization over M absorbs. The scale (1 - 1e-12) covers these
    errors. No product overflows where the true bound does not: share hi
    and hi e overflow together only where their product does.
    """
    e = np.maximum(_exp2m1(theta.R / hi) - 2.0 ** -49,
                   (0.5 * math.log(2.0)) * theta.R / hi)
    with np.errstate(over="ignore", invalid="ignore"):
        pa_antennas = (2.0 * math.sqrt(theta.alpha) * math.sqrt(theta.rho_r)
                       * (np.sqrt(hi) * np.sqrt(e)))
        if det is Detector.ZF:
            bound = (np.maximum(pa_antennas, theta.rho_r)
                     + lo * (theta.rho_r + theta.rho_d) + theta.rho_s)
        else:
            share, ke = theta.rho_r * (1.0 - 1.0 / lo), hi * e
            bound = (pa_antennas + theta.rho_r + theta.rho_s + lo * theta.rho_d
                     + np.where(ke < math.inf, share * ke, share * hi * e))
    return bound * (1.0 - 1e-12)


def _window(k_lo: int, k_top: int, k_relaxed: float | None,
            det: Detector) -> tuple[int, int]:
    """First and last K of the window, which the search prices first."""
    end = min(k_top, k_lo + _FIRST_BLOCK - 1)
    if k_relaxed is not None and math.isfinite(k_relaxed):
        # capped first, since ceil refuses the inf that reach k* may round to
        end = min(k_top, max(k_lo, 32 + math.ceil(
            min(_RELAXED_REACH[det] * k_relaxed, _K_EXACT))))
    return max(k_lo, end - _LAST_BLOCK + 1), end


def _split(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each [lo_i, hi_i] cut into geometric pieces of ratio 1.1, and into at
    least 16; however the cuts round, the nonempty pieces cover it exactly."""
    if not lo.size:
        return lo, hi
    n = max(_SPLIT, math.ceil(math.log(((hi + 1.0) / lo).max(), _PIECE_RATIO)))
    cuts = np.floor(lo[:, None] * ((hi + 1.0) / lo)[:, None]
                    ** (np.arange(n + 1) / n))
    np.minimum(cuts, (hi + 1.0)[:, None], out=cuts)
    cuts[:, -1] = hi + 1.0
    starts, ends = cuts[:, :-1].ravel(), cuts[:, 1:].ravel() - 1.0
    return starts[starts <= ends], ends[starts <= ends]


def _price(ks: np.ndarray, theta: SystemParams, det: Detector,
           best: tuple[float, int, int]) -> tuple[float, int, int]:
    """(power, K, M) of the best of best and the ascending ks; ties: least K"""
    powers, best_m = _block_powers(ks, theta, det)
    i = int(np.argmin(powers))
    if (powers[i], ks[i]) < best[:2]:
        return float(powers[i]), int(ks[i]), best_m(i)
    return best


def optimize_exact(theta: SystemParams, det: Detector, *,
                   k_max: int | None = None,
                   k_relaxed: float | None = None) -> Optimum:
    """Find the integer (M, K) maximizing energy efficiency.

    Ties break toward smaller K, then smaller M. Every K is priced or
    excluded by `_interval_bound`, so the answer is certified. Without k_max,
    rho_d must be > 0, and the search raises where its cap overflows, the
    bound cannot exclude K >= 2^53, or it prices 10 000 000 K. k_relaxed, the
    relaxed k*, places the window, never the answer.
    """
    _require_inputs(theta)
    if k_max is not None:   # within double range, as the relaxation takes it
        _require_count("k_max", k_max)
    elif theta.rho_d <= 0:
        raise ValueError(
            "optimum may lie at K -> inf: supply k_max or a positive rho_d")

    # 2^(R/K) overflows at every K <= R / 1024, so those K cost +inf
    k_lo = math.floor(theta.R / _EXP2_OVERFLOW) + 1
    k_top = min(k_max or _K_EXACT, _K_EXACT - 1)
    if k_lo <= k_top:
        w_lo, w_hi = _window(k_lo, k_top, k_relaxed, det)
        best = _price(np.arange(w_lo, w_hi + 1.0), theta, det, (math.inf, 0, 0))
    # with no K to price, or 2^(R/K) - 1 = 0 at k_lo and so at every larger K
    if k_lo > k_top or not best[1] and _exp2m1(theta.R / k_lo) == 0.0:
        raise InfeasibleError(_NO_DESIGN)

    # each user adds at least rho_d, and under ZF an antenna too, so no K past
    # the cap beats the best power, roundings included (with none, 2^53 and on)
    zf = det is Detector.ZF
    cap = k_max or best[0] / (theta.rho_d + theta.rho_r * zf) * (1.0 + 1e-12)
    if best[1] and not cap < math.inf:
        per_user = "(rho_r + rho_d)" if zf else "rho_d"
        raise ValueError(f"k cap incumbent/{per_user} overflows: supply k_max")
    k_end = k_max or math.floor(min(cap, sys.float_info.max)) + 1
    # the K from 2^53 on cannot be priced, so the bound must exclude them
    tail = math.inf if k_end < _K_EXACT else _interval_bound(
        np.array([float(_K_EXACT)]), np.array([float(k_end)]), theta, det)[0]
    gaps = np.array([[k_lo, w_hi + 1.0],
                     [w_lo - 1.0, min(k_end, _K_EXACT - 1)]])
    lo, hi = _split(*gaps[:, gaps[0] <= gaps[1]])
    first, last, spent = w_lo, w_hi, w_hi - w_lo + 1
    while lo.size or k_end >= _K_EXACT:
        # strict, so a tie at a smaller K is never cut
        kept = ~(_interval_bound(lo[:_PASS], hi[:_PASS], theta, det) > best[0])
        a, b = lo[:_PASS][kept], hi[:_PASS][kept]
        lo, hi = lo[_PASS:], hi[_PASS:]
        if a.size:
            # a leaf is priced whole; another piece's last K tightens best
            head = np.where(b - a < _FIRST_BLOCK, a, b)
            ks = np.concatenate([np.arange(h, t + 1) for h, t in zip(head, b)])
            best = _price(ks, theta, det, best)
            first, last = min(first, int(ks[0])), max(last, int(ks[-1]))
            spent += ks.size
            # the parts of the kept pieces go first, so the queue stays small
            a, b = _split(a[head > a], b[head > a])
            lo, hi = np.concatenate((a, lo)), np.concatenate((b, hi))
        if (k_end >= _K_EXACT and not tail > best[0]
                or k_max is None and spent >= _PRICED_MAX and lo.size):
            raise ValueError("exact search cannot certify below K = 2^53 in "
                             f"{_PRICED_MAX} priced K: supply a k_max below it")
        if not lo.size:
            break

    _, k_star, m_star = best
    if not k_star:
        raise InfeasibleError(_NO_DESIGN)
    report = evaluate_efficiency(AntennaConfig(M=m_star, K=k_star), theta, det)
    return Optimum(m_star=m_star, k_star=k_star, zeta_star=report.zeta,
                   report=report, detector=det, k_range_searched=(first, last),
                   pruned_at=None if last == k_max else last + 1)
