"""Exact optimization of integer antenna and user counts.

For each K the power is convex in M, so only the floor and ceiling of the
continuous optimum need to be checked, clamped to the least feasible M.
The detectors differ only in link's interference term I, (K - 1) e for
MRC with e = 2^(R/K) - 1, formed by link's one `_exp2m1`, and K - 1 for
ZF: a design needs M - 1 > I, its SNR is e / (M - 1 - I), and its least M
is floor(I) + 2, K + 1 for ZF.
The search scans K upward in numpy blocks from the first K whose 2^(R/K)
is a finite double. The first block holds 512 K or, given the relaxed
optimum k*, ends at ceil(1.3 k*) + 32 for MRC and ceil(1.6 k*) + 32 for
ZF, just past where the bound fires on most searches; later blocks double
in size. A rate-aware lower bound on the power of every larger K ends the
scan at the first K whose bound reaches the best power below it, exactly
where a one-K-at-a-time loop would stop, wherever the blocks end, so no
externally supplied cap is needed. For MRC the bound
charges the interference antennas through a convex minorant, which
fires near 1.2 K* where the K -> inf limit fired near 1.8 K*.
One kernel, `_block_powers`, ranks the candidates of every K and gives
the winner's M as an exact integer, so only the winning design is built
into an `EfficiencyReport`.
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

# hard stop for searches without k_max; the tail bound normally fires
# long before it, and reaching it is reported as an error
_K_CEILING = 10_000_000
# the scan's K blocks start this small, so short searches stay cheap,
# and double up to the largest, which bounds the temporaries' memory
# (the two M candidates of a block share (2, size) arrays)
_FIRST_BLOCK = 512
_LAST_BLOCK = 32_768
# given the relaxed k*, the first block ends at ceil(reach k*) + 32: the
# tail bound fires at a median 1.26 k* for MRC (at most 1.74) and 1.57 k*
# for ZF (at most 1.85) over request-mix searches, and of the reaches
# timed, 1.2-2.0, these were fastest
_RELAXED_REACH = {Detector.MRC: 1.3, Detector.ZF: 1.6}
_RELAXED_PAD = 32


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


def _block_powers(ks: np.ndarray, theta: SystemParams, det: Detector
                  ) -> tuple[np.ndarray, Callable[[int], int], np.ndarray]:
    """Least total power, its M, and the tail bound at every K in ks.

    ks is a float array. Per K the candidates are the floor and ceiling of
    `optimal_m`'s continuous optimum, clamped to the least feasible M, or
    that M and the next where the optimum is not finite; both are priced
    in one pass. Each power repeats `evaluate_efficiency`'s operations in
    its order, so it equals that function's total power bit for bit, and
    is +inf where it would raise; e = 2^(R/K) - 1 comes from link's
    `_exp2m1`, as there. best_m(i) is the least M attaining a finite
    powers[i], as an exact int also past 2^53. The third array is
    `_tail_lower_bound`'s.
    """
    x = theta.R / ks
    e = _exp2m1(x)
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
        bound = _tail_lower_bound(ks, x, e, interference, theta, det)

    def best_m(i: int) -> int:
        # float(m_lo) rounds past 2^53, so the clamp is rebuilt as an int;
        # a tie goes to the lower candidate, which is never the larger M
        upper_wins = bool(upper[i] < lower[i])
        m_min = math.floor(interference[i]) + 2
        if not finite[i]:
            return m_min + upper_wins
        rounded = math.ceil(m_cont[i]) if upper_wins else math.floor(m_cont[i])
        return max(m_min, rounded)

    return np.minimum(lower, upper), best_m, bound


# below this per-user rate R/K the MRC tail bound keeps its K -> inf form
_SLOPE_X_MIN = 2.0 ** -8


def _tail_lower_bound(ks: np.ndarray, x: np.ndarray, e: np.ndarray,
                      interference: np.ndarray, theta: SystemParams,
                      det: Detector) -> np.ndarray:
    """Power lower bound valid for every user count K' >= k, at each k in ks.

    x = R/k, e = 2^x - 1 and the interference I are `_block_powers`'
    arrays. Minimizing the power over real M, then 2^x - 1 >= x ln2 (so
    K' e(K') >= R ln2), gives power(K') >= C + h(K') with
    C = 2 sqrt(alpha rho_r R ln2) + rho_r + rho_s and
    h(K') = K' rho_d + rho_r (K'-1) e(K').

    MRC: K' - 1 >= (1 - 1/k) K', and K' e(K') is convex in K', so
    f(K') = K' rho_d + (1 - 1/k) rho_r K' e(K') <= h(K') is convex with
    slope rho_d - (1 - 1/k) rho_r (1 - 2^x (1 - x ln2)) at k. Where that
    slope is positive, f climbs from f(k) = h(k), and the bound is C + h(k).
    Elsewhere, and below x = 2^-8, it is the K' -> inf limit
    C + k rho_d + (1 - 1/k) rho_r R ln2. ZF: the larger of
    (k+1) rho_r + k rho_d + rho_s and C - rho_r + k (rho_r + rho_d).

    Rounding: every bound is scaled by (1 - 1e-12). Where x >= 2^-8,
    `_exp2m1`'s pow errs by under one ulp, so e(K') is within 4e-13 relative
    of 2^(R/K') - 1 for every K' <= 4k (1e-13 at k), and the sums round
    by a few ulps, so the margin covers K' <= 4k. Past 2k the slope of f
    is at least rho_d / 2, and its climb outruns the absolute error of
    K' e(K'). The slope test is decided within 1e-10 of its terms; a
    slope that is truly negative by that much lets f dip below f(k) by a
    second-order amount, under 1e-8 of the margin. So rounding cannot
    prune a K that would win.
    """
    rate_ln2 = theta.R * math.log(2.0)
    # three square roots, so no product overflows before the root
    pa_antennas = (2.0 * math.sqrt(theta.alpha) * math.sqrt(theta.rho_r)
                   * math.sqrt(rate_ln2))
    # ZF's own bound: its rate-blind floor (k+1) rho_r has no MRC twin
    if det is Detector.ZF:
        bound = np.maximum(
            (ks + 1) * theta.rho_r + ks * theta.rho_d + theta.rho_s,
            pa_antennas + ks * (theta.rho_r + theta.rho_d) + theta.rho_s)
        return bound * (1.0 - 1e-12)
    share = (ks - 1.0) / ks
    # -d(K e(K))/dK = 1 - 2^x (1 - x ln2), as x ln2 2^x - (2^x - 1)
    drop = x * (e + 1.0) * math.log(2.0) - e
    # strict, so a ratio that overflows to inf proves nothing
    convex = share * drop < theta.rho_d / theta.rho_r
    if x[-1] < _SLOPE_X_MIN:
        convex &= x >= _SLOPE_X_MIN
    charge = np.where(convex, theta.rho_r * interference,
                      (theta.rho_r * rate_ln2) * share)
    return ((pa_antennas + theta.rho_r + theta.rho_s
             + (ks * theta.rho_d + charge)) * (1.0 - 1e-12))


def _first_block(k_lo: int, k_relaxed: float | None, det: Detector) -> int:
    """Size of the scan's first block, which starts at K = k_lo."""
    if k_relaxed is None or not math.isfinite(k_relaxed):
        return _FIRST_BLOCK
    # capped first, since ceil refuses the inf that reach k* may round to
    end = math.ceil(min(_RELAXED_REACH[det] * k_relaxed, k_lo + _LAST_BLOCK))
    return min(max(end + _RELAXED_PAD + 1 - k_lo, 1), _LAST_BLOCK)


def optimize_exact(theta: SystemParams, det: Detector, *,
                   k_max: int | None = None,
                   k_relaxed: float | None = None) -> Optimum:
    """Find the integer (M, K) maximizing energy efficiency.

    Ties break toward smaller K and then smaller M: the scan replaces its
    incumbent only on strict power improvement in ascending K.
    Requires rho_d > 0 when k_max is not supplied, since otherwise ever
    larger user counts can keep improving and no finite answer exists.
    Without k_max the answer is certified by the tail bound; if the bound
    has not fired by K = 10 000 000 the search raises instead.
    k_relaxed, the relaxed optimum's k* where the caller has it, sizes the
    scan's first block to end just past where the bound should fire; the
    blocks only set how much is priced at once, so the result is the same
    for every value, nan and inf included. Without it the block holds 512 K.
    """
    _require_inputs(theta)
    if k_max is not None:   # within double range, as the relaxation takes it
        _require_count("k_max", k_max)
    elif theta.rho_d <= 0:
        raise ValueError(
            "optimum may lie at K -> inf: supply k_max or a positive rho_d")

    k_ceiling = k_max if k_max is not None else _K_CEILING
    power_star, k_star, m_star = math.inf, 0, 0
    pruned_at: int | None = None
    # 2^(R/K) overflows at every K <= R / 1024, so those K cost +inf
    k_lo = math.floor(theta.R / _EXP2_OVERFLOW) + 1
    size = _first_block(k_lo, k_relaxed, det)
    while pruned_at is None and k_lo <= k_ceiling:
        ks = np.arange(k_lo, min(k_lo + size, k_ceiling + 1), dtype=float)
        powers, best_m, bound = _block_powers(ks, theta, det)
        # best power over all K below each entry, the incumbent included
        best_below = np.minimum.accumulate(
            np.concatenate(([power_star], powers[:-1])))
        fired = np.flatnonzero((best_below < math.inf)
                               & (bound >= best_below))
        if fired.size:
            pruned_at = k_lo + int(fired[0])
            powers = powers[:fired[0]]
        if powers.size:
            i = int(np.argmin(powers))
            if powers[i] < power_star:
                power_star, k_star, m_star = (float(powers[i]), k_lo + i,
                                              best_m(i))
        if power_star == math.inf and _exp2m1(theta.R / ks[-1]) == 0.0:
            # 2^(R/K) - 1 is 0 here and, as R/K falls, at every larger K:
            # no K beyond this block reaches the rate either
            break
        k_lo += ks.size
        size = min(2 * size, _LAST_BLOCK)

    if not k_star:
        raise InfeasibleError(
            "no integer design achieves the rate with finite power")
    if pruned_at is None and k_max is None:
        raise ValueError(
            f"exact search reached K = {_K_CEILING} before its tail bound "
            "certified the optimum: supply k_max")
    report = evaluate_efficiency(AntennaConfig(M=m_star, K=k_star), theta, det)
    return Optimum(m_star=m_star, k_star=k_star, zeta_star=report.zeta,
                   report=report, detector=det,
                   k_range_searched=(1, k_ceiling if pruned_at is None
                                     else pruned_at - 1),
                   pruned_at=pruned_at)
