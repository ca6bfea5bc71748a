"""Continuous relaxation of the (M, K) design problem.

For a fixed real user count k the optimal antenna count has a closed form,
which collapses the design problem to a one-dimensional minimization over
k. The solver evaluates that reduced objective on a 4096-point logarithmic
grid over [1, k_cap], then zooms into the winning bracket with 1024-point
linear grids, both images of unit grids built once. It forms 2^(R/k) - 1 as
expm1(R ln2 / k), which does not cancel where R/k is tiny.

The logarithmic grid is needed, not a safeguard: the MRC objective is not
unimodal. At R=1.8350427952080244, alpha=1.1773640808511252,
rho_r=1.6871425199908638, rho_d=1.015681971172033e-4,
rho_s=0.3455529913653919 its global minimum 6.5497 sits on the boundary
k = 1; the power rises to a hump near k = 5.5 and falls again to an
interior local minimum of 7.3671 at k = 45.06, which a bracketing search
over [1, k_cap] returns instead. The grid finds k = 1 because it starts there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .link import (Detector, InfeasibleError, _exp2m1, _headroom,
                   _interference)
from .units import SystemParams, _require_number

_GRID_POINTS = 4096
_ZOOM_POINTS = 1024
_REL_TOL = 1e-9
_UNIT = np.linspace(0.0, 1.0, _GRID_POINTS)
_ZOOM_UNIT = np.linspace(0.0, 1.0, _ZOOM_POINTS)


@dataclass(frozen=True)
class SolverDiag:
    """Where the 1-D solver looked and how hard it refined."""

    refine_iters: int   # zoom rounds after the logarithmic grid


@dataclass(frozen=True)
class RelaxedOptimum:
    k_star: float       # real user count at the minimum
    m_star: float       # matching closed-form antenna count
    zeta: float         # relaxed efficiency R / objective
    objective: float    # total normalized power at (m_star, k_star)
    detector: Detector
    solver_diag: SolverDiag


def _require_inputs(theta: SystemParams, k: float = 1.0) -> None:
    if theta.rho_r <= 0:
        raise ValueError(
            "rho_r must be > 0: with free BS antennas the optimal M is unbounded")
    _require_number("k", k, 1, strict=False)


def _objective_grid(k: np.ndarray, theta: SystemParams,
                    det: Detector) -> np.ndarray:
    """Reduced power objective on an ascending array of k values; overflow
    maps to +inf. Callers hold np.errstate(over="ignore", invalid="ignore")."""
    e = np.expm1((theta.R * math.log(2.0)) / k)
    # one order, h + rho_r + rho_s + k rho_d + rho_r I, so the detectors
    # differ only in I, and at k = 1 (I = 0) they price one design alike
    total = np.sqrt((theta.alpha * theta.rho_r) * k * e)
    total *= 2.0  # h = 2 sqrt(alpha rho_r k e)
    total += theta.rho_r
    total += theta.rho_s
    total += k * theta.rho_d
    total += theta.rho_r * _interference(k, e, det)
    # terms are >= 0, so a total that is not finite is inf or nan; a nan is
    # 0 * inf: MRC's (k - 1) e at k = 1, the least k, with e = inf, or an
    # overflowed alpha rho_r k times e = 0, e's least value, at the largest k
    if total[0] != total[0] or e[-1] == 0.0:
        total[np.isnan(total)] = np.inf
    return total


def _reduced_power(k: float, theta: SystemParams, det: Detector) -> float:
    """Total normalized power at user count k with the antenna count optimized out.

    Returns +inf where the per-user rate 2^(R/k) overflows; such points are
    never minima because a larger k always brings the power back to finite.
    """
    _require_inputs(theta, k)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_objective_grid(np.array([float(k)]), theta, det)[0])


def _m_cont(theta: SystemParams, k, e, interference, det: Detector):
    """Real M minimizing the power at k, a float or an ascending array, under
    np.errstate(over="ignore"): 1 + I + surplus, ZF's K + surplus. The surplus
    sqrt(alpha k e / rho_r) is sqrt(k) sqrt(e) sqrt(alpha) / sqrt(rho_r) where
    that overflows: at an array's first k or nowhere, as k e falls in k."""
    surplus = np.sqrt(theta.alpha * k * e / theta.rho_r)
    if not np.ravel(surplus)[0] < math.inf:
        surplus = np.where(surplus < math.inf, surplus, np.sqrt(k) * np.sqrt(e)
                           * math.sqrt(theta.alpha) / math.sqrt(theta.rho_r))
    return surplus - _headroom(0.0, k, interference, det)


def optimal_m(theta: SystemParams, k: float, det: Detector) -> float:
    """Closed-form antenna count minimizing the power at fixed user count k."""
    _require_inputs(theta, k)
    e = _exp2m1(theta.R / k)
    with np.errstate(over="ignore"):
        return float(_m_cont(theta, k, e, _interference(k, e, det), det))


def minimize_relaxed(theta: SystemParams, det: Detector, *,
                     k_max: float | None = None) -> RelaxedOptimum:
    """Minimize the reduced power objective over real k in [1, k_max].

    When k_max is not given it is derived from an incumbent evaluation:
    any k with k*rho_d above the incumbent objective cannot win, which
    turns the unbounded domain into a provably sufficient interval. That
    construction needs rho_d > 0 and a finite incumbent/rho_d; otherwise
    the caller must cap k itself.
    """
    _require_inputs(theta)
    if k_max is None:
        if theta.rho_d <= 0:
            raise ValueError(
                "optimum may lie at k -> inf: supply k_max or a positive rho_d")
        # seed point with per-user rate <= 2 bits/s/Hz, always finite power
        k_seed = max(1.0, theta.R / 2.0)
        k_cap = _reduced_power(k_seed, theta, det) / theta.rho_d
        if not math.isfinite(k_cap):
            raise ValueError("k cap incumbent/rho_d overflows: supply k_max")
        k_cap = max(k_seed, float(math.ceil(k_cap)))
    else:
        _require_number("k_max", k_max, 1, strict=False)
        k_cap = float(k_max)

    with np.errstate(over="ignore", invalid="ignore"):
        # exp(unit ln k_cap): exp(0) is 1, but exp(log(x)) need not be x
        grid = _UNIT * math.log(k_cap)
        np.exp(grid, out=grid)
        grid[-1] = k_cap
        # round 0 is the logarithmic grid; each later one is a linear grid
        # over the bracket around the last argmin, until the bracket is
        # narrower than the tolerance; the running best only ever improves,
        # so no round loses the coarse winner
        objective = math.inf
        for rounds in itertools.count():
            values = _objective_grid(grid, theta, det)
            best = int(values.argmin())  # on ties the first, smaller k wins
            if values[best] < objective:
                objective, k_star = float(values[best]), float(grid[best])
            if objective == math.inf:
                raise InfeasibleError(
                    "power overflows double range over the whole k grid")
            lo = float(grid[max(best - 1, 0)])
            hi = float(grid[min(best + 1, grid.size - 1)])
            if not hi - lo > _REL_TOL * max(1.0, hi):
                break
            # hi <= 2 lo, so hi - lo is exact and the last point is hi itself
            grid = _ZOOM_UNIT * (hi - lo)
            grid += lo

    # the power holds M only as rho_r M, finite also where M overflows
    m_star = optimal_m(theta, k_star, det)
    if not math.isfinite(m_star):
        raise InfeasibleError("the antenna count at the relaxed optimum "
                              f"k = {k_star!r} overflows double range")
    return RelaxedOptimum(
        k_star=k_star, m_star=m_star, zeta=theta.R / objective,
        objective=objective, detector=det,
        solver_diag=SolverDiag(refine_iters=rounds))
