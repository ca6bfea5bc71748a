"""Continuous relaxation of the (M, K) design problem.

For a fixed real user count k the optimal antenna count has a closed form,
which collapses the design problem to a one-dimensional minimization over
k. The solver evaluates that reduced objective on a dense logarithmic grid
over [1, k_cap] and then zooms into the winning bracket with linear grids.

The logarithmic grid is needed, not a safeguard: the MRC objective is not
unimodal. At R=1.8350427952080244, alpha=1.1773640808511252,
rho_r=1.6871425199908638, rho_d=1.015681971172033e-4,
rho_s=0.3455529913653919 its global minimum 6.5497 sits on the boundary
k = 1; the power rises to a hump near k = 5.5 and falls again to an
interior local minimum of 7.3671 at k = 45.06, which a bracketing search
over [1, k_cap] returns instead. The grid finds k = 1 because it starts there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import (Detector, InfeasibleError, _headroom, _interference,
                   exp2_sat)
from .units import SystemParams

_GRID_POINTS = 4096
_REL_TOL = 1e-9


@dataclass(frozen=True)
class SolverDiag:
    """Where the 1-D solver looked and how hard it refined."""

    refine_iters: int   # zoom rounds after the logarithmic grid
    bracket: tuple[float, float]   # logarithmic-grid neighbours of its winner


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
    if not (math.isfinite(k) and k >= 1):
        raise ValueError(f"k must be finite and >= 1, got {k!r}")


def _objective_grid(k: np.ndarray, theta: SystemParams,
                    det: Detector) -> np.ndarray:
    """Reduced power objective on an array of k values; overflow maps to +inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp2(theta.R / k) - 1.0
        h = 2.0 * np.sqrt(theta.alpha * theta.rho_r * k * e)
        if det is Detector.ZF:
            # ZF's own summation order: MRC's, with I = k - 1, changes bytes
            total = h + k * (theta.rho_r + theta.rho_d) + theta.rho_s
        else:
            total = (h + theta.rho_r + theta.rho_s + k * theta.rho_d
                     + theta.rho_r * _interference(k, e, det))
    return np.where(np.isfinite(total), total, np.inf)


def reduced_power(k: float, theta: SystemParams, det: Detector) -> float:
    """Total normalized power at user count k with the antenna count optimized out.

    Returns +inf where the per-user rate 2^(R/k) overflows; such points are
    never minima because a larger k always brings the power back to finite.
    """
    _require_inputs(theta, k)
    return float(_objective_grid(np.float64(k), theta, det))


def optimal_m(theta: SystemParams, k: float, det: Detector) -> float:
    """Closed-form antenna count minimizing the power at fixed user count k."""
    _require_inputs(theta, k)
    e = exp2_sat(theta.R / k) - 1.0
    surplus = math.sqrt(theta.alpha * k * e / theta.rho_r)
    # the M whose headroom is the surplus: 1 + I + surplus, ZF's K + surplus
    return surplus - _headroom(0.0, k, e, det)


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
        k_cap = reduced_power(k_seed, theta, det) / theta.rho_d
        if not math.isfinite(k_cap):
            raise ValueError("k cap incumbent/rho_d overflows: supply k_max")
        # a float: past 2^63 an int would make geomspace an object array
        k_cap = max(k_seed, float(math.ceil(k_cap)))
    else:
        if isinstance(k_max, bool) or not (math.isfinite(k_max) and k_max >= 1):
            raise ValueError(f"k_max must be finite and >= 1, got {k_max!r}")
        k_cap = float(k_max)

    grid = np.geomspace(1.0, k_cap, _GRID_POINTS)
    values = _objective_grid(grid, theta, det)
    best = int(np.argmin(values))  # first minimum wins, i.e. smaller k on ties
    if not math.isfinite(values[best]):
        raise InfeasibleError(
            "power overflows double range over the whole k grid")
    objective, k_star = float(values[best]), float(grid[best])
    bracket = (float(grid[max(best - 1, 0)]),
               float(grid[min(best + 1, _GRID_POINTS - 1)]))

    # zoom: a linear grid over the bracket, then over the bracket around
    # its argmin, until the bracket is narrower than the tolerance; the
    # running best only ever improves, so no round can lose the coarse winner
    lo, hi = bracket
    rounds = 0
    while hi - lo > _REL_TOL * max(1.0, hi):
        grid = np.linspace(lo, hi, _GRID_POINTS)
        values = _objective_grid(grid, theta, det)
        best = int(np.argmin(values))
        if values[best] < objective:
            objective, k_star = float(values[best]), float(grid[best])
        lo = float(grid[max(best - 1, 0)])
        hi = float(grid[min(best + 1, _GRID_POINTS - 1)])
        rounds += 1

    return RelaxedOptimum(
        k_star=k_star, m_star=optimal_m(theta, k_star, det),
        zeta=theta.R / objective, objective=objective, detector=det,
        solver_diag=SolverDiag(refine_iters=rounds, bracket=bracket))
