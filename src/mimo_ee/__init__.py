"""Energy-efficiency optimization of a multiuser massive-MIMO uplink.

The library answers one question in several refinements: given a target
sum spectral efficiency and a transceiver power model, how many BS
antennas M and users K maximize bits per Joule under MRC or ZF reception?

Modules:
    units        physical-to-normalized parameter conversion
    link         required transmit SNR and achievable rates
    efficiency   the bits-per-Joule objective and its power breakdown
    relaxation   continuous (M, K) relaxation with closed-form M
    integer_opt  exact integer search with pruning
    asymptotics  constant per-user-rate scaling family and rate thresholds
    montecarlo   simulation check that the rate formulas are achievable
    report       CSV/JSON tables for sweeps and validation runs
    cli          the `mimo-ee` command-line tool
"""

from .asymptotics import (Thresholds, TrajectoryPoint, TrajectorySpec,
                          mrc_upper_bound_check, thresholds, trajectory_limit,
                          trajectory_point, trajectory_zeta)
from .efficiency import (EfficiencyRangeError, EfficiencyReport,
                         evaluate_efficiency)
from .integer_opt import Optimum, optimize_exact
from .link import (AntennaConfig, Detector, InfeasibleError, gamma_required,
                   rate_achieved)
from .montecarlo import McConfig, McResult, bound_gap_sweep
from .relaxation import (RelaxedOptimum, SolverDiag, minimize_relaxed,
                         optimal_m)
from .report import (SweepSpec, sweep_records, trajectory_records,
                     validation_records)
from .units import PhysicalParams, PowerProfile, SystemParams, normalize

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig", "Detector", "EfficiencyRangeError", "EfficiencyReport",
    "InfeasibleError", "McConfig", "McResult", "Optimum", "PhysicalParams",
    "PowerProfile", "RelaxedOptimum", "SolverDiag", "SweepSpec",
    "SystemParams", "Thresholds", "TrajectoryPoint", "TrajectorySpec",
    "bound_gap_sweep", "evaluate_efficiency", "gamma_required",
    "minimize_relaxed", "mrc_upper_bound_check",
    "normalize", "optimal_m", "optimize_exact",
    "rate_achieved", "sweep_records",
    "thresholds", "trajectory_limit", "trajectory_point",
    "trajectory_records", "trajectory_zeta", "validation_records",
]
