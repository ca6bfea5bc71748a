"""Tabular reporting: rate sweeps, power breakdowns, validation tables.

Everything here is deliberately dumb plumbing: each cell is the unmodified
result of one library call, formatted once. Output is deterministic down
to the byte for a given input, which the regression tests rely on, so
floats are rendered with Python's shortest round-trip repr and rows always
end with a bare newline.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from .asymptotics import TrajectorySpec, trajectory_limit, trajectory_point, \
    thresholds as rate_thresholds, mrc_upper_bound_check, trajectory_zeta
from .integer_opt import optimize_exact
from .link import Detector
from .montecarlo import McConfig, bound_gap_sweep
from .relaxation import RelaxedOptimum, minimize_relaxed
from .units import PowerProfile, SystemParams, _require_count, _require_number

SWEEP_OUTPUTS = ("exact", "relaxed", "trajectory", "pa_fraction", "comparison")

BASE_COLUMNS = ("R", "detector", "M_star", "K_star", "zeta_star",
                "zeta_relaxed", "ratio", "pa_fraction", "power_pa",
                "power_bs", "power_users", "power_residual")
TRAJECTORY_COLUMN = "zeta_trajectory"
COMPARISON_COLUMN = "relaxed_mrc_less_than_zf"
ERROR_COLUMN = "error"

VALIDATION_COLUMNS = ("m", "k", "gamma", "detector", "trials", "seed",
                      "empirical_rate", "ci_halfwidth", "bound_rate",
                      "margin")

TRAJECTORY_COLUMNS = ("R", "k", "m", "zeta", "zeta_limit", ERROR_COLUMN)

THRESHOLD_COLUMNS = ("R", "alpha", "rho_r", "rho_d", "rho_s", "r1", "r2",
                     "bound_holds", ERROR_COLUMN)

# failures that mark a row as unachievable rather than aborting the sweep
_ROW_ERRORS = (ValueError, ArithmeticError)


@dataclass(frozen=True)
class SweepSpec:
    """A rate sweep: which rates, which detectors, which columns to fill.

    trajectory_c supplies the fixed per-user rate for the trajectory
    column and is required exactly when that output is selected.
    """

    r_values: tuple[float, ...]
    theta_base: PowerProfile
    detectors: tuple[Detector, ...] = (Detector.MRC, Detector.ZF)
    outputs: frozenset[str] = frozenset({"exact", "relaxed"})
    trajectory_c: float | None = None
    k_max: int | None = None

    def __post_init__(self) -> None:
        if not self.r_values:
            raise ValueError("r_values must be nonempty")
        for rate in self.r_values:
            _require_number("r_values", rate, 0)
        if not all(a < b for a, b in zip(self.r_values, self.r_values[1:])):
            raise ValueError("r_values must be strictly increasing")
        if not self.detectors:
            raise ValueError("at least one detector must be selected")
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("detectors must be distinct")
        if not self.outputs:
            raise ValueError("at least one output must be selected")
        unknown = set(self.outputs) - set(SWEEP_OUTPUTS)
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}; "
                             f"choose from {SWEEP_OUTPUTS}")
        if "trajectory" in self.outputs and self.trajectory_c is None:
            raise ValueError(
                "trajectory output needs trajectory_c, the per-user rate")
        if self.trajectory_c is not None:
            _require_number("trajectory_c", self.trajectory_c, 0)
        if self.k_max is not None:
            _require_count("k_max", self.k_max)


def sweep_columns(spec: SweepSpec) -> tuple[str, ...]:
    cols = list(BASE_COLUMNS)
    if "trajectory" in spec.outputs:
        cols.append(TRAJECTORY_COLUMN)
    if "comparison" in spec.outputs:
        cols.append(COMPARISON_COLUMN)
    cols.append(ERROR_COLUMN)
    return tuple(cols)


def _rows_for_rate(rate: float, spec: SweepSpec) -> list[dict]:
    theta = spec.theta_base.at_rate(rate)
    need_exact = not spec.outputs.isdisjoint({"exact", "pa_fraction"})

    needed = set(spec.detectors) if "relaxed" in spec.outputs else set()
    if "comparison" in spec.outputs:
        needed = {Detector.MRC, Detector.ZF}
    solved: dict[Detector, RelaxedOptimum] = {}
    failed: dict[Detector, Exception] = {}
    # MRC first, so a comparison cell names the MRC error when both fail
    for det in (Detector.MRC, Detector.ZF):
        if det in needed:
            try:
                solved[det] = minimize_relaxed(theta, det, k_max=spec.k_max)
            except _ROW_ERRORS as exc:
                failed[det] = exc

    rows = []
    for det in spec.detectors:
        row = {**dict.fromkeys(sweep_columns(spec)), "R": rate,
               "detector": det}
        errors: list[str] = []

        exact = None
        if need_exact:
            try:
                exact = optimize_exact(
                    theta, det, k_max=spec.k_max,
                    k_relaxed=solved[det].k_star if det in solved else None)
            except _ROW_ERRORS as exc:
                errors.append(f"exact: {exc}")
        if exact is not None and "exact" in spec.outputs:
            budget = exact.report
            row.update(M_star=exact.m_star, K_star=exact.k_star,
                       zeta_star=exact.zeta_star, power_pa=budget.power_pa,
                       power_bs=budget.power_bs_antennas,
                       power_users=budget.power_user_circuits,
                       power_residual=budget.power_residual)
        if exact is not None and "pa_fraction" in spec.outputs:
            row["pa_fraction"] = exact.report.pa_fraction

        if "relaxed" in spec.outputs:
            if det in failed:
                errors.append(f"relaxed: {failed[det]}")
            else:
                row["zeta_relaxed"] = solved[det].zeta
                if exact is not None and "exact" in spec.outputs:
                    row["ratio"] = exact.zeta_star / solved[det].zeta

        if "trajectory" in spec.outputs and det is Detector.MRC:
            tspec = TrajectorySpec(c=spec.trajectory_c, profile=spec.theta_base)
            try:
                row[TRAJECTORY_COLUMN] = trajectory_zeta(tspec, rate)
            except _ROW_ERRORS as exc:
                errors.append(f"trajectory: {exc}")

        if "comparison" in spec.outputs:
            if failed:
                errors.append(f"comparison: {next(iter(failed.values()))}")
            else:
                row[COMPARISON_COLUMN] = (solved[Detector.MRC].zeta
                                          < solved[Detector.ZF].zeta)

        row[ERROR_COLUMN] = "; ".join(errors) if errors else None
        rows.append(row)
    return rows


def sweep_records(spec: SweepSpec) -> list[dict]:
    """One record per (R, detector), in sweep order, errors annotated."""
    return [row for r in spec.r_values for row in _rows_for_rate(r, spec)]


def validation_records(configs: Sequence[McConfig], *,
                       threads: int = 1) -> list[dict]:
    """One record per simulated config, echoing the config for traceability."""
    if not configs:
        raise ValueError("validation needs at least one config")
    rows = []
    for cfg, res in bound_gap_sweep(configs, threads=threads):
        fields = {**vars(cfg), **vars(res)}
        rows.append({col: fields[col] for col in VALIDATION_COLUMNS})
    return rows


def trajectory_records(spec: TrajectorySpec,
                       rates: Iterable[float]) -> list[dict]:
    """Scaling-family table: design point, efficiency and its limit per rate."""
    limit = trajectory_limit(spec)
    rows = []
    for rate in rates:
        row = {**dict.fromkeys(TRAJECTORY_COLUMNS), "zeta_limit": limit}
        try:   # a bool or an int with no double is refused here, naming R
            point = trajectory_point(spec, rate)
            row.update(k=point.k, m=point.m, zeta=point.zeta)
        except _ROW_ERRORS as exc:
            row[ERROR_COLUMN] = f"trajectory: {exc}"
        if not isinstance(rate, bool) and abs(rate) <= sys.float_info.max:
            row["R"] = float(rate)   # a finite rate's cell, refused or not
        rows.append(row)
    return rows


def threshold_record(theta: SystemParams) -> dict:
    """Rate thresholds for theta plus the capped-efficiency verdict at theta.R."""
    row = {**dict.fromkeys(THRESHOLD_COLUMNS), **vars(theta)}
    try:
        row.update(vars(rate_thresholds(theta)))
        row["bound_holds"] = mrc_upper_bound_check(theta)
    except _ROW_ERRORS as exc:
        row[ERROR_COLUMN] = f"thresholds: {exc}"
    return row


# a cell's text by the exact type of its value; a record holds only these
_CSV_CELL = {type(None): lambda value: "", Detector: lambda det: det.value,
             bool: lambda flag: "true" if flag else "false", int: str,
             float: repr, str: str}


def render_csv(records: Sequence[dict], columns: Sequence[str]) -> str:
    """Records to CSV text; byte-deterministic for identical records."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in records:
        writer.writerow([_CSV_CELL[type(value)](value)
                         for value in map(row.get, columns)])
    return buf.getvalue()


def render_json(records: Sequence[dict], columns: Sequence[str]) -> str:
    """Same table as render_csv, as a JSON array of row objects."""
    rows = [{col: row.get(col) for col in columns} for row in records]
    return json.dumps(rows, indent=2, default=lambda det: det.value) + "\n"
