"""Output checks for the benchmark, run outside the timed region.

Each function takes one operation's config and its CSV output and returns
a list of failure messages; an empty list means the output is correct.
The box oracle reimplements the power model on its own so that the exact
search is compared with something that shares none of its code.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

ORACLE_MAX_R = 30.0      # rows at or below this rate are checked exhaustively
POWER_SUM_ULPS = 4       # R / zeta_star against the summed power terms
MC_MARGIN_CIS = 3.0      # validate rows need margin > this many CI halfwidths
_ORACLE_CHUNK = 1 << 16  # cells per block of the box scan


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _box_scan(rate: float, p: dict, det: str, m_hi: int, k_hi: int):
    """Lowest-power (power, M, K) over 1 <= M <= m_hi, 1 <= K <= k_hi.

    Terms are combined in the order the library uses, so the minimum is
    comparable bit for bit. The scan runs K-major and keeps the first
    minimum, which is the library's tie rule: smaller K, then smaller M.
    """
    m = np.arange(1.0, m_hi + 1.0)
    rows_per_block = max(1, _ORACLE_CHUNK // m_hi)
    best = None
    for k0 in range(1, k_hi + 1, rows_per_block):
        ks = range(k0, min(k_hi, k0 + rows_per_block - 1) + 1)
        # Python's float power, as the library computes 2^(R/K)
        e = np.array([2.0 ** (rate / k) - 1.0 for k in ks])[:, None]
        kf = np.array([float(k) for k in ks])[:, None]
        if det == "zf":
            denom = m - kf
        else:
            denom = m - 1.0 - np.where(kf == 1.0, 0.0, (kf - 1.0) * e)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gamma = e / denom
            power = (p["alpha"] * kf * gamma + m * p["rho_r"]
                     + kf * p["rho_d"] + p["rho_s"])
        power[~((denom > 0) & np.isfinite(gamma) & (gamma > 0))] = np.inf
        i = int(np.argmin(power))
        value = float(power.flat[i])
        if math.isfinite(value) and (best is None or value < best[0]):
            best = (value, i % m_hi + 1, ks[i // m_hi])
    return best


def box_optimum(rate: float, p: dict, det: str) -> tuple[int, int, float]:
    """Exhaustive (M*, K*, zeta*) over a box proven to hold the optimum.

    Every term of the power is positive, so a design with M * rho_r or
    K * rho_d + rho_s above an incumbent power cannot beat it. A small
    scan gives the incumbent; the full scan covers the box it implies.
    """
    incumbent = _box_scan(rate, p, det, 512, 64)
    if incumbent is None:
        raise ValueError(f"no feasible design in the seed box at R={rate}")
    bound = incumbent[0]
    m_hi = max(512, int(bound / p["rho_r"]) + 1)
    k_hi = max(64, int((bound - p["rho_s"]) / p["rho_d"]) + 1)
    power, m_star, k_star = _box_scan(rate, p, det, m_hi, k_hi)
    return m_star, k_star, rate / power


def _ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(b)


def design_rows(config: dict, text: str) -> list[str]:
    """optimize and breakdown tables."""
    profile = config["normalized"]
    failures = []
    for row in parse_csv(text):
        where = f"R={row['R']} {row['detector']}"
        if row["error"]:
            failures.append(f"{where}: error cell {row['error']!r}")
            continue
        rate = float(row["R"])
        zeta = float(row["zeta_star"])
        if row["zeta_relaxed"] and not zeta <= float(row["zeta_relaxed"]):
            failures.append(f"{where}: zeta_star {zeta!r} above "
                            f"zeta_relaxed {row['zeta_relaxed']}")
        total = (float(row["power_pa"]) + float(row["power_bs"])
                 + float(row["power_users"]) + float(row["power_residual"]))
        if _ulps_apart(total, rate / zeta) > POWER_SUM_ULPS:
            failures.append(f"{where}: power terms sum to {total!r}, "
                            f"R / zeta_star is {rate / zeta!r}")
        if rate <= ORACLE_MAX_R:
            want = box_optimum(rate, profile, row["detector"])
            got = (int(row["M_star"]), int(row["K_star"]), zeta)
            if got != want:
                failures.append(f"{where}: (M*, K*, zeta*) = {got}, "
                                f"box oracle gives {want}")
    return failures


def error_cells(config: dict, text: str) -> list[str]:
    """thresholds and trajectory tables: every row computed."""
    return [f"R={row['R']}: error cell {row['error']!r}"
            for row in parse_csv(text) if row["error"]]


def validation_rows(config: dict, text: str) -> list[str]:
    failures = []
    for row in parse_csv(text):
        margin, ci = float(row["margin"]), float(row["ci_halfwidth"])
        if not margin > MC_MARGIN_CIS * ci:
            failures.append(
                f"m={row['m']} k={row['k']} gamma={row['gamma']} "
                f"{row['detector']}: margin {margin!r} <= "
                f"{MC_MARGIN_CIS} * ci {ci!r}")
    return failures


CHECKS = {"optimize": design_rows, "breakdown": design_rows,
          "thresholds": error_cells, "trajectory": error_cells,
          "validate": validation_rows}
