"""Seeded inputs for the benchmark workloads.

A workload is a list of operations. An operation is one `mimo-ee`
invocation: a subcommand and the JSON config it reads. The program sees
only these configs; every input in them is drawn from the seed, so the
same seed gives the same configs.

The request pool is a Latin hypercube: each parameter's range is cut
into as many strata as there are requests and every stratum holds one
request. Which strata share a request is a fixed layout; the seed places
each request inside its strata and sets the order of the requests. The
cost of a request grows steeply with R * rho_r / rho_d, so independent
draws, or a layout redrawn per seed, would move the pool's mean latency
by tens of percent from one seed to the next. The fixed layout keeps
the latency distribution of the pool, and with it the reported
quantiles, comparable across seeds while every input value changes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

R_LO, R_HI = 10.0, 3000.0
ALPHA_LO, ALPHA_HI = 1.5, 4.0
RHO_LO, RHO_HI = 0.1, 10.0

# request-mix: 100 requests that run the exact search (94 optimize,
# 6 breakdown) and 6 each of thresholds and trajectory; 84 % optimize
EXACT_REQUESTS = 100
BREAKDOWN_REQUESTS = 6
THRESHOLD_REQUESTS = 6
TRAJECTORY_REQUESTS = 6
TRAJECTORY_C_LO, TRAJECTORY_C_HI = 1.0, 4.0
LAYOUT_SEED = 1404  # fixes which strata share a request, for every seed

MC_DESIGNS = ((16, 4), (64, 8), (128, 16))
MC_GAMMAS = (0.01, 0.1, 1.0)
MC_TRIALS = 32768


@dataclass(frozen=True)
class Op:
    """One CLI invocation. Repeating an op must reproduce its bytes."""

    key: str
    command: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]   # one pass; the timed loop repeats whole passes
    threads: int          # --threads of the timed passes
    check_threads: int | None = None  # untimed first pass at this count;
    # its bytes must equal the timed passes'
    work: tuple[str, int] | None = None  # (unit, amount) of one request


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _latin_hypercube(n: int, dims: int, layout: random.Random,
                     rng: random.Random) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims with one point in each 1/n stratum per axis."""
    axes = []
    for _ in range(dims):
        strata = list(range(n))
        layout.shuffle(strata)
        axes.append([(s + rng.random()) / n for s in strata])
    return list(zip(*axes))


def _profile(u_alpha: float, u_rho_r: float, u_rho_d: float,
             u_rho_s: float) -> dict:
    return {"alpha": ALPHA_LO + (ALPHA_HI - ALPHA_LO) * u_alpha,
            "rho_r": _log_uniform(RHO_LO, RHO_HI, u_rho_r),
            "rho_d": _log_uniform(RHO_LO, RHO_HI, u_rho_d),
            "rho_s": _log_uniform(RHO_LO, RHO_HI, u_rho_s)}


def mrc_thresholds(alpha: float, rho_r: float, rho_d: float) -> float:
    """max(r1, r2) of the MRC efficiency cap: `thresholds` needs R above it."""
    r1 = max(4.0, 4.0 * math.log2(1.0 + alpha / rho_r))
    r2 = max(math.log2(1.0 + 9.0 * rho_d ** 2 / (alpha * rho_r)),
             2.0 * math.log2(49.0 * rho_r / alpha))
    return max(r1, r2)


def request_mix(seed: int) -> Workload:
    layout, rng = random.Random(LAYOUT_SEED), random.Random(seed)
    requests = []
    for n, (u_rate, *u_profile) in enumerate(
            _latin_hypercube(EXACT_REQUESTS, 5, layout, rng)):
        command = "breakdown" if n < BREAKDOWN_REQUESTS else "optimize"
        rate = _log_uniform(R_LO, R_HI, u_rate)
        section = ({"sweep": {"r_values": [rate]}} if command == "breakdown"
                   else {"optimize": {"R": rate}})
        requests.append((command, _profile(*u_profile), section))
    for u_rate, *u_profile in _latin_hypercube(
            THRESHOLD_REQUESTS, 5, layout, rng):
        profile = _profile(*u_profile)
        floor = mrc_thresholds(profile["alpha"], profile["rho_r"],
                               profile["rho_d"])
        rate = _log_uniform(max(R_LO, 1.01 * floor), R_HI, u_rate)
        requests.append(("thresholds", profile, {"thresholds": {"R": rate}}))
    for u_rate, u_c, *u_profile in _latin_hypercube(
            TRAJECTORY_REQUESTS, 6, layout, rng):
        c = TRAJECTORY_C_LO + (TRAJECTORY_C_HI - TRAJECTORY_C_LO) * u_c
        section = {"trajectory": {"c": c, "r_values": [
            _log_uniform(R_LO, R_HI, u_rate)]}}
        requests.append(("trajectory", _profile(*u_profile), section))
    rng.shuffle(requests)
    ops = tuple(Op(f"{n:03d}-{command}", command,
                   {"normalized": profile, **section})
                for n, (command, profile, section) in enumerate(requests))
    return Workload("request-mix", ops, threads=1)


def mc_validate(seed: int) -> Workload:
    mc_seed = random.Random(seed).getrandbits(63)
    points = [{"m": m, "k": k, "gamma": gamma, "detector": det}
              for m, k in MC_DESIGNS for det in ("mrc", "zf")
              for gamma in MC_GAMMAS]
    config = {"montecarlo": {"trials": MC_TRIALS, "seed": mc_seed,
                             "points": points}}
    # configs sharing a design share its channel draws
    draws = MC_TRIALS * len(MC_DESIGNS)
    return Workload("mc-validate", (Op("validate", "validate", config),),
                    threads=2, check_threads=1, work=("draws", draws))


WORKLOADS = {"request-mix": request_mix, "mc-validate": mc_validate}
