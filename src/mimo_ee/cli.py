"""Command-line frontend.

Reads one JSON config file describing the system, runs the requested
computation, and writes a CSV (or JSON) table to stdout or a file. Exit
codes: 0 on success, 2 for configuration problems, 3 when the requested
point is numerically out of reach (infeasible rate, overflow, hypotheses
unmet, more memory than can be allocated). Every failure prints a single
machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from typing import Sequence

from .asymptotics import TrajectorySpec
from .link import Detector
from .montecarlo import McConfig
from .report import (_ROW_ERRORS, ERROR_COLUMN, SweepSpec, THRESHOLD_COLUMNS,
                     TRAJECTORY_COLUMNS, VALIDATION_COLUMNS, render_csv,
                     render_json, sweep_columns, sweep_records,
                     threshold_record, trajectory_records, validation_records)
from .units import PhysicalParams, PowerProfile, _require_count, normalize

_PHYSICAL_KEYS = ("bandwidth_hz", "noise_psd", "path_gain", "pa_slope",
                  "p_r", "p_t", "p_dec", "p_s")
_NORMALIZED_KEYS = ("alpha", "rho_r", "rho_d", "rho_s")
_TOP_KEYS = {"physical", "normalized", "sweep", "montecarlo", "trajectory",
             "optimize", "thresholds"}

_MC_DEFAULT_TRIALS = 100_000
_MC_DEFAULT_SEED = 0


class ConfigError(Exception):
    """The config file cannot be used as given."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, or an integer too long
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top level of the config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    return data


def _section(cfg: dict, name: str, allowed: set[str], *,
             required: bool) -> dict | None:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config needs a '{name}' section")
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in '{name}': {sorted(unknown)}; allowed: {sorted(allowed)}")
    return sec


def _double(value: int | float, where: str) -> float:
    try:
        return float(value)
    except OverflowError as exc:    # an integer past double range
        raise ConfigError(f"'{where}' is out of double range: {exc}") from exc


def _num(sec: dict, key: str, ctx: str) -> float:
    if key not in sec:
        raise ConfigError(f"'{ctx}' needs '{key}'")
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{ctx}.{key}' must be a number, got {value!r}")
    return _double(value, f"{ctx}.{key}")


def _int(sec: dict, key: str, ctx: str, default: int | None = None) -> int:
    if key not in sec:
        if default is None:
            raise ConfigError(f"'{ctx}' needs '{key}'")
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{ctx}.{key}' must be an integer, got {value!r}")
    return value


def _num_list(sec: dict, key: str, ctx: str) -> tuple[float, ...]:
    if key not in sec:
        raise ConfigError(f"'{ctx}' needs '{key}'")
    value = sec[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{ctx}.{key}' must be a nonempty array of numbers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(
                f"'{ctx}.{key}' must contain only numbers, got {item!r}")
        out.append(_double(item, f"{ctx}.{key}"))
    return tuple(out)


def _detector(value: object, ctx: str) -> Detector:
    if isinstance(value, str):
        for det in Detector:
            if value.lower() == det.value:
                return det
    raise ConfigError(
        f"'{ctx}' must be one of {[d.value for d in Detector]}, got {value!r}")


def _detector_list(sec: dict, ctx: str) -> tuple[Detector, ...]:
    value = sec.get("detectors")
    if value is None:
        return (Detector.MRC, Detector.ZF)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{ctx}.detectors' must be a nonempty array")
    return tuple(_detector(item, f"{ctx}.detectors") for item in value)


def _profile(cfg: dict) -> PowerProfile:
    physical = _section(cfg, "physical", set(_PHYSICAL_KEYS), required=False)
    normalized = _section(cfg, "normalized", set(_NORMALIZED_KEYS),
                          required=False)
    if physical is not None and normalized is not None:
        raise ConfigError("'physical' and 'normalized' are mutually exclusive")
    if physical is None and normalized is None:
        raise ConfigError(
            "config needs a 'physical' or a 'normalized' section")
    if normalized is not None:
        return PowerProfile(
            alpha=_num(normalized, "alpha", "normalized"),
            rho_r=_num(normalized, "rho_r", "normalized"),
            rho_d=_num(normalized, "rho_d", "normalized"),
            rho_s=_num(normalized, "rho_s", "normalized"))
    return normalize(PhysicalParams(
        **{key: _num(physical, key, "physical") for key in _PHYSICAL_KEYS}))


# Each handler only parses: it returns (compute, columns), where `compute`
# builds the records when `main` calls it. A ValueError raised while parsing
# is a config error. The lambdas look the report functions up in this
# module's namespace at call time, so a wrapper installed there is called.


def _cmd_sweep(cfg: dict, args: argparse.Namespace,
               outputs: set[str] | None = None):
    profile = _profile(cfg)
    sec = _section(cfg, "sweep",
                   {"r_values", "detectors", "outputs", "trajectory_c"},
                   required=True)
    if outputs is None:
        outputs = sec.get("outputs", ["exact", "relaxed"])
        if not isinstance(outputs, list) or not outputs:
            raise ConfigError("'sweep.outputs' must be a nonempty array")
        for item in outputs:
            if not isinstance(item, str):
                raise ConfigError(
                    f"'sweep.outputs' must contain strings, got {item!r}")
    trajectory_c = None
    if "trajectory_c" in sec:
        trajectory_c = _num(sec, "trajectory_c", "sweep")
    spec = SweepSpec(
        r_values=_num_list(sec, "r_values", "sweep"),
        theta_base=profile,
        detectors=_detector_list(sec, "sweep"),
        outputs=frozenset(outputs),
        trajectory_c=trajectory_c,
        k_max=args.k_max)
    return lambda: sweep_records(spec), sweep_columns(spec)


def _cmd_breakdown(cfg: dict, args: argparse.Namespace):
    return _cmd_sweep(cfg, args, outputs={"exact", "pa_fraction"})


def _cmd_optimize(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    sec = _section(cfg, "optimize", {"R", "detectors"}, required=True)
    spec = SweepSpec(
        r_values=(_num(sec, "R", "optimize"),), theta_base=profile,
        detectors=_detector_list(sec, "optimize"),
        outputs=frozenset({"exact", "relaxed", "pa_fraction"}),
        k_max=args.k_max)
    return lambda: sweep_records(spec), sweep_columns(spec)


def _cmd_trajectory(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    sec = _section(cfg, "trajectory", {"c", "r_values"}, required=True)
    spec = TrajectorySpec(c=_num(sec, "c", "trajectory"), profile=profile)
    rates = _num_list(sec, "r_values", "trajectory")
    if not all(map(math.isfinite, rates)):
        raise ConfigError("'trajectory.r_values' must be finite")
    return lambda: trajectory_records(spec, rates), TRAJECTORY_COLUMNS


def _cmd_validate(cfg: dict, args: argparse.Namespace):
    sec = _section(cfg, "montecarlo", {"points", "trials", "seed"},
                   required=True)
    default_trials = _int(sec, "trials", "montecarlo", _MC_DEFAULT_TRIALS)
    default_seed = _int(sec, "seed", "montecarlo", _MC_DEFAULT_SEED)
    if args.seed is not None:
        default_seed = args.seed
    points = sec.get("points")
    if not isinstance(points, list) or not points:
        raise ConfigError("'montecarlo.points' must be a nonempty array")
    configs = []
    for i, point in enumerate(points):
        ctx = f"montecarlo.points[{i}]"
        if not isinstance(point, dict):
            raise ConfigError(f"'{ctx}' must be a JSON object")
        unknown = set(point) - {"m", "k", "gamma", "detector", "trials", "seed"}
        if unknown:
            raise ConfigError(f"unknown keys in '{ctx}': {sorted(unknown)}")
        if "detector" not in point:
            raise ConfigError(f"'{ctx}' needs 'detector'")
        try:
            configs.append(McConfig(
                m=_int(point, "m", ctx),
                k=_int(point, "k", ctx),
                gamma=_num(point, "gamma", ctx),
                detector=_detector(point["detector"], f"{ctx}.detector"),
                trials=_int(point, "trials", ctx, default_trials),
                seed=_int(point, "seed", ctx, default_seed)))
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    _require_count("threads", args.threads)   # as the run would, but exit 2
    return (lambda: validation_records(configs, threads=args.threads),
            VALIDATION_COLUMNS)


def _cmd_thresholds(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    sec = _section(cfg, "thresholds", {"R"}, required=True)
    theta = profile.at_rate(_num(sec, "R", "thresholds"))
    return lambda: [threshold_record(theta)], THRESHOLD_COLUMNS


# subcommand -> (handler, help), in the order `--help` lists them
_COMMANDS = {
    "optimize": (_cmd_optimize, "best integer design for one rate target"),
    "sweep": (_cmd_sweep, "efficiency table across rate targets"),
    "breakdown": (_cmd_breakdown,
                  "power budget of the optimum across rate targets"),
    "trajectory": (_cmd_trajectory, "constant per-user-rate scaling family"),
    "validate": (_cmd_validate,
                 "Monte-Carlo check of the closed-form rates"),
    "thresholds": (_cmd_thresholds,
                   "rate thresholds for the MRC efficiency cap"),
}
# commands that answer one question: a failed row fails the run
_ONE_ANSWER = ("optimize", "thresholds")


def _int_arg(low: int, high: float, refusal: str):
    """An argparse type: an integer in [low, high), else `refusal`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not low <= value < high:
            raise argparse.ArgumentTypeError(refusal.format(value))
        return value
    return parse


_positive_int = _int_arg(1, math.inf, "must be >= 1, got {}")
_seed_int = _int_arg(0, 2 ** 64, "seed must fit in 64 unsigned bits, got {}")


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="FILE",
                        help="JSON config file")
    common.add_argument("--out", metavar="FILE",
                        help="write the table here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    common.add_argument("--threads", type=_positive_int, default=1,
                        metavar="N",
                        help="Monte-Carlo worker threads for validate; "
                             "other subcommands ignore it (default: 1)")
    common.add_argument("--seed", type=_seed_int, default=None, metavar="U64",
                        help="override the Monte-Carlo seed from the config")
    common.add_argument("--k-max", type=_positive_int, default=None,
                        metavar="N", help="cap the user-count search range")

    parser = argparse.ArgumentParser(
        prog="mimo-ee",
        description="Energy-efficiency optimization of a multiuser "
                    "massive-MIMO uplink with MRC or ZF reception.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    parser.subcommands = sub.choices    # name -> parser, for _parse_args
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)` without the full parser's own pass;
    left-over arguments take it, so its error keeps the top-level usage."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    if argv and argv[0] in _COMMANDS:
        args, extra = parser.subcommands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        # no O_TRUNC: on ext4 a truncated file's close() starts writeback
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):  # devices refuse ftruncate
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    rc = 0
    try:
        cfg = _load_config(args.config)
        try:
            compute, columns = handler(cfg, args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        records = compute()
        if args.command in _ONE_ANSWER:
            failures = [row[ERROR_COLUMN] for row in records
                        if row[ERROR_COLUMN]]
            if failures:
                print(f"error: numeric: {failures[0]}", file=sys.stderr)
                rc = 3
        text = (render_json(records, columns) if args.format == "json"
                else render_csv(records, columns))
        _emit(text, args.out)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (*_ROW_ERRORS, MemoryError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
