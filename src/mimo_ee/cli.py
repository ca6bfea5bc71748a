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
from typing import Callable, Sequence

from .asymptotics import TrajectorySpec
from .link import Detector
from .montecarlo import McConfig
from .report import (_ROW_ERRORS, ERROR_COLUMN, SweepSpec, THRESHOLD_COLUMNS,
                     TRAJECTORY_COLUMNS, VALIDATION_COLUMNS, render_csv,
                     render_json, sweep_columns, sweep_records,
                     threshold_record, trajectory_records, validation_records)
from .units import (PhysicalParams, PowerProfile, _require_count,
                    _require_number, normalize)


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
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    return data


# A reader takes a JSON value and the name it has in the config, such as
# 'sweep.r_values[1]', and returns the value the handlers use, or raises a
# ConfigError that names it.

def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:    # an integer past double range
        raise ConfigError(f"'{where}' is out of double range: {exc}") from exc


def _integer(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    return value


def _string(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{where}' must be a string, got {value!r}")
    return value


def _detector(value: object, where: str) -> Detector:
    if isinstance(value, str):
        for det in Detector:
            if value.lower() == det.value:
                return det
    raise ConfigError(
        f"'{where}' must be one of {[d.value for d in Detector]}, got {value!r}")


def _array(item: Callable, null: tuple = ()) -> Callable:
    """A reader of a nonempty array of `item`s; null reads as `null` if set."""
    def read(value: object, where: str) -> tuple:
        if value is None and null:
            return null
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{where}' must be a nonempty array")
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return read


def _object(**fields) -> Callable:
    """A reader of a JSON object with no keys but `fields`. A field is a
    reader, or a (reader, default) pair for a key that may be left out."""
    fields = {key: (field[0], field[1:]) if isinstance(field, tuple)
              else (field, ()) for key, field in fields.items()}

    def read(value: object, where: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"'{where}' must be a JSON object")
        unknown = value.keys() - fields
        if unknown:
            raise ConfigError(f"unknown keys in '{where}': {sorted(unknown)}; "
                              f"allowed: {sorted(fields)}")
        out = {}
        for key, (reader, default) in fields.items():
            if key in value:
                out[key] = reader(value[key], f"{where}.{key}")
            elif default:
                out[key] = default[0]
            else:
                raise ConfigError(f"'{where}' needs '{key}'")
        return out
    return read


# a key left out, and a null detectors list, read as the library's default
_DETECTORS = (_array(_detector, null=SweepSpec.detectors), SweepSpec.detectors)

# every top-level key of a config -> the reader of that section
_SECTIONS = {
    "physical": _object(**dict.fromkeys(
        ("bandwidth_hz", "noise_psd", "path_gain", "pa_slope", "p_r", "p_t",
         "p_dec", "p_s"), _number)),
    "normalized": _object(**dict.fromkeys(
        ("alpha", "rho_r", "rho_d", "rho_s"), _number)),
    "sweep": _object(r_values=_array(_number), detectors=_DETECTORS,
                     outputs=(_array(_string), SweepSpec.outputs),
                     trajectory_c=(_number, None)),
    # a point's trials and seed, left out, are the section's
    "montecarlo": _object(
        trials=(_integer, McConfig.trials), seed=(_integer, McConfig.seed),
        points=_array(_object(m=_integer, k=_integer, gamma=_number,
                              detector=_detector, trials=(_integer, None),
                              seed=(_integer, None)))),
    "trajectory": _object(c=_number, r_values=_array(_number)),
    "optimize": _object(R=_number, detectors=_DETECTORS),
    "thresholds": _object(R=_number),
}


def _read(cfg: dict, name: str) -> dict:
    """Section `name` of the config, read by its reader; null is absent."""
    if cfg.get(name) is None:
        raise ConfigError(f"config needs a '{name}' section")
    return _SECTIONS[name](cfg[name], name)


def _profile(cfg: dict) -> PowerProfile:
    given = [name for name in ("physical", "normalized")
             if cfg.get(name) is not None]
    if len(given) == 2:
        raise ConfigError("'physical' and 'normalized' are mutually exclusive")
    if not given:
        raise ConfigError(
            "config needs a 'physical' or a 'normalized' section")
    if given == ["normalized"]:
        return PowerProfile(**_read(cfg, "normalized"))
    return normalize(PhysicalParams(**_read(cfg, "physical")))


# Each handler only parses: it returns (compute, columns), where `compute`
# builds the records when `main` calls it. A ValueError raised while parsing
# is a config error. The lambdas look the report functions up in this
# module's namespace at call time, so a wrapper installed there is called.


def _cmd_sweep(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    sec = _read(cfg, "sweep")
    spec = SweepSpec(
        r_values=sec["r_values"], theta_base=profile,
        detectors=sec["detectors"], outputs=frozenset(sec["outputs"]),
        trajectory_c=sec["trajectory_c"], k_max=args.k_max)
    return lambda: sweep_records(spec), sweep_columns(spec)


def _cmd_breakdown(cfg: dict, args: argparse.Namespace):
    sweep = cfg.get("sweep")   # read with breakdown's outputs, not its own
    if isinstance(sweep, dict):
        cfg = {**cfg, "sweep": {**sweep, "outputs": ["exact", "pa_fraction"]}}
    return _cmd_sweep(cfg, args)


def _cmd_optimize(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    sec = _read(cfg, "optimize")
    _require_number("R", sec["R"], 0)
    spec = SweepSpec(
        r_values=(sec["R"],), theta_base=profile, detectors=sec["detectors"],
        outputs=frozenset({"exact", "relaxed", "pa_fraction"}),
        k_max=args.k_max)
    return lambda: sweep_records(spec), sweep_columns(spec)


def _cmd_trajectory(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    sec = _read(cfg, "trajectory")
    spec = TrajectorySpec(c=sec["c"], profile=profile)
    rates = sec["r_values"]
    if not all(map(math.isfinite, rates)):
        raise ConfigError("'trajectory.r_values' must be finite")
    return lambda: trajectory_records(spec, rates), TRAJECTORY_COLUMNS


def _cmd_validate(cfg: dict, args: argparse.Namespace):
    sec = _read(cfg, "montecarlo")
    if args.seed is not None:
        sec["seed"] = args.seed
    configs = []
    for i, point in enumerate(sec["points"]):
        try:
            configs.append(McConfig(**{
                key: sec[key] if value is None else value
                for key, value in point.items()}))
        except ValueError as exc:
            raise ConfigError(f"montecarlo.points[{i}]: {exc}") from exc
    _require_count("threads", args.threads)   # as the run would, but exit 2
    return (lambda: validation_records(configs, threads=args.threads),
            VALIDATION_COLUMNS)


def _cmd_thresholds(cfg: dict, args: argparse.Namespace):
    profile = _profile(cfg)
    theta = profile.at_rate(_read(cfg, "thresholds")["R"])
    return lambda: [threshold_record(theta)], THRESHOLD_COLUMNS


# subcommand -> (handler, help, whether it answers one question, so that a
# failed row fails the run), in the order `--help` lists them
_COMMANDS = {
    "optimize": (_cmd_optimize, "best integer design for one rate target",
                 True),
    "sweep": (_cmd_sweep, "efficiency table across rate targets", False),
    "breakdown": (_cmd_breakdown,
                  "power budget of the optimum across rate targets", False),
    "trajectory": (_cmd_trajectory, "constant per-user-rate scaling family",
                   False),
    "validate": (_cmd_validate,
                 "Monte-Carlo check of the closed-form rates", False),
    "thresholds": (_cmd_thresholds,
                   "rate thresholds for the MRC efficiency cap", True),
}


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
    for name, (_, text, _) in _COMMANDS.items():
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
    handler, _, one_answer = _COMMANDS[args.command]
    rc = 0
    try:
        cfg = _load_config(args.config)
        try:
            compute, columns = handler(cfg, args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        records = compute()
        failures = [row[ERROR_COLUMN] for row in records
                    if one_answer and row[ERROR_COLUMN]]
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
