"""Tabular reports and the command-line frontend."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mimo_ee
from mimo_ee.asymptotics import TrajectorySpec, trajectory_zeta
from mimo_ee.cli import _COMMANDS, _build_parser, _parse_args, main
from mimo_ee.integer_opt import optimize_exact
from mimo_ee.link import Detector
from mimo_ee.montecarlo import McConfig, bound_gap_sweep
from mimo_ee.relaxation import minimize_relaxed
from mimo_ee.report import (BASE_COLUMNS, SweepSpec, THRESHOLD_COLUMNS,
                            TRAJECTORY_COLUMNS, VALIDATION_COLUMNS,
                            render_csv, render_json, sweep_columns,
                            sweep_records, threshold_record,
                            trajectory_records, validation_records)
from mimo_ee.units import PowerProfile, SystemParams

MRC, ZF = Detector.MRC, Detector.ZF

_HEADER = ("R,detector,M_star,K_star,zeta_star,zeta_relaxed,ratio,"
           "pa_fraction,power_pa,power_bs,power_users,power_residual")


def _refuse(name):
    raise ValueError(f"{name} is not strict JSON")


def _assert_same_table(csv_text, json_text):
    """The JSON table is strict and says what the CSV says, cell for cell."""
    rows = json.loads(json_text, parse_constant=_refuse)
    header, *lines = csv.reader(io.StringIO(csv_text))
    assert len(rows) == len(lines)
    for row, line in zip(rows, lines):
        assert list(row) == header
        for value, cell in zip(row.values(), line):
            if value is None or isinstance(value, str):
                assert cell == ("" if value is None else value)
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert cell == repr(value)


def _profile(alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0):
    return PowerProfile(alpha=alpha, rho_r=rho_r, rho_d=rho_d, rho_s=rho_s)


def _spec(**kwargs):
    defaults = dict(r_values=(4.0, 8.0), theta_base=_profile())
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSweepRecords:
    def test_cells_match_direct_library_calls(self):
        spec = _spec(outputs=frozenset(
            {"exact", "relaxed", "pa_fraction", "comparison", "trajectory"}),
            trajectory_c=1.0)
        records = sweep_records(spec)
        assert len(records) == 4
        for row in records:
            theta = spec.theta_base.at_rate(row["R"])
            det = row["detector"]
            exact = optimize_exact(theta, det)
            relaxed = minimize_relaxed(theta, det)
            assert row["M_star"] == exact.m_star
            assert row["K_star"] == exact.k_star
            assert row["zeta_star"] == exact.zeta_star
            assert row["zeta_relaxed"] == relaxed.zeta
            assert row["ratio"] == exact.zeta_star / relaxed.zeta
            assert row["pa_fraction"] == exact.report.pa_fraction
            assert row["power_pa"] == exact.report.power_pa
            assert row["power_bs"] == exact.report.power_bs_antennas
            assert row["power_users"] == exact.report.power_user_circuits
            assert row["power_residual"] == exact.report.power_residual
            mrc_less = (minimize_relaxed(theta, MRC).zeta
                        < minimize_relaxed(theta, ZF).zeta)
            assert row["relaxed_mrc_less_than_zf"] == mrc_less
            if det is MRC:
                assert row["zeta_trajectory"] == trajectory_zeta(
                    TrajectorySpec(c=1.0, profile=spec.theta_base), row["R"])
            else:
                assert row["zeta_trajectory"] is None
            assert row["error"] is None

    def test_row_order_is_rate_major_detector_minor(self):
        records = sweep_records(_spec())
        assert [(r["R"], r["detector"]) for r in records] == \
            [(4.0, MRC), (4.0, ZF), (8.0, MRC), (8.0, ZF)]

    def test_unbounded_user_count_becomes_a_row_error(self):
        spec = _spec(theta_base=_profile(rho_d=0.0))
        for row in sweep_records(spec):
            assert row["M_star"] is None
            assert row["zeta_relaxed"] is None
            assert "exact: " in row["error"]
            assert "relaxed: " in row["error"]
            assert "k_max" in row["error"]

    def test_error_cells_name_each_failed_stage(self):
        theta = _profile(rho_d=0.0).at_rate(4.0)

        def message(call):
            with pytest.raises(ValueError) as exc:
                call()
            return str(exc.value)

        exact = message(lambda: optimize_exact(theta, MRC))
        relaxed = message(lambda: minimize_relaxed(theta, MRC))
        outputs = frozenset({"exact", "relaxed", "comparison"})
        for row in sweep_records(_spec(theta_base=_profile(rho_d=0.0),
                                       outputs=outputs)):
            assert row["error"] == (f"exact: {exact}; relaxed: {relaxed}; "
                                    f"comparison: {relaxed}")
        # a cap makes both optima finite, the comparison's included
        for row in sweep_records(_spec(theta_base=_profile(rho_d=0.0),
                                       outputs=outputs, k_max=3)):
            assert row["zeta_relaxed"] is not None
            assert row["relaxed_mrc_less_than_zf"] is not None
            assert row["error"] is None

    @pytest.mark.parametrize("k_max,per_rate", [(None, 2), (3, 2)])
    def test_relaxation_solved_once_per_detector_and_cap(
            self, monkeypatch, k_max, per_rate):
        calls = []

        def counted(theta, det, **kwargs):
            calls.append((theta.R, det, kwargs["k_max"]))
            return minimize_relaxed(theta, det, **kwargs)

        monkeypatch.setattr("mimo_ee.report.minimize_relaxed", counted)
        spec = _spec(outputs=frozenset({"relaxed", "comparison"}),
                     k_max=k_max)
        records = sweep_records(spec)
        assert len(calls) == per_rate * len(spec.r_values)
        assert len(set(calls)) == len(calls)
        for row in records:
            theta = spec.theta_base.at_rate(row["R"])
            assert row["zeta_relaxed"] == minimize_relaxed(
                theta, row["detector"], k_max=k_max).zeta
            assert row["relaxed_mrc_less_than_zf"] == (
                minimize_relaxed(theta, MRC, k_max=k_max).zeta
                < minimize_relaxed(theta, ZF, k_max=k_max).zeta)

    def test_one_user_optima_do_not_compare(self):
        # both relaxed k* are 1 on this profile, where MRC and ZF are one
        # design, so MRC is never less efficient; summed in two orders, the
        # column read true at R = 0.422, 0.75 and 1.0
        spec = SweepSpec(
            r_values=(0.316, 0.422, 0.562, 0.75, 1.0, 1.334),
            theta_base=_profile(alpha=2.09, rho_r=1.226, rho_d=0.549,
                                rho_s=1.614),
            outputs=frozenset({"relaxed", "comparison"}))
        records = sweep_records(spec)
        assert len(records) == 12
        for row in records:
            assert row["relaxed_mrc_less_than_zf"] is False
        for mrc, zf in zip(records[::2], records[1::2]):
            assert mrc["zeta_relaxed"] == zf["zeta_relaxed"]

    def test_unreachable_rate_becomes_a_row_error(self):
        spec = _spec(r_values=(2000.0,), k_max=1)
        for row in sweep_records(spec):
            assert row["zeta_star"] is None
            assert "exact: " in row["error"]

    def test_trajectory_needs_rate_above_per_user_rate(self):
        spec = _spec(r_values=(1.0, 4.0), outputs=frozenset(
            {"exact", "trajectory"}), trajectory_c=2.0)
        rows = {(r["R"], r["detector"]): r for r in sweep_records(spec)}
        assert "trajectory: " in rows[(1.0, MRC)]["error"]
        assert rows[(1.0, MRC)]["zeta_trajectory"] is None
        assert rows[(4.0, MRC)]["error"] is None
        assert rows[(4.0, MRC)]["zeta_trajectory"] is not None
        assert rows[(4.0, ZF)]["zeta_trajectory"] is None

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            _spec(r_values=())
        with pytest.raises(ValueError, match="strictly increasing"):
            _spec(r_values=(4.0, 4.0))
        for rates in ((0.0, 4.0), (True, 4.0), (1.0, 10 ** 400),
                      (1.0, math.nan, 4.0)):
            with pytest.raises(ValueError, match="^r_values must be finite"):
                _spec(r_values=rates)
        with pytest.raises(ValueError, match="detector"):
            _spec(detectors=())
        with pytest.raises(ValueError, match="distinct"):
            _spec(detectors=(MRC, MRC))
        with pytest.raises(ValueError, match="unknown outputs"):
            _spec(outputs=frozenset({"exact", "bogus"}))
        with pytest.raises(ValueError, match="trajectory_c"):
            _spec(outputs=frozenset({"trajectory"}))
        with pytest.raises(ValueError, match="at least one output"):
            _spec(outputs=frozenset())
        for c in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="trajectory_c must be"):
                _spec(outputs=frozenset({"trajectory"}), trajectory_c=c)
        with pytest.raises(ValueError, match="k_max"):
            _spec(k_max=0)


class TestRendering:
    def test_csv_header_and_shape(self):
        spec = _spec()
        text = render_csv(sweep_records(spec), sweep_columns(spec))
        lines = text.split("\n")
        assert lines[0] == _HEADER + ",error"
        assert text.endswith("\n")
        assert len(lines) == 1 + 4 + 1  # header, four rows, trailing newline

    def test_optional_columns_append_before_error(self):
        spec = _spec(outputs=frozenset({"exact", "trajectory", "comparison"}),
                     trajectory_c=1.0)
        assert sweep_columns(spec) == tuple(
            BASE_COLUMNS + ("zeta_trajectory", "relaxed_mrc_less_than_zf",
                            "error"))

    def test_csv_is_byte_deterministic(self):
        spec = _spec()
        a = render_csv(sweep_records(spec), sweep_columns(spec))
        b = render_csv(sweep_records(spec), sweep_columns(spec))
        assert a == b

    def test_csv_cell_formats(self):
        spec = _spec(outputs=frozenset({"exact", "comparison"}))
        text = render_csv(sweep_records(spec), sweep_columns(spec))
        first = text.split("\n")[1].split(",")
        record = sweep_records(spec)[0]
        assert first[0] == repr(4.0)
        assert first[1] == "mrc"
        assert first[2] == str(record["M_star"])
        assert first[4] == repr(record["zeta_star"])
        assert first[12] == ("true" if record["relaxed_mrc_less_than_zf"]
                             else "false")
        assert first[13] == ""  # empty error cell

    def test_every_table_holds_its_columns_and_six_cell_types(self):
        # render_csv formats a cell by the exact type of its value, so every
        # record of every table the CLI prints holds its columns, in order,
        # and only these types; each type is seen in some table
        cell_types = {type(None), Detector, bool, int, float, str}
        cfg = {
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                           "rho_s": 1.0},
            "sweep": {"r_values": [2.0, 4.0, 8.0],
                      "outputs": ["exact", "relaxed", "trajectory",
                                  "pa_fraction", "comparison"],
                      "trajectory_c": 3.0},
            "optimize": {"R": 8.0},
            "trajectory": {"c": 2.0, "r_values": [1.0, 2.0, 10.0]},
            "montecarlo": {"trials": 400, "seed": 3, "points": [
                {"m": 8, "k": 2, "gamma": 0.3, "detector": "mrc"},
                {"m": 8, "k": 2, "gamma": 0.3, "detector": "zf"}]},
        }
        tables = [(cmd, cfg) for cmd in ("sweep", "optimize", "breakdown",
                                         "trajectory", "validate")]
        tables += [("thresholds", {**cfg, "thresholds": {"R": rate}})
                   for rate in (5.0, 40.0)]   # hypotheses unmet, then met
        seen, errors = set(), set()
        for cmd, config in tables:
            args = _parse_args([cmd, "--config", "unused.json"])
            compute, columns = _COMMANDS[cmd][0](config, args)
            records = compute()
            assert records, cmd
            for row in records:
                assert tuple(row) == tuple(columns), cmd
                assert {type(v) for v in row.values()} <= cell_types, cmd
                seen |= {type(v) for v in row.values()}
                if row.get("error"):
                    errors.add(cmd)
            _assert_same_table(render_csv(records, columns),
                               render_json(records, columns))
        assert seen == cell_types
        assert errors == {"sweep", "trajectory", "thresholds"}

    def test_json_round_trips_the_table(self):
        spec = _spec()
        text = render_json(sweep_records(spec), sweep_columns(spec))
        assert text.endswith("\n")
        rows = json.loads(text)
        records = sweep_records(spec)
        assert len(rows) == len(records)
        for got, want in zip(rows, records):
            assert got["detector"] in ("mrc", "zf")
            assert got["zeta_star"] == want["zeta_star"]
            assert got["error"] is None


class TestOtherTables:
    def test_validation_rows_echo_configs(self):
        configs = [
            McConfig(m=8, k=2, gamma=0.3, detector=MRC, trials=400, seed=3),
            McConfig(m=8, k=2, gamma=0.3, detector=ZF, trials=400, seed=3)]
        records = validation_records(configs, threads=2)
        for cfg, row in zip(configs, records):
            [(_, res)] = bound_gap_sweep([cfg])
            assert row["m"] == cfg.m and row["k"] == cfg.k
            assert row["detector"] is cfg.detector
            assert row["empirical_rate"] == res.empirical_rate
            assert row["margin"] == res.margin
        text = render_csv(records, VALIDATION_COLUMNS)
        assert text.split("\n")[0] == (
            "m,k,gamma,detector,trials,seed,empirical_rate,ci_halfwidth,"
            "bound_rate,margin")
        with pytest.raises(ValueError, match="at least one"):
            validation_records([])

    def test_trajectory_table_marks_rates_below_c(self):
        spec = TrajectorySpec(c=2.0, profile=_profile())
        rows = trajectory_records(spec, [1.0, 10.0])
        assert rows[0]["zeta"] is None
        assert rows[0]["error"].startswith("trajectory: ")
        assert rows[0]["zeta_limit"] == 0.5
        assert rows[1]["error"] is None
        assert rows[1]["zeta"] == trajectory_zeta(spec, 10.0)
        assert tuple(rows[0]) == TRAJECTORY_COLUMNS

    def test_trajectory_table_keeps_bad_rates_in_their_row(self):
        # each refusal stays in its row, with an empty R cell
        spec = TrajectorySpec(c=0.5, profile=_profile())
        rows = trajectory_records(spec, [True, 10 ** 400, 4.0])
        for row in rows[:2]:
            assert row["error"].startswith("trajectory: R must be finite")
            assert (row["R"], row["zeta"]) == (None, None)
        assert rows[2]["zeta"] == trajectory_zeta(spec, 4.0)

    def test_threshold_record_states(self):
        ok = threshold_record(SystemParams(R=40.0, alpha=2.0, rho_r=1.0,
                                           rho_d=1.0, rho_s=1.0))
        assert ok["bound_holds"] is True
        assert ok["error"] is None
        assert tuple(ok) == THRESHOLD_COLUMNS

        low_rate = threshold_record(SystemParams(R=5.0, alpha=2.0, rho_r=1.0,
                                                 rho_d=1.0, rho_s=1.0))
        assert low_rate["r1"] is not None  # thresholds themselves computed
        assert low_rate["bound_holds"] is None
        assert "hypotheses unmet" in low_rate["error"]

        bad = threshold_record(SystemParams(R=40.0, alpha=2.0, rho_r=0.0,
                                            rho_d=1.0, rho_s=1.0))
        assert bad["r1"] is None
        assert "rho_r" in bad["error"]


@pytest.fixture()
def config_path(tmp_path):
    cfg = {
        "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0, "rho_s": 1.0},
        "sweep": {"r_values": [4.0, 8.0]},
        "optimize": {"R": 8.0},
        "trajectory": {"c": 2.0, "r_values": [10.0, 100.0]},
        "montecarlo": {"trials": 400, "seed": 3, "points": [
            {"m": 8, "k": 2, "gamma": 0.3, "detector": "mrc"},
            {"m": 8, "k": 2, "gamma": 0.3, "detector": "zf"}]},
        "thresholds": {"R": 40.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


_NORM = {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0, "rho_s": 1.0}
_POINT = {"m": 8, "k": 2, "gamma": 0.3, "detector": "mrc"}
_PHYSICAL = {"bandwidth_hz": 2e7, "noise_psd": 4e-21, "path_gain": 6e-14,
             "pa_slope": 2.5, "p_r": 0.3, "p_t": 0.07, "p_dec": 0.11,
             "p_s": 9.0}


def _sweep(**sweep):
    return {"normalized": _NORM, "sweep": {"r_values": [4.0], **sweep}}


def _points(*points):
    return {"montecarlo": {"trials": 400, "points": list(points)}}


# every refusal of a config: (command, config or its text, the key that
# the one error line names)
_REFUSALS = [
    pytest.param("sweep", "[1, 2]", "top level", id="top-level-array"),
    pytest.param("sweep", {"normalized": _NORM, "sweep": [4.0]}, "'sweep'",
                 id="section-not-object"),
    pytest.param("optimize", {"normalized": 2.0, "optimize": {"R": 4.0}},
                 "'normalized'", id="profile-not-object"),
    pytest.param("sweep", _sweep(bogus=1), "bogus", id="unknown-section-key"),
    pytest.param("sweep", {"normalized": {"alpha": 2.0, "rho_r": 1.0,
                                          "rho_d": 1.0},
                           "sweep": {"r_values": [4.0]}},
                 "'rho_s'", id="missing-number"),
    pytest.param("sweep", {"normalized": {**_NORM, "alpha": "2"},
                           "sweep": {"r_values": [4.0]}},
                 "'normalized.alpha'", id="string-number"),
    pytest.param("sweep", {"normalized": {**_NORM, "rho_r": True},
                           "sweep": {"r_values": [4.0]}},
                 "'normalized.rho_r'", id="bool-number"),
    pytest.param("thresholds", {"normalized": _NORM, "thresholds": {}},
                 "'R'", id="missing-rate"),
    pytest.param("validate", {"montecarlo": {"trials": 2.5,
                                             "points": [_POINT]}},
                 "'montecarlo.trials'", id="float-integer"),
    pytest.param("validate", {"montecarlo": {"seed": True,
                                             "points": [_POINT]}},
                 "'montecarlo.seed'", id="bool-integer"),
    pytest.param("validate", _points({**_POINT, "k": "2"}),
                 "'montecarlo.points[0].k'", id="string-integer"),
    pytest.param("validate", _points({"k": 2, "gamma": 0.3,
                                      "detector": "mrc"}),
                 "needs 'm'", id="missing-integer"),
    pytest.param("sweep", {"normalized": _NORM, "sweep": {}}, "'r_values'",
                 id="missing-r-values"),
    pytest.param("sweep", _sweep(r_values=[]), "'sweep.r_values'",
                 id="empty-r-values"),
    pytest.param("sweep", _sweep(r_values=4.0), "'sweep.r_values'",
                 id="scalar-r-values"),
    pytest.param("sweep", _sweep(r_values=[4.0, "8"]), "'sweep.r_values[1]'",
                 id="string-in-r-values"),
    pytest.param("optimize", {"normalized": _NORM,
                              "optimize": {"R": 4.0, "detectors": ["mmse"]}},
                 "'optimize.detectors[0]'", id="unknown-detector"),
    pytest.param("validate", _points({**_POINT, "detector": 1}),
                 "'montecarlo.points[0].detector'", id="number-detector"),
    pytest.param("sweep", _sweep(detectors=[]), "'sweep.detectors'",
                 id="empty-detectors"),
    pytest.param("sweep", _sweep(detectors="mrc"), "'sweep.detectors'",
                 id="string-detectors"),
    pytest.param("sweep", {**_sweep(), "physical": {}}, "'physical'",
                 id="both-profiles"),
    pytest.param("sweep", {"sweep": {"r_values": [4.0]}}, "'normalized'",
                 id="no-profile"),
    pytest.param("sweep", _sweep(outputs="exact"), "'sweep.outputs'",
                 id="string-outputs"),
    pytest.param("sweep", _sweep(outputs=[]), "'sweep.outputs'",
                 id="empty-outputs"),
    pytest.param("sweep", _sweep(outputs=["exact", 1]), "'sweep.outputs[1]'",
                 id="number-in-outputs"),
    pytest.param("sweep", _sweep(outputs=["bogus"]), "unknown outputs",
                 id="unknown-output"),
    pytest.param("sweep", _sweep(trajectory_c="1"), "'sweep.trajectory_c'",
                 id="string-trajectory-c"),
    pytest.param("trajectory",
                 {"normalized": _NORM,
                  "trajectory": {"c": 2.0, "r_values": [10.0, math.inf]}},
                 "'trajectory.r_values'", id="infinite-trajectory-rate"),
    pytest.param("validate", {"montecarlo": {"points": {}}},
                 "'montecarlo.points'", id="object-points"),
    pytest.param("validate", _points(), "'montecarlo.points'",
                 id="empty-points"),
    pytest.param("validate", _points(_POINT, 3), "'montecarlo.points[1]'",
                 id="number-point"),
    pytest.param("validate", _points({**_POINT, "bogus": 1}), "bogus",
                 id="unknown-point-key"),
    pytest.param("validate", _points({"m": 8, "k": 2, "gamma": 0.3}),
                 "needs 'detector'", id="point-without-detector"),
    pytest.param("validate", _points({**_POINT, "gamma": -1.0}),
                 "montecarlo.points[0]: gamma", id="point-refused"),
    # a count with no double (401 digits) is a config error
    pytest.param("validate", _points({**_POINT, "m": 10 ** 400}),
                 "montecarlo.points[0]: m", id="point-m-without-a-double"),
    pytest.param("validate", _points({**_POINT, "k": 10 ** 400}),
                 "montecarlo.points[0]: k", id="point-k-without-a-double"),
    pytest.param("optimize", {"physical": {**_PHYSICAL, "p_s": None},
                              "optimize": {"R": 4.0}},
                 "'physical.p_s'", id="null-physical-number"),
    pytest.param("optimize",
                 {"physical": {k: v for k, v in _PHYSICAL.items()
                               if k != "p_s"}, "optimize": {"R": 4.0}},
                 "'physical' needs 'p_s'", id="missing-physical-number"),
    pytest.param("optimize", {"physical": {**_PHYSICAL, "bandwidth_hz": "2e7"},
                              "optimize": {"R": 4.0}},
                 "'physical.bandwidth_hz'", id="string-physical-number"),
    pytest.param("optimize", {"physical": {**_PHYSICAL, "bogus": 1},
                              "optimize": {"R": 4.0}},
                 "'physical': ['bogus']", id="unknown-physical-key"),
    pytest.param("optimize", {"normalized": _NORM, "optimize": None},
                 "'optimize'", id="null-section"),
    pytest.param("optimize", {"normalized": _NORM,
                              "optimize": {"R": 4.0, "detectors": []}},
                 "'optimize.detectors'", id="empty-optimize-detectors"),
    pytest.param("trajectory", {"normalized": _NORM,
                                "trajectory": {"r_values": [10.0]}},
                 "'trajectory' needs 'c'", id="trajectory-without-c"),
    pytest.param("validate", _points({**_POINT, "trials": "400"}),
                 "'montecarlo.points[0].trials'", id="string-point-trials"),
    pytest.param("validate", _points({**_POINT, "seed": True}),
                 "'montecarlo.points[0].seed'", id="bool-point-seed"),
    # optimize's rate is refused by its own name, not as a sweep's r_values
    pytest.param("optimize", {"normalized": _NORM, "optimize": {"R": 0}},
                 "R must be", id="zero-optimize-rate"),
    pytest.param("optimize", {"normalized": _NORM,
                              "optimize": {"R": math.inf}},
                 "R must be", id="infinite-optimize-rate"),
]


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["optimize", "--config", "X", "--bogus"],
        ["optimize", "--config", "X", "extra"],
        ["optimize", "--format", "json"],     # no --config
        ["optimize", "--help"],
        ["bogus", "--config", "X"],
        ["--help"],
    ])
    def test_dispatch_keeps_the_full_parsers_bytes(self, capsys, argv):
        # main parses a subcommand's arguments with its own parser; each
        # exit must print what the full parser prints, usage line included
        def outcome(parse):
            with pytest.raises(SystemExit) as stop:
                parse(list(argv))
            captured = capsys.readouterr()
            return stop.value.code, captured.out, captured.err

        want = outcome(_build_parser().parse_args)
        assert outcome(main) == want
        assert want[0] == (0 if "--help" in argv else 2)
        if "--bogus" in argv:
            assert want[2].startswith("usage: mimo-ee [-h]")

    @pytest.mark.parametrize("argv", [
        ["optimize", "--config", "X"],
        ["validate", "--config=X", "--seed", "7", "--threads", "2"],
        ["sweep", "--con", "X", "--k-max", "40", "--format", "json"],
    ])
    def test_dispatch_gives_the_full_parsers_namespace(self, argv):
        assert vars(_parse_args(argv)) == vars(_build_parser().parse_args(argv))

    def test_every_subcommand_succeeds(self, capsys, config_path):
        for cmd, header0 in (("optimize", "R"), ("sweep", "R"),
                             ("breakdown", "R"), ("trajectory", "R"),
                             ("validate", "m"), ("thresholds", "R")):
            rc, out, err = _run(capsys, cmd, "--config", config_path)
            assert rc == 0, (cmd, err)
            assert err == ""
            assert out.split("\n")[0].split(",")[0] == header0

    def test_sweep_output_table(self, capsys, config_path):
        rc, out, _ = _run(capsys, "sweep", "--config", config_path)
        assert rc == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 4
        assert [r["detector"] for r in rows] == ["mrc", "zf", "mrc", "zf"]
        theta = SystemParams(R=4.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0)
        assert rows[0]["M_star"] == str(optimize_exact(theta, MRC).m_star)
        assert rows[0]["zeta_star"] == repr(optimize_exact(theta, MRC).zeta_star)

    def test_runs_are_byte_identical(self, capsys, config_path):
        _, first, _ = _run(capsys, "sweep", "--config", config_path)
        _, second, _ = _run(capsys, "sweep", "--config", config_path)
        _, threaded, _ = _run(capsys, "sweep", "--config", config_path,
                              "--threads", "2")
        assert first == second == threaded

    def test_out_file_matches_stdout(self, capsys, config_path, tmp_path):
        _, piped, _ = _run(capsys, "optimize", "--config", config_path)
        out_file = tmp_path / "table.csv"
        rc, out, _ = _run(capsys, "optimize", "--config", config_path,
                          "--out", str(out_file))
        assert rc == 0
        assert out == ""
        assert out_file.read_text(encoding="utf-8") == piped

    def test_json_format(self, capsys, config_path):
        rc, out, _ = _run(capsys, "thresholds", "--config", config_path,
                          "--format", "json")
        assert rc == 0
        (row,) = json.loads(out)
        assert row["bound_holds"] is True

    def test_seed_override_changes_validation(self, capsys, config_path):
        _, base, _ = _run(capsys, "validate", "--config", config_path)
        _, same, _ = _run(capsys, "validate", "--config", config_path,
                          "--seed", "3")
        _, other, _ = _run(capsys, "validate", "--config", config_path,
                           "--seed", "4")
        assert base == same
        assert base != other

    def test_point_seed_wins_over_seed_flag(self, capsys, tmp_path):
        # --seed replaces montecarlo.seed only; a point's own seed stays
        cfg = {"montecarlo": {"trials": 400, "seed": 3, "points": [
            {"m": 8, "k": 2, "gamma": 0.3, "detector": "mrc", "seed": 9},
            {"m": 8, "k": 2, "gamma": 0.3, "detector": "mrc"}]}}
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(cfg))
        _, base, _ = _run(capsys, "validate", "--config", str(path))
        rc, flagged, _ = _run(capsys, "validate", "--config", str(path),
                              "--seed", "4")
        assert rc == 0
        base_lines, flagged_lines = base.splitlines(), flagged.splitlines()
        assert flagged_lines[1] == base_lines[1]
        assert flagged_lines[2] != base_lines[2]
        seeds = [row["seed"] for row in csv.DictReader(flagged_lines)]
        assert seeds == ["9", "4"]

    def test_config_errors_exit_2(self, capsys, config_path, tmp_path):
        cases = [
            ("sweep", "--config", str(tmp_path / "missing.json")),
            ("optimize", "--config", config_path.replace("config", "nope")),
        ]
        for argv in cases:
            rc, out, err = _run(capsys, *argv)
            assert rc == 2
            assert out == ""
            assert err.startswith("error: config: ")

        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        rc, _, err = _run(capsys, "sweep", "--config", str(bad_json))
        assert rc == 2 and "invalid JSON" in err

        bad_alpha = tmp_path / "alpha.json"
        bad_alpha.write_text(json.dumps({
            "normalized": {"alpha": 1.0, "rho_r": 1, "rho_d": 1, "rho_s": 1},
            "sweep": {"r_values": [4.0]}}))
        rc, _, err = _run(capsys, "sweep", "--config", str(bad_alpha))
        assert rc == 2 and "alpha" in err

        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1, "rho_d": 1, "rho_s": 1},
            "sweep": {"r_values": [4.0]}, "extra": {}}))
        rc, _, err = _run(capsys, "sweep", "--config", str(unknown))
        assert rc == 2 and "unknown top-level keys" in err

        no_section = tmp_path / "nosec.json"
        no_section.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1, "rho_d": 1, "rho_s": 1}}))
        rc, _, err = _run(capsys, "validate", "--config", str(no_section))
        assert rc == 2 and "montecarlo" in err

    @pytest.mark.parametrize("cmd,config,key", _REFUSALS)
    def test_config_refusal_exits_2(self, capsys, tmp_path, cmd, config,
                                    key):
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
        rc, out, err = _run(capsys, cmd, "--config", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: config: ") and err.count("\n") == 1
        assert key in err

    def test_a_section_the_command_does_not_read_is_not_read(self, capsys,
                                                             tmp_path):
        runs = []
        for extra in ({}, {"sweep": {"bogus": 1}}):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"normalized": _NORM,
                                        "optimize": {"R": 8.0}, **extra}))
            runs.append(_run(capsys, "optimize", "--config", str(path)))
        assert runs[0] == runs[1]
        assert runs[1][0] == 0 and runs[1][2] == ""

    @pytest.mark.parametrize("command, config, same_as", [
        # a null detector list is the default one, as it was left out
        pytest.param("sweep", _sweep(detectors=None), _sweep(),
                     id="sweep-null-detectors"),
        pytest.param("optimize", {"normalized": _NORM, "optimize": {
            "R": 8.0, "detectors": None}},
                     {"normalized": _NORM, "optimize": {"R": 8.0}},
                     id="optimize-null-detectors"),
        # breakdown sets its own outputs, so it never reads the config's
        pytest.param("breakdown", _sweep(outputs=5), _sweep(),
                     id="breakdown-scalar-outputs"),
        pytest.param("breakdown", _sweep(outputs=["exact", 1]), _sweep(),
                     id="breakdown-number-in-outputs"),
        pytest.param("breakdown", _sweep(outputs=["bogus"]), _sweep(),
                     id="breakdown-unknown-output"),
    ])
    def test_accepted_as_the_plain_config(self, capsys, tmp_path, command,
                                          config, same_as):
        runs = []
        for cfg in (config, same_as):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(cfg))
            runs.append(_run(capsys, command, "--config", str(path)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""

    def test_k_max_that_is_no_integer_is_a_usage_error(self, capsys,
                                                       config_path):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", config_path, "--k-max", "abc"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: mimo-ee optimize")
        assert "argument --k-max: not an integer: 'abc'" in captured.err

    def test_sweep_reads_trajectory_c(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_sweep(
            r_values=[4.0, 8.0], outputs=["exact", "trajectory"],
            trajectory_c=2.0)))
        rc, out, err = _run(capsys, "sweep", "--config", str(path))
        assert (rc, err) == (0, "")
        spec = TrajectorySpec(c=2.0, profile=_profile())
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["zeta_trajectory"] for row in rows] == [
            repr(trajectory_zeta(spec, 4.0)), "",
            repr(trajectory_zeta(spec, 8.0)), ""]

    def test_numeric_failure_exits_3_but_emits_table(self, capsys,
                                                     config_path, tmp_path):
        cfg = {
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                           "rho_s": 1.0},
            "optimize": {"R": 2000.0},
        }
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = _run(capsys, "optimize", "--config", str(path),
                            "--k-max", "1")
        assert rc == 3
        assert err.startswith("error: numeric: ")
        assert out.startswith("R,detector,")  # table still emitted

    def test_unpriceable_headroom_exits_3(self, capsys, tmp_path):
        # no M up to K = 5 prices as a double; the refusal names that cause
        cfg = {"normalized": {"alpha": 2.6633416661274714,
                              "rho_r": 0.9465874706940952,
                              "rho_d": 2.400727791314941,
                              "rho_s": 0.12021406948212582},
               "optimize": {"R": 1480.1009878050186, "detectors": ["mrc"]}}
        path = tmp_path / "unpriced.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = _run(capsys, "optimize", "--config", str(path),
                            "--k-max", "5")
        assert rc == 3
        assert err.startswith("error: numeric: exact: no integer design "
                              "achieves the rate with a power a double can "
                              "price: at K = 5")
        assert err.count("\n") == 1
        assert out.startswith("R,detector,")

    def test_relaxed_antenna_count_past_double_range_exits_3(self, capsys,
                                                              tmp_path):
        # both relaxed optima need an M past double range, so each row
        # names that; the exact cells are the search's without a hint
        cfg = {"normalized": {"alpha": 2.0, "rho_r": 1e-320, "rho_d": 1.0,
                              "rho_s": 1.0},
               "optimize": {"R": 2000.0}}
        path = tmp_path / "tiny_rho_r.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = _run(capsys, "optimize", "--config", str(path),
                            "--format", "json")
        assert rc == 3
        assert err.startswith("error: numeric: relaxed: the antenna count "
                              "at the relaxed optimum")
        assert err.count("\n") == 1
        theta = PowerProfile(**cfg["normalized"]).at_rate(2000.0)
        for row in json.loads(out):
            exact = optimize_exact(theta, Detector(row["detector"]))
            assert (row["M_star"], row["K_star"]) == (exact.m_star,
                                                      exact.k_star)
            assert row["zeta_relaxed"] is None and row["ratio"] is None
            assert row["error"].startswith("relaxed: ")

    @pytest.mark.parametrize("profile, rate, flags, k_star, m_star, zeta", [
        # alpha e overflows at K = 1, where M = 1 + surplus has a double;
        # the least M, 3, gave zeta 9.08e-306
        ({"alpha": 20.0, "rho_r": 1.0}, 1020.0, ("--k-max", "1"), 1,
         int(1.4990384980306193e154), 3.4021808023611062e-152),
        # the surplus has no double at K = 2: the largest double M wins;
        # the least M gave K* = 1283 (MRC) and zeta 0.528
        ({"alpha": 2.0, "rho_r": 1e-320}, 2000.0, (), 2,
         int(sys.float_info.max), 666.6666136843618)])
    def test_breakdown_prices_the_antenna_count_past_the_product(
            self, capsys, tmp_path, profile, rate, flags, k_star, m_star,
            zeta):
        cfg = {"normalized": {**profile, "rho_d": 1.0, "rho_s": 1.0},
               "sweep": {"r_values": [rate], "detectors": ["mrc"]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = _run(capsys, "breakdown", "--config", str(path),
                            "--format", "json", *flags)
        assert (rc, err) == (0, "")
        (row,) = json.loads(out)
        assert (row["K_star"], row["M_star"], row["error"]) == (k_star,
                                                                m_star, None)
        assert row["zeta_star"] == pytest.approx(zeta, rel=1e-12)

    def test_overflowing_trajectory_power_is_a_row_error(self, capsys,
                                                         tmp_path):
        # at c = 1100 the relaxed MRC power overflows; the cell read 0.0
        cfg = {"normalized": {"alpha": 20.0, "rho_r": 1.0, "rho_d": 1.0,
                              "rho_s": 1.0},
               "sweep": {"r_values": [1200.0], "detectors": ["mrc"],
                         "outputs": ["trajectory"], "trajectory_c": 1100.0},
               "trajectory": {"c": 1020.0, "r_values": [1030.0]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        for cmd, column in (("sweep", "zeta_trajectory"),
                            ("trajectory", "zeta")):
            rc, out, err = _run(capsys, cmd, "--config", str(path),
                                "--format", "json")
            assert (rc, err) == (0, "")
            (row,) = json.loads(out)
            assert row[column] is None
            assert row["error"].startswith("trajectory: the relaxed MRC "
                                           "power at k = R/c = ")
            assert row["error"].endswith(" overflows double range")

    def test_unmet_hypotheses_exit_3_but_emit_table(self, capsys, tmp_path):
        # R = 5 is below max(r1, r2) at this profile: thresholds are
        # computed but the efficiency cap's hypotheses do not hold
        cfg = {"normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                              "rho_s": 1.0},
               "thresholds": {"R": 5.0}}
        path = tmp_path / "low.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = _run(capsys, "thresholds", "--config", str(path))
        record = threshold_record(SystemParams(R=5.0, alpha=2.0, rho_r=1.0,
                                               rho_d=1.0, rho_s=1.0))
        assert rc == 3
        assert err == f"error: numeric: {record['error']}\n"
        assert "hypotheses unmet" in err
        assert out == render_csv([record], THRESHOLD_COLUMNS)

    @pytest.mark.parametrize("cmd,section,flags,rc", [
        # a row error: optimize and thresholds exit 3, the tables exit 0
        ("optimize", {"optimize": {"R": 2000.0}}, ("--k-max", "1"), 3),
        ("thresholds", {"thresholds": {"R": 5.0}}, (), 3),
        ("sweep", {"sweep": {"r_values": [4.0, 2000.0]}}, ("--k-max", "1"), 0),
        ("breakdown", {"sweep": {"r_values": [2000.0]}}, ("--k-max", "1"), 0),
        ("trajectory", {"trajectory": {"c": 2.0, "r_values": [1.0, 10.0]}},
         (), 0),
        # a value the library type refuses is a config error
        ("trajectory", {"trajectory": {"c": -1.0, "r_values": [10.0]}}, (), 2),
        ("thresholds", {"thresholds": {"R": -1.0}}, (), 2),
        ("sweep", {"sweep": {"r_values": [8.0, 4.0]}}, (), 2),
    ])
    def test_exit_code_rule(self, capsys, tmp_path, cmd, section, flags, rc):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                           "rho_s": 1.0}, **section}))
        got, out, err = _run(capsys, cmd, "--config", str(path), *flags)
        assert got == rc
        if rc == 2:
            assert out == ""
            assert err.startswith("error: config: ")
            assert err.count("\n") == 1
            return
        rows = list(csv.DictReader(out.splitlines()))
        failed = [row["error"] for row in rows if row["error"]]
        assert failed  # the table is written, with the failed row in it
        if rc == 3:
            assert err == f"error: numeric: {failed[0]}\n"
        else:
            assert err == ""

    def test_overflowing_relaxation_cap_exits_3(self, capsys, tmp_path):
        # incumbent / rho_d overflows at rho_d = 5e-324: the relaxed row
        # asks for --k-max, which ZF's exact search does not need
        path = tmp_path / "tiny_rho_d.json"
        path.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 5e-324,
                           "rho_s": 1.0},
            "optimize": {"R": 10.0, "detectors": ["zf"]}}))
        rc, out, err = _run(capsys, "optimize", "--config", str(path))
        assert rc == 3
        assert err.startswith("error: numeric: ") and "k_max" in err
        assert err.count("\n") == 1
        (row,) = csv.DictReader(out.splitlines())
        assert (row["M_star"], row["K_star"]) == ("10", "5")
        rc, out, err = _run(capsys, "optimize", "--config", str(path),
                            "--k-max", "100")
        assert rc == 0 and err == ""

    @pytest.mark.parametrize("cmd,section", [
        ("optimize", {"optimize": {"R": 8.0}}),
        ("sweep", {"sweep": {"r_values": [4.0, 8.0]}}),
        ("breakdown", {"sweep": {"r_values": [8.0]}})])
    def test_k_max_without_a_double_exits_2(self, capsys, tmp_path, cmd,
                                            section):
        # a 401-digit cap was an OverflowError in every relaxed cell
        path = tmp_path / "case.json"
        path.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                           "rho_s": 1.0}, **section}))
        rc, out, err = _run(capsys, cmd, "--config", str(path),
                            "--k-max", "1" + "0" * 400)
        assert rc == 2
        assert out == ""
        assert err == ("error: config: k_max must be an integer >= 1 within "
                       "double range, got one past it\n")

    def test_threads_without_a_double_exit_2(self, capsys, tmp_path):
        # the worker count is a count like a point's m; subcommands that
        # ignore it still run
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**_points(_POINT), **_sweep()}))
        threads = ("--threads", "1" + "0" * 400)
        rc, out, err = _run(capsys, "validate", "--config", str(path), *threads)
        assert (rc, out) == (2, "")
        assert err == ("error: config: threads must be an integer >= 1 within "
                       "double range, got one past it\n")
        rc, _, err = _run(capsys, "sweep", "--config", str(path), *threads)
        assert (rc, err) == (0, "")

    def test_thresholds_past_double_range_are_strict_json(self, capsys,
                                                          tmp_path):
        # 49 rho_r / alpha overflows at rho_r = 1e308, where r2 printed inf
        # and json wrote Infinity; R = 10 is below r2, so the run exits 3
        path = tmp_path / "huge_rho_r.json"
        path.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1e308, "rho_d": 1.0,
                           "rho_s": 1.0}, "thresholds": {"R": 10.0}}))
        rc, out, err = _run(capsys, "thresholds", "--config", str(path),
                            "--format", "json")
        assert rc == 3
        assert err.startswith("error: numeric: thresholds: hypotheses unmet")

        def refuse(name):
            raise ValueError(f"not strict JSON: {name}")

        (row,) = json.loads(out, parse_constant=refuse)
        assert row["r1"] == 4.0
        assert row["r2"] == pytest.approx(2055.537126138845, rel=1e-15)

    def test_huge_rate_thresholds_exits_0(self, capsys, tmp_path):
        path = tmp_path / "huge_rate.json"
        path.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                           "rho_s": 1.0}, "thresholds": {"R": 1e300}}))
        rc, out, err = _run(capsys, "thresholds", "--config", str(path))
        assert rc == 0, err
        assert err == ""
        (row,) = csv.DictReader(out.splitlines())
        assert row["bound_holds"] == "true" and row["error"] == ""

    @pytest.mark.parametrize("cmd,text,word", [
        # a 401-digit number has no double
        ("optimize", '{"normalized": {"alpha": 1%s, "rho_r": 1, "rho_d": 1,'
         ' "rho_s": 1}, "optimize": {"R": 8}}' % ("0" * 400), "alpha"),
        ("sweep", '{"normalized": {"alpha": 2, "rho_r": 1, "rho_d": 1,'
         ' "rho_s": 1}, "sweep": {"r_values": [4, 1%s]}}' % ("0" * 400),
         "r_values"),
        # past Python's 4300-digit limit, json refuses the integer itself
        ("optimize", '{"normalized": {"alpha": 2, "rho_r": 1, "rho_d": 1,'
         ' "rho_s": 1}, "optimize": {"R": 1%s}}' % ("0" * 4999),
         "invalid JSON"),
    ], ids=["401-digit-alpha", "401-digit-rate", "5000-digit-rate"])
    def test_numbers_without_a_double_exit_2(self, capsys, tmp_path, cmd,
                                             text, word):
        path = tmp_path / "number.json"
        path.write_text(text)
        rc, out, err = _run(capsys, cmd, "--config", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: config: ") and word in err
        assert err.count("\n") == 1

    def test_unallocatable_trial_count_exits_3(self, capsys, tmp_path):
        # 8 PB of rates lies beyond a 47-bit address space, so numpy
        # refuses the array before touching memory
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"montecarlo": {"trials": 10 ** 15,
                                                   "points": [
            {"m": 8, "k": 2, "gamma": 0.3, "detector": "mrc"}]}}))
        rc, out, err = _run(capsys, "validate", "--config", str(path))
        assert rc == 3
        assert out == ""
        assert err.startswith("error: numeric: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("detector", ["mrc", "zf"])
    def test_rate_past_double_range_exits_3(self, capsys, tmp_path,
                                            detector):
        # at gamma = 1.7e308 the closed-form rate overflows; the simulated
        # rates stay finite: MRC's divides by gamma first and saturates near
        # 7.87 bits, and ZF's takes the log of an overflowing SINR as a
        # difference of logs. 1e300 still fits, so that point is tabulated
        def point(gamma):
            return {"m": 8, "k": 2, "gamma": gamma, "detector": detector}

        def validate(*gammas):
            path = tmp_path / "snr.json"
            path.write_text(json.dumps({"montecarlo": {
                "trials": 2000, "points": [point(g) for g in gammas]}}))
            with warnings.catch_warnings():   # a numpy warning fails the test
                warnings.simplefilter("error")
                return _run(capsys, "validate", "--config", str(path))

        rc, out, err = validate(1e300, 1.7e308)
        assert rc == 3
        assert out == ""
        simulated = {"mrc": "7.874037407771462",
                     "zf": "2053.2486564150063"}[detector]
        assert err == (
            "error: numeric: rate out of double range at m=8, k=2, "
            f"gamma=1.7e+308, {detector}: simulated {simulated}, "
            "closed form inf\n")

        rc, out, err = validate(1e300)
        assert rc == 0 and err == ""
        row = next(csv.DictReader(out.splitlines()))
        assert all(math.isfinite(float(row[col]))
                   for col in ("empirical_rate", "ci_halfwidth",
                               "bound_rate", "margin"))

    def test_zf_sinr_past_double_range_is_simulated(self, capsys, tmp_path):
        # at gamma = 1e307 ZF's g / [W^-1]_kk overflows, and the point
        # exits 0 where the closed form, 2044.8 bits, is finite
        path = tmp_path / "zf.json"
        path.write_text(json.dumps({"montecarlo": {"trials": 2000, "points": [
            {"m": 8, "k": 2, "gamma": 1e307, "detector": "zf"}]}}))
        with warnings.catch_warnings():   # a numpy warning fails the test
            warnings.simplefilter("error")
            rc, out, err = _run(capsys, "validate", "--config", str(path))
        assert rc == 0 and err == ""
        (row,) = csv.DictReader(out.splitlines())
        assert float(row["bound_rate"]) == 2044.8337752622829
        assert float(row["margin"]) > 3.0 * float(row["ci_halfwidth"])

    def test_bad_flag_exits_2(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", config_path, "--threads", "0"])
        assert exc.value.code == 2

    def test_repeated_parse_error_is_unchanged(self, capsys, config_path):
        # the parser is built once per process; a failed parse must not
        # leave anything behind that changes the next one
        results = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--config", config_path, "--k-max", "0"])
            results.append((exc.value.code, capsys.readouterr()))
        assert results[0][0] == results[1][0] == 2
        assert results[0][1].err == results[1][1].err
        assert "--k-max: must be >= 1, got 0" in results[0][1].err
        assert results[0][1].out == results[1][1].out == ""

    def test_repeated_help_is_unchanged(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("usage: mimo-ee")

    def test_module_entrypoint_matches_in_process(self, capsys, config_path):
        _, expected, _ = _run(capsys, "sweep", "--config", config_path)
        # the child finds the package where this process found it
        path = [str(Path(mimo_ee.__file__).parents[1]),
                os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "mimo_ee", "sweep", "--config", config_path],
            capture_output=True, text=True, check=True, env=env)
        assert proc.stdout == expected


_TABLES = {"sweep": {"r_values": [4.0, 60.0]}, "optimize": {"R": 24.0},
           "trajectory": {"c": 2.0, "r_values": [10.0, 100.0]},
           "thresholds": {"R": 40.0}}


class TestPhysicalConfig:
    """A `physical` section is the `normalized` one it scales to."""

    def _write(self, tmp_path, name, power):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({name: power, **_TABLES}))
        return str(path)

    @pytest.mark.parametrize("cmd", ["optimize", "sweep", "thresholds"])
    def test_same_bytes_as_its_normalized_profile(self, capsys, tmp_path,
                                                  cmd):
        p = _PHYSICAL
        scale = p["path_gain"] / (p["noise_psd"] * p["bandwidth_hz"])
        normalized = {"alpha": p["pa_slope"], "rho_r": p["p_r"] * scale,
                      "rho_d": (p["p_t"] + p["p_dec"]) * scale,
                      "rho_s": p["p_s"] * scale}
        runs = [_run(capsys, cmd, "--config",
                     self._write(tmp_path, name, power))
                for name, power in (("physical", p),
                                    ("normalized", normalized))]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].startswith("R,")

    @pytest.mark.parametrize(
        "cmd", ["optimize", "sweep", "breakdown", "trajectory", "thresholds"])
    def test_pa_slope_of_one_exits_2(self, capsys, tmp_path, cmd):
        path = self._write(tmp_path, "physical", {**_PHYSICAL, "pa_slope": 1.0})
        rc, out, err = _run(capsys, cmd, "--config", path)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: config: ") and "pa_slope" in err
        assert err.count("\n") == 1

    def test_underflowing_noise_power_exits_2(self, capsys, tmp_path):
        # noise_psd * bandwidth_hz rounds to 0: no scale to normalize by
        path = self._write(tmp_path, "physical", {
            **_PHYSICAL, "noise_psd": 1e-200, "bandwidth_hz": 1e-200})
        rc, out, err = _run(capsys, "optimize", "--config", path)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: config: ") and "underflows" in err
        assert err.count("\n") == 1


class TestOutFile:
    """`--out` is overwritten in place, cut to the new table's length."""

    def test_short_table_replaces_long_one(self, capsys, config_path,
                                           tmp_path):
        _, long_table, _ = _run(capsys, "optimize", "--config", config_path)
        _, short_table, _ = _run(capsys, "thresholds", "--config",
                                 config_path)
        assert len(short_table) < len(long_table)
        out_file = tmp_path / "table.csv"
        for cmd in ("optimize", "thresholds"):
            rc, out, _ = _run(capsys, cmd, "--config", config_path,
                              "--out", str(out_file))
            assert rc == 0 and out == ""
        assert out_file.read_bytes() == short_table.encode("utf-8")

    def test_existing_file_keeps_inode_links_and_mode(self, capsys,
                                                      config_path, tmp_path):
        out_file = tmp_path / "table.csv"
        out_file.write_text("x" * 10_000)
        out_file.chmod(0o640)
        link = tmp_path / "link.csv"
        os.link(out_file, link)
        before = os.stat(out_file)
        _, expected, _ = _run(capsys, "sweep", "--config", config_path)
        rc, _, _ = _run(capsys, "sweep", "--config", config_path,
                        "--out", str(out_file))
        assert rc == 0
        after = os.stat(out_file)
        assert after.st_ino == before.st_ino
        assert after.st_mode & 0o777 == 0o640
        assert link.read_bytes() == expected.encode("utf-8")

    def test_new_file_mode_follows_umask(self, capsys, config_path, tmp_path):
        out_file = tmp_path / "new.csv"
        old_mask = os.umask(0o027)
        try:
            rc, _, _ = _run(capsys, "thresholds", "--config", config_path,
                            "--out", str(out_file))
        finally:
            os.umask(old_mask)
        assert rc == 0
        assert os.stat(out_file).st_mode & 0o777 == 0o640

    def test_symlink_is_followed(self, capsys, config_path, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        _, expected, _ = _run(capsys, "thresholds", "--config", config_path)
        rc, _, _ = _run(capsys, "thresholds", "--config", config_path,
                        "--out", str(link))
        assert rc == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected.encode("utf-8")

    def test_device_is_written_without_cut(self, capsys, config_path):
        rc, out, err = _run(capsys, "thresholds", "--config", config_path,
                            "--out", os.devnull)
        assert (rc, out, err) == (0, "", "")

    def test_directory_exits_2(self, capsys, config_path, tmp_path):
        rc, out, err = _run(capsys, "thresholds", "--config", config_path,
                            "--out", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: config: cannot write {tmp_path}: ")

    def test_numeric_failure_still_writes_out(self, capsys, tmp_path):
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({
            "normalized": {"alpha": 2.0, "rho_r": 1.0, "rho_d": 1.0,
                           "rho_s": 1.0},
            "optimize": {"R": 2000.0}}))
        argv = ("optimize", "--config", str(path), "--k-max", "1")
        _, expected, _ = _run(capsys, *argv)
        out_file = tmp_path / "table.csv"
        rc, out, err = _run(capsys, *argv, "--out", str(out_file))
        assert rc == 3
        assert out == ""
        assert err.startswith("error: numeric: ")
        assert out_file.read_bytes() == expected.encode("utf-8")
        assert expected.startswith("R,detector,")

    def test_out_is_opened_without_truncation(self, capsys, config_path,
                                              tmp_path, monkeypatch):
        # a truncating open makes ext4 write the file back on close
        out_file = tmp_path / "table.csv"
        out_file.write_text("old")
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            if os.fspath(path) == str(out_file):
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        rc, _, _ = _run(capsys, "thresholds", "--config", config_path,
                        "--out", str(out_file))
        assert rc == 0
        assert len(flags) == 1
        assert not flags[0] & os.O_TRUNC


def _load_benchmark_tracing(monkeypatch):
    """perfbench/tracing.py as it stands, imported without a bytecode cache."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracePoints:
    def test_every_boundary_exists(self, capsys, monkeypatch, config_path):
        # the benchmark's tracer wraps functions by module and name, so a
        # renamed or removed boundary would only print "not traced" there
        tracing = _load_benchmark_tracing(monkeypatch)
        runs = [("optimize",), ("sweep",), ("breakdown",), ("trajectory",),
                ("validate", "--threads", "2"), ("thresholds",),
                ("thresholds", "--format", "json")]
        with tracing.Tracer() as tracer:
            for request, (cmd, *flags) in enumerate(runs):
                argv = [cmd, "--config", config_path, *flags]
                assert tracer.call_request(request, main, argv) == 0, argv
        capsys.readouterr()
        # the Monte-Carlo draw has no Box-Muller step any more; the tracer
        # still lists it, so its `montecarlo.boxmuller_s` reads 0
        assert tracer.absent == ["mimo_ee.montecarlo.channel_from_uniforms"]
        metrics = tracing.layer_metrics(tracer)
        assert metrics["montecarlo.boxmuller_s"][0] == 0
        assert metrics["cli.busy_s"][0] > 0
        assert metrics["montecarlo.slabs"][0] == 1  # the pool's slab is seen
        assert metrics["montecarlo.draws"][0] == 400
