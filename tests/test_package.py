"""The package surface: the root exports and the committed example configs."""

import csv
import json
from pathlib import Path

import pytest

import mimo_ee
from mimo_ee.cli import main
from mimo_ee.report import BASE_COLUMNS, ERROR_COLUMN, VALIDATION_COLUMNS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_SWEEP_HEADER = ",".join(BASE_COLUMNS + (ERROR_COLUMN,))
_VALIDATE_HEADER = ",".join(VALIDATION_COLUMNS)

# config file -> subcommand the README runs it with, and its header line
_RUNS = {
    "ee_tradeoff_sweep.json": ("sweep", _SWEEP_HEADER),
    "optimal_pair_growth.json": ("sweep", _SWEEP_HEADER),
    "pa_fraction_sweep_rho_0.01.json": ("breakdown", _SWEEP_HEADER),
    "pa_fraction_sweep_rho_1.json": ("breakdown", _SWEEP_HEADER),
    "pa_fraction_sweep_rho_100.json": ("breakdown", _SWEEP_HEADER),
    "validate_rate_bounds.json": ("validate", _VALIDATE_HEADER),
}


def test_every_public_name_resolves():
    assert [n for n in mimo_ee.__all__ if not hasattr(mimo_ee, n)] == []
    assert len(set(mimo_ee.__all__)) == len(mimo_ee.__all__)


def test_every_config_has_a_run():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(_RUNS)


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_config_runs_through_the_cli(name, tmp_path, capsys):
    command, header = _RUNS[name]
    path = CONFIGS / name
    if command == "validate":
        # same points with few trials; the committed count takes seconds
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cfg["montecarlo"]["trials"] = 500
        path = tmp_path / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = []
    for _ in range(2):
        rc = main([command, "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert outputs[0].split("\n")[0] == header
    rows = list(csv.DictReader(outputs[0].splitlines()))
    assert rows
    assert all(not row.get(ERROR_COLUMN) for row in rows)
