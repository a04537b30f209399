"""Smoke tests of ``tools/csv_digests.py``: ``configs/gradcheck_small.yaml``,
and a montecarlo workload config at its own seed."""

import hashlib
import re

import pytest
import yaml

from test_sweep_sensitivity import ROOT, load_tool

from isacpilot.cli import run_config


def test_prints_the_digest_of_each_table(tmp_path, capsys):
    config = ROOT / "configs" / "gradcheck_small.yaml"
    load_tool("csv_digests").main(["--seed", "7", str(config)])
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  gradcheck_small/\w+\.csv", line) for line in lines)
    # the same run written directly gives the same bytes
    out = tmp_path / "direct"
    assert run_config(str(config), seed=7, out_dir=str(out)) == 0
    tables = sorted(out.glob("*.csv"))
    assert lines == [f"{hashlib.sha256(t.read_bytes()).hexdigest()}  gradcheck_small/{t.name}" for t in tables]


def test_workload_configs_are_digested_at_their_own_seeds(tmp_path, capsys, monkeypatch):
    tool = load_tool("csv_digests")
    generated = tool.montecarlo_configs(2)["mc_diagnostics_1"]  # config seed 2 + 1
    generated["diagnostics"].update(pilots=3, trials=20)  # a small copy of the workload's config
    monkeypatch.setattr(tool, "montecarlo_configs", lambda seed: {"mc_diagnostics_1": generated})
    tool.main(["--workload", "montecarlo", "--workload-seed", "2"])
    lines = capsys.readouterr().out.splitlines()
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(generated, sort_keys=False))
    out = tmp_path / "direct"
    assert run_config(str(config), out_dir=str(out)) == 0
    table = out / "diagnostics.csv"
    assert "# seed: 3" in table.read_text().splitlines()
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    assert lines == [f"{digest}  mc_diagnostics_1/diagnostics.csv"]
    with pytest.raises(SystemExit):
        tool.main(["--workload", "frontier", "--seed", "7"])
