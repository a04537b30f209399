"""Smoke test of ``tools/csv_digests.py`` on ``configs/gradcheck_small.yaml``."""

import hashlib
import re
import shutil

from test_sweep_sensitivity import ROOT, load_tool

from isacpilot.cli import run_config


def test_prints_the_digest_of_each_table(tmp_path, capsys, monkeypatch):
    # the tool run over a configs/ directory holding only gradcheck_small.yaml
    config = ROOT / "configs" / "gradcheck_small.yaml"
    (tmp_path / "configs").mkdir()
    shutil.copy(config, tmp_path / "configs")
    tool = load_tool("csv_digests")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    tool.main(["--seed", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  gradcheck_small/\w+\.csv", line) for line in lines)
    # the same run written directly gives the same bytes
    out = tmp_path / "direct"
    assert run_config(str(config), seed=7, out_dir=str(out)) == 0
    tables = sorted(out.glob("*.csv"))
    assert lines == [f"{hashlib.sha256(t.read_bytes()).hexdigest()}  gradcheck_small/{t.name}" for t in tables]
