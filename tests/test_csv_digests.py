"""Smoke test of ``tools/csv_digests.py`` on ``configs/gradcheck_small.yaml``."""

import hashlib
import re

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
