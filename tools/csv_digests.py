"""Print the SHA-256 digest of every table the given configs write.

Runs each config (default: the shipped ``configs/*.yaml``, in name order)
through ``cli.run_config`` in process, into a temporary directory, and
prints one line ``<sha256>  <config>/<table>.csv`` per table, configs in the
order given and tables in name order.  The task's own progress lines go to
stderr, so stdout holds only the digests: two checkouts write the same
bytes when their outputs are equal, which one ``diff`` of the two outputs
shows.  Configs written elsewhere, such as the evaluation-only ones of
``perfbench/workloads.py::montecarlo_configs``, are checked by passing
their paths.

Usage: ``python3 tools/csv_digests.py [--seed S] [--threads N] [CONFIG ...]``
(default: each config at its own seed, one worker process).  It takes as
long as running each config once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from isacpilot.cli import run_config  # noqa: E402


def digests(config: Path, out_dir: Path, seed: int | None, threads: int) -> list[str]:
    """``<sha256>  <stem>/<table>.csv`` for each table ``config`` writes."""
    with contextlib.redirect_stdout(sys.stderr):
        status = run_config(str(config), seed=seed, out_dir=str(out_dir), threads=threads)
    if status != 0:
        raise SystemExit(f"{config.name}: exit status {status}")
    return [
        f"{hashlib.sha256(table.read_bytes()).hexdigest()}  {config.stem}/{table.name}"
        for table in sorted(out_dir.glob("*.csv"))
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="SHA-256 of every table the configs write.")
    parser.add_argument("--seed", type=int, default=None, help="override every config's seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes per config")
    parser.add_argument("configs", nargs="*", type=Path, help="config files (default: configs/*.yaml)")
    args = parser.parse_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            lines = digests(config, Path(tmp) / str(i), args.seed, args.threads)
            print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
