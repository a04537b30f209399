"""Print the SHA-256 digest of every table the given configs write.

Runs each config (default: the shipped ``configs/*.yaml``, in name order)
through ``cli.run_config`` in process, into a temporary directory, and
prints one line ``<sha256>  <config>/<table>.csv`` per table, configs in the
order given and tables in name order.  The task's own progress lines go to
stderr, so stdout holds only the digests: two checkouts write the same
bytes when their outputs are equal, which one ``diff`` of the two outputs
shows.

``--workload montecarlo`` or ``--workload frontier`` digests a benchmark
workload's generated configs instead (``perfbench/workloads.py``:
``montecarlo_configs`` and ``frontier_configs`` at ``--workload-seed``),
written to the temporary directory as ``<label>.yaml`` and run at their
own seeds, so the lines read ``<sha256>  <label>/<table>.csv``.

Usage: ``python3 tools/csv_digests.py [--seed S] [--threads N] [CONFIG ...]``
or ``python3 tools/csv_digests.py --workload montecarlo|frontier
[--workload-seed S] [--threads N]`` (default: each config at its own seed,
one worker process, workload seed 1).  It takes as long as running each
config once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # after the packages: its module names are generic

from workloads import frontier_configs, montecarlo_configs  # noqa: E402

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


def workload_configs(name: str, seed: int, tmp: Path) -> list[Path]:
    """The generated configs of workload ``name`` at workload seed ``seed``,
    written under ``tmp`` as ``<label>.yaml``, in the workload's order."""
    raws = montecarlo_configs(seed) if name == "montecarlo" else frontier_configs(str(ROOT), seed)
    for label, raw in raws.items():
        (tmp / f"{label}.yaml").write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return [tmp / f"{label}.yaml" for label in raws]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="SHA-256 of every table the configs write.")
    parser.add_argument("--seed", type=int, default=None, help="override every config's seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes per config")
    parser.add_argument(
        "--workload", choices=("montecarlo", "frontier"), help="digest a workload's configs"
    )
    parser.add_argument("--workload-seed", type=int, default=1, help="the workload's seed")
    parser.add_argument("configs", nargs="*", type=Path, help="config files (default: configs/*.yaml)")
    args = parser.parse_args(argv)
    if args.workload and (args.configs or args.seed is not None):
        parser.error("--workload runs its own configs at their own seeds")
    with tempfile.TemporaryDirectory() as tmp:
        if args.workload:
            configs = workload_configs(args.workload, args.workload_seed, Path(tmp))
        else:
            configs = args.configs or sorted((ROOT / "configs").glob("*.yaml"))
        for i, config in enumerate(configs):
            lines = digests(config, Path(tmp) / str(i), args.seed, args.threads)
            print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
