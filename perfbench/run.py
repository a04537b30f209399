#!/usr/bin/env python3
"""isacpilot benchmark: time-to-table per workload, plus a traced per-module run.

Run from the repository root:

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 10 --trace 0

``--workload`` is ``frontier``, ``montecarlo``, ``cli-suite`` or ``all``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end figures (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-module figures of a traced run.  Lines before
it give every figure by name and unit, with quartiles and sample counts, the
error rate and the environment.

The package is imported from ``src/`` of the checkout the script sits in, and
every output goes to a temporary directory under ``.bench_build/``.  The
``frontier`` and ``montecarlo`` tasks run through ``cli.run_config`` in one
worker process per run, the ``cli-suite`` tasks each in a fresh process
running ``cli.main`` (``child.py``).  All numerical work runs with one BLAS
thread.

Times are in reference seconds.  The shared 2-vCPU machine this was built on
runs the same code up to 2x slower, in bursts from a tenth of a second to
minutes, because of load outside the machine, and its vCPUs slow down
independently.  So the benchmark and every process it starts are pinned to
one CPU, and a fixed calibration kernel (``Calibrator``), which does not touch
isacpilot, is timed before the first operation of a cycle and after every
operation.  An operation's time is multiplied by the kernel's unslowed time
over the mean of the kernel times around it, and an operation during which
the kernel time changed by more than ``UNSTEADY`` is run once more.
Unscaled seconds are printed alongside.  See README.md.
"""

from __future__ import annotations

import os

# pinned before NumPy is imported here or in any child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# calibration time after an operation, as a share of the operation's time
CAL_SHARE = 0.1
# largest ratio of the calibration samples around an operation that still counts as steady
UNSTEADY = 1.2
# calibration kernel of each workload's operations; set-up is always timed against "spawn"
KERNELS = {"frontier": "small", "montecarlo": "batched", "cli-suite": "spawn"}
SETUP_REPS = 3
# never used while writing a change; quote claims on it as well
HELD_OUT_SEED = 1009

SETUP_CODE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import isacpilot.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "cli.parse_config(sys.argv[1])\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'import_s': t1 - t0, 'parse_s': t2 - t1}))\n"
)

PROFILED = (
    "metrics.comm_state",
    "gradients.isac_value_and_grad",
    "metrics.sense_state",
    "optimizer.project_stiefel",
    "evaluation.gmm_mmse_batch",
    "channel.sample_channels",
)
SELF_ONLY = (
    "evaluation.nmse_experiment",
    "evaluation.ser_experiment",
    "evaluation.roc_curve",
    "evaluation.simulate_detection_trials",
    "metrics.c_worst_estimate",
)
OPTIMIZER_STACK = ("gradients.isac_value_and_grad", "optimizer.project_stiefel")


class Calibrator:
    """Fixed NumPy and interpreter work whose duration tracks the machine's speed.

    ``small`` repeats the many small matrix operations and interpreter work of
    the optimizer; ``batched`` repeats the few large batched solves of the
    mixture estimator, which slow down less when the machine is contended;
    ``spawn`` starts a fresh interpreter that imports NumPy, like every
    ``cli-suite`` task and set-up measurement, whose work is in processes of
    their own.
    """

    # one run of each kernel on the 2-vCPU Xeon this was built on, when not slowed
    REFERENCE_S = {"small": 0.025, "batched": 0.019, "spawn": 0.11}

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        rng = np.random.default_rng(2024)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        if kind == "small":
            self._a, self._b, self._eye = cn(180, 16, 16), cn(4, 16), 5.0 * np.eye(4)
        elif kind == "batched":
            g = cn(180, 6, 6)
            self._sigma = g @ g.conj().transpose(0, 2, 1) + 6.0 * np.eye(6)
            self._rhs, self._post = cn(180, 6, 200), cn(180, 16, 200)

    def _small(self) -> None:
        for _ in range(30):
            x = self._b @ self._a
            np.linalg.solve(x @ self._b.conj().T + self._eye, x)
        acc: dict = {}
        for i in range(90000):
            k = i & 255
            acc[k] = acc.get(k, 0) + (i ^ k)

    def _batched(self) -> None:
        for _ in range(2):
            z = np.linalg.solve(self._sigma, self._rhs)
            quad = np.einsum("klc,klc->kc", self._rhs.conj(), z).real
            w = np.exp(quad - quad.max(axis=0))
            np.einsum("kc,knc->cn", w / w.sum(axis=0), self._post)

    def _spawn(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)

    def sample(self, seconds: float = 0.0) -> float:
        """Median duration of one kernel run, over at least three runs and ``seconds``."""
        work = getattr(self, f"_{self.kind}")
        times: list = []
        while len(times) < 3 or sum(times) < seconds:
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, raw: float, before: float, after: float) -> float:
        """``raw`` seconds in reference seconds, given the samples around it."""
        return raw * self.reference_s / (0.5 * (before + after))


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class Worker:
    """The ``child.py worker`` process that runs a workload's tasks through ``cli.run_config``."""

    def __init__(self, env: dict):
        argv = [sys.executable, CHILD, "worker"]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, task: workloads.Task, trace: bool) -> dict:
        request = {"config": task.config, "task": task.task, "out_dir": task.out_dir, "trace": trace}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(reply)

    def close(self, kill: bool = False) -> None:
        """End the worker and reap it."""
        if kill:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, tmp: str, trace: bool):
        import isacpilot.cli

        self.verify = isacpilot.cli.verify_outputs
        self.workload = workloads.build(name, ROOT, seed, tmp)
        self.tmp = tmp
        self.trace = trace
        # cli-suite cycles use the worker pool, except in a traced run, where the
        # untraced cycles match the traced ones (which keep every span in one process)
        self.threads = 1 if trace else 2
        self.reference = checks.load_reference()
        self.cal = Calibrator(KERNELS[name])
        self.setup_cal = Calibrator("spawn")
        self.child_env = dict(os.environ, PYTHONPATH=SRC)
        self.worker = None
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.peak_rss_mb = 0.0
        # objective_bits of each sweep point, by task label (repeats write identical CSVs)
        self.frontier_objective: dict = {}

    # -- processes -------------------------------------------------------

    def _child(self, argv: list, log: str) -> tuple:
        """(exit code, wall seconds) of a child process, reaped here."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.child_env, cwd=ROOT)
            try:
                rc = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            return rc, time.perf_counter() - start

    def _cli_argv(self, task: workloads.Task, threads: int) -> list:
        seed = str(self.workload.seed)
        return [task.task, "--config", task.config, "--seed", seed, "--out", task.out_dir, "--threads", str(threads)]

    # -- one operation ---------------------------------------------------

    def _run_task(self, task: workloads.Task, trace: bool, threads: int) -> tuple:
        """(raw seconds, problems, traced payload or None) of one invocation."""
        shutil.rmtree(task.out_dir, ignore_errors=True)
        log = os.path.join(self.tmp, "child.log")
        if self.workload.in_worker:
            payload = self.worker.run(task, trace)
            if payload["error"] is not None:
                raise RuntimeError(f"run_config raised:\n{payload['error']}")
            rc, raw = payload["status"], payload["seconds"]
        else:
            report = os.path.join(self.tmp, "report.json")
            argv = [sys.executable, CHILD, "task", report, str(int(trace))] + self._cli_argv(task, threads)
            rc, raw = self._child(argv, log)
            with open(report, encoding="utf-8") as handle:
                payload = json.load(handle)
            os.remove(report)
        if not trace:
            self.peak_rss_mb = max(self.peak_rss_mb, payload["peak_rss_mb"])
            payload = None
        # worker tasks take their seed from the config, the others from --seed
        seed = None if self.workload.in_worker else self.workload.seed
        with contextlib.redirect_stdout(io.StringIO()):
            vrc = self.verify(task.config, seed, task.out_dir)
        problems = []
        if rc != 0:
            problems.append(f"exit status {rc}")
        if vrc != 0:
            problems.append(f"verify exit status {vrc}")
        if not problems:
            problems = checks.check_outputs(self.workload.name, task.task, task.out_dir, self.reference)
        if not problems:
            for name, digest in checks.digests(task.out_dir).items():
                first = self.digests.setdefault((task.label, name), digest)
                if digest != first:
                    problems.append(f"{name}: content differs from an earlier run with the same seed")
        if not problems and self.workload.name == "frontier":
            _, rows = checks.read_table(os.path.join(task.out_dir, "frontier.csv"))
            self.frontier_objective[task.label] = [row["objective_bits"] for row in rows]
        return raw, problems, payload

    def operation(self, task: workloads.Task, trace: bool = False, threads: int | None = None) -> tuple:
        """Run one task; returns (raw seconds, traced payload); failures are recorded."""
        self.attempted += 1
        try:
            raw, problems, payload = self._run_task(task, trace, self.threads if threads is None else threads)
        except Exception:  # one broken operation must not hide the others
            raw, problems, payload = float("nan"), [traceback.format_exc()], None
        self.failed += bool(problems)
        for problem in problems:
            print(f"FAIL {self.workload.name} {task.label}: {problem}", file=sys.stderr)
        return raw, payload

    # -- cycles ----------------------------------------------------------

    def _timed(self, run, cal: Calibrator, before: float) -> tuple:
        """(raw, scaled, payload, last calibration) of ``run()``, which returns (raw, payload).

        When the calibration before and after a run differ by more than
        ``UNSTEADY``, the machine changed speed during it and the scaling is
        unreliable, so it is run once more; the run whose samples agree best counts.
        """
        best = None
        for _ in range(2):
            raw, payload = run()
            after = cal.sample(CAL_SHARE * raw if math.isfinite(raw) else 0.0)
            ratio = max(before, after) / min(before, after)
            if best is None or ratio < best[0]:
                best = (ratio, raw, cal.scale(raw, before, after), payload)
            before = after
            if ratio <= UNSTEADY:
                break
        return best[1], best[2], best[3], after

    def cycle(self, trace: bool = False) -> dict:
        """Every task once; per-task raw and scaled seconds plus traced payloads."""
        result = {"raw": {}, "scaled": {}, "payloads": []}
        cal = self.cal.sample()
        for task in self.workload.tasks:
            raw, scaled, payload, cal = self._timed(lambda: self.operation(task, trace), self.cal, cal)
            result["raw"][task.label] = raw
            result["scaled"][task.label] = scaled
            if payload is not None:
                result["payloads"].append(payload)
        return result

    def setup_times(self) -> tuple:
        """Scaled seconds from a fresh interpreter to import and parse, and import seconds."""
        argv = [sys.executable, "-c", SETUP_CODE, self.workload.tasks[0].config]
        log = os.path.join(self.tmp, "setup.log")

        def setup() -> tuple:
            rc, wall = self._child(argv, log)
            if rc != 0:
                raise RuntimeError(f"set-up child failed with exit status {rc}")
            with open(log, encoding="utf-8") as handle:
                return wall, json.loads(handle.read().strip().splitlines()[-1])["import_s"]

        scaled, imports = [], []
        cal = self.setup_cal.sample()
        for _ in range(SETUP_REPS):
            _, seconds, import_s, cal = self._timed(setup, self.setup_cal, cal)
            scaled.append(seconds)
            imports.append(import_s)
        return scaled, imports

    def repeat_probe(self, raw: dict) -> None:
        """Run the cheapest task once more, with one worker, so every run compares CSV digests.

        On an untraced ``cli-suite`` run this compares ``--threads 1`` with ``--threads 2``.
        """
        self.operation(min(self.workload.tasks, key=lambda t: raw[t.label]), threads=1)

    def measure(self, seconds: float) -> dict:
        setup, imports = self.setup_times()
        if self.workload.in_worker:
            self.worker = Worker(self.child_env)
        plain, traced = [], []
        done = False
        try:
            start = time.perf_counter()
            while True:
                plain.append(self.cycle())
                if self.trace:
                    traced.append(self.cycle(trace=True))
                if time.perf_counter() - start >= seconds:
                    break
            self.repeat_probe(plain[0]["raw"])
            done = True
        finally:
            if self.worker is not None:
                self.worker.close(kill=not done)
        return {"setup": setup, "imports": imports, "plain": plain, "traced": traced}


def end_to_end(bench: Bench, data: dict) -> dict:
    cycles = [sum(c["scaled"].values()) for c in data["plain"]]
    raw_cycles = [sum(c["raw"].values()) for c in data["plain"]]
    return {
        "wall_s": {"value": statistics.median(cycles), "unit": "s", "samples": cycles, "raw": raw_cycles},
        "setup_s": {"value": statistics.median(data["setup"]), "unit": "s", "samples": data["setup"]},
        "peak_rss_mb": {"value": bench.peak_rss_mb, "unit": "MB", "samples": [bench.peak_rss_mb]},
    }


def _merge_payloads(cycles: list) -> tuple:
    """Spans and counters of all traced tasks, each task's spans re-indexed."""
    spans, counters = [], {}
    for cycle in cycles:
        for payload in cycle["payloads"]:
            offset = len(spans)
            spans += [(n, s, e, p + offset if p >= 0 else -1) for n, s, e, p in payload["spans"]]
            for key, value in payload["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
    return spans, counters


def per_layer(bench: Bench, data: dict) -> dict:
    traced = data["traced"]
    n = len(traced)
    spans, counters = _merge_payloads(traced)
    stats = tracer.span_stats(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_us": 0.0, "p90_us": 0.0}
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p90_us": "us"}
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for fn in PROFILED:
        entry = stats.get(fn, empty)
        for stat, unit in units.items():
            scale = n if stat in ("calls", "busy_s", "self_s") else 1
            put(f"{fn}.{stat}", entry[stat] / scale, unit)
    gmm = stats.get("evaluation.gmm_mmse_batch", empty)
    trials = counters.get("evaluation.gmm_mmse_batch.trials", 0.0)
    put("evaluation.gmm_mmse_batch.trials_per_s", trials / gmm["busy_s"] if gmm["busy_s"] else 0.0, "1/s")
    pgd_calls = stats.get("optimizer.optimize_pgd", empty)["calls"]
    put("optimizer.optimize_pgd.calls", pgd_calls / n, "count")
    put("optimizer.iterations", counters.get("optimizer.iterations", 0.0) / n, "count")
    put("optimizer.converged_frac", counters.get("optimizer.converged", 0.0) / pgd_calls if pgd_calls else 0.0, "ratio")
    for fn in SELF_ONLY:
        put(f"{fn}.self_s", stats.get(fn, empty)["self_s"] / n, "s")
    put("channel.build_user_model.calls", stats.get("channel.build_user_model", empty)["calls"] / n, "count")
    put("channel.build_user_model.busy_s", stats.get("channel.build_user_model", empty)["busy_s"] / n, "s")
    put("config.build_users.calls", stats.get("config.build_users", empty)["calls"] / n, "count")
    put("config.build_objective.calls", stats.get("config.build_objective", empty)["calls"] / n, "count")
    put("cli.import_s", statistics.median(data["imports"]), "s")
    put("config.parse_config.busy_s", stats.get("config.parse_config", empty)["busy_s"] / n, "s")
    put("cli.emit_table.calls", stats.get("cli.emit_table", empty)["calls"] / n, "count")
    put("cli.emit_table.busy_s", stats.get("cli.emit_table", empty)["busy_s"] / n, "s")
    put("cli.emit_table.bytes", counters.get("cli.emit_table.bytes", 0.0) / n, "B")
    for stem in workloads.SHIPPED:
        if bench.workload.name == "frontier" and stem == "sweep_tradeoff":
            times = [sum(c["scaled"].values()) for c in data["plain"]]
        else:
            times = [c["scaled"][stem] for c in data["plain"] if stem in c["scaled"]]
        put(f"cli.{stem}.wall_s", statistics.median(times) if times else 0.0, "s")
    traced_scaled = statistics.median([sum(cycle["scaled"].values()) for cycle in traced])
    plain_scaled = statistics.median([sum(c["scaled"].values()) for c in data["plain"]])
    put("bench.trace_overhead_s", traced_scaled - plain_scaled, "s")
    traced_wall = sum(sum(cycle["raw"].values()) for cycle in traced)
    stack = tracer.covered_by(spans, lambda name: name in OPTIMIZER_STACK)
    evaluation = tracer.covered_by(spans, lambda name: name.startswith(("evaluation.", "channel.")))
    put("bench.optimizer_stack_share", stack / traced_wall, "ratio")
    put("bench.evaluation_channel_share", evaluation / traced_wall, "ratio")
    return out


def report(bench: Bench, data: dict, trace: bool, env: dict) -> dict:
    name = bench.workload.name
    e2e = end_to_end(bench, data)
    failed = bench.failed
    print(f"workload {name} seed {bench.workload.seed}: {len(data['plain'])} cycle(s) of "
          f"{len(bench.workload.tasks)} task(s), {bench.attempted} operations")
    for key, metric in e2e.items():
        q1, q3 = _quartiles(metric["samples"])
        line = f"  {key:<26} {metric['value']:.6g} {metric['unit']}  (median, q1 {q1:.6g}, q3 {q3:.6g}, n={len(metric['samples'])})"
        if "raw" in metric:
            line += f"  unscaled median {statistics.median(metric['raw']):.6g} s"
        print(line)
    print(f"  {'error_rate':<26} {failed / bench.attempted:.6g}  ({failed} failed of {bench.attempted})")
    if name == "frontier" and bench.frontier_objective:
        points = [bits for rows in bench.frontier_objective.values() for bits in rows]
        mean = statistics.fmean(points)
        print(f"  {'frontier_objective_bits':<26} {mean:.12g} bits  (mean over {len(points)} sweep points)")
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in e2e.items()}
    if trace:
        traced = [sum(c["raw"].values()) for c in data["traced"]]
        print(f"  {'traced cycle':<26} unscaled median {statistics.median(traced):.6g} s (n={len(traced)})")
        metrics = per_layer(bench, data)
        for key, metric in metrics.items():
            print(f"  {key:<44} {metric['value']:.6g} {metric['unit']}")
    print("env: " + json.dumps(env, sort_keys=True))
    return {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build_dir) as tmp:
        bench = Bench(name, seed, tmp, trace)
        data = bench.measure(seconds)
        return report(bench, data, trace, environment(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isacpilot", "cli.py")) or not os.path.isdir(
        os.path.join(ROOT, "configs")
    ):
        print(f"error: {ROOT} holds no isacpilot sources (src/isacpilot) and configs/", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import isacpilot

    if os.path.dirname(os.path.abspath(isacpilot.__file__)) != os.path.join(SRC, "isacpilot"):
        print(f"error: isacpilot was imported from {isacpilot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts, so the calibration
    # runs where the work runs (vCPUs slow down independently); the last one,
    # because CPU 0 takes most of the machine's interrupts and housekeeping.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
