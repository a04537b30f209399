"""Self-tests of the benchmark: span arithmetic, tracer bindings, output checks, worker.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# -- self-time arithmetic --------------------------------------------------


def test_self_time_of_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 2),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    stats = tracer.span_stats(spans)
    assert stats["root"]["busy_s"] == 10.0 and stats["root"]["self_s"] == 3.0
    assert stats["b"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0, "p50_us": 4e6, "p90_us": 4e6}
    assert tracer.covered_by(spans, lambda name: name in ("a", "c")) == 5.0


def test_recursive_span_counts_busy_time_once():
    # f [0, 10] calls itself over [2, 6]: busy 10, self 6 + 4
    spans = [("f", 0.0, 10.0, -1), ("f", 2.0, 6.0, 0)]
    stats = tracer.span_stats(spans)["f"]
    assert stats["calls"] == 2
    assert stats["busy_s"] == 10.0
    assert stats["self_s"] == 10.0
    assert stats["p50_us"] == pytest.approx(7e6)


def test_recorder_builds_parent_links_and_self_time():
    recorder = tracer.SpanRecorder(clock=FakeClock())
    leaf = recorder.wrap("leaf", lambda: None)
    mid = recorder.wrap("mid", lambda: (leaf(), leaf()))
    top = recorder.wrap("top", lambda: mid())
    top()
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names == [("top", -1), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    # clock ticks: top 1..8, mid 2..7, leaves 3..4 and 5..6
    assert tracer.self_times(recorder.spans) == [2.0, 3.0, 1.0, 1.0]


def test_span_is_recorded_when_the_call_raises():
    recorder = tracer.SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert [s[0] for s in recorder.spans] == ["boom"]
    assert recorder._stack == []


# -- tracer bindings -------------------------------------------------------


@pytest.fixture
def traced_package():
    import isacpilot

    recorder = tracer.SpanRecorder()
    tracer.add_work_counters(recorder)
    bindings = recorder.install(isacpilot)
    yield isacpilot, recorder, bindings
    recorder.uninstall()


def test_every_binding_of_every_public_function_is_wrapped(traced_package):
    package, recorder, bindings = traced_package
    bound = {(module, attr): span for module, attr, span in bindings}
    # copies made by "from ... import" are patched under their own module
    assert bound[("isacpilot.gradients", "comm_state")] == "metrics.comm_state"
    assert bound[("isacpilot.cli", "roc_curve")] == "evaluation.roc_curve"
    assert bound[("isacpilot", "optimize_pgd")] == "optimizer.optimize_pgd"
    for short in tracer.TRACED_MODULES:
        module = importlib.import_module(f"isacpilot.{short}")
        for attr, value in vars(module).items():
            home = getattr(value, "__module__", "") or ""
            if callable(value) and not attr.startswith("_") and home.startswith("isacpilot."):
                if home.split(".")[1] in tracer.TRACED_MODULES and not isinstance(value, type):
                    assert (module.__name__, attr) in bound, f"{module.__name__}.{attr} not wrapped"


def test_every_binding_records_its_span(traced_package):
    package, recorder, bindings = traced_package
    sentinel = object()
    for module_name, attr, span_name in bindings:
        before = len(recorder.spans)
        try:
            getattr(sys.modules[module_name], attr)(sentinel)
        except (Exception, SystemExit):
            pass
        assert recorder.spans[before][0] == span_name, f"{module_name}.{attr}"


def test_internal_calls_go_through_the_importing_modules_binding(traced_package):
    package, recorder, _ = traced_package
    from isacpilot.config import build_objective, parse_config

    raw = parse_config(os.path.join(ROOT, "configs", "sweep_tradeoff.yaml"))
    recorder.spans.clear()
    objective = build_objective(raw.scenario, 0.5)
    init = package.random_stiefel(4, 16, package.substream(1, "init"))
    package.optimizer.optimize_pgd(init, objective, package.OptimizerConfig(max_iters=2, rel_tol=0.0))
    spans = recorder.spans
    names = [s[0] for s in spans]
    parent_of = {i: spans[s[3]][0] if s[3] >= 0 else None for i, s in enumerate(spans)}
    comm = [i for i, n in enumerate(names) if n == "metrics.comm_state"]
    # 3 evaluations x 2 users, each reached through gradients.comm_state
    assert len(comm) == 6
    assert {parent_of[i] for i in comm} == {"gradients.isac_value_and_grad"}
    assert names.count("optimizer.project_stiefel") >= 3
    assert recorder.counters["optimizer.iterations"] == 2
    assert recorder.counters["optimizer.converged"] == 0


def test_uninstall_restores_the_originals():
    import isacpilot

    original = isacpilot.gradients.comm_state
    recorder = tracer.SpanRecorder()
    recorder.install(isacpilot)
    assert isacpilot.gradients.comm_state is not original
    recorder.uninstall()
    assert isacpilot.gradients.comm_state is original


# -- output checks ---------------------------------------------------------


def _run_task(workload: str, label: str, tmp_path):
    from isacpilot import cli

    bundle = workloads.build(workload, ROOT, 3, str(tmp_path))
    task = next(t for t in bundle.tasks if t.label == label)
    assert cli.run_config(task.config, task=task.task, out_dir=task.out_dir, threads=1) == 0
    return task


def _rewrite(path: str, column: str, transform):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[header_at].split(",").index(column)
    cells = lines[header_at + 1].split(",")
    cells[index] = transform(cells[index])
    lines[header_at + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "column, transform",
    [
        ("objective_bits", lambda v: repr(float(v) * 0.9)),
        ("residual", lambda v: "1e-3"),
        ("comm_mi_bits", lambda v: "nan"),
    ],
)
def test_checker_flags_a_corrupted_frontier_csv(tmp_path, column, transform):
    from isacpilot import cli

    reference = checks.load_reference()
    task = _run_task("frontier", "rho=0.00", tmp_path)
    assert checks.check_outputs("frontier", task.task, task.out_dir, reference) == []
    before = checks.digests(task.out_dir)
    _rewrite(os.path.join(task.out_dir, "frontier.csv"), column, transform)
    # verify reads only the config-hash header, so it still passes
    assert cli.verify_outputs(task.config, None, task.out_dir) == 0
    assert checks.check_outputs("frontier", task.task, task.out_dir, reference) != []
    assert checks.digests(task.out_dir) != before


def test_checker_flags_a_corrupted_roc_csv(tmp_path):
    reference = checks.load_reference()
    task = _run_task("montecarlo", "mc_roc", tmp_path)
    assert checks.check_outputs("montecarlo", task.task, task.out_dir, reference) == []
    _rewrite(os.path.join(task.out_dir, "roc.csv"), "p_d", lambda v: "0.05")
    problems = checks.check_outputs("montecarlo", task.task, task.out_dir, reference)
    assert len(problems) == 1 and "p_d" in problems[0]


def _scale_column(path: str, column: str, factor: float) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[header_at].split(",").index(column)
    for i in range(header_at + 1, len(lines)):
        cells = lines[i].split(",")
        cells[index] = repr(float(cells[index]) * factor)
        lines[i] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "label, file, column, factor",
    [
        ("mc_nmse_random", "nmse.csv", "nmse", 2.0),
        ("mc_nmse_eigen", "nmse.csv", "nmse", 2.0),
        ("mc_nmse_dft", "nmse.csv", "nmse", 0.5),
        ("mc_roc", "roc.csv", "p_d", 0.5),
        ("mc_ser_dft", "ser.csv", "ser", 2.0),
    ],
)
def test_checker_flags_a_scaled_monte_carlo_table(tmp_path, label, file, column, factor):
    reference = checks.load_reference()
    task = _run_task("montecarlo", label, tmp_path)
    assert checks.check_outputs("montecarlo", task.task, task.out_dir, reference) == []
    _scale_column(os.path.join(task.out_dir, file), column, factor)
    assert checks.check_outputs("montecarlo", task.task, task.out_dir, reference) != []


def test_every_band_excludes_a_doubled_nmse_and_a_halved_p_d():
    bands = checks.load_reference()["montecarlo"]["bands"]
    pooled = [b for key, b in bands["nmse"].items() if key.endswith(f":{len(workloads.FOUR_USERS)}")]
    assert len(pooled) == 2 + len(workloads.PILOT_SEEDS)  # DFT, eigen and the random pilots
    for band in pooled:
        assert band["low"] < band["mean"] < band["high"] < 2.0 * band["mean"]
        assert band["low"] > 0.5 * band["mean"]
    for key, band in bands["roc"].items():
        assert band["low"] <= band["mean"] <= band["high"]
        assert band["low"] > 0.5 * band["mean"], key


def test_random_pilot_configs_use_the_recorded_pilots():
    configs = workloads.montecarlo_configs(1009)
    seeds = {label: raw["seed"] for label, raw in configs.items()}
    assert {seeds[label] for label in workloads.RANDOM_PILOT} == {workloads.pilot_seed(1009)}
    assert seeds["mc_nmse_dft"] == 1009
    assert checks.load_reference()["montecarlo"]["pilot_seeds"] == list(workloads.PILOT_SEEDS)


# -- the worker process ----------------------------------------------------


def test_worker_runs_tasks_and_reports_its_peak_memory(tmp_path):
    bundle = workloads.build("montecarlo", ROOT, 3, str(tmp_path))
    task = next(t for t in bundle.tasks if t.label == "mc_roc")
    worker = run.Worker(dict(os.environ, PYTHONPATH=run.SRC))
    try:
        plain = worker.run(task, trace=False)
        traced = worker.run(task, trace=True)
    finally:
        worker.close()
    assert plain["status"] == 0 and plain["error"] is None and "spans" not in plain
    assert traced["status"] == 0 and plain["seconds"] > 0
    assert "evaluation.roc_curve" in {span[0] for span in traced["spans"]}
    assert worker.proc.returncode == 0
    assert 10 < plain["peak_rss_mb"] <= traced["peak_rss_mb"]


def test_peak_memory_excludes_the_parent_process():
    ballast = b"\x01" * (300 * 2**20)  # noqa: F841  (300 MB resident in this process while the child starts)
    code = "import child; print(child.peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert float(out.stdout) < 100


# -- the contract ----------------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    class Stub:
        workload = workloads.Workload("cli-suite", 1, (), in_worker=False)
        peak_rss_mb = 1.0

    recorder = tracer.SpanRecorder(clock=FakeClock())
    recorder.wrap("cli.run_config", lambda: None)()
    payload = {"spans": recorder.spans, "counters": recorder.counters}
    cycle = {"raw": {"gradcheck_small": 2.0}, "scaled": {"gradcheck_small": 2.0}, "payloads": []}
    traced = dict(cycle, payloads=[payload])
    data = {"setup": [1.0], "imports": [0.5], "plain": [cycle], "traced": [traced]}
    e2e = run.end_to_end(Stub, data)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    layers = run.per_layer(Stub, data)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layers.items()}
