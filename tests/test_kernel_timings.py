"""Smoke tests of ``tools/kernel_timings.py`` on its rows that time larger
working sets or whole routines, and on the rows that measure the basis of
``metrics.WORKING_SET``."""

from test_sweep_sensitivity import load_tool

ROWS = [
    "isac_value_and_grad",
    "isac_value_and_grad_clutter",
    "isac_value_and_grad_exact",
    "sensing_mi_exact_stack",
    "finite_diff_check",
    "comm_state_cloud",
    "diagnostics_metric_1000",
    "build_users",
    "build_users_cold",
    "roc_curve_mc",
    "parse_config",
    "ascent_step",
    "ascent_step_l9",
]
# the measured basis of metrics.WORKING_SET
BUDGET_ROWS = [
    *(f"comm_mi_{shape}_piece_{size}" for shape in ("cloud", "l6") for size in (1, 2, 4, 8, 16, 32)),
    *(f"gmm_mmse_chunk_{size}" for size in (128, 347, 700, 1500)),
]


def test_prints_one_line_per_requested_row(capsys, monkeypatch):
    # the tool sets this at import; set here, it is restored after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    tool = load_tool("kernel_timings")
    tool.main(["--seconds", "0", *ROWS, *BUDGET_ROWS])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("nproc: ")
    assert lines[1].split()[:2] == ["kernel", "median"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ROWS + BUDGET_ROWS
    for row in rows:
        median, q1, q3, calls, peak = row[1:6]
        assert 0.0 < float(q1) <= float(median) <= float(q3)
        assert int(calls) >= tool.MIN_REPEATS and float(peak) > 0.0


def test_prints_the_draw_floor_rows(capsys, monkeypatch):
    # rows whose one call allocates a few hundred bytes: the peak prints 0.00
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    tool = load_tool("kernel_timings")
    tool.main(["--seconds", "0", "roc_thresholds_mc", "normals_mc"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["roc_thresholds_mc", "normals_mc"]
    for row in rows:
        median, q1, q3, calls, peak = row[1:6]
        assert 0.0 < float(q1) <= float(median) <= float(q3)
        assert int(calls) >= tool.MIN_REPEATS and 0.0 <= float(peak) < 0.1
