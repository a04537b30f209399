"""The processes ``run.py`` starts to run isacpilot tasks, with ``src/`` on ``PYTHONPATH``.

``python3 child.py worker``
    Runs ``cli.run_config`` tasks for the ``frontier`` and ``montecarlo``
    workloads, one after another in this one process.  Reads one JSON request
    per line from stdin, ``{"config", "task", "out_dir", "trace"}``, and
    answers each with one JSON line on stdout: the exit status, the seconds
    ``run_config`` took, the traceback if it raised, the peak memory so far
    and, when traced, the spans and work counters.  Ends at the end of input.

``python3 child.py task REPORT_JSON TRACE <isacpilot arguments...>``
    Runs one ``isacpilot`` command line (``cli.main``, as the installed
    command does) for the ``cli-suite`` workload, writes REPORT_JSON (the peak
    memory and, when TRACE is 1, the spans and work counters) and exits with
    the command's status.

Both read their peak memory themselves: Linux counts the memory a parent had
when it started a process in that process's ``ru_maxrss``, so the figure the
benchmark process could read would include its own imports and buffers.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """Peak resident memory of this process, and of the worker pool processes it has reaped."""
    with open("/proc/self/status", encoding="ascii") as handle:
        own_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    pool_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, pool_kb) / 1024.0


def _recorder(package):
    import tracer

    recorder = tracer.SpanRecorder()
    tracer.add_work_counters(recorder)
    recorder.install(package)
    return recorder


def worker() -> int:
    import isacpilot
    import isacpilot.cli as cli

    replies = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        recorder = _recorder(isacpilot) if request["trace"] else None
        status, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.run_config(request["config"], task=request["task"], out_dir=request["out_dir"], threads=1)
        except Exception:
            error = traceback.format_exc()
        finally:
            seconds = time.perf_counter() - start
            if recorder is not None:
                recorder.uninstall()
        reply = {"status": status, "seconds": seconds, "error": error, "peak_rss_mb": peak_rss_mb()}
        if recorder is not None:
            reply.update(spans=recorder.spans, counters=recorder.counters)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


def task(report_path: str, trace: bool, argv: list) -> int:
    import isacpilot
    import isacpilot.cli

    recorder = _recorder(isacpilot) if trace else None
    try:
        isacpilot.cli.main(argv)
        status = 0
    except SystemExit as exc:
        status = exc.code
    finally:
        if recorder is not None:
            recorder.uninstall()
    report = {"peak_rss_mb": peak_rss_mb()}
    if recorder is not None:
        report.update(spans=recorder.spans, counters=recorder.counters)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    if sys.argv[1] == "worker":
        sys.exit(worker())
    sys.exit(task(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
