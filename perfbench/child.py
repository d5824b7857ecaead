"""Run one offrado CLI command cold, the way a user runs it, and time it.

Usage: python3 perfbench/child.py '{"argv": [...], "trace": false}'

Run from the repository root with PYTHONPATH=src.  The import of offrado.cli
is timed apart from ``cli.main(argv)``; the command's stdout is captured and
returned with the timings as one JSON record on stdout.  An exception that
escapes ``main`` is reported with exit code 1 and its traceback on stderr,
which is what the interpreter would do.  With ``"argv": null`` the child
only imports, to take another set-up sample.

The child also times a fixed gauge load, before the import and after
``main``, so the parent can tell how fast the host ran this process (see
``at_reference_speed`` in run.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


GAUGE_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a * {i} + k for k in range(b[0] % 7)]" for i in range(300)
)
GAUGE_DOC = json.dumps([{"point": f"{i}/7", "steps": [{"x": [str(j), j]} for j in range(6)]} for i in range(400)])


def gauge_s() -> float:
    """Fastest of three runs of a fixed pure-Python load: compile and exec,
    json parsing, integer arithmetic and set building, the kinds of work the
    commands do.  It imports nothing that offrado.cli would otherwise import
    first, and the collector is off so the heap a command leaves behind does
    not change it."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            exec(compile(GAUGE_SOURCE, "gauge", "exec"), {})
            total = 0
            for node in json.loads(GAUGE_DOC):
                num, _, den = node["point"].partition("/")
                total += int(num) * 7919 % int(den) + len({tuple(s["x"]) for s in node["steps"]})
            times.append(time.perf_counter() - started)
        return min(times)
    finally:
        gc.enable()


def main() -> None:
    request = json.loads(sys.argv[1])
    gauge_before = gauge_s()
    started = time.perf_counter()
    from offrado import cli

    record = {"import_s": time.perf_counter() - started, "gauge_before_s": gauge_before}
    if request["argv"] is None:
        print(json.dumps(record))
        return
    tracer = None
    if request["trace"]:
        import layers

        tracer = layers.install()
    captured = io.StringIO()
    uncaught = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(request["argv"])
    except Exception as exc:  # the boundary of a process: report it, as the interpreter would
        traceback.print_exc()
        code, uncaught = 1, f"{type(exc).__name__}: {exc}"
    main_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    gauge_after = gauge_s()
    record.update(
        exit_code=code,
        uncaught=uncaught,
        stdout=captured.getvalue(),
        main_s=main_s,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024,
        trace=tracer.snapshot() if tracer else None,
        gauge_after_s=gauge_after,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
