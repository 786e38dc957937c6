"""Run one rowmotion command in this fresh interpreter and report on it.

Usage: python3 perfbench/child.py '{"argv": [...], "trace": false}'

An empty argv only imports the package, which is how set-up time is probed.
The command's own stdout is captured; this process prints one JSON line:
exit code, import and main() wall times, the reference loop's time, peak
RSS, the captured output and, when tracing, the per-layer counters of
layertrace.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reference_loop() -> float:
    """Time a fixed loop of integer and bit operations.  The package never
    runs this code, so its time follows only the speed of the machine."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc ^= (m & -m).bit_length()
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    ref_before = reference_loop()
    # the package is not installed and cli.py has no __main__ guard
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import rowmotion.cli
    import_s = time.perf_counter() - start

    result = {"import_s": import_s, "exit": None, "main_s": 0.0, "stdout": ""}
    if spec["argv"]:
        tracer = None
        if spec["trace"]:
            import layertrace
            tracer = layertrace.install()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = rowmotion.cli.main(spec["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # a crash is a failed operation, not a dead run
                traceback.print_exc()
                code = "uncaught exception"
            result["main_s"] = time.perf_counter() - start
        result["exit"] = code
        result["stdout"] = out.getvalue()
        if tracer is not None:
            result["trace"] = tracer.report()
    # before the import and after main(), to bracket the timed work
    result["ref_s"] = (ref_before + reference_loop()) / 2
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
