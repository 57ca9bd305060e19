"""One fresh interpreter that drives the triplepoint CLI in process.

Run from the benchmark (``run.py``), not by hand.  The worker imports
``triplepoint.cli`` from the checkout's ``src`` directory, prints ``ready``
and reads one JSON job from stdin:

    {"requests": [[argv, ...], ...], "seconds": float or null, "trace": bool,
     "calibrate": bool}

It issues the requests back to back (a closed loop with one client) and,
after the first, stops issuing once ``seconds`` have passed.  With
``calibrate`` it times the host-speed kernel of ``calibrate.py`` just before
each request.  It prints one JSON line with each request's wall time and
kernel time, each command's argv, exit code, reported status, stdout
digest, item count and size, the loop's wall time, its peak resident memory
and, when tracing, the tracer's summary.  An empty job line ends the worker
without work, which makes it a set-up probe.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import click

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _invoke(main, argv):
    """Run one CLI command; (exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="triplepoint", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _outcome(argv, code, stdout, stderr):
    try:
        data = json.loads(stdout)
    except ValueError:
        data = None
    if not isinstance(data, dict):
        data = {}
    rows = data.get("rows")
    result = {
        "argv": argv,
        "code": code,
        "status": data.get("status"),
        "digest": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "items": len(rows) if isinstance(rows, list) else 1,
        "bytes": len(stdout.encode("utf-8")),
    }
    if code != 0:
        result["stderr"] = stderr[-2000:]
    return result


def main():
    sys.path.insert(0, SRC)
    import triplepoint
    from triplepoint import cli

    if not os.path.abspath(triplepoint.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"triplepoint imported from outside {SRC}")
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return
    job = json.loads(line)
    invoke = _invoke
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        invoke = tracer.wrap("cli.command", _invoke)

    seconds = job["seconds"]
    kernel_seconds = None
    if job["calibrate"]:
        from calibrate import kernel_seconds
    done = []
    loop_start = time.perf_counter()
    for request in job["requests"]:
        if done and seconds is not None and time.perf_counter() - loop_start >= seconds:
            break
        cal = kernel_seconds() if kernel_seconds else None
        t0 = time.perf_counter()
        raw = [(argv, *invoke(cli.main, argv)) for argv in request]
        wall = time.perf_counter() - t0
        done.append({"wall": wall, "cal": cal, "commands": [_outcome(*r) for r in raw]})
    loop_s = time.perf_counter() - loop_start

    result = {
        "requests": done,
        "loop_s": loop_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_backend": getattr(triplepoint, "KERNEL_BACKEND", None),
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
