"""One benchmark run: a fresh process that imports randx.cli and runs a workload's steps.

Usage: child.py WORKLOAD SEED TRACE [SPANS_PATH]

Prints one JSON object on its last stdout line: set-up time, the steps' wall
time, peak resident memory, and per step the exit status, time, stdout
SHA-256 and size, plus the output-check failures.  With TRACE=1 the public
functions of every randx layer are wrapped first and the per-layer metrics
are added; the spans are written to SPANS_PATH once the steps have run.
Exits 3 if randx cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    t0 = time.perf_counter()
    try:
        import randx.cli
    except ImportError as exc:
        print(f"cannot import randx.cli: {exc}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - t0
    import randx

    if not os.path.abspath(randx.__file__).startswith(src + os.sep):
        print(f"randx was imported from {randx.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    plan = workloads.steps(workload, seed)
    results = []
    outputs = []
    wall_s = 0.0
    cpu0 = time.process_time()
    for k, step in enumerate(plan, start=1):
        if tracer is not None:
            tracer.step = k
        buf = io.StringIO()
        error = None
        rc = 0
        start = time.perf_counter()
        try:
            if step.argv is not None:
                with contextlib.redirect_stdout(buf):
                    rc = randx.cli.main(list(step.argv))
            else:
                buf.write(workloads.run_api(step, randx))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a step that raises is a failed step, not a crash
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        wall_s += seconds
        text = buf.getvalue()
        data = text.encode("utf-8")
        ok = error is None and rc == 0
        results.append({
            "label": step.label,
            "cli": step.argv is not None,
            "rc": rc,
            "error": error,
            "seconds": seconds,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "check": [],
        })
        outputs.append(text if ok else None)
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = list(tracer.spans) if tracer is not None else []  # the checks are not traced

    for i, msg in workloads.check(workload, outputs, randx):
        results[i]["check"].append(msg)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": results,
        "env": _env(),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(spans)
        layers["cli.stdout_bytes"] = sum(r["bytes"] for r in results if r["cli"])
        out["layers"] = layers
        out["spans"] = len(spans)
        if spans_path:
            tracing.write_spans(spans, spans_path)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def _env() -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
