"""randx benchmark: run a workload in fresh child processes and report its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one child process (``child.py``) that imports ``randx.cli`` from
``src/`` and runs the workload's steps (``workloads.py``) in order.  Runs
repeat, one at a time, until ``--seconds`` is spent.  Every run of one
invocation uses the same seed, so every step's stdout must hash the same in
each run; a mismatch, a nonzero exit, an exception or a failed output check
fails the step.

--trace 0 reports the end-to-end metrics of the untraced runs (medians):
    wall_s        the steps' wall time, after set-up
    setup_s       the child's ``import randx.cli``
    peak_rss_mb   the child's peak resident memory
    passed_share  steps that passed / steps attempted
--trace 1 alternates untraced and traced runs (at least one and two) and
reports the per-layer metrics of the traced runs (see ``tracer.py``); the
two traced runs must repeat every count exactly.

The child environment is this process's minus ``RANDX_*`` variables, so the
program runs with its defaults; BLAS thread settings are passed through
unchanged and recorded.  The second-to-last stdout line is a JSON report
(environment, every run, quartiles, layer shares); the last line is the
result object.  Exits 2 without a result if the checkout has no randx
sources or a child cannot import them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # every invocation ends well inside 180 s
MIN_UNTRACED = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_share": "ratio"}
LAYER_UNITS = {"calls": "count", "items": "count", "branches": "count", "trials": "count",
               "iterations": "count", "violations": "count", "stdout_bytes": "bytes",
               "cores_used": "cores", "us_per_call": "us", "ns_per_round": "ns",
               "us_per_trial": "us", "min_margin": "norm", "import_share": "ratio",
               "dim3_computed": "dim3", "bytes_computed": "bytes"}


class SetupError(RuntimeError):
    pass


def _unit(name: str) -> str:
    for part in reversed(name.split(".")):
        if part in LAYER_UNITS:
            return LAYER_UNITS[part]
    return "s"


def child_env() -> tuple[dict, list[str]]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RANDX_")}
    removed = sorted(k for k in os.environ if k.startswith("RANDX_"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, removed


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "randx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def import_share(stderr: str) -> float:
    """Cumulative import time of randx.catalog over that of randx.cli (-X importtime)."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = line[len("import time:"):].split("|")
            name = parts[2].strip()
            if name in ("randx.catalog", "randx.cli") and parts[1].strip().isdigit():
                cumulative[name] = int(parts[1])
    total = cumulative.get("randx.cli", 0)
    return cumulative.get("randx.catalog", 0) / total if total else 0.0


def run_child(workload, seed, trace, env, timeout) -> dict:
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "child.py"), workload, str(seed), "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append(os.path.join(spans_dir, f"spans-{workload}.csv"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    elapsed = time.perf_counter() - start
    if proc.returncode == 3:
        raise SetupError(proc.stderr.strip())
    try:
        if proc.returncode != 0:
            raise ValueError("nonzero exit")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"crashed": True, "rc": proc.returncode, "stderr": proc.stderr[-2000:],
                "elapsed_s": elapsed, "traced": trace}
    out["elapsed_s"] = elapsed
    out["traced"] = trace
    if trace:
        out["layers"]["catalog.import_share"] = import_share(proc.stderr)
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "randx", "cli.py")):
        print(f"no randx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env, removed = child_env()
    began = time.perf_counter()
    runs: list[dict] = []

    def next_kind() -> bool | None:
        """Kind of the next run, or None when the run budget is spent."""
        untraced = sum(1 for r in runs if not r["traced"])
        traced = len(runs) - untraced
        if args.trace:
            if untraced < 1:
                return False
            if traced < 2:
                return True
        elif untraced < MIN_UNTRACED:
            return False
        longest = max(r["elapsed_s"] for r in runs)
        if time.perf_counter() - began + longest > args.seconds:
            return None
        return bool(args.trace) and traced <= untraced

    try:
        while True:
            kind = next_kind()
            left = DEADLINE_S - (time.perf_counter() - began)
            if kind is None or left <= 0:
                break
            try:
                runs.append(run_child(args.workload, args.seed, kind, env, left))
            except subprocess.TimeoutExpired:
                runs.append({"crashed": True, "rc": None, "stderr": "timed out",
                             "elapsed_s": left, "traced": kind})
                break
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2

    plan = workloads.steps(args.workload, args.seed)
    attempted = failed = 0
    failures: list[str] = []
    reference: list[str | None] = [None] * len(plan)
    for r in runs:
        if r.get("crashed"):
            attempted += len(plan)
            failed += len(plan)
            failures.append(f"run crashed (rc {r['rc']}): {r['stderr'][-500:]}")
            continue
        for i, step in enumerate(r["steps"]):
            attempted += 1
            why = []
            if step["error"]:
                why.append(step["error"].strip().splitlines()[-1])
            if step["rc"] != 0:
                why.append(f"exit status {step['rc']}")
            why += step["check"]
            if reference[i] is None:
                reference[i] = step["sha256"]
            elif step["sha256"] != reference[i]:
                why.append("stdout differs from the first run of this seed")
            if why:
                failed += 1
                failures.append(f"{step['label']}: {'; '.join(why)}")

    good = [r for r in runs if not r.get("crashed")]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "commit": commit(),
            "src_sha256": source_digest(),
            **(good[0]["env"] if good else {}),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "blas_threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "child_env": {k: v for k, v in env.items()
                          if k.startswith("PYTHON") or k in THREAD_VARS},
            "randx_vars_removed": removed,
        },
        "steps": [s.label for s in plan],
        "stdout_sha256": reference,
        "failures": failures[:50],
        "runs": [{k: v for k, v in r.items() if k not in ("env", "layers")} for r in runs],
    }

    metrics: dict[str, dict] = {}
    if untraced:
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            report.setdefault("quartiles", {})[key] = quartiles([r[key] for r in untraced])
    if not args.trace:
        if untraced:
            for key in ("wall_s", "setup_s", "peak_rss_mb"):
                metrics[key] = {"value": report["quartiles"][key]["median"], "unit": E2E_UNITS[key]}
        metrics["passed_share"] = {"value": (attempted - failed) / attempted if attempted else 0.0,
                                   "unit": E2E_UNITS["passed_share"]}
    elif traced:
        layers = {k: statistics.median([r["layers"][k] for r in traced])
                  for k in traced[0]["layers"]}
        for key in tracer.COUNT_METRICS:
            seen = {r["layers"][key] for r in traced}
            layers[key] = traced[0]["layers"][key]
            if len(seen) > 1:
                failed += 1
                failures.append(f"count {key} differs between traced runs: {sorted(seen)}")
        wall_traced = statistics.median([r["wall_s"] for r in traced])
        layers["trace.overhead_s"] = (
            wall_traced - statistics.median([r["wall_s"] for r in untraced]) if untraced else 0.0)
        selfs = {k: v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s")}
        total = sum(selfs.values())
        report["layer_self_share"] = {k[:-7]: v / total for k, v in selfs.items()} if total else {}
        report["traced_wall_s"] = wall_traced
        report["spans_per_run"] = traced[0]["spans"]
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}

    expected_runs = bool(untraced) and (not args.trace or len(traced) >= 2)
    result = {
        "correct": failed == 0 and expected_runs,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
