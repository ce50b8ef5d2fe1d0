"""Span tracer that wraps randx's public functions from outside the package.

``Tracer.install`` replaces every public function of the layer modules at
every binding: the defining module's attribute and each other randx module
that imported the same function object by name (``protocol.psd_power``,
``convexity.snorm``, ``cli.parallel_map``, ...).  A wrapped call records one
span (id, parent id, step id, name, start, end, probe value) in memory.
Each ``parallel_map`` item gets its own ``<layer>.pool_item`` span, named
after the layer that defined the item function, whose parent is the map's
span; so work done on pool threads nests under the call that submitted it,
and the map's own self time is the pool's overhead.

``layer_metrics`` turns the spans into per-layer figures.  The self time of a
layer is the duration of its spans minus the time that spans of other layers
nested inside them cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = (
    "cli", "parallel", "protocol", "gamedefs", "scoring", "matcore",
    "convexity", "classicaloracle", "devicemodel", "catalog",
)
SMALL_DIM = 16  # matrices up to this dimension count as "small"
POOL_ITEM = ".pool_item"

# Metrics that are counts; two traced runs of one seed must repeat them exactly.
COUNT_METRICS = (
    "cli.stdout_bytes",
    "parallel.items",
    "protocol.simulate.calls",
    "protocol.enumerate.calls",
    "protocol.enumerate.branches",
    "gamedefs.require_compatible.calls",
    "scoring.calls",
    "matcore.herm_eig.calls.small",
    "matcore.herm_eig.calls.large",
    "matcore.schatten.calls",
    "matcore.as_matrix.calls",
    "matcore.eig_dim3_computed.small",
    "matcore.eig_dim3_computed.large",
    "matcore.eig_bytes_computed.small",
    "matcore.eig_bytes_computed.large",
    "matcore.svd_dim3_computed.small",
    "matcore.svd_dim3_computed.large",
    "matcore.svd_bytes_computed.small",
    "matcore.svd_bytes_computed.large",
    "convexity.trials",
    "convexity.violations",
    "classicaloracle.seesaw.iterations",
    "devicemodel.validate.calls",
)


def _dim(args, kwargs):
    m = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(m, "shape", None)
    return int(shape[0]) if shape else len(m)


def _rounds(args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return params.n_rounds


def _suite(args, kwargs, result):
    rows = result.rows
    return (len(rows), result.min_margin if rows else 0.0, result.violations)


# Values recorded on a span after the call returns, by span name.
PROBES = {
    "matcore.herm_eig": lambda a, k, r: _dim(a, k),
    "matcore.schatten": lambda a, k, r: _dim(a, k),
    "protocol.simulate": _rounds,
    "protocol.enumerate_success_state": lambda a, k, r: r.branches,
    "classicaloracle.seesaw": lambda a, k, r: r.iterations,
    "convexity.run_suite": _suite,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.step = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, probe=None, parent=None, sid=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.step, name, t0, t1, None))
            raise
        t1 = time.perf_counter_ns()
        stack.pop()
        extra = None
        if probe is not None:
            try:
                extra = probe(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a changed signature or result type leaves the probe value unset
        self.spans.append((sid, parent, self.step, name, t0, t1, extra))
        return result

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        if isinstance(fn, functools._lru_cache_wrapper):
            return self._wrap_cached(name, fn)
        if name == "parallel.parallel_map":
            return self._wrap_pool(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, probe)

        return traced

    def _wrap_cached(self, name, fn):
        """An lru_cache'd catalog constructor; the probe marks cache misses."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            return self._run(
                name, fn, args, kwargs, lambda a, k, r: fn.cache_info().misses > misses
            )

        return traced

    def _wrap_pool(self, name, fn):
        """parallel_map: items become child spans; the probe is process CPU time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            item_fn = args[0] if args else kwargs.pop("fn")
            owner = getattr(item_fn, "__module__", "") or ""
            owner = owner[6:] if owner.startswith("randx.") else "parallel"
            item_name = owner + POOL_ITEM

            def item(it):
                return self._run(item_name, item_fn, (it,), {}, parent=sid)

            cpu0 = time.process_time()
            return self._run(
                name, fn, (item,) + tuple(args[1:]), kwargs,
                lambda a, k, r: time.process_time() - cpu0, sid=sid,
            )

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module at every binding."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"randx.{layer}")
            except ModuleNotFoundError:
                continue
            for fname, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "randx" and not modname.startswith("randx."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def write_spans(spans, path) -> None:
    """Write spans as CSV lines: step,id,parent,name,start_ns,end_ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,id,parent,name,start_ns,end_ns\n")
        for sid, parent, step, name, t0, t1, _ in spans:
            fh.write(f"{step},{sid},{parent},{name},{t0},{t1}\n")


def _union_ns(intervals, lo, hi) -> int:
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# Self time of these functions, including the pool items they submit.
FUNCTION_SELF = {
    "protocol.simulate": "protocol.simulate.self_s",
    "protocol.enumerate_success_state": "protocol.enumerate.self_s",
    "gamedefs.require_compatible": "gamedefs.require_compatible.self_s",
    "matcore.schatten": "matcore.schatten.self_s",
    "matcore.check_resolution": "matcore.check_resolution.self_s",
    "classicaloracle.seesaw": "classicaloracle.seesaw.self_s",
    "classicaloracle.classical_value": "classicaloracle.classical_value.self_s",
    "devicemodel.device_to_dict": "devicemodel.device_to_dict.self_s",
    "devicemodel.validate_device": "devicemodel.validate.self_s",
}
CALLS = {
    "protocol.simulate": "protocol.simulate.calls",
    "protocol.enumerate_success_state": "protocol.enumerate.calls",
    "gamedefs.require_compatible": "gamedefs.require_compatible.calls",
    "matcore.schatten": "matcore.schatten.calls",
    "matcore.as_matrix": "matcore.as_matrix.calls",
    "devicemodel.validate_device": "devicemodel.validate.calls",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times (seconds) from a list of spans.

    A metric whose layer or function did not run reads 0.
    """
    index = {s[0]: i for i, s in enumerate(spans)}
    name = [s[3] for s in spans]
    layer = [n.split(".", 1)[0] for n in name]
    parent = [index.get(s[1]) for s in spans]
    covered: dict[int, list] = {}
    for i, s in enumerate(spans):
        j = parent[i]
        if j is None or layer[j] == layer[i]:
            continue
        # a boundary child covers its parent and the parent's same-layer ancestors
        lay = layer[j]
        while j is not None and layer[j] == lay:
            covered.setdefault(j, []).append((s[4], s[5]))
            j = parent[j]

    m: dict[str, float] = {key: 0 for key in COUNT_METRICS}
    for key in [f"{lay}.self_s" for lay in LAYERS] + list(FUNCTION_SELF.values()) + [
        "matcore.herm_eig.self_s.small", "matcore.herm_eig.self_s.large",
        "parallel.busy_s", "parallel.item_sum_s",
    ]:
        m[key] = 0.0
    pool_cpu = sim_dur = sim_rounds = suite_dur = 0.0
    margins = []
    builds = []

    for i, s in enumerate(spans):
        n, lay, extra = name[i], layer[i], s[6]
        dur = (s[5] - s[4]) * 1e-9
        self_s = ((s[5] - s[4]) - _union_ns(covered.get(i, ()), s[4], s[5])) * 1e-9
        j = parent[i]
        if j is None or layer[j] != lay:
            m[f"{lay}.self_s"] += self_s
        if n in CALLS:
            m[CALLS[n]] += 1
        if n in FUNCTION_SELF:
            m[FUNCTION_SELF[n]] += self_s
        if lay == "scoring":
            m["scoring.calls"] += 1
        if n.endswith(POOL_ITEM):
            m["parallel.items"] += 1
            m["parallel.item_sum_s"] += dur
            g = parent[j] if j is not None else None
            if g is not None and layer[g] == lay and name[g] in FUNCTION_SELF:
                m[FUNCTION_SELF[name[g]]] += self_s
        elif n == "parallel.parallel_map" and (j is None or layer[j] != lay):
            m["parallel.busy_s"] += dur
            pool_cpu += extra or 0.0
        elif n == "protocol.simulate":
            sim_dur += dur
            sim_rounds += extra or 0
        elif n == "protocol.enumerate_success_state":
            m["protocol.enumerate.branches"] += extra or 0
        elif n in ("matcore.herm_eig", "matcore.schatten") and extra is not None:
            size = "small" if extra <= SMALL_DIM else "large"
            kind = "eig" if n == "matcore.herm_eig" else "svd"
            if kind == "eig":
                m[f"matcore.herm_eig.calls.{size}"] += 1
                m[f"matcore.herm_eig.self_s.{size}"] += self_s
            m[f"matcore.{kind}_dim3_computed.{size}"] += extra**3
            m[f"matcore.{kind}_bytes_computed.{size}"] += 16 * extra**2
        elif n == "convexity.run_suite" and extra is not None:
            m["convexity.trials"] += extra[0]
            m["convexity.violations"] += extra[2]
            suite_dur += dur
            if extra[0]:
                margins.append(extra[1])
        elif n == "classicaloracle.seesaw":
            m["classicaloracle.seesaw.iterations"] += extra or 0
        elif lay == "catalog" and extra is True:
            builds.append((s[4], s[5]))

    busy = m["parallel.busy_s"]
    m["parallel.cores_used"] = pool_cpu / busy if busy > 0 else 0.0
    calls = m["protocol.simulate.calls"]
    m["protocol.simulate.us_per_call"] = sim_dur / calls * 1e6 if calls else 0.0
    m["protocol.simulate.ns_per_round"] = sim_dur / sim_rounds * 1e9 if sim_rounds else 0.0
    trials = m["convexity.trials"]
    m["convexity.us_per_trial"] = suite_dur / trials * 1e6 if trials else 0.0
    m["convexity.min_margin"] = min(margins) if margins else 0.0
    lo = min((a for a, _ in builds), default=0)
    hi = max((b for _, b in builds), default=0)
    m["catalog.build_s"] = _union_ns(builds, lo, hi) * 1e-9
    return m
