"""Outside-in span tracer for crspectra's public pipeline functions.

The tracer wraps functions from the benchmark's own code; no crspectra
file is changed.  crspectra modules bind each other's functions with
``from .x import y``, so a wrapper replaces every ``crspectra.*`` module
attribute that refers to the original, not only the defining one.
``Expression.jet`` and ``Expression.value`` are wrapped on the class.

Each thread keeps its own span stack: ``runtime.map_chunks`` runs chunks on
a thread pool, and a shared stack would charge one thread's children to
another thread's span.  For each function, ``total_s`` sums the inclusive
duration of its calls and ``self_s`` its own busy time: a call's duration
minus the time of its direct children on the same thread, plus the bodies
of the chunks it hands to ``runtime.map_chunks`` (minus their traced
children), on whichever thread they run.  Busy time of parallel sections can
therefore exceed their wall time, which is the duration of the
``runtime.map_chunks`` span on the calling thread.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

from crspectra.runtime import max_threads

# (module, attribute) of each traced function; "Class.method" wraps on the class.
TARGETS = (
    ("crspectra.expressions", "Expression.jet"),
    ("crspectra.expressions", "Expression.value"),
    ("crspectra.frames", "build_frame"),
    ("crspectra.frames", "frame_from_jet"),
    ("crspectra.operators", "curvature_quantities"),
    ("crspectra.operators", "log_fefferman_jet"),
    ("crspectra.quadrature", "build_quadrature"),
    ("crspectra.quadrature", "project_rays"),
    ("crspectra.quadrature", "re_densify"),
    ("crspectra.quadrature", "points_on_surface"),
    ("crspectra.spectral", "estimate_lambda1"),
    ("crspectra.spectral", "assemble"),
    ("crspectra.spectral", "solve"),
    ("crspectra.spectral", "jacobi_eigh"),
    ("crspectra.bounds", "upper_bound"),
    ("crspectra.bounds", "reilly_bound"),
    ("crspectra.bounds", "special_bound"),
    ("crspectra.bounds", "lower_bound"),
    ("crspectra.bounds", "validate_decomposition"),
    ("crspectra.reporting", "run_job_data"),
    ("crspectra.reporting", "canonical_json"),
    ("crspectra.runtime", "map_chunks"),
)


def _span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _batch(points):
    shape = getattr(points, "shape", ())
    count = 1
    for s in shape[:-1]:
        count *= s
    return count


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans of the TARGETS while installed (use as a context manager)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.observed = {}
        self.missing = []
        self._restore = []

    # --- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, args, kwargs):
        """Run fn on this thread's stack; returns (result, duration, own time)."""
        stack = self._stack()
        frame = [0.0, name]  # time of direct children on this thread, span name
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
        return result, duration, duration - frame[0]

    def span(self, name, fn, args, kwargs, on_exit=None):
        result, duration, own = self._timed(name, fn, args, kwargs)
        extra = on_exit(args, kwargs, result, own) if on_exit else {}
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own
            for key, value in extra.items():
                self.counters[key] += value
        return result

    # --- per-function counters ----------------------------------------------

    def _jet_exit(self, args, kwargs, result, self_time):
        order = _arg(args, kwargs, 3, "order")
        points = _batch(_arg(args, kwargs, 2, "point"))
        return {f"expressions.jet.points.o{order}": points,
                f"expressions.jet.self_s.o{order}": self_time}

    def _rule_exit(self, args, kwargs, result, self_time):
        return {"quadrature.rule_points": len(result)}

    def _rays_exit(self, args, kwargs, result, self_time):
        return {"quadrature.project_rays.rays": _batch(_arg(args, kwargs, 2, "dirs"))}

    def _assemble_exit(self, args, kwargs, result, self_time):
        if result.ibp_deviation is not None:
            self._observe_max("spectral.assemble.ibp_deviation", result.ibp_deviation)
        return {"spectral.assemble.basis_size_sum": len(result.basis)}

    def _solve_exit(self, args, kwargs, result, self_time):
        self._observe_max("spectral.solve.gram_cond", result.gram_cond)
        self._observe_max("spectral.solve.dropped_dim", result.dropped_dim)
        return {}

    def _observe_max(self, key, value):
        with self._lock:
            self.observed[key] = max(self.observed.get(key, value), value)

    def _map_chunks(self, original):
        """map_chunks under a span; each chunk body is busy time of the span
        that called map_chunks (on whichever thread runs it), and the
        map_chunks span itself holds the calling thread's wait."""

        def traced(fn, total, chunk_size, *args, **kwargs):
            stack = self._stack()
            caller = stack[-1][1] if stack else "runtime.map_chunks"
            chunks = -(-total // chunk_size)
            workers = max(1, min(max_threads(), chunks))

            def chunk(sl):
                result, duration, own = self._timed(caller, fn, (sl,), {})
                with self._lock:
                    self.self_s[caller] += own
                    self.counters["runtime.map_chunks.busy_s"] += duration
                return result

            start = time.perf_counter()
            result = self.span("runtime.map_chunks", original,
                               (chunk, total, chunk_size) + args, kwargs)
            wall = time.perf_counter() - start
            with self._lock:
                self.counters["runtime.map_chunks.chunks"] += chunks
                self.counters["runtime.map_chunks.capacity_s"] += wall * workers
            return result

        return traced

    def _wrapper(self, name, original):
        if name == "runtime.map_chunks":
            return self._map_chunks(original)
        on_exit = {
            "expressions.jet": self._jet_exit,
            "quadrature.build_quadrature": self._rule_exit,
            "quadrature.project_rays": self._rays_exit,
            "spectral.assemble": self._assemble_exit,
            "spectral.solve": self._solve_exit,
        }.get(name)

        def traced(*args, **kwargs):
            return self.span(name, original, args, kwargs, on_exit)

        traced.__wrapped__ = original
        return traced

    # --- install / restore ------------------------------------------------------

    def __enter__(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "crspectra" or key.startswith("crspectra."))]
        for module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrapper(_span_name(module_name, attr), original)
                setattr(owner, method, wrapper)
                self._restore.append((owner, method, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(_span_name(module_name, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False
