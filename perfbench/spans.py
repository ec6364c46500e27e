"""Span tracing of tcphonon's layers from outside the package.

A Tracer replaces selected public functions of the tcphonon modules with
timing wrappers.  Every module attribute bound to the same function object is
rebound, so a call is caught whichever alias the caller uses (for example
`cli.write_table` is `output.write_table`, and `rates.params_from_physical` is
`model.params_from_physical`).  Spans stay in memory until the benchmark
writes them out; nothing inside the package is edited.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

PACKAGE = "tcphonon"

# (module, attribute) pairs whose calls become spans.  `rates.quad` is scipy's
# quad as rates.py sees it, so its span is a child of rates.rate_g_to_2g.
HOOKS = (
    ("cli", "main"),
    ("output", "write_table"),
    ("rates", "scan_lambda_rate"),
    ("rates", "scan_g_rate"),
    ("rates", "rate_lambda_to_2g"),
    ("rates", "lambda_threshold_momentum"),
    ("rates", "rate_g_to_2g"),
    ("rates", "quad"),
    ("rates", "mc_rate_oracle"),
    ("spectrum", "dispersion"),
    ("spectrum", "amplitudes"),
    ("spectrum", "bogoliubov_oracle"),
    ("vertex", "matrix_element"),
    ("checks", "run_all"),
    ("eftlimit", "verify_long_wavelength"),
    ("model", "params_from_physical"),
)

# Counters kept at a hook's boundary: name -> (owning hook, unit).
COUNTERS = {
    "output.bytes": ("output.write_table", "B"),
    "rates.quad.integrand_evals": ("rates.quad", "count"),
    "rates.mc_rate_oracle.samples": ("rates.mc_rate_oracle", "count"),
    "rates.mc_rate_oracle.rss_delta_mb": ("rates.mc_rate_oracle", "MB"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    query: int
    failed: bool = False


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Installs span hooks on the tcphonon modules and aggregates per layer.

    Enter it around the traced code; set `query` to the id of the operation
    being timed so its spans share that id.  A hook whose target does not
    exist is listed in `absent` and reports no metrics.
    """

    def __init__(self, hooks=HOOKS):
        self.spans: list[Span] = []
        self.counters = {name: 0.0 for name in COUNTERS}
        self.query = -1
        self.present: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        for module, attr in hooks:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            name = f"{module}.{attr}"
            (self.present if callable(getattr(mod, attr, None)) else self.absent).append(name)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name in self.present:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        before, after = self._counter_hooks(name, fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.query)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(state)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_hooks(self, name: str, fn):
        """(before, after) callables that keep a hook's counters.

        They run outside the span's timed interval.  `before` may replace the
        call's arguments, which is how quad's integrand gets counted.
        """
        counters = self.counters
        if name == "rates.quad":
            def before(args, kwargs):
                count = [0]
                if not args or not callable(args[0]):
                    return args, kwargs, count
                integrand = args[0]

                def counted(x, *rest):
                    count[0] += 1
                    return integrand(x, *rest)

                return (counted,) + args[1:], kwargs, count

            def after(count):
                counters["rates.quad.integrand_evals"] += count[0]

            return before, after
        if name == "output.write_table":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                return args, kwargs, signature.bind(*args, **kwargs).arguments.get("path")

            def after(path):
                if path not in (None, "-") and os.path.exists(path):
                    counters["output.bytes"] += os.path.getsize(path)

            return before, after
        if name == "rates.mc_rate_oracle":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                samples = bound.arguments.get("samples", 0) * len(bound.arguments.get("widths", ()))
                return args, kwargs, (samples, peak_rss_mb())

            def after(state):
                samples, rss_before = state
                counters["rates.mc_rate_oracle.samples"] += samples
                # growth of the process high-water mark during the call
                key = "rates.mc_rate_oracle.rss_delta_mb"
                counters[key] = max(counters[key], peak_rss_mb() - rss_before)

            return before, after
        return None, None

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self and total seconds and failures per traced pass.

        A span's self time is its duration minus the time its child spans
        cover.  Counters are per pass too, except rss_delta_mb, which is the
        largest growth of the peak RSS seen during any one call.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        agg = {name: [0, 0.0, 0.0, 0] for name in self.present}
        for span, covered in zip(self.spans, child):
            row = agg[span.name]
            duration = span.end - span.start
            row[0] += 1
            row[1] += duration - covered
            row[2] += duration
            row[3] += span.failed
        n = max(passes, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in self.present:
            calls, self_s, total_s, failed = agg[name]
            out[f"{name}.calls"] = (calls / n, "count")
            out[f"{name}.self_s"] = (self_s / n, "s")
            out[f"{name}.total_s"] = (total_s / n, "s")
            out[f"{name}.failed"] = (failed / n, "count")
        for counter, (owner, unit) in COUNTERS.items():
            if owner in self.present:
                value = self.counters[counter]
                out[counter] = (value if unit == "MB" else value / n, unit)
        if "rates.mc_rate_oracle" in self.present:
            busy = agg["rates.mc_rate_oracle"][2]
            samples = self.counters["rates.mc_rate_oracle.samples"]
            out["rates.mc_rate_oracle.samples_per_s"] = (samples / busy if busy else 0.0, "1/s")
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
