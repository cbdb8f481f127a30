"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps, from outside the package, every name that
`stationary_light.cli` imports from the other modules (core, fourier,
analytic, solver, observables), cli's own `_write_*` serializers and
`parse_config`, `run_scenario`, and `solver.evolve_mb_harmonics`.  It also
wraps `numpy.fft.fft`/`ifft` and charges each call to the innermost open
span.  Spans stay in memory; `dump` writes them out once the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time of the
outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

LAYERS = ("core", "fourier", "analytic", "solver", "observables")
_SERIALIZERS = ("_write_heatmap", "_write_table", "_write_metrics", "_write_provenance")


@dataclass
class Span:
    """One call across a layer boundary, with what it did inside."""

    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    fft_calls: int = 0
    fft_bytes: int = 0
    error: bool = False
    steps: int = 0
    out_bytes: int = 0
    out_rows: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _rows_written(name: str, args) -> int:
    """Data rows a `_write_*` call emits, read from its arguments."""
    if name == "_write_heatmap":
        return int(np.size(args[3]))
    if name == "_write_table":
        return len(args[2])
    if name == "_write_metrics":
        return len(args[1])
    with open(args[0], encoding="utf-8") as handle:
        return sum(1 for _ in handle)


class _ClassProxy:
    """Stands in for a class: construction and callable attributes are traced."""

    def __init__(self, tracer: "Tracer", cls: type, layer: str):
        self._tracer, self._cls, self._layer = tracer, cls, layer
        self._call = tracer.wrap(cls, layer, cls.__name__)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self._cls, attr)
        if callable(value):
            return self._tracer.wrap(value, self._layer, f"{self._cls.__name__}.{attr}")
        return value


class Tracer:
    """Patches the package's layer boundaries while active (use as a context manager)."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(layer, name)
            span = tracer.spans[index]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer._close(index)
            if layer == "solver":
                span.steps = int(getattr(result, "steps", 0))
            elif layer == "cli.serialize":
                span.out_bytes = os.stat(args[0]).st_size
                span.out_rows = _rows_written(name, args)
            return result

        return traced

    def _open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def _counted_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if tracer._stack:
                span = tracer.spans[tracer._stack[-1]]
                span.fft_calls += 1
                span.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        cli, solver = self.lib.cli, self.lib.solver
        for attr, value in list(vars(cli).items()):
            module = getattr(value, "__module__", "") or ""
            layer = module.rpartition(".")[2]
            if not module.startswith("stationary_light.") or layer not in LAYERS:
                continue
            if inspect.isclass(value):
                if issubclass(value, BaseException):
                    continue
                self._patch(cli, attr, _ClassProxy(self, value, layer))
            elif callable(value):
                self._patch(cli, attr, self.wrap(value, layer, value.__name__))
        for attr in _SERIALIZERS:
            self._patch(cli, attr, self.wrap(getattr(cli, attr), "cli.serialize", attr))
        self._patch(cli, "parse_config", self.wrap(cli.parse_config, "cli.config", "parse_config"))
        self._patch(cli, "run_scenario", self.wrap(cli.run_scenario, "cli", "run_scenario"))
        self._patch(solver, "evolve_mb_harmonics",
                    self.wrap(solver.evolve_mb_harmonics, "solver", "evolve_mb_harmonics"))
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self._counted_fft(getattr(np.fft, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Per-layer totals over the spans recorded from index `first` on."""
        spans = self.spans[first:]

        def total(layer, attr):
            return sum(getattr(s, attr) for s in spans if s.layer == layer)

        def count(layer, pred=lambda s: True):
            return sum(1 for s in spans if s.layer == layer and pred(s))

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = total(layer, "self_s")
            out[f"{layer}.calls"] = count(layer)
        for layer in ("solver", "analytic"):
            out[f"{layer}.fft_calls"] = total(layer, "fft_calls")
            out[f"{layer}.errors"] = count(layer, lambda s: s.error)
        out["solver.steps"] = total("solver", "steps")
        out["solver.fft_bytes"] = total("solver", "fft_bytes")
        out["cli.serialize_s"] = total("cli.serialize", "self_s")
        out["cli.serialize_bytes"] = total("cli.serialize", "out_bytes")
        out["cli.serialize_rows"] = total("cli.serialize", "out_rows")
        out["cli.serialize_calls"] = count("cli.serialize")
        out["cli.config_s"] = total("cli.config", "self_s")
        out["cli.self_s"] = total("cli", "self_s")
        out["trace.self_sum_s"] = sum(s.self_s for s in spans)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
