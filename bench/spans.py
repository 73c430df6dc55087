"""In-memory spans around calls into streamrisk's modules, and self times.

A span has a name (``<module>.<function>``), a start and an end in ns, and the
id of the span that was open when it began.  A call made in a worker thread
with no open span of its own gets the innermost span open in the thread that
created the tracer as its parent, so the engine's per-block draws nest under
``experiments.run_experiment``.  High-rate calls (gains, ``estimators.step``)
are counted instead: calls and total ns.

The instrumentation wraps the program's public functions and the objects the
engine receives from outside; nothing in ``src/`` changes.

    python3 bench/spans.py bench/out/<workload>/spans.json

prints each layer's self time per traced round from a spans file.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[int] = []
        self._local.stack = self._main
        self._cells: list[tuple[str, list[int]]] = []
        self._lock = threading.Lock()
        self._t0 = _now()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, start, end, parent, attrs) -> None:
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "start": start - self._t0,
                "end": end - self._t0,
                "parent": parent,
                "thread": threading.get_ident(),
                **attrs,
            }
        )

    def _open(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    @contextmanager
    def span(self, name: str):
        """Span around a block; the yielded dict's entries become span fields."""
        attrs: dict = {}
        sid, parent, stack = self._open()
        start = _now()
        try:
            yield attrs
        finally:
            end = _now()
            stack.pop()
            self._record(sid, name, start, end, parent, attrs)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span around each call; ``attrs(args, result)`` adds fields."""

        def traced(*args, **kwargs):
            sid, parent, stack = self._open()
            start = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
            self._record(sid, name, start, end, parent, attrs(args, out) if attrs else {})
            return out

        return traced

    def _cell(self, name: str) -> list[int]:
        cells = self._local.__dict__.setdefault("cells", {})
        cell = cells.get(name)
        if cell is None:
            cell = cells[name] = [0, 0]
            with self._lock:
                self._cells.append((name, cell))
        return cell

    def count(self, name: str, fn):
        """``fn`` with its calls and total ns added to counter ``name``."""

        def counted(*args):
            cell = self._cell(name)
            start = _now()
            out = fn(*args)
            cell[1] += _now() - start
            cell[0] += 1
            return out

        return counted

    def counters(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for name, (calls, ns) in self._cells:
            c = out.setdefault(name, {"calls": 0, "ns": 0})
            c["calls"] += calls
            c["ns"] += ns
        return out


def _items(args, out) -> dict:
    return {"items": int(np.size(out))}


def _file_bytes(args, out) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


class _Proxy:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedModel(_Proxy):
    def __init__(self, model, tracer: Tracer) -> None:
        super().__init__(model)
        self.quantile = tracer.wrap("distributions.quantile", model.quantile, _items)


class TimedGenerator(_Proxy):
    def __init__(self, rng, tracer: Tracer) -> None:
        super().__init__(rng)
        self.random = tracer.wrap("distributions.random", rng.random, _items)


class CountedSchedule(_Proxy):
    def __init__(self, schedule, tracer: Tracer) -> None:
        super().__init__(schedule)
        self.gain_a = tracer.count("schedules.gain", schedule.gain_a)
        self.gain_b = tracer.count("schedules.gain", schedule.gain_b)


@contextmanager
def instrument(tracer: Tracer, sr):
    """Install spans around the program's calls; ``sr`` maps module names to
    the imported streamrisk modules.  Everything is restored on exit."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    cli, ex, dist = sr["cli"], sr["experiments"], sr["distributions"]
    try:
        patch(cli, "load_experiment_config",
              tracer.wrap("config.load_experiment_config", cli.load_experiment_config))
        for fn in ("fit_rate", "empirical_clt_cov", "compare_variants"):
            patch(cli, fn, tracer.wrap(f"experiments.{fn}", getattr(cli, fn)))
        patch(ex.ExperimentResult, "mse_curve",
              tracer.wrap("experiments.mse_curve", ex.ExperimentResult.mse_curve))
        patch(cli, "write_csv", tracer.wrap("tables.write_csv", cli.write_csv, _file_bytes))
        for fn in ("loglog_plot", "scatter_plot"):
            patch(cli, fn, tracer.wrap(f"svgplot.{fn}", getattr(cli, fn), _file_bytes))
        asym = sr["asymptotics"]
        for name, fn in list(vars(asym).items()):
            if inspect.isfunction(fn) and fn.__module__ == asym.__name__ and not name.startswith("_"):
                patch(asym, name, tracer.wrap(f"asymptotics.{name}", fn))
        patch(dist, "oracle", tracer.wrap("distributions.oracle", dist.oracle))
        timed_substream = tracer.wrap("distributions.substream", ex.substream)
        patch(ex, "substream", lambda *args: TimedGenerator(timed_substream(*args), tracer))
        est = sr["estimators"]
        patch(est, "step", tracer.count("estimators.step", est.step))
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def engine_config(config, tracer: Tracer):
    """``config`` with its model and schedule replaced by timed proxies."""
    return dataclasses.replace(
        config, model=TimedModel(config.model, tracer), schedule=CountedSchedule(config.schedule, tracer)
    )


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_self_ns(spans: list[dict]) -> dict[str, int]:
    """Module name -> summed self time of its spans."""
    own = self_times(spans)
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s["name"].split(".")[0]] += own[s["id"]]
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/spans.py SPANS_JSON", file=sys.stderr)
        return 2
    doc = json.loads(Path(argv[0]).read_text())
    print(f"{doc['workload']} seed {doc['seed']}: self time per layer, ms")
    for rnd in doc["rounds"]:
        layers = layer_self_ns(rnd["spans"])
        print(f"round {rnd['round']}: " + ", ".join(
            f"{k} {v / 1e6:.1f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        for name, c in sorted(rnd["counters"].items()):
            print(f"  {name}: {c['calls']} calls, {c['ns'] / max(c['calls'], 1):.0f} ns/call")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
