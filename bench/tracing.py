"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces each traced function by a wrapper in the module
namespace that calls it (domain.py, for example, imports `find_all_solutions`
by name, so the wrapper goes into `ringob.domain`). A wrapper records the
span's name, start, end, parent, thread and a few attributes of the result.
The parent is kept in a context variable, and the map's thread pool is
swapped for one that runs each task in a copy of the submitting context, so
a cell's spans keep the map as their parent. Spans stay in memory until the
run writes them out. `uninstall` restores the originals.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_parent: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in the context that submitted them."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _solve_batch_attrs(args, kwargs, result):
    ok = result[2]
    return {"points": int(ok.shape[0]), "failed": int((~ok).sum())}


def _etas_attrs(args, kwargs, result):
    return {"points": int(result[2].shape[0])}


def _roots_attrs(args, kwargs, result):
    return {"roots": len(result)}


def _iterate_attrs(args, kwargs, result):
    return {"steps": int(result.steps), "status": result.status}


def _map_attrs(args, kwargs, result):
    region = result.region
    return {"cells": int(region.size),
            "failed": int((region == "failed").sum()),
            "bistable": int((region == "bistable").sum()),
            "threads": kwargs.get("threads", 0)}


def _sweep_attrs(args, kwargs, result):
    passes = (result.forward, result.backward)
    return {"samples": sum(len(p.t) for p in passes),
            "unconverged": sum(int((~p.converged).sum()) for p in passes),
            "jumps": len(result.jumps_forward) + len(result.jumps_backward)}


def _targets():
    """(owner, attribute, span name, attribute extractor) of every traced call."""
    from ringob import atom, cli, domain, feedback, sweep
    return [
        (atom.SteadyStateProblem, "solve_batch", "atom.solve_batch", _solve_batch_attrs),
        (atom.CellResponse, "etas", "atom.etas", _etas_attrs),
        (domain, "find_all_solutions", "feedback.find_all_solutions", _roots_attrs),
        (feedback, "stability_matrix", "feedback.stability_matrix", None),
        (sweep, "iterate_map", "feedback.iterate_map", _iterate_attrs),
        (cli, "map_domain", "domain.map_domain", _map_attrs),
        (domain, "extract_boundary", "domain.extract_boundary", None),
        (cli, "run_sweep", "sweep.run_sweep", _sweep_attrs),
        (sweep, "detect_jumps", "sweep.detect_jumps", None),
        (cli, "load_config", "cli.load_config", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._saved: list = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = _parent.get()
            token = _parent.set(sid)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                _parent.reset(token)
                extra = attrs(args, kwargs, result) if attrs and error is None else {}
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), error, extra))
        return traced

    def install(self):
        from ringob import domain
        for owner, attr, name, attrs in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))
        self._saved.append((domain, "ThreadPoolExecutor", domain.ThreadPoolExecutor))
        domain.ThreadPoolExecutor = _ContextPool

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_json(self):
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread, "error": s.error,
                 **s.attrs} for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts, times and ratios of one traced round."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    def inclusive_s(name):
        return sum(s.duration for s in named(name))

    def under(span, ancestor):
        p = span.parent
        while p is not None:
            if by_id[p].name == ancestor:
                return True
            p = by_id[p].parent
        return False

    sb_calls = len(named("atom.solve_batch"))
    sb_points = total("atom.solve_batch", "points")
    fas = named("feedback.find_all_solutions")
    roots = total("feedback.find_all_solutions", "roots")
    cell_eta_points = sum(s.attrs["points"] for s in named("atom.etas")
                          if under(s, "feedback.find_all_solutions"))
    it = named("feedback.iterate_map")
    it_steps = total("feedback.iterate_map", "steps")
    maps = named("domain.map_domain")
    cells = total("domain.map_domain", "cells")
    pool_capacity = sum(s.duration * max(s.attrs.get("threads", 1), 1) for s in maps)
    samples = total("sweep.run_sweep", "samples")
    iterate_in_sweeps = sum(1 for s in it if under(s, "sweep.run_sweep"))
    return {
        "atom.solve_batch.calls": (sb_calls, "count"),
        "atom.solve_batch.points": (sb_points, "count"),
        "atom.solve_batch.self_s": (self_s("atom.solve_batch"), "s"),
        "atom.solve_batch.failed_points": (total("atom.solve_batch", "failed"), "count"),
        "atom.solve_batch.points_per_call": (sb_points / sb_calls if sb_calls else 0.0,
                                             "points/call"),
        "atom.etas.calls": (len(named("atom.etas")), "count"),
        "atom.etas.self_s": (self_s("atom.etas"), "s"),
        "feedback.find_all_solutions.calls": (len(fas), "count"),
        "feedback.find_all_solutions.self_s": (self_s("feedback.find_all_solutions"), "s"),
        "feedback.find_all_solutions.roots": (roots, "count"),
        "feedback.find_all_solutions.no_solution": (
            sum(1 for s in fas if s.error == "NoSolution"), "count"),
        "feedback.eta_points_per_cell": (cell_eta_points / len(fas) if fas else 0.0,
                                         "points/cell"),
        "feedback.roots_per_k_eta": (1000.0 * roots / cell_eta_points if cell_eta_points
                                     else 0.0, "roots/1000"),
        "feedback.stability_matrix.s": (inclusive_s("feedback.stability_matrix"), "s"),
        "feedback.iterate_map.calls": (len(it), "count"),
        "feedback.iterate_map.self_s": (self_s("feedback.iterate_map"), "s"),
        "feedback.iterate_map.steps": (it_steps, "count"),
        "feedback.iterate_map.steps_per_call": (it_steps / len(it) if it else 0.0,
                                                "steps/call"),
        "feedback.iterate_map.converged": (
            sum(1 for s in it if s.attrs.get("status") == "converged"), "count"),
        "feedback.iterate_map.max_steps": (
            sum(1 for s in it if s.attrs.get("status") == "max_steps"), "count"),
        "domain.map_domain.self_s": (self_s("domain.map_domain"), "s"),
        "domain.extract_boundary.s": (inclusive_s("domain.extract_boundary"), "s"),
        "domain.cells": (cells, "count"),
        "domain.failed_cells": (total("domain.map_domain", "failed"), "count"),
        "domain.bistable_cells": (total("domain.map_domain", "bistable"), "count"),
        "domain.pool_busy_ratio": (
            sum(s.duration for s in fas if under(s, "domain.map_domain")) / pool_capacity
            if pool_capacity else 0.0, "ratio"),
        "sweep.run_sweep.self_s": (self_s("sweep.run_sweep"), "s"),
        "sweep.samples": (samples, "count"),
        "sweep.unconverged_samples": (total("sweep.run_sweep", "unconverged"), "count"),
        "sweep.cold_retries": (iterate_in_sweeps - samples, "count"),
        "sweep.detect_jumps.s": (inclusive_s("sweep.detect_jumps"), "s"),
        "sweep.jumps": (total("sweep.run_sweep", "jumps"), "count"),
        "cli.load_config.s": (inclusive_s("cli.load_config"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
