"""Spans around the calls into salbound's modules, recorded from outside.

The program is not edited: public names are wrapped where their caller
looks them up (for example ``salbound.bounds.ground_energy`` is what
``compute_bounds`` calls), and the wrappers are removed afterwards.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the part of it that its child spans cover; a span opened in a worker
thread with nothing open in that thread takes as parent the innermost span
open in the thread that created the tracer.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stacks = defaultdict(list)
        self._home = threading.get_ident()
        self._lock = threading.Lock()
        self._undo = []
        self.children = []  # span records written by traced child processes

    def open(self, name: str, **attrs) -> int:
        stack = self._stacks[threading.get_ident()]
        home = self._stacks[self._home]
        parent = stack[-1] if stack else (home[-1] if home else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, attrs])
        stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4].update(attrs)
        self._stacks[threading.get_ident()].pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> bool:
        """Replace ``owner.attr`` by a spanning wrapper; False if it is absent.

        ``before(span, args, kwargs)`` may return replacement (args, kwargs);
        ``after(span, result)`` sees the result.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                if before is not None:
                    args, kwargs = before(self.spans[span], args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(self.spans[span], result)
                return result
            finally:
                self.close(span)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, children's overlaps merged."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def records(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "self": t, **s[4]}
            for s, t in zip(self.spans, selfs)
        ]

    def child_records(self, path: str) -> None:
        """Adopt the span records a traced child process wrote to ``path``."""
        with open(path, encoding="utf-8") as fh:
            self.children.append(json.load(fh))
        os.remove(path)

    def groups(self) -> list[list[dict]]:
        """Span records per process; parent indices refer to their own group."""
        return [self.records(), *self.children]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of salbound that exists in this version."""
    import numpy
    import salbound.bounds as bounds
    import salbound.cli as cli
    import salbound.delta as delta
    import salbound.potentials as potentials
    import salbound.quadrature as quadrature
    import salbound.solver as solver

    def objective_hook(label):
        def before(span, args, kwargs):
            f, *rest = args
            return (tracer_objective(tracer, f, label), *rest), kwargs
        return before

    def pinned(span, result):
        span[4]["pinned"] = any("endpoint" in w for w in getattr(result, "warnings", ()))

    def rule_before(span, args, kwargs):
        span[4]["misses_before"] = unit_rule_misses()
        return args, kwargs

    def rule_after(span, result):
        span[4]["builds"] = unit_rule_misses() - span[4].pop("misses_before")

    cached_rule = quadrature.unit_rule

    def unit_rule_misses() -> int:
        info = getattr(cached_rule, "cache_info", None)
        return info().misses if info else 0

    def size(span, args, kwargs):
        span[4]["size"] = int(numpy.size(args[1])) if len(args) > 1 else 0
        return args, kwargs

    def matrix(span, args, kwargs):
        span[4]["dim"] = int(numpy.shape(args[0])[0])
        return args, kwargs

    def samples(span, args, kwargs):
        span[4]["samples"] = int(args[1] if len(args) > 1 else kwargs.get("count", 0))
        return args, kwargs

    def basis(span, args, kwargs):
        span[4]["basis"] = int(args[2] if len(args) > 2 else kwargs["basis_size"])
        return args, kwargs

    def stats(span, result):
        span[4]["finding"] = bool(result.mean < -3.0 * result.stderr)

    for name in ("compute_bounds", "linear_bound_table", "ratio_table"):
        tracer.wrap(cli, name, f"bounds.{name}")
    tracer.wrap(cli, "ground_energy", "solver.ground_energy", after=pinned)
    tracer.wrap(cli, "expectation_delta", "delta.expectation_delta", after=stats)
    tracer.wrap(cli, "random_state_corpus", "delta.random_state_corpus")
    tracer.wrap(bounds, "ground_energy", "solver.ground_energy", after=pinned)
    tracer.wrap(bounds, "gaussian_upper", "bounds.gaussian_upper")
    tracer.wrap(bounds, "minimize_log_golden", "bounds.gaussian_upper.search", before=objective_hook("gaussian"))
    tracer.wrap(solver, "minimize_log_golden", "solver.scale_search", before=objective_hook("solver"))
    tracer.wrap(solver, "kinetic_matrix", "solver.self_check")
    tracer.wrap(solver, "potential_matrix", "solver.self_check", before=basis)
    tracer.wrap(numpy.linalg, "eigvalsh", "solver.eigvalsh", before=matrix)
    tracer.wrap(quadrature, "unit_rule", "quadrature.unit_rule", before=rule_before, after=rule_after)
    for module in (solver, bounds, quadrature):
        tracer.wrap(module, "semi_infinite_rule", "quadrature.semi_infinite_rule")
    for cls in vars(potentials).values():
        if isinstance(cls, type) and issubclass(cls, potentials.PairPotential) and "__call__" in vars(cls):
            tracer.wrap(cls, "__call__", "potentials.call", before=size)
    tracer.wrap(delta, "sample_momenta", "delta.sample_momenta", before=samples)
    tracer.wrap(delta, "from_jacobi", "jacobi.from_jacobi")


def tracer_objective(tracer: Tracer, f, label: str):
    """The scale-search objective, one span per evaluation."""
    name = "solver.objective" if label == "solver" else "bounds.gaussian_upper.objective"

    def objective(x):
        span = tracer.open(name)
        try:
            return f(x)
        finally:
            tracer.close(span)

    return objective
