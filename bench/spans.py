"""Span tracing of tandemreco from outside the package.

The tracer replaces public functions of the package with wrappers, in every
module that binds them (``tandemreco.utr.root`` as well as
``tandemreco.duplication.root``), so calls between modules and inside one
module are both seen.  Two kinds of wrapper exist:

* a *span* wrapper records one span per call: name, parent span, start and
  end.  Self time is a span's duration minus the durations of its child
  spans.
* a *count* wrapper only counts calls.  It is used for the tiny functions
  that run millions of times per round (``Word.__post_init__``,
  ``half_manhattan``, ...), where a span would cost more than the call; their
  time is part of the calling span's self time.

Spans live in four parallel ``array`` columns in memory and are written out
once, at the end of the run.  The run is split into phases (one set-up, then
one phase per round); counts and self times are kept per phase so that the
reported figures describe one set-up plus one average round, whatever the
number of rounds a run managed.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path


def _root_key(args, kwargs):
    return args[0].symbols


def _sidon_code_key(args, kwargs):
    return args[:3]


def _len_result(args, kwargs, result):
    return len(result)


def _pairs(args, kwargs, result):
    n = len(args[0])
    return n * (n - 1) // 2


# (module, attribute path, metric prefix, kind, options, reported stats)
#   kind "span": calls and self time; kind "count": calls only.
#   options: "distinct" -> key function of the arguments (distinct_ratio),
#            "sum" -> (stat name, function of args, kwargs, result),
#            "failed" -> count calls that raise.
TRACED = [
    ("duplication", "Word.__post_init__", "duplication.Word.new", "count", {}, ("calls",)),
    ("duplication", "root", "duplication.root", "span", {"distinct": _root_key},
     ("calls", "self_s", "distinct_ratio")),
    ("duplication", "phi", "duplication.phi", "span", {}, ("calls", "self_s")),
    ("duplication", "mu_sigma", "duplication.mu_sigma", "span", {}, ("calls", "self_s")),
    ("duplication", "psi", "duplication.psi", "span", {}, ("calls", "self_s")),
    ("duplication", "psi_inv", "duplication.psi_inv", "span", {}, ("calls", "self_s")),
    ("duplication", "cone_dimension", "duplication.cone_dimension", "span", {},
     ("calls", "self_s")),
    ("duplication", "is_irreducible", "duplication.is_irreducible", "count", {}, ("calls",)),
    ("duplication", "descendants", "duplication.descendants", "span",
     {"sum": ("nodes", _len_result)}, ("calls", "self_s", "nodes")),
    ("duplication", "channel_sample", "duplication.channel_sample", "span", {},
     ("calls", "self_s")),
    ("metric", "cone_intersection_size", "metric.cone_intersection_size", "span", {},
     ("calls", "self_s")),
    ("metric", "duplication_distance", "metric.duplication_distance", "span", {},
     ("calls", "self_s")),
    ("metric", "duplication_distance_bfs", "metric.duplication_distance_bfs", "span", {},
     ("calls", "self_s")),
    ("metric", "descendant_count", "metric.descendant_count", "count", {}, ("calls",)),
    ("simplex", "min_half_distance", "simplex.min_half_distance", "span",
     {"sum": ("pairs", _pairs)}, ("calls", "self_s", "pairs")),
    ("simplex", "half_manhattan", "simplex.half_manhattan", "count", {}, ("calls",)),
    ("simplex", "enumerate_simplex", "simplex.enumerate_simplex", "count",
     {"sum": ("points", _len_result)}, ("points",)),
    ("simplex", "sidon_set", "simplex.sidon_set", "span", {"failed": True},
     ("calls", "self_s", "failed")),
    ("simplex", "sidon_code", "simplex.sidon_code", "span", {"distinct": _sidon_code_key},
     ("calls", "self_s", "distinct_ratio")),
    ("simplex", "required_distance", "simplex.required_distance", "count", {}, ("calls",)),
    ("utr", "construction_a", "utr.construction_a", "span", {}, ("self_s",)),
    ("utr", "irreducible_words", "utr.irreducible_words", "span",
     {"sum": ("words", _len_result)}, ("self_s", "words")),
    ("utr", "is_utr_code_reduced", "utr.is_utr_code_reduced", "span", {}, ("self_s",)),
    ("utr", "is_utr_code_direct", "utr.is_utr_code_direct", "span", {}, ("self_s",)),
    ("utr", "UtrCode.loads", "utr.UtrCode.loads", "span", {}, ("self_s",)),
    ("utr", "UtrCode.cone_index", "utr.UtrCode.cone_index", "span", {}, ("self_s",)),
    ("utr", "reconstruct", "utr.reconstruct", "span", {}, ("calls", "self_s")),
    ("capacity", "capacity_profile", "capacity.capacity_profile", "span", {},
     ("calls", "self_s")),
    ("cli", "main", "cli.main", "span", {}, ("calls", "self_s")),
]


class _Phase:
    def __init__(self, label: str, first_span: int):
        self.label = label
        self.first_span = first_span
        self.last_span = first_span
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)


class Tracer:
    """Installs wrappers on an imported tandemreco package and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.col_name = array("i")
        self.col_parent = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.stack = [-1]
        self.phases: list[_Phase] = []
        self.phase = _Phase("idle", 0)
        self.paused = False
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_phase(self, label: str) -> None:
        self.phase = _Phase(label, len(self.col_name))
        self.phases.append(self.phase)

    def end_phase(self) -> None:
        self.phase.last_span = len(self.col_name)
        self.phase = _Phase("idle", len(self.col_name))

    @contextmanager
    def pause(self):
        """Calls made inside the block (the benchmark's own checks) are not traced."""
        self.paused, was = True, self.paused
        try:
            yield
        finally:
            self.paused = was

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own (an operation)."""
        return self._span_wrapper(name, fn, {})(*args)

    def _span_wrapper(self, name: str, fn, opts: dict):
        nid = self._id(name)
        col_name, col_parent = self.col_name, self.col_parent
        col_start, col_end = self.col_start, self.col_end
        stack = self.stack
        clock = time.perf_counter
        distinct = opts.get("distinct")
        summed = opts.get("sum")
        failed = name + ".failed" if opts.get("failed") else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = len(col_name)
            col_name.append(nid)
            col_parent.append(stack[-1])
            col_end.append(0.0)
            stack.append(sid)
            col_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                col_end[sid] = clock()
                stack.pop()
                if failed:
                    tracer.phase.counts[failed] += 1
                raise
            col_end[sid] = clock()
            stack.pop()
            if distinct:
                tracer.phase.keys[name].add(distinct(args, kwargs))
            if summed:
                tracer.phase.counts[f"{name}.{summed[0]}"] += summed[1](args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn, opts: dict):
        calls = name + ".calls"
        summed = opts.get("sum")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            counts = tracer.phase.counts
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if summed:
                counts[f"{name}.{summed[0]}"] += summed[1](args, kwargs, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function wherever a tandemreco module binds it."""
        for mod_name, path, name, kind, opts, _ in TRACED:
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            owner = modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._wrap_member(cls, attr, name, make, opts)
                continue
            original = getattr(owner, path)
            wrapped = make(name, original, opts)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def _wrap_member(self, cls, attr: str, name: str, make, opts: dict) -> None:
        member = cls.__dict__[attr]
        if isinstance(member, classmethod):
            new = classmethod(make(name, member.__func__, opts))
        elif isinstance(member, cached_property):
            new = cached_property(make(name, member.func, opts))
            new.__set_name__(cls, attr)
        else:
            new = make(name, member, opts)
        self._restore.append((cls, attr, member))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- deriving --------------------------------------------------------

    def derive(self) -> tuple[dict, list[dict]]:
        """Figures of the set-up phase and of each round phase.

        Each figure maps ``<name>.calls``, ``<name>.self_s`` and ``<name>.s``
        (total span time) of every span name, every counter, and
        ``<name>.distinct_ratio`` of every keyed name.  A round's distinct
        ratio counts the distinct inputs of the set-up and that round over
        the calls of both, so it does not fall as a run repeats rounds.
        """
        n = len(self.col_name)
        names, parents = self.col_name, self.col_parent
        starts, ends = self.col_start, self.col_end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        figures = []
        for phase in self.phases:
            calls = defaultdict(int)
            total = defaultdict(float)
            own = defaultdict(float)
            for i in range(phase.first_span, phase.last_span):
                nid = names[i]
                dur = ends[i] - starts[i]
                calls[nid] += 1
                total[nid] += dur
                own[nid] += dur - child[i]
            fig = dict(phase.counts)
            for nid, c in calls.items():
                name = self.names[nid]
                fig[name + ".calls"] = c
                fig[name + ".s"] = total[nid]
                fig[name + ".self_s"] = own[nid]
            figures.append(fig)
        setup, rounds = self.phases[0], self.phases[1:]
        for phase, fig in zip(rounds, figures[1:]):
            for name in set(setup.keys) | set(phase.keys):
                seen = len(setup.keys.get(name, set()) | phase.keys.get(name, set()))
                calls = figures[0].get(name + ".calls", 0) + fig.get(name + ".calls", 0)
                fig[name + ".distinct_ratio"] = seen / calls
        return figures[0], figures[1:]

    def write(self, stem: Path) -> None:
        """Write the spans: a JSON header and four binary columns."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.col_name),
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "phases": [
                {"label": p.label, "first_span": p.first_span, "last_span": p.last_span}
                for p in self.phases
            ],
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for col in (self.col_name, self.col_parent, self.col_start, self.col_end):
                col.tofile(fh)
