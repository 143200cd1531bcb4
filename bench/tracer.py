"""Per-layer spans and counters for mcmkit, installed from outside the package.

``install()`` wraps the public functions of every module in ``src/mcmkit``
(module-level functions and the public methods of the classes each module
defines).  Every wrapped call is a span: a stack of open spans gives each
layer its self time, which is a span's duration minus the part of it that
nested spans cover.  A few wrappers also read work counts and cache sizes
around the call.

Cache hit ratios are read from outside: a call is a hit when it leaves the
cache it uses the same size.  When a private attribute such a metric reads
is absent, the metric is reported as missing (value ``None``).

Time spent in private helpers and in dunder methods (``RingElement.__mul__``
and friends) is charged to the nearest enclosing public call, so a layer's
self time includes the unwrapped helpers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("linalg", "rings", "modules", "homs", "resolution", "functors", "mf",
          "cisupport", "quiver", "catalog", "cli")

ELIM_METHODS = ("rref", "kernel_basis", "solve", "rank")
ROWSPACE_METHODS = ("add", "contains", "reduce")


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {}
        self.missing = set()
        self._stack = []  # [layer, start, child_time]
        self._depth = {}  # outermost-only counters: name -> nesting depth
        self._probe_table = None

    # -- accounting --------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, layer):
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame):
        dur = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _outermost(self, group):
        return self._depth.get(group, 0) == 0

    # -- wrappers ----------------------------------------------------

    def wrap(self, layer, qualname, fn):
        probe = self._probes().get(f"{layer}.{qualname}")
        if probe is None and layer == "functors":
            probe = _Counter("functors.calls")
        tracer = self

        if probe is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = tracer._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leave(frame)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                state = probe.before(tracer, args)
                frame = tracer._enter(layer)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    dur = tracer._leave(frame)
                    probe.after(tracer, args, state, result, dur)

        traced.__wrapped_by_bench__ = fn
        return traced

    def _probes(self):
        """Probes by "layer.qualname" of the wrapped callable."""
        if self._probe_table is None:
            probes = {}
            for name in ELIM_METHODS:
                probes[f"linalg.DenseMatrix.{name}"] = _Nested("elim", _elim_after)
            for name in ROWSPACE_METHODS:
                probes[f"linalg.RowSpace.{name}"] = _Nested("rowspace", _rowspace_after(name))
            probes["rings.QuotientRing.mult_matrix"] = _CacheProbe(
                "rings.mult_matrix", "_mult_cache")
            probes["rings.QuotientRing.normal_form"] = _Counter("rings.normal_form_calls")
            probes["modules.GradedModule.piece"] = _Counter("modules.piece_calls")
            probes["modules.GradedModule.mult_operator"] = _Counter("modules.mult_operator_calls")
            probes["modules.invariants"] = _Timed("modules.invariants")
            probes["homs.hom_space"] = _HomSpaceProbe()
            probes["homs.is_isomorphic"] = _Timed("homs.is_isomorphic")
            probes["resolution.kernel_step"] = _Timed("resolution.kernel_step")
            probes["resolution.resolve"] = _ResolveProbe()
            probes["quiver.build_quiver"] = _Timed("quiver.build_quiver")
            self._probe_table = probes
        return self._probe_table

    # -- results -----------------------------------------------------

    def ratio(self, hits, calls, attr_key):
        if attr_key in self.missing:
            return None
        n = self.counts.get(calls, 0)
        return self.counts.get(hits, 0) / n if n else 0.0


class _Counter:
    def __init__(self, key):
        self.key = key

    def before(self, tracer, args):
        return None

    def after(self, tracer, args, state, result, dur):
        tracer.count(self.key)


class _Timed:
    """Call count and inclusive time of the outermost calls."""

    def __init__(self, key):
        self.key = key

    def before(self, tracer, args):
        outer = tracer._outermost(self.key)
        tracer._depth[self.key] = tracer._depth.get(self.key, 0) + 1
        return outer

    def after(self, tracer, args, outer, result, dur):
        tracer._depth[self.key] -= 1
        tracer.count(self.key + "_calls")
        if outer:
            tracer.count(self.key + "_s", dur)


class _Nested:
    """Counts only the outermost call of a group (rref inside solve is one)."""

    def __init__(self, group, after):
        self.group = group
        self._after = after

    def before(self, tracer, args):
        outer = tracer._outermost(self.group)
        tracer._depth[self.group] = tracer._depth.get(self.group, 0) + 1
        return outer

    def after(self, tracer, args, outer, result, dur):
        tracer._depth[self.group] -= 1
        if outer:
            self._after(tracer, args, result)


def _elim_after(tracer, args, result):
    m = args[0]
    tracer.count("linalg.elim_calls")
    tracer.count("linalg.elim_cells", getattr(m, "nrows", 0) * getattr(m, "ncols", 0))


def _rowspace_after(name):
    def after(tracer, args, result):
        tracer.count("linalg.rowspace_ops")
        if name == "add":
            tracer.count("linalg.rowspace_add_calls")
            if result:
                tracer.count("linalg.rowspace_add_useful")
    return after


class _CacheProbe:
    """Calls and hits of a method whose cache is a dict attribute of ``self``."""

    def __init__(self, key, attr):
        self.key = key
        self.attr = attr

    def before(self, tracer, args):
        cache = getattr(args[0], self.attr, None)
        return None if cache is None else len(cache)

    def after(self, tracer, args, size, result, dur):
        tracer.count(self.key + "_calls")
        cache = getattr(args[0], self.attr, None)
        if size is None or cache is None:
            tracer.missing.add(self.key)
            return
        if len(cache) == size:
            tracer.count(self.key + "_hits")


class _HomSpaceProbe:
    """hom_space caches on ``M._hom_cache``; the attribute appears on first use."""

    def before(self, tracer, args):
        cache = getattr(args[0], "_hom_cache", None)
        return 0 if cache is None else len(cache)

    def after(self, tracer, args, size, result, dur):
        tracer.count("homs.hom_space_calls")
        cache = getattr(args[0], "_hom_cache", None)
        if cache is None:
            tracer.missing.add("homs.hom_space")
            return
        if len(cache) == size:
            tracer.count("homs.hom_space_hits")
        else:
            tracer.count("homs.hom_dim_sum", getattr(getattr(result, "space", None), "dim", 0))


class _ResolveProbe:
    """resolve caches its window on ``M._resolution``; a hit adds no step."""

    def before(self, tracer, args):
        res = getattr(args[0], "_resolution", None)
        return res, (len(res.steps) if res is not None else -1)

    def after(self, tracer, args, state, result, dur):
        tracer.count("resolution.resolve_calls")
        before, steps = state
        after = getattr(args[0], "_resolution", None)
        if after is None or not hasattr(after, "steps"):
            tracer.missing.add("resolution.resolve")
            return
        if after is before and len(after.steps) == steps:
            tracer.count("resolution.resolve_hits")


def _public_callables(mod):
    """(owner, attribute name, qualname, callable kind) for everything wrapped."""
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append((mod, name, name, "function"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                and not issubclass(obj, BaseException):
            for mname, raw in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    out.append((obj, mname, f"{name}.{mname}", type(raw).__name__))
                elif inspect.isfunction(raw):
                    out.append((obj, mname, f"{name}.{mname}", "function"))
    return out


def install(tracer: Tracer):
    """Wrap mcmkit's public callables and rebind every module name that held one."""
    modules = {layer: importlib.import_module(f"mcmkit.{layer}") for layer in LAYERS}
    package = importlib.import_module("mcmkit")
    replaced = {}
    for layer in LAYERS:
        for owner, name, qualname, kind in _public_callables(modules[layer]):
            raw = vars(owner)[name]
            if kind == "function":
                new = tracer.wrap(layer, qualname, raw)
                replaced[id(raw)] = new
                setattr(owner, name, new)
            else:
                inner = tracer.wrap(layer, qualname, raw.__func__)
                setattr(owner, name, type(raw)(inner))
    # names imported with ``from .x import f`` still point at the originals
    for mod in list(modules.values()) + [package]:
        for name, obj in list(vars(mod).items()):
            new = replaced.get(id(obj))
            if new is not None and obj is getattr(new, "__wrapped_by_bench__", None):
                setattr(mod, name, new)


def layer_metrics(tracer: Tracer):
    """Per-layer metrics of the traced run, by name, as (value, unit)."""
    c = tracer.counts
    out = {}
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    adds = c.get("linalg.rowspace_add_calls", 0)
    out["linalg.elim_calls"] = (c.get("linalg.elim_calls", 0), "count")
    out["linalg.elim_cells"] = (c.get("linalg.elim_cells", 0), "count")
    out["linalg.rowspace_ops"] = (c.get("linalg.rowspace_ops", 0), "count")
    out["linalg.rowspace_add_useful"] = (
        c.get("linalg.rowspace_add_useful", 0) / adds if adds else 0.0, "ratio")
    out["rings.mult_matrix_calls"] = (c.get("rings.mult_matrix_calls", 0), "count")
    out["rings.mult_matrix_hit_ratio"] = (
        tracer.ratio("rings.mult_matrix_hits", "rings.mult_matrix_calls", "rings.mult_matrix"),
        "ratio")
    out["rings.normal_form_calls"] = (c.get("rings.normal_form_calls", 0), "count")
    out["modules.piece_calls"] = (c.get("modules.piece_calls", 0), "count")
    out["modules.mult_operator_calls"] = (c.get("modules.mult_operator_calls", 0), "count")
    out["modules.invariants_s"] = (c.get("modules.invariants_s", 0.0), "s")
    out["homs.hom_space_calls"] = (c.get("homs.hom_space_calls", 0), "count")
    out["homs.hom_space_hit_ratio"] = (
        tracer.ratio("homs.hom_space_hits", "homs.hom_space_calls", "homs.hom_space"), "ratio")
    out["homs.hom_dim_sum"] = (c.get("homs.hom_dim_sum", 0), "count")
    out["homs.is_isomorphic_calls"] = (c.get("homs.is_isomorphic_calls", 0), "count")
    out["homs.is_isomorphic_s"] = (c.get("homs.is_isomorphic_s", 0.0), "s")
    out["resolution.kernel_step_calls"] = (c.get("resolution.kernel_step_calls", 0), "count")
    out["resolution.kernel_step_s"] = (c.get("resolution.kernel_step_s", 0.0), "s")
    out["resolution.resolve_hit_ratio"] = (
        tracer.ratio("resolution.resolve_hits", "resolution.resolve_calls",
                     "resolution.resolve"), "ratio")
    out["functors.calls"] = (c.get("functors.calls", 0), "count")
    out["quiver.build_quiver_s"] = (c.get("quiver.build_quiver_s", 0.0), "s")
    return out


def merge(into: dict, other: dict):
    """Add the raw state of one tracer (as from ``dump``) into another dump."""
    for key in ("self_s", "counts"):
        for k, v in other[key].items():
            into[key][k] = into[key].get(k, 0) + v
    into["missing"] = sorted(set(into["missing"]) | set(other["missing"]))
    return into


def dump(tracer: Tracer) -> dict:
    return {"self_s": dict(tracer.self_s), "counts": dict(tracer.counts),
            "missing": sorted(tracer.missing)}


def load(state: dict) -> Tracer:
    t = Tracer()
    t.self_s.update(state["self_s"])
    t.counts.update(state["counts"])
    t.missing.update(state["missing"])
    return t
