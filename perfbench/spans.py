"""Spans and work counters recorded from outside the curvebound package.

A ``Tracer`` wraps every public function of every curvebound module (and the
public methods of the classes those modules define) and rebinds the wrapper
in every ``curvebound.*`` namespace that holds the original, because several
modules import names directly (``from .mesh import validate``). It also wraps
``scipy.sparse.csgraph.dijkstra`` to count Dijkstra sources. Nothing is
installed until ``install()`` and ``uninstall()`` restores every binding, so
untimed and timed passes run the unmodified program.

Each call records one span ``[name, layer, start, end, parent, command]``.
Work that the tracer itself does inside a traced call (hashing inputs,
reading file sizes) is recorded as a span of the ``trace`` layer, so it is
never charged to a program layer. A layer's self time is the duration of its
spans minus the part covered by their child spans.
"""

import functools
import hashlib
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "mesh", "curvature", "teardrop", "doubling", "contour",
          "criteria", "generators", "audit")

# Functions that open a file themselves; sub-layer ``<module>.io`` is the
# union of these with the dispatchers that call them.
IO_LEAVES = {
    "mesh.save_obj", "mesh.load_obj", "mesh.save_mesh_json", "mesh.load_mesh_json",
    "contour.save_contour", "contour.load_contour",
}
IO_FUNCTIONS = IO_LEAVES | {"mesh.save_mesh", "mesh.load_mesh"}


def _array_digest(h, a):
    a = np.ascontiguousarray(a)
    h.update(str((a.dtype.str, a.shape)).encode())
    h.update(a.data)


def _key_mesh(args, kwargs):
    h = hashlib.blake2b(digest_size=16)
    mesh = args[0] if args else kwargs["mesh"]
    _array_digest(h, mesh.vertices)
    _array_digest(h, mesh.triangles)
    return h.digest()


def _key_points(args, kwargs):
    h = hashlib.blake2b(digest_size=16)
    _array_digest(h, args[0] if args else kwargs["points"])
    return h.digest()


def _key_contour(args, kwargs):
    h = hashlib.blake2b(digest_size=16)
    for comp in (args[0] if args else kwargs["c"]).components:
        _array_digest(h, comp)
    return h.digest()


def _key_double(args, kwargs):
    return _key_mesh(args[:1], {}), repr(args[1:]), repr(sorted(kwargs.items()))


# Functions whose distinct inputs are counted, keyed by array contents.
KEYERS = {
    "mesh.validate": _key_mesh,
    "mesh.extrinsic_diameter": _key_points,
    "curvature.mean_curvature_field": _key_mesh,
    "doubling.build_double": _key_double,
    "contour.contour_diameter": _key_contour,
}


def _count_points(counts, args, kwargs, result):
    counts["mesh.extrinsic_diameter.points"] += len(args[0] if args else kwargs["points"])


def _count_sigma(counts, args, kwargs, result):
    counts["doubling.sigma_triangles"] += result.sigma.n_triangles


def _count_segment_pairs(counts, args, kwargs, result):
    counts["contour.segment_pairs"] += int(result.size)


def _count_certified(counts, args, kwargs, result):
    counts["criteria.cone_check.certified"] += int(result.certified)


def _count_bytes(counts, args, kwargs, result, layer):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    counts[f"{layer}.io.bytes"] += os.path.getsize(path)


# Counters taken from a call's arguments and result after it returns.
COUNTERS = {
    "mesh.extrinsic_diameter": _count_points,
    "doubling.build_double": _count_sigma,
    "contour.segment_segment_distance": _count_segment_pairs,
    "criteria.cone_check": _count_certified,
}


class Tracer:
    """Records spans and counters for calls into curvebound while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.command = None
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.command])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _book(self, fn, *args):
        idx = self._open("trace.bookkeeping", "trace")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, name, layer):
        keyer = KEYERS.get(name)
        counter = COUNTERS.get(name)
        if name in IO_LEAVES:
            counter = functools.partial(_count_bytes, layer=layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if keyer is not None:
                tracer.keys[name].add(tracer._book(keyer, args, kwargs))
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer._book(counter, tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_dijkstra(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(graph, *args, **kwargs):
            indices = args[1] if len(args) > 1 else kwargs.get("indices")
            if indices is None:
                counts["mesh.dijkstra_sources"] += graph.shape[0]
            else:
                counts["mesh.dijkstra_sources"] += int(np.size(indices))
            return fn(graph, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Bind the wrappers everywhere the originals are bound."""
        package = importlib.import_module("curvebound")
        modules = {layer: importlib.import_module(f"curvebound.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, meth, fn, self._wrap(
                                fn, f"{layer}.{attr}.{meth}", layer))
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._rebind(ns, attr, obj, wrappers[id(obj)][1])
        csgraph = importlib.import_module("scipy.sparse.csgraph")
        self._rebind(csgraph, "dijkstra", csgraph.dijkstra,
                     self._count_dijkstra(csgraph.dijkstra))

    def _rebind(self, ns, attr, original, wrapper):
        setattr(ns, attr, wrapper)
        self._restore.append((ns, attr, original))

    def uninstall(self):
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    # -- derived figures -------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, command in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def figures(self, walls):
        """Per-layer figures, and the part of each command's wall time no span covers.

        ``walls`` maps each command id to its wall time as measured around
        the call. Layers a workload never enters read 0.
        """
        fig = Counter()
        accounted = dict.fromkeys(walls, 0.0)
        for (name, layer, start, end, _, command), self_s in zip(self.spans,
                                                                 self.self_times()):
            fig[f"{layer}.self_s"] += self_s
            fig[f"{name}.self_s"] += self_s
            if name in IO_FUNCTIONS:
                fig[f"{layer}.io.self_s"] += self_s
            fig[f"{name}.max_call_s"] = max(fig[f"{name}.max_call_s"], end - start)
            accounted[command] += self_s
        fig.update(self.counts)
        for name, keys in self.keys.items():
            fig[f"{name}.distinct_frac"] = len(keys) / self.counts[f"{name}.calls"]
        cones = self.counts["criteria.cone_check.calls"]
        if cones:
            fig["criteria.cone_check.certified_frac"] = (
                self.counts["criteria.cone_check.certified"] / cones)
        residuals = {c: walls[c] - accounted[c] for c in walls}
        fig["trace.residual_frac"] = sum(residuals.values()) / sum(walls.values())
        return dict(fig), residuals

    def dump(self):
        """Spans as JSON-ready rows, with the self time of each."""
        return [
            {"name": n, "layer": layer, "start": s, "end": e, "parent": p,
             "command": c, "self_s": st}
            for (n, layer, s, e, p, c), st in zip(self.spans, self.self_times())
        ]
