"""In-memory span tracer that times randmax from outside the package.

`Tracer.wrap(owner, attr, layer, name)` replaces one function binding (a
module global or a class attribute) with a wrapper that records a span:
name, layer, start, end and the index of the enclosing span. Bindings are
wrapped where the calling module looks them up, e.g. `randmax.harness`'s
own `pickands_curve_raw`, so nothing under `src/` changes. Spans stay in
flat arrays in memory until `write_csv` is called at the end of a run.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.name_ids = array("l")
        self.layer_ids = array("l")
        self.names = []
        self.layers = []
        self.absent = set()
        self._name_index = {}
        self._layer_index = {}
        self._stack = []
        self._patched = []
        self._self = None

    def _intern(self, table, index, key):
        if key not in index:
            index[key] = len(table)
            table.append(key)
        return index[key]

    def wrap(self, owner, attr, layer, name, on_return=None):
        """Trace calls through `owner.attr`.

        `name` is a span name or a callable (args, kwargs) -> name. A missing
        binding is recorded in `absent` instead of raising, so a later
        rename in the package shows up as an absent metric.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            self.absent.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        layer_id = self._intern(self.layers, self._layer_index, layer)
        fixed_id = None if callable(name) else self._intern(self.names, self._name_index, name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(
                fixed_id
                if fixed_id is not None
                else tracer._intern(tracer.names, tracer._name_index, name(args, kwargs))
            )
            tracer.layer_ids.append(layer_id)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, raw))
        return True

    def restore(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def _arrays(self):
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int_)
        if self._self is None or self._self.size != dur.size:
            has_parent = parents >= 0
            child = np.bincount(
                parents[has_parent], weights=dur[has_parent], minlength=dur.size
            )
            self._self = dur - child
        return dur, self._self

    def layer_self_s(self, layer):
        """Total self time of all spans of a layer, in seconds."""
        if layer not in self._layer_index:
            return 0.0
        _, self_time = self._arrays()
        mask = np.frombuffer(self.layer_ids, dtype=np.int_) == self._layer_index[layer]
        return float(self_time[mask].sum())

    def durations(self, name):
        """Inclusive durations (s) of every span with this name."""
        if name not in self._name_index:
            return np.array([])
        dur, _ = self._arrays()
        return dur[np.frombuffer(self.name_ids, dtype=np.int_) == self._name_index[name]]

    def count(self, name):
        return int(self.durations(name).size)

    def write_csv(self, path):
        lines = ["id,name,layer,start_s,end_s,parent"]
        for i in range(len(self.starts)):
            lines.append(
                f"{i},{self.names[self.name_ids[i]]},{self.layers[self.layer_ids[i]]},"
                f"{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
