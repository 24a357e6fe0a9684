"""Span tracing for the benchmark's traced runs.

`Tracer.install` rebinds every public function of the five layer modules,
and every public method (and `__init__`) of the classes they define, to a
wrapper that records a span: name, start, end and parent.  Calls inside the
package go through module globals and class attributes, so the rebinding
catches them too.  Spans stay in memory (parallel arrays) until `write`;
`uninstall` puts the originals back.

A layer's self time is the time of its spans minus the time of the wrapped
calls beneath them.  Each op is itself a span named ``op``, so the share of
an op's wall time that its layer spans cover is ``1 - op.self / op``.
"""

import functools
import importlib
import json
import time
import types
from array import array

LAYERS = ("coxeter", "bruhat", "poset", "extension", "spectra")


class Tracer:
    def __init__(self):
        self.names = ["op"]  # name 0 marks op spans
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_spans = []
        self._stack = [-1]
        self._originals = []

    def install(self, package="bruhatspec"):
        for layer in LAYERS:
            mod = importlib.import_module("%s.%s" % (package, layer))
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    self._rebind(mod, attr, obj, "%s.%s" % (layer, attr))
                elif isinstance(obj, type) and \
                        not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if not isinstance(fn, types.FunctionType):
                            continue  # properties, class/static methods
                        if meth == "__init__":
                            name = "%s.%s" % (layer, attr)
                        elif not meth.startswith("_"):
                            name = "%s.%s.%s" % (layer, attr, meth)
                        else:
                            continue
                        self._rebind(obj, meth, fn, name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _rebind(self, owner, attr, fn, name):
        self._originals.append((owner, attr, fn))
        self.names.append(name)
        setattr(owner, attr, self._wrap(fn, len(self.names) - 1))

    def _wrap(self, fn, nid):
        span_name, parent, start, end = \
            self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def run_op(self, fn):
        """Call fn() inside an ``op`` span and return its result."""
        self.op_spans.append(len(self.span_name))
        return self._wrap(fn, 0)()

    def summary(self):
        """Calls and self time per span name, and the share of each op's
        wall time covered by layer spans."""
        n = len(self.span_name)
        below = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                below[p] += self.end[i] - self.start[i]
        calls, self_s = {}, {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + \
                (self.end[i] - self.start[i] - below[i])
        cover = [below[i] / (self.end[i] - self.start[i])
                 for i in self.op_spans]
        return {"calls": calls, "self_s": self_s, "op_cover": cover}

    def write(self, path):
        """All spans, as one JSON header line (the name table and the span
        count) followed by four native-endian arrays of that length: name
        index (int32), parent span (int32, -1 for none), start and end
        (float64, perf_counter seconds)."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(f)
