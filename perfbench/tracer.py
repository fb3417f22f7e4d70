"""Span tracing of normrec's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each normrec module (less
qpoly's coefficient arithmetic, see ``UNTRACED``) and a few public methods
of the field and recurrence classes. A function imported by name (``from
.numberfield import norm``) is a separate binding in every importing
module, so each binding that refers to the original function is replaced,
not only the one in the defining module. ``uninstall`` puts the originals
back.

Each call records one span: name id, parent span, start and end. The spans
of one instance share its root span, which the benchmark opens. Spans are
kept in flat arrays while the benchmark runs and written out at the end.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

MODULES = (
    "numberfield",
    "units",
    "multirec",
    "normform",
    "uniteq",
    "intersect",
    "cli",
    "qpoly",
    "linalg",
)

# qpoly's coefficient-list arithmetic, which NumberFieldElement calls several
# times in every operation: its time shows in the numberfield spans, and
# wrapping it would cost more than a degree-2 multiplication itself
UNTRACED = {
    "qpoly.trim", "qpoly.degree", "qpoly.add", "qpoly.sub", "qpoly.neg",
    "qpoly.mul", "qpoly.scale", "qpoly.divmod_poly", "qpoly.mod",
}

# (module, class, method) -> span name; __rmul__ is the same function as
# __mul__ and shares its name so that both count as multiplications
METHODS = {
    ("numberfield", "NumberFieldElement", "__mul__"): "numberfield.mul",
    ("numberfield", "NumberFieldElement", "__rmul__"): "numberfield.mul",
    ("numberfield", "NumberFieldElement", "__pow__"): "numberfield.pow",
    ("numberfield", "NumberFieldElement", "inverse"): "numberfield.inverse",
    ("numberfield", "SplittingContainer", "embed"): "numberfield.embed",
    ("numberfield", "SplittingContainer", "preimage"): "numberfield.preimage",
    ("multirec", "MultiRecurrence", "evaluate"): "multirec.evaluate",
    ("multirec", "MultiRecurrence", "restrict_sublattice"): "multirec.restrict_sublattice",
    ("multirec", "MultiRecurrence", "restrict_progression"): "multirec.restrict_progression",
    ("normform", "NormFormProblem", "splitting"): "normform.splitting",
    ("normform", "NormFormProblem", "norm_polynomial"): "normform.norm_polynomial",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._active = []
        self._patches = []
        self.observed = {}  # counters filled by observers

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name, fn, observer=None):
        nid = self.name_id(name)
        name_of, parent, start, end, outer = (
            self.name_of, self.parent, self.start, self.end, self.outer,
        )
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
                if observer is not None:
                    observer(self, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package, observers=None):
        observers = observers or {}
        mods = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and f"{short}.{attr}" not in UNTRACED
                ):
                    name = f"{short}.{attr}"
                    replace[id(obj)] = self.wrap(name, obj, observers.get(name))
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, observers.get(name)))
        namespaces = [package] + [
            mod for key, mod in sys.modules.items()
            if key.startswith(package.__name__ + ".")
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self):
        """Per name: calls, inclusive time of outermost calls, self time."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            rec[0] += 1
            if self.outer[i]:
                rec[1] += dur
            rec[2] += dur - child[i]
        return {
            name: {"calls": c, "incl_s": incl, "self_s": self_s}
            for name, (c, incl, self_s) in out.items()
        }

    def write(self, path):
        """Binary span dump: the arrays name id (int32), parent index (int32,
        -1 for a root), start and end (float64, seconds), one after another,
        each with one entry per span in start order. The name table goes in
        the JSON record written beside it."""
        with open(path, "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
