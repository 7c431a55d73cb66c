"""Spans and counters recorded around calls into the tkkwb package, from outside it.

``Tracer.install`` replaces each traced function with a wrapper wherever a
caller looks it up: on the class for methods, and in every loaded ``tkkwb``
module that binds the function by name (``weyl`` imports ``extend_to_g0``
from ``jspace``, ``jspace`` imports ``build_sl2`` from ``tkk``, and so on).
``Tracer.uninstall`` puts the originals back.  Nothing in the package is
edited.

Every call becomes a span (name, parent, start, end), kept in flat arrays in
memory.  A span's self time is its duration minus the durations of its child
spans and minus the time the tracer's own counter hooks took inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# (layer, function) pairs; "init" and "matmul" name __init__ and __matmul__
TRACED = (
    ("linalg", "RowSpan.insert"),
    ("linalg", "RowSpan.contains"),
    ("linalg", "Matrix.apply"),
    ("linalg", "Matrix.matmul"),
    ("linalg", "rref"),
    ("weyl", "TruncatedVerma.init"),
    ("weyl", "TruncatedVerma.action_matrix"),
    ("weyl", "weyl_dimensions"),
    ("weyl", "efr_power"),
    ("weyl", "garland_coefficient"),
    ("jspace", "extend_to_g0"),
    ("jspace", "dominance_check"),
    ("jspace", "check_jspace"),
    ("jspace", "check_envelope_relations"),
    ("tkk", "build_sl2"),
    ("tkk", "build_tkk"),
    ("tkk", "validate_lie"),
    ("tkk", "center_map"),
    ("jordan", "validate"),
    ("cli", "main"),
)
SPECIAL = {"init": "__init__", "matmul": "__matmul__"}
COUNTERS = ("linalg.RowSpan.insert.accepted", "linalg.max_coeff_bits",
            "weyl.cell_vectors", "weyl.sweeps")


def coeff_bits(vec):
    """Largest numerator plus denominator bit length among the entries."""
    return max((x.numerator.bit_length() + x.denominator.bit_length() for x in vec),
               default=0)


class Tracer:
    def __init__(self):
        self.names = []                 # span name by name id
        self.name_id = array("H")       # per span
        self.parent = array("i")        # parent span, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.hook_s = array("d")        # hook time of child calls inside the span
        self.stack = []
        self.counts = Counter()
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _observe(self, name):
        counts = self.counts
        if name == "linalg.RowSpan.insert":
            def observe(args, result):
                if result:
                    counts["linalg.RowSpan.insert.accepted"] += 1
                bits = coeff_bits(args[1])
                if bits > counts["linalg.max_coeff_bits"]:
                    counts["linalg.max_coeff_bits"] = bits
            return observe
        if name == "weyl.TruncatedVerma.init":
            def observe(args, result):
                counts["weyl.cell_vectors"] += sum(len(b) for b in args[0].cells.values())
            return observe
        if name == "weyl.weyl_dimensions":
            def observe(args, result):
                counts["weyl.sweeps"] += result.meta["sweeps"]
            return observe
        return None

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = self._observe(name)
        name_id, parent, start, end, hook_s, stack = (
            self.name_id, self.parent, self.start, self.end, self.hook_s, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            hook_s.append(0.0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                t = clock()
                observe(args, result)
                if stack:
                    hook_s[stack[-1]] += clock() - t
            return result

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "tkkwb" or key.startswith("tkkwb.")]
        for layer, qualname in TRACED:
            module = importlib.import_module(f"tkkwb.{layer}")
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                attr = SPECIAL.get(attr, attr)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per function: calls, total and self seconds; plus the counters."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        funcs = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            f = funcs[self.names[self.name_id[i]]]
            f["calls"] += 1
            f["total_s"] += dur[i]
            f["self_s"] += dur[i] - child[i] - self.hook_s[i]
        return {"spans": n, "functions": funcs,
                "counters": {k: self.counts[k] for k in COUNTERS}}
