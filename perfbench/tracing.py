"""Spans around defdom's public entry points, recorded from outside the package.

``Tracer.install`` replaces each entry point wherever a loaded ``defdom.*``
module binds it (and on the class, for methods), so a change in how one
module imports another cannot lose a span.  A span is
``(name, start_ns, end_ns, parent_index, op_id, note)``; spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

from defdom import bubble_solver, bubbles, cli, defense, greedy
from defdom import io as dio
from defdom.bubbles import LinearBubbles
from defdom.pig import ProperIntervalGraph

#: Layers in pipeline order; every one is reported, with 0 when not entered.
LAYERS = (
    "cli",
    "io.parse",
    "pig.from_intervals",
    "pig.build",
    "bubbles.expand",
    "bubbles.model",
    "bubbles.validate",
    "greedy.solve",
    "bubble_solver.solve",
    "defense.verify",
)


def _solver_note(args, kwargs, result):
    g, k = args[0], args[1]
    stats = kwargs["stats"] if "stats" in kwargs else args[2]
    return {"n": g.n, "k": k, **stats}


# (layer, function, note, takes stats) for module-level entry points.
_FUNCTIONS = (
    ("cli", cli.run, None, False),
    ("io.parse", dio.parse_instance, lambda a, kw, r: {"bytes": len(a[0])}, False),
    ("bubbles.expand", bubbles.pig_from_bubbles, lambda a, kw, r: {"vertices": r.n}, False),
    ("bubbles.model", bubbles.bubbles_from_pig, lambda a, kw, r: {"bubbles": r.count}, False),
    ("bubbles.model", bubbles.linear_from_compact, lambda a, kw, r: {"bubbles": r.count}, False),
    ("greedy.solve", greedy.solve_greedy, _solver_note, True),
    ("bubble_solver.solve", bubble_solver.solve_bubble, _solver_note, True),
    ("defense.verify", defense.first_undefended_attack, lambda a, kw, r: {"n": a[0].n, "k": a[2]}, False),
)

# (layer, class, attribute) for methods; patched once on the class.
_METHODS = (
    ("pig.from_intervals", ProperIntervalGraph, "from_intervals"),
    ("pig.build", ProperIntervalGraph, "__init__"),
    ("bubbles.validate", LinearBubbles, "__init__"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._wrapped = {fn: self._wrap(layer, fn, note, stats) for layer, fn, note, stats in _FUNCTIONS}
        self._methods = []
        for layer, cls, attr in _METHODS:
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(layer, orig.__func__, None, False))
            else:
                new = self._wrap(layer, orig, None, False)
            self._methods.append((cls, attr, new))

    def _wrap(self, layer, fn, note, takes_stats):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if takes_stats and len(args) < 3 and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op, {})
            if note is not None:
                spans[idx][5].update(note(args, kwargs, result))
            return result

        return traced

    def install(self):
        for name, mod in list(sys.modules.items()):
            if name != "defdom" and not name.startswith("defdom."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in self._wrapped:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, self._wrapped[val])
        for cls, attr, new in self._methods:
            self._patches.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, note in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps({**rec, **note}) + "\n")


class Breakdown:
    """Self time and counters per layer, summed over the traced ops."""

    def __init__(self, spans, op_types):
        child_ns = [0] * len(spans)
        for name, start, end, parent, op, note in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns = defaultdict(int)  # layer -> ns
        self.ops_in = defaultdict(set)  # layer -> op ids that entered it
        self.type_ns = defaultdict(int)  # (op type, layer) -> self ns
        self.op_ns = defaultdict(int)  # op type -> ns of whole ops
        self.notes = defaultdict(list)  # layer -> notes
        for i, (name, start, end, parent, op, note) in enumerate(spans):
            own = end - start - child_ns[i]
            kind = op_types[op]
            self.self_ns[name] += own
            self.ops_in[name].add(op)
            self.type_ns[kind, name] += own
            if parent < 0:
                self.op_ns[kind] += end - start
            if note:
                self.notes[name].append(note)

    def per_op_ms(self, layer: str) -> float:
        """Self time per op that entered the layer; 0 for a layer never entered."""
        ops = len(self.ops_in[layer])
        return self.self_ns[layer] / ops / 1e6 if ops else 0.0

    def per_op(self, layer: str, field: str) -> float:
        ops = len(self.ops_in[layer])
        return sum(n[field] for n in self.notes[layer]) / ops if ops else 0.0

    def share(self, kind: str, *layers: str) -> float:
        total = self.op_ns[kind]
        return sum(self.type_ns[kind, layer] for layer in layers) / total if total else 0.0
