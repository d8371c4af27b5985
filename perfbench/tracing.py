"""Span tracer for the benchmark's traced run; the library itself is untouched.

A layer is one chordcalc module: ``cli``, ``diagrams``, ``algebra``,
``intlinalg``, ``parity``, ``surgery`` and ``sums``.  :meth:`Tracer.install`
wraps every public function a layer defines at each module binding through
which callers look it up (its own module, the package and every other module
that imported it), plus the ``key()`` method of the four diagram classes.
Generator functions are left alone, because their span would close before
their work runs, and so are the constant-time label helpers in ``UNTRACED``,
called once per chord label, where a span would cost more than the call; the
work of both lands in the caller's span.

Each call records a span ``(name, start_ns, end_ns, parent)`` in memory.  A
span's self time is its duration minus that of its direct children, so the
self times of all spans add up to the traced time without double counting.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "diagrams", "algebra", "intlinalg", "parity", "surgery", "sums")
DIAGRAM_CLASSES = (
    "FramedChordDiagram",
    "DoubleChordDiagram",
    "FramedLinearDiagram",
    "DoubleLinearDiagram",
)

UNTRACED = ("diagrams.spell_label", "diagrams.reverse_word")

# Function metric -> the spans whose self time it sums.
SELF_TIMES = {
    "intlinalg.hnf_s": ("intlinalg.hnf",),
    "algebra.generate_4T_s": ("algebra.generate_4T",),
    "diagrams.enumerate_s": ("diagrams.enumerate_diagrams",),
    "diagrams.key_s": ("diagrams.key",),
    "parity.psi_s": ("parity.psi", "parity.psi_l"),
    "surgery.weight_s": ("surgery.weight",),
    "sums.connected_sum_framed_s": ("sums.connected_sum_framed",),
    "sums.search_counterexample_s": ("sums.search_counterexample",),
    "cli.parse_s": ("cli.parse",),
}
# Count metric -> the span whose calls it counts.
CALLS = {
    "intlinalg.hnf_calls": "intlinalg.hnf",
    "diagrams.key_calls": "diagrams.key",
    "surgery.beta_calls": "surgery.beta",
    "sums.connected_sum_framed_calls": "sums.connected_sum_framed",
    "cli.parse_calls": "cli.parse",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._hnf = []  # (rows, cols, H) of every hnf call
        self._generated = {}  # generate_4T arguments -> generator rows returned
        self._summands = 0

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), stack[-2] if len(stack) > 1 else -1)
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_hnf(self, args, _kwargs, result):
        self._hnf.append((args[0].rows, args[0].cols, result[0]))

    def _after_generate(self, args, kwargs, result):
        self._generated.setdefault((args, tuple(sorted(kwargs.items()))), len(result))

    def _after_psi(self, args, _kwargs, _result):
        self._summands += 2 ** args[0].n

    def install(self):
        """Wrap the public functions of every layer; call once, after import."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "chordcalc" or name.startswith("chordcalc.")
        ]
        hooks = {
            "intlinalg.hnf": self._after_hnf,
            "algebra.generate_4T": self._after_generate,
            "parity.psi": self._after_psi,
            "parity.psi_l": self._after_psi,
        }
        for layer in LAYERS:
            home = sys.modules[f"chordcalc.{layer}"]
            for attr, fn in list(vars(home).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != home.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNTRACED
                ):
                    continue
                traced = self._wrap(name, fn, hooks.get(name))
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, binding, traced)
        diagrams = sys.modules["chordcalc.diagrams"]
        for cls_name in DIAGRAM_CLASSES:
            cls = getattr(diagrams, cls_name)
            cls.key = self._wrap("diagrams.key", cls.key)

    def metrics(self):
        """Per-layer self times and counts of everything traced so far."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, calls = {}, {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        cold_ns = warm_ns = 0
        for i, (name, start, end, _parent) in enumerate(spans):
            own = end - start - child_ns[i]
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_ns[name.split(".", 1)[0]] += own
            if name == "algebra.quotient_equal":
                # A call that had to build a lattice calls into other traced
                # functions; one answered from the cached lattices does not.
                if child_ns[i]:
                    cold_ns += own
                else:
                    warm_ns += own
        out = {
            metric: sum(self_ns.get(name, 0) for name in names) / 1e9
            for metric, names in SELF_TIMES.items()
        }
        out.update({metric: calls.get(name, 0) for metric, name in CALLS.items()})
        out["algebra.quotient_equal_cold_s"] = cold_ns / 1e9
        out["algebra.quotient_equal_warm_s"] = warm_ns / 1e9
        out["algebra.generator_rows"] = sum(self._generated.values())
        out["parity.summands"] = self._summands
        out.update(_hnf_shape(self._hnf))
        out.update({f"{layer}.self_s": ns / 1e9 for layer, ns in layer_ns.items()})
        return out

    def write(self, path):
        """Write the spans as JSON lines: ``[name, start_ns, end_ns, parent]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _hnf_shape(calls):
    rows = cols = rank = big = 0
    for m, n, h in calls:
        rows += m
        cols += n
        for row in h.entries:
            pivot = next((x for x in row if x != 0), None)
            if pivot is None:
                break
            rank += 1
            big += pivot > 1
    return {
        "intlinalg.hnf_rows": rows,
        "intlinalg.hnf_cols": cols,
        "intlinalg.hnf_rank": rank,
        "intlinalg.hnf_pivots_gt1": big,
    }
