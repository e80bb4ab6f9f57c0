"""Span recorder installed around the package's public functions.

Tracing lives in the benchmark, not in the package: :meth:`Tracer.install`
replaces each listed function with a wrapper in *every* ``msf7`` module that
binds it (``exterior.kernel`` is also ``forms7.kernel`` and
``stabilizers.kernel``), so a call from one layer into another nests as a
child span.  Spans are kept in memory and written out when the run ends.
Names a later version of the package no longer has are skipped and report
zero calls.  The untraced run never installs anything.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

LAYERS = {
    "exterior": ("pullback", "kernel", "rank", "signature", "wedge", "interior"),
    "forms7": ("classify", "invariant_vector", "ms_rank", "b_form", "stabilizer_dim",
               "compact_dim", "lambda5_rank"),
    "algebras": ("multiply", "triple_form", "build_algebra"),
    "stabilizers": ("embed_so4", "embed_sl2pair", "embed_so3_33", "embed_gl2pair",
                    "verify_membership"),
    "topology": ("check_type", "make_model"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.op = None  # tag of the timed op in progress; spans only inside one
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module, fns in LAYERS.items():
            mod = importlib.import_module(f"msf7.{module}")
            for fn in fns:
                original = getattr(mod, fn, None)
                if callable(original):
                    self._patch(original, self._wrap(f"{module}.{fn}", original))

    def _patch(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "msf7" and not name.startswith("msf7."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        def traced(*args, **kwargs):
            if self.op is None:  # outside a timed op: decoding and checks
                return fn(*args, **kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                spans.append((span_id, parent, self.op, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
