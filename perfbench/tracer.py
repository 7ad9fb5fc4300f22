"""Layer spans for the traced run, recorded from outside the package.

Each layer is a public function of ``multiactive``. The consumers import
those functions by name (``from .canon import masp_digest``), so a
wrapper is bound under every name, in every loaded ``multiactive``
module, that refers to the original function; ``uninstall`` puts the
originals back. Spans stay in memory as ``[name, start_ns, end_ns,
parent]`` lists and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# span name -> (defining module, attribute)
LAYERS = {
    "canon.masp_digest": ("multiactive.canon", "masp_digest"),
    "canon.abs_digest": ("multiactive.canon", "abs_digest"),
    "canon.masp_struct_key": ("multiactive.canon", "masp_struct_key"),
    "canon.abs_struct_key": ("multiactive.canon", "abs_struct_key"),
    "masp.steps.enabled_steps": ("multiactive.masp.steps", "enabled_steps"),
    "masp.steps.apply_step": ("multiactive.masp.steps", "apply_step"),
    "absm.steps.abs_enabled_steps": ("multiactive.absm.steps", "abs_enabled_steps"),
    "absm.steps.abs_apply_step": ("multiactive.absm.steps", "abs_apply_step"),
    "equiv.config_equiv": ("multiactive.equiv", "config_equiv"),
    "lang.parse_masp": ("multiactive.lang.parser_masp", "parse_masp"),
    "lang.parse_abs": ("multiactive.lang.parser_abs", "parse_abs"),
    "lang.check_wellformed": ("multiactive.lang.wellformed", "check_wellformed"),
    "translate.translate_program": ("multiactive.translate", "translate_program"),
    "deadlock.diagnose_deadlock": ("multiactive.deadlock", "diagnose_deadlock"),
}
METHODS = {
    "trace.Trace.to_jsonl": ("multiactive.trace", "Trace", "to_jsonl"),
    "trace.Trace.from_jsonl": ("multiactive.trace", "Trace", "from_jsonl"),
}
# the operations the benchmark calls; their self time is the loop around
# the layers (BFS bookkeeping, the simulation worklists, the scheduler)
OPERATIONS = {
    "op.explore": ("multiactive.explore", "explore"),
    "op.check_forward_simulation": ("multiactive.simulate", "check_forward_simulation"),
    "op.check_backward_simulation": ("multiactive.simulate", "check_backward_simulation"),
    "op.run": ("multiactive.masp.engine", "run"),
    "op.abs_run": ("multiactive.absm.engine", "abs_run"),
    "op.replay": ("multiactive.masp.engine", "replay"),
    "op.abs_replay": ("multiactive.absm.engine", "abs_replay"),
}
# spans whose result is (ok, reason, ctx): the tracer also counts the oks
OK_RESULT = {"equiv.config_equiv"}

MARK = "_perfbench_span"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "multiactive" or name.startswith("multiactive."))
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.oks = {}
        self._stack = [-1]
        self._bound = []  # (owner, attribute, original) to restore

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_ok = name in OK_RESULT
        if count_ok:
            self.oks[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count_ok and result[0]:
                self.oks[name] += 1
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def wrap_property(self, prop):
        """A copy of an ``explore.Property`` whose callables record spans."""
        name = f"explore.prop.{prop.name}"
        return type(prop)(
            prop.name,
            state=None if prop.state is None else self.wrap(name, prop.state),
            transition=None if prop.transition is None else self.wrap(name, prop.transition),
        )

    def install(self):
        modules = _package_modules()
        for name, (module, attr) in {**LAYERS, **OPERATIONS}.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bound.append((m, key, original))
                        setattr(m, key, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(name, original.__func__))
            else:
                wrapper = self.wrap(name, original)
            self._bound.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._bound:
            owner, key, original = self._bound.pop()
            setattr(owner, key, original)

    def self_times(self) -> dict:
        """name -> [calls, self seconds]: each span's duration minus the
        durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start - inner) / 1e9
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e9

    def write(self, path):
        """Spans as JSON lines: a header naming the span fields, then one
        ``[name, start_ns, end_ns, parent index]`` per line."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def leftover_wrappers() -> list:
    """Names in ``multiactive`` modules still bound to a tracer wrapper."""
    found = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, MARK):
                found.append(f"{m.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if hasattr(member, MARK):
                        found.append(f"{m.__name__}.{key}.{attr}")
    return found
