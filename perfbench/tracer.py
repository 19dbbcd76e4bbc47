"""Spans around calls into expotrans's public functions, for traced runs.

`instrument` rebinds each traced function, in every expotrans module that
holds it, to a wrapper that records a span; `restore` puts the originals
back.  Calls between the package's modules (a_to_b -> exp_neg,
reconstruct_from_certificate -> real_moments, ...) are therefore spanned
too, while the package's files stay untouched.  A recursive call of the
same function joins the caller's span.

Spans are kept in memory: name, start, end, parent span, operation id,
whether the call raised, and work counters read from the return value.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# module -> public functions that get a span; these are the layers.
TRACED = {
    "series": ("exp_neg", "log_neg"),
    "shapes": ("moments", "cauchy_kernel_log", "translate_moments"),
    "exptransform": ("a_to_b", "b_to_a", "eval_E", "boundary_root"),
    "operators": ("b_from_operator",),
    "orthopoly": ("orthonormalize", "hessenberg", "completeness_gap"),
    "finiteterm": ("detect_order", "fit_certificate", "band_profile", "fill_from_first_column"),
    "reconstruct": ("reconstruct_from_certificate", "real_moments", "support_box", "legendre_fit"),
    "heleshaw": ("exterior_moments",),
    "gallery": ("resolve", "b_for"),
}
# cli and serialize run in cli-cold's child processes; they are timed there
# (cli.<cmd>.cold_ms, .inproc_ms) and by the stage probes, not spanned.
TRACED_METHODS = {"reconstruct": (("LegendreField", "sample"),)}

# work counters read from return values
COUNTERS = {
    "orthopoly.orthonormalize": lambda r: {"stop_degree": r.degree},
    "finiteterm.detect_order": lambda r: {"hit": int(r is not None)},
    "finiteterm.fill_from_first_column": lambda r: {"certified_entries": int(r.certified.sum())},
    "reconstruct.reconstruct_from_certificate": lambda r: {"covered_order": r[1]["covered_order"]},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | str | None
    end: float = 0.0
    failed: bool = False
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id: int | str | None = None

    @contextmanager
    def span(self, name: str, op):
        """A span opened by the benchmark itself around one operation or set-up.

        Spans opened outside one (the benchmark's own checks) get op None.
        """
        self.op_id = op
        idx = self._open(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self.spans[idx].failed = True
            raise
        finally:
            self._close(idx)
            self.op_id = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].failed = True
                raise
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx].counters = counter(result)
            return result

        traced.__wrapped__ = fn
        return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "expotrans" or n.startswith("expotrans.")]


def instrument(tracer: Tracer):
    """Rebind the traced functions; returns the list of bindings to restore."""
    undo = []
    modules = _package_modules()
    for mod_name, names in TRACED.items():
        home = sys.modules[f"expotrans.{mod_name}"]
        for fname in names:
            orig = getattr(home, fname)
            wrapped = tracer.wrap(f"{mod_name}.{fname}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))
    for mod_name, pairs in TRACED_METHODS.items():
        home = sys.modules[f"expotrans.{mod_name}"]
        for cls_name, meth in pairs:
            cls = getattr(home, cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, tracer.wrap(f"{mod_name}.{meth}", orig))
            undo.append((cls, meth, orig))
    return undo


def restore(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover (seconds)."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def summarize(spans: list[Span], ops: set) -> dict:
    """Per function name over the spans of the given operations:
    busy and self seconds, calls, failed calls, summed counters."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sp, st in zip(spans, selfs):
        if sp.op not in ops:
            continue
        row = out.setdefault(sp.name, {"busy": 0.0, "self": 0.0, "calls": 0, "failed": 0, "counters": {}})
        row["busy"] += sp.end - sp.start
        row["self"] += st
        row["calls"] += 1
        row["failed"] += int(sp.failed)
        for key, val in sp.counters.items():
            row["counters"][key] = row["counters"].get(key, 0) + val
    return out


def to_jsonl(spans: list[Span], t0: float) -> str:
    lines = []
    for i, sp in enumerate(spans):
        lines.append(json.dumps({
            "id": i, "name": sp.name, "op": sp.op, "parent": sp.parent,
            "start_ms": (sp.start - t0) * 1e3, "end_ms": (sp.end - t0) * 1e3,
            "failed": sp.failed, **sp.counters,
        }))
    return "\n".join(lines) + "\n"
