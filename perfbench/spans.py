"""Outside-in tracing: spans around calls into the compiler's layers.

Nothing inside the compiler is edited.  :class:`Instrumentation` wraps
each layer's public entry point at *every* module that binds it by name
(``instr_effects`` is bound both where it is defined and in
:mod:`repro.opt.peephole`; ``build_cfg`` in :mod:`repro.opt.cfg`,
:mod:`repro.opt.globalopt` and :mod:`repro.opt.spillplan`), and methods
on their class.  Wrappers pass arguments and results through untouched,
so a traced compile produces the same object code as an untraced one --
the benchmark checks that byte for byte.

Spans are kept in memory as ``[name, start, end, parent, info, hidden]``
lists with parent links; :func:`fold` derives inclusive and self times
from them.  ``info`` holds a small count taken from the call (say, the
instructions a selection emitted), computed after the span closes; the
time that takes is recorded in the parent's ``hidden`` field so it is
not charged to the parent's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _instr_count(generated) -> int:
    from repro.core.codegen.emitter import Instr

    return sum(1 for item in generated.buffer.items if isinstance(item, Instr))


def _select_info(result, args, kwargs) -> Tuple[int, int, int]:
    from repro.core.codegen.emitter import Instr

    instrs = spills = 0
    for item in result.buffer.items:
        if isinstance(item, Instr):
            instrs += 1
            if item.comment and item.comment.startswith("spill"):
                spills += 1
    return result.reductions, instrs, spills


def _pass_info(result, args, kwargs) -> Tuple[int, int]:
    return result.iterations, result.total


DATAFLOW_SOLVERS = (
    "liveness", "reaching_defs", "memory_deadness",
    "available_stores", "available_exprs", "available_copies",
)

#: (span name, defining module, attribute, info hook, pre-call hook).
#: ``Class.method`` attributes are patched on the class.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("frontend.parse", "repro.pascal.parser", "parse_source", None, None),
    ("frontend.check", "repro.pascal.sema", "check_program", None, None),
    ("shape.irgen", "repro.pascal.irgen", "generate_ir", None, None),
    ("shape.optimize", "repro.ir.optimizer", "optimize_routine",
     lambda r, a, k: r[2], None),
    ("linearize", "repro.pascal.irgen", "IRProgram.tokens",
     lambda r, a, k: len(r), None),
    ("select", "repro.core.codegen.parser_rt", "CodeGenerator.generate",
     _select_info, None),
    # The instructions entering the peephole are counted before the call.
    ("peephole", "repro.opt.peephole", "run_peephole", _pass_info,
     lambda a, k: _instr_count(a[0] if a else k["generated"])),
    ("effects", "repro.machines.s370.effects", "instr_effects", None, None),
    ("globalopt", "repro.opt.globalopt", "run_global", _pass_info, None),
    ("cfg", "repro.opt.cfg", "build_cfg", None, None),
    *(
        (f"dataflow.{solver}", "repro.opt.dataflow", solver, None, None)
        for solver in DATAFLOW_SOLVERS
    ),
    ("summaries.compute", "repro.opt.summaries", "compute_summaries",
     None, None),
    ("summaries.apply", "repro.opt.summaries", "apply_summaries",
     lambda r, a, k: r, None),
    ("spillplan.generate", "repro.opt.spillplan", "generate_with_liveness",
     None, None),
    ("spillplan.plan", "repro.opt.spillplan", "build_plan", None, None),
    ("assemble.resolve", "repro.core.codegen.loader_records",
     "resolve_module", lambda r, a, k: r.long_branches, None),
    ("assemble.object", "repro.machines.s370.objmod", "write_object",
     None, None),
    ("simulate", "repro.machines.s370.simulator", "Simulator.run",
     lambda r, a, k: r.steps, None),
)

class Tracer:
    """The span store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (``compile``, ``run``)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None, 0.0])
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = [start, end]

    def wrap(self, name: str, fn: Callable, info: Optional[Callable],
             before: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            pre = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          pre, 0.0])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            if info is not None:
                span[4] = (pre, info(result, args, kwargs))
                if span[3] >= 0:
                    spans[span[3]][5] += perf_counter() - end
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def drain(self) -> List[list]:
        spans, self.spans[:] = list(self.spans), []
        return spans


class Instrumentation:
    """Every binding site of every entry point, patched or restored as a
    unit; the sites are found once, when this object is built."""

    def __init__(self, tracer: Tracer) -> None:
        self._patches: List[Tuple[object, str, Callable, Callable]] = []
        # Import every layer (and the compiler module binding them) before
        # looking for binding sites, or a module imported later is missed.
        importlib.import_module("repro.pascal.compiler")
        for _, module_name, _, _, _ in ENTRY_POINTS:
            importlib.import_module(module_name)
        for name, module_name, attr, info, before in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append(
                    (owner, meth, original,
                     tracer.wrap(name, original, info, before))
                )
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, info, before)
            for mod_name, mod in list(sys.modules.items()):
                if (
                    mod_name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original
                ):
                    self._patches.append((mod, attr, original, wrapped))

    def sites(self) -> List[str]:
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in self._patches
        )

    @contextmanager
    def active(self) -> Iterator[None]:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)


def fold(spans: List[list], into: "LayerTotals", scale: float) -> None:
    """Add one traced program's spans to ``into``, times multiplied by
    ``scale`` (the program's factor to the reference speed)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for index, (name, start, end, parent, info, hidden) in enumerate(spans):
        dur = (end - start) * scale
        into.calls[name] += 1
        into.inclusive[name] += dur
        into.self_time[name] += dur - (covered[index] + hidden) * scale
        if info is not None:
            into.add_info(name, info, dur, spans[parent][0] if parent >= 0
                          else "")


class LayerTotals:
    """Per-layer sums over a set of traced programs."""

    #: peephole runs on at least this many instructions count as large.
    LARGE_INSTRS = 2048

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peephole_size: Dict[str, List[float]] = {
            "small": [0.0, 0], "large": [0.0, 0],
        }

    def add_info(self, name: str, info, dur: float, parent: str) -> None:
        pre, value = info
        c = self.counts
        if name == "shape.optimize":
            c["shape.cse_count"] += value
        elif name == "linearize":
            c["linearize.tokens"] += value
        elif name == "select":
            reductions, instrs, spills = value
            c["select.reductions"] += reductions
            c["select.instrs"] += instrs
            c["select.spills"] += spills
            if parent == "spillplan.generate":
                c["spillplan.probes"] += 1
        elif name == "peephole":
            iterations, rewrites = value
            c["peephole.iterations"] += iterations
            c["peephole.rewrites"] += rewrites
            c["peephole.instrs_in"] += pre
            size = "large" if pre >= self.LARGE_INSTRS else "small"
            self.peephole_size[size][0] += dur
            self.peephole_size[size][1] += pre
        elif name == "globalopt":
            iterations, rewrites = value
            c["globalopt.iterations"] += iterations
            c["globalopt.rewrites"] += rewrites
        elif name == "summaries.apply":
            c["summaries.refined_sites"] += value
        elif name == "assemble.resolve":
            c["assemble.long_branches"] += value
        elif name == "simulate":
            c["simulate.steps"] += value

    def add_stats(self, stats: Dict[str, Any]) -> None:
        """Counts from a compile's own ``stats``: degradations (which are
        not failures) and rematerializations."""
        c = self.counts
        c["globalopt.degraded"] += bool(stats["global"]["degraded_reason"])
        c["spillplan.degraded"] += bool(stats["regalloc"]["degraded_reason"])
        c["spillplan.remats"] += stats["regalloc"]["remat_count"]
        c["fallback.degraded"] += len(stats["fallback_routines"])

    def deterministic_counts(self) -> Dict[str, int]:
        """Every count that must repeat exactly for one input."""
        out = dict(self.counts)
        for name, calls in self.calls.items():
            out[f"calls.{name}"] = calls
        return out


def write_spans(path, programs: List[Tuple[str, List[list]]]) -> int:
    """Write spans as JSON lines; spans of one program share ``trace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as out:
        for trace_id, (program, spans) in enumerate(programs):
            origin = spans[0][1] if spans else 0.0
            for index, (name, start, end, parent, info, hidden) in enumerate(
                spans
            ):
                out.write(json.dumps({
                    "trace": trace_id, "program": program, "id": index,
                    "parent": parent, "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3),
                }) + "\n")
                written += 1
    return written
