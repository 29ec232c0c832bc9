"""The repository benchmark: compile latency, generated-code cost and
correctness of the CoGG compiler on three seeded workloads.

    python3 perfbench/run.py --workload straight_O1 --seed 1 --seconds 20 --trace 0

One client in a closed loop: each program of the workload's corpus is
compiled with :func:`repro.pascal.compile_source`, run on the S/370
simulator, and its output compared with the reference interpreter's
(computed before timing starts).  Passes over the corpus repeat until
``--seconds`` have elapsed; the pass in progress is finished, so every
program is measured equally often.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead
compiles and runs every program twice per pass -- plain, then with
spans around each layer's entry points (:mod:`spans`) -- checks the two
produce identical object code and output, and prints the per-layer
metrics and the tracing overhead.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``perfbench/README.md`` describes every metric.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from programs import CORPORA, Program
from spans import DATAFLOW_SOLVERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space (private table caches) and span output, inside the tree.
SCRATCH = ROOT / ".perfbench_tmp"
SPAN_DIR = ROOT / ".perfbench_out"

#: Simulator step limit; hitting it is a failure.
STEP_LIMIT = 1_000_000
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: Warm table loads timed for ``tables.warm_load_s``.
WARM_LOADS = 3
#: The calibration kernel's duration at the reference speed (about this
#: development host, uncontended), and how many of its timings nearest a
#: sample set that sample's speed factor.  See :class:`SpeedClock`.
CAL_REF_S = 0.003
NEAREST_SHOTS = 8
#: Raw spans kept for the span file (the per-layer sums use all spans).
MAX_SPANS_WRITTEN = 200_000


@dataclass(frozen=True)
class Workload:
    opt_level: int
    #: the compile-time percentile reported as ``compile_ms.tail``, fixed
    #: so a faster compiler is not judged on a higher one.  It is the
    #: highest that keeps ten samples beyond it in a run at HEAD and, for
    #: the corpora of five equal size classes, that falls at the centre of
    #: a class (10, 30, 50, 70, 90), never on the edge between two.
    tail_pct: int


WORKLOADS: Dict[str, Workload] = {
    "straight_O1": Workload(opt_level=1, tail_pct=70),
    "structured_O4": Workload(opt_level=4, tail_pct=70),
    "loops_run": Workload(opt_level=1, tail_pct=95),
}

#: name -> unit, in output order.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "compile_ms.p50": "ms",
    "compile_ms.tail": "ms",
    "compile_lines_per_s": "lines/s",
    "run_ms.p50": "ms",
    "executed_instructions": "count",
    "code_bytes": "bytes",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "frontend.ms": "ms",
    "shape.ms": "ms",
    "shape.cse_count": "count",
    "linearize.ms": "ms",
    "linearize.tokens": "count",
    "select.ms": "ms",
    "select.reductions": "count",
    "select.instrs": "count",
    "select.spills": "count",
    "peephole.ms": "ms",
    "peephole.iterations": "count",
    "peephole.rewrites": "count",
    "peephole.us_per_instr.small": "us/instr",
    "peephole.us_per_instr.large": "us/instr",
    "effects.calls": "count",
    "effects.ms": "ms",
    "effects.calls_per_instr": "calls/instr",
    "globalopt.ms": "ms",
    "globalopt.iterations": "count",
    "globalopt.rewrites": "count",
    "globalopt.degraded": "count",
    "cfg.builds": "count",
    "cfg.ms": "ms",
    **{
        f"dataflow.{solver}.{kind}": unit
        for solver in DATAFLOW_SOLVERS
        for kind, unit in (("calls", "count"), ("ms", "ms"))
    },
    "summaries.ms": "ms",
    "summaries.refined_sites": "count",
    "spillplan.ms": "ms",
    "spillplan.probes": "count",
    "spillplan.remats": "count",
    "spillplan.degraded": "count",
    "assemble.ms": "ms",
    "assemble.long_branches": "count",
    "simulate.ms": "ms",
    "simulate.steps_per_s": "1/s",
    "tables.warm_load_s": "s",
    "fallback.degraded": "count",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# Compile, run, check.
# ---------------------------------------------------------------------------


class SpeedClock:
    """Wall-clock intervals, rescaled to a reference host speed.

    The host's speed drifts by a quarter or more within minutes, and
    every sample drifts with it.  So beside each sample the benchmark times
    a fixed pure-Python kernel (:meth:`shot`) and rescales the sample by
    ``CAL_REF_S`` over the median kernel time of the ``NEAREST_SHOTS``
    timings nearest to it: the time the sample would have taken where
    the kernel takes ``CAL_REF_S``.  The kernel calls nothing in the
    repository, so a change to the compiler moves samples, not shots.
    """

    def __init__(self) -> None:
        #: (midpoint, seconds) of every kernel timing, in time order.
        self.shots: List[Tuple[float, float]] = []

    def shot(self) -> None:
        """Time the kernel -- dict, tuple, string and sort work, the
        kind the compiler does -- on an empty young heap."""
        gc.collect()
        t0 = perf_counter()
        table = {}
        for i in range(4000):
            table[("k", i % 97, i)] = [i, str(i)]
        sorted(table, key=lambda k: (k[1], -k[2]))
        t1 = perf_counter()
        del table
        gc.collect()
        self.shots.append(((t0 + t1) / 2, t1 - t0))

    def factor(self, start: float, end: float) -> float:
        """Reference-speed seconds per clock second around an interval."""
        mids = [t for t, _ in self.shots]
        i = bisect.bisect(mids, (start + end) / 2)
        half = NEAREST_SHOTS // 2
        near = self.shots[max(0, i - half): i + half]
        return CAL_REF_S / statistics.median(d for _, d in near)

    def at_reference(self, intervals: List[Tuple[float, float]]
                     ) -> List[float]:
        return [(e - s) * self.factor(s, e) for s, e in intervals]


@dataclass
class Measurement:
    """Samples and failures of one measured loop."""

    clock: SpeedClock = field(default_factory=SpeedClock)
    attempted: int = 0
    #: (start, end) clock readings of each timed compile and run.
    compiles: List[Tuple[float, float]] = field(default_factory=list)
    runs: List[Tuple[float, float]] = field(default_factory=list)
    lines: int = 0
    passes: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def compile_s(self) -> List[float]:
        return self.clock.at_reference(self.compiles)

    def run_s(self) -> List[float]:
        return self.clock.at_reference(self.runs)


#: Per program: (object records, steps, code bytes, output) of its first
#: successful compile and run; every later one must match exactly.
Fingerprints = Dict[str, Tuple[bytes, int, int, str]]


def verdict(result, expected: Optional[str]) -> str:
    """Why a run does not count as correct ('' when it does)."""
    if expected is None:
        return "oracle: the interpreter rejected the program"
    if result.trap:
        return f"trap: {result.trap}"
    if not result.halted:
        return "did not halt"
    if result.output != expected:
        return "output differs from the interpreter"
    return ""


def one_program(program: Program, expected: Optional[str], level: int,
                into: Measurement, reference: Fingerprints,
                tracer=None) -> Optional[dict]:
    """Compile, run and check one program; returns the compile's stats
    (``None`` when it raised).

    Garbage is collected before each timed call, outside the timed
    region (:meth:`SpeedClock.shot` does it), so a sample pays for the
    collections its own allocations trigger.
    """
    from repro.pascal import compile_source

    root = tracer.span if tracer is not None else (lambda _: nullcontext())
    into.attempted += 1
    into.clock.shot()
    try:
        t0 = perf_counter()
        with root("compile"):
            compiled = compile_source(program.source, opt_level=level)
        t1 = perf_counter()
        into.clock.shot()
        t2 = perf_counter()
        with root("run"):
            result = compiled.run(max_steps=STEP_LIMIT)
        t3 = perf_counter()
    except Exception as error:  # a compiler fault is a counted failure
        into.failures[f"{type(error).__name__}: {error}"] += 1
        return None
    into.clock.shot()
    into.compiles.append((t0, t1))
    into.runs.append((t2, t3))
    into.lines += program.lines
    reason = verdict(result, expected)
    fingerprint = (
        compiled.object_records, result.steps, len(compiled.module.code),
        result.output,
    )
    if not reason and reference.setdefault(program.name, fingerprint) != (
        fingerprint
    ):
        reason = "object code or run differs from an earlier compile"
    if reason:
        into.failures[reason] += 1
    return compiled.stats


def oracle(corpus: List[Program]) -> Dict[str, Optional[str]]:
    from repro.errors import ReproError
    from repro.pascal import interpret_source

    expected: Dict[str, Optional[str]] = {}
    for program in corpus:
        try:
            expected[program.name] = interpret_source(program.source)
        except ReproError:
            expected[program.name] = None
    return expected


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def time_setup(cache_dir: Path, clock: SpeedClock) -> Tuple[float, float]:
    """Seconds from spawning a fresh process until it has imported the
    compiler and built the tables cold into ``cache_dir``: at the
    reference speed, and as read from the clock."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               REPRO_BUILD_CACHE="1")
    for _ in range(NEAREST_SHOTS // 2):
        clock.shot()
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py")],
        stdout=subprocess.PIPE, env=env, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    for _ in range(NEAREST_SHOTS // 2):
        clock.shot()
    return elapsed * clock.factor(start, start + elapsed), elapsed


def warm_up(level: int) -> None:
    """One tiny compile and run: lazy imports of the optimizer modules
    happen here, outside both set-up and measurement."""
    from repro.pascal import compile_source

    compile_source(
        "program w; var a: integer; begin a := 2; writeln(a * 3) end.\n",
        opt_level=level,
    ).run(max_steps=STEP_LIMIT)


# ---------------------------------------------------------------------------
# The two modes.
# ---------------------------------------------------------------------------


def percentile(samples: List[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure_end_to_end(corpus, workload: Workload, seconds: float,
                       scratch: Path) -> Tuple[Measurement, Dict, List[str]]:
    m = Measurement()
    setups = [
        time_setup(scratch / f"setup-{i}", m.clock)
        for i in range(SETUP_REPEATS)
    ]
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "setup-0")
    from repro.pascal.compiler import cached_build

    cached_build()
    warm_up(workload.opt_level)
    expected = oracle(corpus)
    gc.collect()
    gc.freeze()  # set-up's heap is not the samples' garbage

    reference: Fingerprints = {}
    start = perf_counter()
    while m.passes == 0 or perf_counter() - start < seconds:
        for program in corpus:
            one_program(program, expected[program.name],
                        workload.opt_level, m, reference)
        m.passes += 1

    values: Dict[str, float] = {}
    notes: List[str] = [
        "setup seconds at reference speed / as read: "
        + ", ".join(f"{a:.3f}/{b:.3f}" for a, b in setups)
    ]
    if m.compiles:
        compile_s, run_s = m.compile_s(), m.run_s()
        tail = percentile(compile_s, workload.tail_pct)
        beyond = sum(1 for s in compile_s if s > tail)
        values.update({
            "compile_ms.p50": statistics.median(compile_s) * 1e3,
            "compile_ms.tail": tail * 1e3,
            "compile_lines_per_s": m.lines / sum(compile_s),
            "run_ms.p50": statistics.median(run_s) * 1e3,
        })
        notes += [
            f"compile_ms.tail is p{workload.tail_pct} of "
            f"{len(compile_s)} compiles ({beyond} beyond it)",
            "as read from the clock: compile_ms.p50 "
            f"{statistics.median(e - s for s, e in m.compiles) * 1e3:.3f}"
            ", run_ms.p50 "
            f"{statistics.median(e - s for s, e in m.runs) * 1e3:.3f}",
        ]
    values.update({
        "setup_s": statistics.median(a for a, _ in setups),
        "executed_instructions": sum(f[1] for f in reference.values()),
        "code_bytes": sum(f[2] for f in reference.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    })
    return m, values, notes


def measure_layers(corpus, workload: Workload, seconds: float,
                   scratch: Path, workload_name: str, seed: int
                   ) -> Tuple[Measurement, Dict, List[str]]:
    import spans as S

    os.environ["REPRO_CACHE_DIR"] = str(scratch / "trace-cache")
    from repro.core import buildcache
    from repro.machines.s370.spec import (
        extra_semops, machine_description, spec_text,
    )
    from repro.pascal.compiler import cached_build

    cached_build()  # cold: fills the private persistent cache
    plain, traced = Measurement(), Measurement()
    loads = []
    for _ in range(WARM_LOADS):
        plain.clock.shot()
        t0 = perf_counter()
        buildcache.cached_build(
            spec_text("full"), machine_description(),
            extra_semops=extra_semops(),
        )
        loads.append((t0, perf_counter()))
        plain.clock.shot()
    warm_up(workload.opt_level)
    expected = oracle(corpus)
    gc.collect()
    gc.freeze()

    tracer = S.Tracer()
    instrumentation = S.Instrumentation(tracer)
    reference: Fingerprints = {}
    totals = S.LayerTotals()
    pass_counts: List[Dict[str, int]] = []
    kept: List[Tuple[str, List[list]]] = []
    kept_spans = 0
    start = perf_counter()
    while plain.passes == 0 or perf_counter() - start < seconds:
        this_pass = S.LayerTotals()
        for program in corpus:
            want = expected[program.name]
            one_program(program, want, workload.opt_level, plain, reference)
            with instrumentation.active():
                stats = one_program(program, want, workload.opt_level,
                                    traced, reference, tracer)
            now = perf_counter()
            scale = traced.clock.factor(now, now)
            spans = tracer.drain()
            S.fold(spans, this_pass, scale)
            S.fold(spans, totals, scale)
            if stats is not None:
                this_pass.add_stats(stats)
                totals.add_stats(stats)
            if kept_spans + len(spans) <= MAX_SPANS_WRITTEN:
                kept.append((program.name, spans))
                kept_spans += len(spans)
        pass_counts.append(this_pass.deterministic_counts())
        plain.passes += 1
        traced.passes += 1

    span_file = SPAN_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
    S.write_spans(span_file, kept)

    passes = plain.passes
    counts = pass_counts[0]
    notes = [
        f"instrumented sites: {', '.join(instrumentation.sites())}",
        f"{kept_spans} spans written to {span_file.relative_to(ROOT)}",
    ]
    if any(c != counts for c in pass_counts[1:]):
        traced.failures["per-layer counts differ between passes"] += 1

    def ms(*names: str, own: bool = False) -> float:
        table = totals.self_time if own else totals.inclusive
        return sum(table[n] for n in names) * 1e3 / passes

    def per_instr(size: str) -> float:
        seconds_in, instrs = totals.peephole_size[size]
        return seconds_in * 1e6 / instrs if instrs else 0.0

    def calls(name: str) -> int:
        return counts.get(f"calls.{name}", 0)

    values: Dict[str, float] = {
        "frontend.ms": ms("frontend.parse", "frontend.check"),
        "shape.ms": ms("shape.irgen", "shape.optimize"),
        "linearize.ms": ms("linearize"),
        "select.ms": ms("select"),
        "peephole.ms": ms("peephole"),
        "peephole.us_per_instr.small": per_instr("small"),
        "peephole.us_per_instr.large": per_instr("large"),
        "effects.calls": calls("effects"),
        "effects.ms": ms("effects"),
        "effects.calls_per_instr": (
            calls("effects") / counts["peephole.instrs_in"]
            if counts.get("peephole.instrs_in") else 0.0
        ),
        "globalopt.ms": ms("globalopt", own=True),
        "cfg.builds": calls("cfg"),
        "cfg.ms": ms("cfg"),
        "summaries.ms": ms("summaries.compute", "summaries.apply"),
        "spillplan.ms": ms("spillplan.generate", "spillplan.plan", own=True),
        "assemble.ms": ms("assemble.resolve", "assemble.object"),
        "simulate.ms": ms("simulate"),
        "simulate.steps_per_s": (
            totals.counts["simulate.steps"] / totals.inclusive["simulate"]
            if totals.inclusive["simulate"] else 0.0
        ),
        "tables.warm_load_s": statistics.median(
            plain.clock.at_reference(loads)),
        "trace.overhead_pct": (
            (sum(traced.compile_s()) + sum(traced.run_s()))
            / (sum(plain.compile_s()) + sum(plain.run_s())) - 1
        ) * 100 if plain.compiles and traced.compiles else 0.0,
    }
    for solver in DATAFLOW_SOLVERS:
        values[f"dataflow.{solver}.calls"] = calls(f"dataflow.{solver}")
        values[f"dataflow.{solver}.ms"] = ms(f"dataflow.{solver}")
    for name in PER_LAYER:
        values.setdefault(name, counts.get(name, 0))

    merged = Measurement(
        attempted=plain.attempted + traced.attempted,
        passes=passes, failures=plain.failures + traced.failures,
    )
    return merged, values, notes


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--limit", type=int, default=None,
        help="measure only the first N programs of the corpus",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "pascal" / "compiler.py").is_file():
        print(f"error: no compiler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_BUILD_CACHE"] = "1"
    workload = WORKLOADS[args.workload]
    corpus = CORPORA[args.workload](args.seed)[: args.limit]
    scratch = SCRATCH / f"run-{os.getpid()}"
    try:
        if args.trace:
            m, values, notes = measure_layers(
                corpus, workload, args.seconds, scratch, args.workload,
                args.seed,
            )
            units = PER_LAYER
        else:
            m, values, notes = measure_end_to_end(
                corpus, workload, args.seconds, scratch,
            )
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed_share = m.failed / m.attempted
    print(f"workload {args.workload} (-O{workload.opt_level}), seed "
          f"{args.seed}: {len(corpus)} programs x {m.passes} passes")
    for note in notes:
        print(f"  {note}")
    for reason, n in sorted(m.failures.items()):
        print(f"  FAILED x{n}: {reason}")
    print(f"  {'failed_share':32} {failed_share:>14.6g} share")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0.0)  # 0 only when every compile failed
        print(f"  {name:32} {value:>14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
