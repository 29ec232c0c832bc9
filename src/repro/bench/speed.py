"""Benchmark trajectory harness: the fast-path runtime's speed record.

Measures the throughput story of the table-driven runtime end to end and
writes a versioned ``BENCH_speed.json`` so successive commits leave a
comparable trajectory:

* **tokens/second** through the skeletal parser on the straightline(250)
  workload, over the default dense tables and the paper-faithful
  compressed tables -- one coded runtime loop, two table
  representations;
* **table construction** phase times (spec parse, automaton, SLR
  resolution, compression);
* **cold vs. warm start** through the persistent build cache, including
  the warm-start automaton-construction count (must be zero);
* **simulator steps/second** (schema 2) through the predecoded
  direct-threaded dispatch, gated on every gate workload's output
  matching the reference interpreter;
* **end-to-end throughput** (schema 2): per-phase medians from the
  pipeline profiler, plus batch-compilation routines/second serial vs.
  parallel with byte-identical outputs asserted before timing.

All times are medians of N runs; the JSON carries machine info and the
git revision so numbers from different checkouts are never conflated.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

#: Bump when the JSON layout changes incompatibly.
#: 2: added the ``simulator`` and ``end_to_end`` sections.
#: 3: ``end_to_end.phases`` gained the ``peephole`` phase (-O1 default).
#: 4: the parallel batch lane is timed over the *persistent* worker
#:    pool (``pool_reused``/``parallel_cold_wall_s`` added;
#:    ``parallel_wall_s`` is now the warm-pool run), and single-core
#:    hosts skip pool spawn entirely (``parallel_mode`` == "serial").
#: 5: runtime specialization lanes.  ``codegen`` gains the
#:    ``specialized`` lane (tables compiled to a generated Python
#:    module) plus ``lanes_identical`` and
#:    ``speedup_specialized_vs_compressed``; ``simulator`` gains the
#:    ``fused`` superinstruction lane plus
#:    ``speedup_fused_vs_predecode`` and per-chain ``fusion_hits``.
#: 6: one code-generator runtime.  The ``specialized`` and
#:    ``legacy_string`` codegen lanes and the ``fused`` simulator lane
#:    (with ``fusion``) are gone; codegen reports
#:    ``speedup_dense_vs_compressed``.
#: 7: one simulator lane.  ``simulator`` drops the ``legacy`` lane and
#:    ``speedup_predecode_vs_legacy``; its gate compares each workload's
#:    output with the reference interpreter (``outputs_match_interp``
#:    replaces ``lanes_identical``).
SCHEMA_VERSION = 7

DEFAULT_REPORT = "BENCH_speed.json"


def _median_times(fn: Callable[[], Any], iterations: int) -> Dict[str, Any]:
    """Run ``fn`` N times; report median/min plus the raw samples."""
    samples: List[float] = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "samples_s": samples,
    }


def _machine_info() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip() or "unknown"
    except OSError:  # pragma: no cover - no git in environment
        return "unknown"


def measure_table_build(variant: str = "full") -> Dict[str, Any]:
    """Phase times for one cold CoGG build of the S/370 spec."""
    from repro.core.grammar import build_sdts
    from repro.core.lr.automaton import build_automaton
    from repro.core.lr.compress import compress_tables
    from repro.core.lr.slr import build_parse_tables
    from repro.core.speclang.parser import parse_spec
    from repro.core.speclang.semops import merged_semops
    from repro.core.speclang.typecheck import check_spec
    from repro.machines.s370.spec import extra_semops, spec_text

    text = spec_text(variant)
    timings: Dict[str, Any] = {}
    t0 = time.perf_counter()
    spec = parse_spec(text)
    symtab = check_spec(spec, merged_semops(extra_semops()))
    sdts = build_sdts(spec, symtab)
    timings["spec_to_sdts_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    automaton = build_automaton(sdts)
    timings["automaton_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    tables, conflicts = build_parse_tables(sdts, automaton)
    timings["slr_tables_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    compressed = compress_tables(tables)
    timings["compress_s"] = time.perf_counter() - t0
    timings["total_s"] = sum(timings.values())
    timings["nstates"] = tables.nstates
    timings["nconflicts"] = len(conflicts)
    timings["compressed_bytes"] = compressed.size_bytes()
    timings["dense_bytes"] = tables.size_bytes()
    return timings


def measure_codegen(
    iterations: int = 9,
    assignments: int = 250,
    seed: int = 9,
    variant: str = "full",
) -> Dict[str, Any]:
    """Tokens/second over the dense and the compressed parse tables.

    Both lanes generate the same workload with the same build's SDTS on
    the same machine in the same process, so the reported ratio
    isolates the table representation -- not machine load or Python
    startup.  The harness asserts both lanes emit an identical
    instruction stream before timing anything.
    """
    from repro.core.codegen.parser_rt import CodeGenerator
    from repro.bench.workloads import straightline
    from repro.pascal.compiler import cached_build
    from repro.pascal.irgen import generate_ir
    from repro.pascal.parser import parse_source
    from repro.pascal.sema import check_program

    build = cached_build(variant)
    compressed_gen = CodeGenerator(
        build.sdts, build.compressed, build.machine
    )

    program = check_program(parse_source(straightline(assignments, seed=seed)))
    ir = generate_ir(program)
    dense_tokens = ir.tokens(codes=build.tables.sym_index)
    compressed_tokens = ir.tokens(codes=build.compressed.sym_index)
    ntokens = len(dense_tokens)
    frame = ir.spill_frame

    lanes = {
        "dense": (build.code_generator, dense_tokens),
        "compressed": (compressed_gen, compressed_tokens),
    }

    # Correctness gate: identical instruction streams across lanes.
    streams = {
        name: [
            str(item)
            for item in gen.generate(list(toks), frame=frame).buffer.items
        ]
        for name, (gen, toks) in lanes.items()
    }
    reference = streams["dense"]
    for name, stream in streams.items():
        if stream != reference:
            raise AssertionError(
                f"lane {name!r} diverged from the dense lane "
                f"({len(stream)} vs {len(reference)} items)"
            )

    result: Dict[str, Any] = {
        "workload": f"straightline({assignments}, seed={seed})",
        "tokens": ntokens,
        "instructions": len(reference),
        "iterations": iterations,
        "lanes_identical": True,
    }
    # Interleave the lanes round-robin so slow machine drift (thermal
    # throttling, a background process) lands on every lane equally
    # instead of biasing whichever lane happened to run last.
    samples: Dict[str, List[float]] = {name: [] for name in lanes}
    for _ in range(iterations):
        for name, (gen, toks) in lanes.items():
            start = time.perf_counter()
            gen.generate(list(toks), frame=frame)
            samples[name].append(time.perf_counter() - start)
    for name, lane_samples in samples.items():
        median = statistics.median(lane_samples)
        result[name] = {
            "median_s": median,
            "min_s": min(lane_samples),
            "samples_s": lane_samples,
            "tokens_per_s": ntokens / median,
        }
    result["speedup_dense_vs_compressed"] = (
        result["compressed"]["median_s"] / result["dense"]["median_s"]
    )
    return result


def measure_cold_warm(variant: str = "full") -> Dict[str, Any]:
    """Cold vs. warm build through the persistent cache (isolated dir).

    The warm pass must perform zero automaton constructions -- measured
    via :mod:`repro.core.buildstats`, not inferred from timing.
    """
    from repro.core import buildstats
    from repro.core.buildcache import cached_build as persistent_build
    from repro.machines.s370.spec import (
        extra_semops,
        machine_description,
        spec_text,
    )

    text = spec_text(variant)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache_dir = Path(tmp)
        t0 = time.perf_counter()
        persistent_build(
            text, machine_description(), extra_semops=extra_semops(),
            cache_dir=cache_dir,
        )
        cold_s = time.perf_counter() - t0
        before = buildstats.snapshot()
        t0 = time.perf_counter()
        persistent_build(
            text, machine_description(), extra_semops=extra_semops(),
            cache_dir=cache_dir,
        )
        warm_s = time.perf_counter() - t0
        after = buildstats.snapshot()
    warm_automaton_builds = (
        after["automaton_builds"] - before["automaton_builds"]
    )
    warm_table_builds = after["table_builds"] - before["table_builds"]
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "warm_automaton_builds": warm_automaton_builds,
        "warm_table_builds": warm_table_builds,
        "warm_cache_hits": after["cache_hits"] - before["cache_hits"],
    }


def _gate_workloads() -> List:
    """(name, source) pairs the simulator must run like the interpreter."""
    from repro.bench import workloads as W

    return [
        ("appendix1_equation", W.appendix1_equation()),
        ("appendix1_fragment", W.appendix1_fragment()),
        ("straightline(60)", W.straightline(60, seed=3)),
        ("expression_chain(12)", W.expression_chain(12)),
        ("branch_ladder(40)", W.branch_ladder(40)),
        ("array_kernel(12)", W.array_kernel(12)),
        ("cse_workload(4)", W.cse_workload(4)),
        ("loop_kernel(300)", W.loop_kernel(300)),
    ]


def measure_simulator(
    iterations: int = 9, variant: str = "full"
) -> Dict[str, Any]:
    """Steps/second through the predecoded dispatch lane.

    Correctness gate first: every gate workload must halt without a
    trap and print exactly what the reference interpreter prints.  Only
    then is the loop-heavy kernel timed.
    """
    from repro.bench.workloads import loop_kernel
    from repro.machines.s370.simulator import Simulator
    from repro.pascal.compiler import compile_source
    from repro.pascal.interp import interpret_source

    # -- correctness gate ------------------------------------------------
    checked = []
    for name, source in _gate_workloads():
        run = compile_source(source, variant=variant).run()
        expected = interpret_source(source)
        if not run.halted or run.trap is not None or run.output != expected:
            raise AssertionError(
                f"simulator diverged from the interpreter on workload "
                f"{name!r}: {run!r}, expected output {expected!r}"
            )
        checked.append(name)

    # -- timing ----------------------------------------------------------
    image = compile_source(loop_kernel(1500), variant=variant).image()
    samples: List[float] = []
    nsteps = None
    for _ in range(iterations):
        sim = Simulator()
        sim.load_image(image)
        start = time.perf_counter()
        run = sim.run()
        samples.append(time.perf_counter() - start)
        if nsteps is not None and run.steps != nsteps:
            raise AssertionError(
                f"simulator executed {run.steps} steps, expected {nsteps}"
            )
        nsteps = run.steps

    from repro.bench.metrics import steps_per_second

    median = statistics.median(samples)
    return {
        "workload": "loop_kernel(1500)",
        "steps": nsteps,
        "iterations": iterations,
        "outputs_match_interp": True,
        "gate_workloads": checked,
        "predecoded": {
            "median_s": median,
            "min_s": min(samples),
            "samples_s": samples,
            "steps_per_s": steps_per_second(nsteps, median),
        },
    }


def measure_end_to_end(
    iterations: int = 9,
    variant: str = "full",
    jobs: int = 0,
) -> Dict[str, Any]:
    """Per-phase medians and batch throughput, serial vs. parallel.

    The parallel batch lane is asserted byte-identical to the serial
    lane (object-record digests and program outputs, in order) before
    its throughput is reported.  The lane is timed twice: a cold call
    (which may spawn the persistent worker pool) and a warm call that
    reuses it -- ``parallel_wall_s`` is the warm number, because pool
    spawn is a once-per-process cost, not a per-batch one.  On a
    single-core host the batch driver skips pool spawn entirely
    (``parallel_mode`` is ``"serial"``) and ``speedup_expected`` is
    false: the contract there is graceful no-regression (identical
    outputs, zero worker table builds), not a speedup.
    """
    from repro.bench.workloads import batch_programs, loop_kernel
    from repro.pascal.compiler import cached_build, compile_source
    from repro.pipeline.batch import compile_batch
    from repro.pipeline.profile import PhaseProfiler, median_phases

    cached_build(variant)  # keep table construction out of phase medians

    # -- per-phase medians over compile + run ----------------------------
    source = loop_kernel(400)
    profiles: List[Dict[str, float]] = []
    for _ in range(iterations):
        profiler = PhaseProfiler()
        compiled = compile_source(source, variant=variant,
                                  profiler=profiler)
        compiled.run(profiler=profiler)
        profiles.append(profiler.as_dict())

    cpu_count = os.cpu_count() or 1
    parallel_jobs = jobs if jobs and jobs > 1 else min(4, max(2, cpu_count))

    # -- batch throughput ------------------------------------------------
    programs = batch_programs(count=8, assignments=40)
    serial = compile_batch(programs, jobs=1, variant=variant)
    cold = compile_batch(programs, jobs=parallel_jobs, variant=variant)
    parallel = compile_batch(programs, jobs=parallel_jobs, variant=variant)

    if not (serial.ok and cold.ok and parallel.ok):
        raise AssertionError("batch bench lane failed to compile cleanly")
    serial_ids = [(r.name, r.object_sha256, r.output)
                  for r in serial.results]
    for lane in (cold, parallel):
        lane_ids = [(r.name, r.object_sha256, r.output)
                    for r in lane.results]
        if serial_ids != lane_ids:
            raise AssertionError(
                "parallel batch diverged from serial batch output"
            )

    return {
        "workload": "loop_kernel(400)",
        "iterations": iterations,
        "phases": median_phases(profiles),
        "batch": {
            "programs": len(programs),
            "total_routines": serial.total_routines,
            "jobs": parallel_jobs,
            "cpu_count": cpu_count,
            "multi_core": cpu_count >= 2,
            "speedup_expected": cpu_count >= 2 and parallel_jobs >= 2,
            "serial_wall_s": serial.wall_s,
            "parallel_cold_wall_s": cold.wall_s,
            "parallel_wall_s": parallel.wall_s,
            "serial_routines_per_s": serial.routines_per_s,
            "parallel_routines_per_s": parallel.routines_per_s,
            "speedup_parallel_vs_serial": (
                serial.wall_s / parallel.wall_s
                if parallel.wall_s > 0 else 0.0
            ),
            "parallel_mode": parallel.mode,
            "pool_reused": parallel.pool_reused,
            "degraded_reason": parallel.degraded_reason,
            "worker_builds": parallel.worker_builds(),
            "outputs_identical": True,
        },
    }


def run_bench(
    iterations: int = 9,
    assignments: int = 250,
    seed: int = 9,
    variant: str = "full",
    jobs: int = 0,
) -> Dict[str, Any]:
    """The full trajectory measurement, as one JSON-ready document."""
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "git_rev": _git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": _machine_info(),
        "variant": variant,
        "codegen": measure_codegen(
            iterations=iterations, assignments=assignments,
            seed=seed, variant=variant,
        ),
        "table_build": measure_table_build(variant),
        "build_cache": measure_cold_warm(variant),
        "simulator": measure_simulator(
            iterations=iterations, variant=variant
        ),
        "end_to_end": measure_end_to_end(
            iterations=iterations, variant=variant, jobs=jobs
        ),
    }
    return report


def write_report(report: Dict[str, Any], path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Schema check for CI: returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    for key in ("git_rev", "timestamp", "machine", "codegen",
                "table_build", "build_cache", "simulator", "end_to_end"):
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    codegen = report.get("codegen", {})
    for lane in ("dense", "compressed"):
        timing = codegen.get(lane)
        if not isinstance(timing, dict):
            problems.append(f"missing codegen lane {lane!r}")
            continue
        for field in ("median_s", "min_s", "samples_s", "tokens_per_s"):
            if field not in timing:
                problems.append(f"codegen.{lane} missing {field!r}")
    if not isinstance(
        codegen.get("speedup_dense_vs_compressed"), (int, float)
    ):
        problems.append(
            "codegen.speedup_dense_vs_compressed missing or non-numeric"
        )
    if codegen.get("lanes_identical") is not True:
        problems.append("codegen.lanes_identical is not true")
    cache = report.get("build_cache", {})
    if cache.get("warm_automaton_builds") != 0:
        problems.append(
            "build_cache.warm_automaton_builds is "
            f"{cache.get('warm_automaton_builds')!r}, expected 0"
        )
    simulator = report.get("simulator", {})
    timing = simulator.get("predecoded")
    if not isinstance(timing, dict):
        problems.append("missing simulator lane 'predecoded'")
    else:
        for field in ("median_s", "min_s", "samples_s", "steps_per_s"):
            if field not in timing:
                problems.append(f"simulator.predecoded missing {field!r}")
    if simulator.get("outputs_match_interp") is not True:
        problems.append("simulator.outputs_match_interp is not true")
    end_to_end = report.get("end_to_end", {})
    phases = end_to_end.get("phases")
    if not isinstance(phases, dict):
        problems.append("end_to_end.phases missing")
    else:
        from repro.pipeline.profile import PHASES

        for phase in PHASES:
            if phase not in phases:
                problems.append(f"end_to_end.phases missing {phase!r}")
    batch = end_to_end.get("batch", {})
    if not isinstance(batch, dict):
        problems.append("end_to_end.batch missing")
    else:
        for field in ("serial_routines_per_s", "parallel_routines_per_s",
                      "speedup_parallel_vs_serial"):
            if not isinstance(batch.get(field), (int, float)):
                problems.append(
                    f"end_to_end.batch.{field} missing or non-numeric"
                )
        if batch.get("outputs_identical") is not True:
            problems.append("end_to_end.batch.outputs_identical is not true")
        if not isinstance(batch.get("pool_reused"), bool):
            problems.append("end_to_end.batch.pool_reused missing")
        if batch.get("parallel_mode") not in ("serial", "parallel"):
            problems.append(
                f"end_to_end.batch.parallel_mode is "
                f"{batch.get('parallel_mode')!r}"
            )
        if (batch.get("parallel_mode") == "parallel"
                and batch.get("pool_reused") is not True):
            problems.append(
                "end_to_end.batch: warm parallel run did not reuse "
                "the persistent pool"
            )
        builds = batch.get("worker_builds", {})
        if builds.get("automaton_builds", 0) != 0:
            problems.append(
                "end_to_end.batch.worker_builds.automaton_builds is "
                f"{builds.get('automaton_builds')!r}, expected 0"
            )
    return problems


def render_summary(report: Dict[str, Any]) -> str:
    """A terminal-friendly digest of one report."""
    cg = report["codegen"]
    tb = report["table_build"]
    bc = report["build_cache"]
    lines = [
        f"# bench @ {report['git_rev']} ({report['timestamp']})",
        f"workload: {cg['workload']}  "
        f"({cg['tokens']} tokens -> {cg['instructions']} instructions, "
        f"median of {cg['iterations']})",
        "",
        "lane               tokens/s      median",
    ]
    for lane in ("dense", "compressed"):
        t = cg[lane]
        lines.append(
            f"{lane:<16s} {t['tokens_per_s']:>10,.0f}  "
            f"{1000 * t['median_s']:>8.1f} ms"
        )
    lines += [
        "",
        f"dense vs compressed: {cg['speedup_dense_vs_compressed']:.2f}x",
        f"table build: {1000 * tb['total_s']:.0f} ms "
        f"(automaton {1000 * tb['automaton_s']:.0f}, "
        f"slr {1000 * tb['slr_tables_s']:.0f}, "
        f"compress {1000 * tb['compress_s']:.0f})",
        f"build cache: cold {1000 * bc['cold_s']:.0f} ms, "
        f"warm {1000 * bc['warm_s']:.0f} ms "
        f"({bc['speedup']:.1f}x; warm automaton builds: "
        f"{bc['warm_automaton_builds']})",
    ]
    sim = report.get("simulator")
    if sim:
        lines += [
            "",
            f"simulator ({sim['workload']}, {sim['steps']} steps):",
            f"  predecoded {sim['predecoded']['steps_per_s']:>12,.0f} steps/s",
        ]
    e2e = report.get("end_to_end")
    if e2e:
        phase_bits = ", ".join(
            f"{name} {1000 * seconds:.1f}"
            for name, seconds in e2e["phases"].items()
        )
        batch = e2e["batch"]
        lines += [
            "",
            f"end-to-end phase medians (ms): {phase_bits}",
            f"batch ({batch['programs']} programs, "
            f"jobs={batch['jobs']}, cpus={batch['cpu_count']}): "
            f"serial {batch['serial_routines_per_s']:.1f} routines/s, "
            f"parallel {batch['parallel_routines_per_s']:.1f} routines/s "
            f"({batch['speedup_parallel_vs_serial']:.2f}x"
            + (", pool reused" if batch.get("pool_reused") else "")
            + ("" if batch["speedup_expected"]
               else "; single-core host, pool spawn skipped")
            + ")",
        ]
    return "\n".join(lines)
