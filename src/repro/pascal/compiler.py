"""The compiler driver: Pascal source -> object module -> simulator.

This is the "production Pascal compiler" pipeline of the paper, end to
end::

    source --parse/sema--> AST --irgen/shaper--> IF trees
           --IF optimizer (CSE)--> IF trees
           --linearize--> IF tokens
           --table-driven code generator--> symbolic code buffer
           --loader record generator--> resolved module + object records
           --loader + simulator--> output

Code generators (one per spec variant) are built once and cached: table
construction is the expensive part, and the paper's whole point is that
the *tables* are the product.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cogg import BuildResult
from repro.errors import CodeGenError
from repro.core.codegen.emitter import Instr
from repro.core.codegen.loader_records import ResolvedModule, resolve_module
from repro.core.codegen.parser_rt import GeneratedCode
from repro.ir.linear import IFToken
from repro.ir.optimizer import optimize_routine
from repro.machines.s370 import runtime
from repro.machines.s370.objmod import write_object
from repro.machines.s370.simulator import SimResult, Simulator
from repro.pipeline.profile import NULL_PROFILER, PhaseProfiler
from repro.pascal import ast as A
from repro.pascal.irgen import IRProgram, generate_ir
from repro.pascal.parser import parse_source
from repro.pascal.sema import check_program

_BUILD_CACHE: Dict[str, BuildResult] = {}


def default_opt_level() -> int:
    """The optimization level used when the caller passes none.

    ``REPRO_OPT_LEVEL`` overrides the built-in default of 1 (the CI
    matrix runs the whole suite with it set to 3 to catch
    level-dependent assumptions).
    """
    raw = os.environ.get("REPRO_OPT_LEVEL", "").strip()
    if raw in ("0", "1", "2", "3", "4"):
        return int(raw)
    return 1


def _count_spill_traffic(generated: GeneratedCode) -> Dict[str, int]:
    """Spill stores and reloads surviving in the final code buffer."""
    stores = reloads = 0
    for item in generated.buffer.items:
        if not isinstance(item, Instr) or not item.comment:
            continue
        if item.comment.startswith("spill"):
            stores += 1
        elif item.comment == "reload spilled operand":
            reloads += 1
    return {"spill_stores": stores, "reloads": reloads}


def cached_build(variant: str = "full", table_mode: str = "dense") -> BuildResult:
    """The CoGG build for one S/370 spec variant.

    Two-level cache: an in-process memo on top of the persistent
    artifact cache (:mod:`repro.core.buildcache`), so a warm second
    compile -- even in a new process -- skips table construction
    entirely and only re-reads the spec text.
    """
    key = f"{variant}:{table_mode}"
    build = _BUILD_CACHE.get(key)
    if build is None:
        from repro.core.buildcache import cached_build as _persistent_build
        from repro.machines.s370.spec import (
            extra_semops,
            machine_description,
            spec_text,
        )

        build = _persistent_build(
            spec_text(variant),
            machine_description(),
            extra_semops=extra_semops(),
            table_mode=table_mode,
        )
        _BUILD_CACHE[key] = build
    return build


@dataclass
class CompiledProgram:
    """Everything produced for one source program."""

    program: A.Program
    ir: IRProgram
    tokens: List[IFToken]
    generated: GeneratedCode
    module: ResolvedModule
    object_records: bytes
    variant: str
    cse_count: int = 0
    stats: Dict[str, object] = field(default_factory=dict)
    #: routines that degraded to the baseline generator (fallback mode).
    fallback_events: List = field(default_factory=list)
    #: peephole rewrite log + listings (populated with ``peephole_trace``).
    peephole_events: List = field(default_factory=list)
    asm_before: Optional[str] = None
    asm_after: Optional[str] = None

    def instructions(self) -> List[str]:
        """Mnemonic listing lines of the resolved module."""
        return [line.text for line in self.module.listing_lines]

    def listing(self) -> str:
        return self.module.listing()

    def image(self) -> runtime.ExecutableImage:
        return runtime.ExecutableImage(
            code=self.module.code,
            entry=self.module.entry,
            data=self.ir.data,
            relocations=list(self.module.relocations),
        )

    def run(
        self,
        max_steps: int = 2_000_000,
        input_values=None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> SimResult:
        """Execute on a fresh simulator."""
        prof = profiler if profiler is not None else NULL_PROFILER
        simulator = Simulator(input_values=input_values)
        simulator.load_image(self.image())
        with prof.phase("simulate"):
            return simulator.run(max_steps=max_steps)


def compile_program(
    program: A.Program,
    variant: str = "full",
    optimize: bool = True,
    checks: bool = False,
    debug: bool = False,
    fallback: bool = False,
    build: Optional[BuildResult] = None,
    table_mode: str = "dense",
    profiler: Optional[PhaseProfiler] = None,
    opt_level: Optional[int] = None,
    peephole_rules: Optional[List[str]] = None,
    peephole_trace: bool = False,
) -> CompiledProgram:
    """Compile a checked AST with the table-driven code generator.

    ``checks`` inserts subscript range checking (trapping through the
    runtime's underflow/overflow handlers, paper productions 124-125);
    ``debug`` emits STMT_RECORD markers so the listing is annotated with
    source line numbers.

    ``fallback`` enables graceful degradation: the program is generated
    one routine at a time, and a routine whose table-driven parse raises
    a :class:`~repro.errors.CodeGenError` is re-generated with the
    hand-written baseline generator instead of failing the whole
    compilation.  Degradations are recorded in ``fallback_events``.
    ``build`` substitutes a specific CoGG build for the cached one
    (used by the fault-injection harness to compile against deliberately
    crippled tables).  ``profiler`` (a
    :class:`~repro.pipeline.profile.PhaseProfiler`) accumulates
    per-phase wall times; omitted, the phases cost nothing.

    ``opt_level`` selects the post-selection pipeline: ``0`` assembles
    the selector's output untouched, ``1`` (the default; overridable via
    ``REPRO_OPT_LEVEL``) runs the :mod:`repro.opt.peephole` pass first,
    ``2`` additionally runs the global CFG/dataflow optimizer
    (:mod:`repro.opt.globalopt`; its per-pass hit counts land in
    ``stats["global"]``, and any fact integrity failure degrades back to
    the ``-O1`` output with a ``degraded_reason`` instead of risking
    wrong code).  ``3`` adds the two remaining dataflow clients: code is
    selected through the liveness-planned register allocator
    (:mod:`repro.opt.spillplan`; ``stats["regalloc"]``) and the global
    optimizer additionally runs its value-based CSE passes.  Both
    degrade independently -- to plain LRU selection and to the ``-O2``
    pass set -- whenever their facts fail verification.  ``4`` computes
    interprocedural effect summaries (:mod:`repro.opt.summaries`): the
    global passes keep facts alive across refined call sites and the
    spill planner rematerializes cheap values instead of spilling them;
    a summaries integrity failure degrades to genuine ``-O3`` output.
    ``peephole_rules`` narrows the peephole to a subset of
    :data:`repro.opt.peephole.ALL_RULES`; ``peephole_trace`` records
    every rewrite plus before/after listings (``compile --dump-asm``).
    """
    prof = profiler if profiler is not None else NULL_PROFILER
    if opt_level is None:
        opt_level = default_opt_level()
    with prof.phase("shape"):
        ir = generate_ir(program, checks=checks, debug=debug)
        # The baseline fallback has no CSE support, so keep the
        # pre-optimization trees for any routine that needs re-generation.
        original_statements = (
            [list(r.statements) for r in ir.routines] if fallback else None
        )
        cse_count = 0
        if optimize:
            next_id = 1
            for routine in ir.routines:
                new_stmts, next_id, added = optimize_routine(
                    routine.statements,
                    routine.frame,
                    next_cse_id=next_id,
                    base_reg=runtime.R_STACK_BASE,
                )
                routine.statements = new_stmts
                cse_count += added
    if build is None:
        with prof.phase("tables"):
            build = cached_build(variant, table_mode=table_mode)
    # Stamp interned symbol codes at linearization time (from the build
    # actually generating the code) so the parser's hot loop starts coded.
    with prof.phase("linearize"):
        tokens = ir.tokens(codes=build.code_generator.tables.sym_index)
    fallback_events: List = []
    regalloc_stats: Dict[str, object] = {
        "strategy": "lru", "degraded_reason": "",
        "iterations": 0, "remat_count": 0,
    }
    with prof.phase("select"):
        if fallback:
            from repro.robustness.degrade import generate_with_fallback

            generated, fallback_events = generate_with_fallback(
                build, ir, original_statements
            )
        elif opt_level >= 3:
            from repro.opt.spillplan import generate_with_liveness

            generated, regalloc_stats = generate_with_liveness(
                build, tokens, frame=ir.spill_frame, level=opt_level
            )
        else:
            generated = build.code_generator.generate(
                tokens, frame=ir.spill_frame
            )
    peephole_events: List = []
    asm_before = asm_after = None
    peephole_stats: Dict[str, object] = {"total": 0, "iterations": 0, "hits": {}}
    global_stats: Dict[str, object] = {
        "total": 0, "iterations": 0, "hits": {}, "degraded_reason": "",
    }
    if opt_level >= 1:
        from repro.opt.peephole import run_peephole

        with prof.phase("peephole"):
            if peephole_trace:
                asm_before = generated.listing()
            peep = run_peephole(
                generated, rules=peephole_rules, trace=peephole_trace
            )
            peephole_events = peep.events
            peephole_stats = peep.as_dict()
    if opt_level >= 2:
        from repro.opt.globalopt import run_global

        with prof.phase("globalopt"):
            glob = run_global(
                generated, build.machine.encoder, trace=peephole_trace,
                level=opt_level,
            )
            global_stats = glob.as_dict()
            peephole_events = peephole_events + glob.events
    if opt_level >= 1 and peephole_trace:
        asm_after = generated.listing()
    # Spill traffic surviving all optimization, for every level: the
    # codequality bench compares these counts across its lanes.
    regalloc_stats = dict(regalloc_stats)
    regalloc_stats.update(_count_spill_traffic(generated))
    with prof.phase("assemble"):
        module = resolve_module(
            generated, build.machine, entry_label=ir.main_label
        )
        records = write_object(
            module, data=ir.data, name=program.name[:8].upper()
        )
    return CompiledProgram(
        program=program,
        ir=ir,
        tokens=tokens,
        generated=generated,
        module=module,
        object_records=records,
        variant=variant,
        cse_count=cse_count,
        stats={
            "tokens": len(tokens),
            "reductions": generated.reductions,
            "code_bytes": len(module.code),
            "short_branches": module.short_branches,
            "long_branches": module.long_branches,
            "fallback_routines": [e.routine for e in fallback_events],
            "opt_level": opt_level,
            "peephole": peephole_stats,
            "global": global_stats,
            "regalloc": regalloc_stats,
        },
        fallback_events=fallback_events,
        peephole_events=peephole_events,
        asm_before=asm_before,
        asm_after=asm_after,
    )


def compile_source(
    source: str,
    variant: str = "full",
    optimize: bool = True,
    checks: bool = False,
    debug: bool = False,
    fallback: bool = False,
    build: Optional[BuildResult] = None,
    table_mode: str = "dense",
    profiler: Optional[PhaseProfiler] = None,
    opt_level: Optional[int] = None,
    peephole_rules: Optional[List[str]] = None,
    peephole_trace: bool = False,
) -> CompiledProgram:
    """Compile Pascal source text end to end."""
    prof = profiler if profiler is not None else NULL_PROFILER
    with prof.phase("frontend"):
        program = check_program(parse_source(source))
    return compile_program(
        program, variant=variant, optimize=optimize, checks=checks,
        debug=debug, fallback=fallback, build=build,
        table_mode=table_mode, profiler=profiler, opt_level=opt_level,
        peephole_rules=peephole_rules, peephole_trace=peephole_trace,
    )


def run_source(
    source: str,
    variant: str = "full",
    optimize: bool = True,
    checks: bool = False,
    max_steps: int = 2_000_000,
    opt_level: Optional[int] = None,
) -> SimResult:
    """Compile and execute on the simulator; returns the run result."""
    return compile_source(
        source, variant=variant, optimize=optimize, checks=checks,
        opt_level=opt_level,
    ).run(max_steps=max_steps)
