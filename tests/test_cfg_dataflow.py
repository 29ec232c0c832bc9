"""Unit tests: the CFG builder and the dataflow framework (repro.opt).

Structure (leaders, edges, skip spans, roots, degradation), each solver
(liveness, reaching defs, def-use chains, memory deadness, available
stores, available copies), the may-def modelling of branch index
registers, the exact-snapshot fact seal of every solver with the chaos
hook, and the effect-table coverage contract of both encoders.
"""

import pytest

from repro.core.codegen.emitter import (
    AConSite,
    BranchSite,
    CodeBuffer,
    DataBlock,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
    StmtMark,
)
from repro.core.effects import InstrEffects
from repro.errors import DataflowError
from repro.machines.s370.spec import machine_description
from repro.opt import dataflow as DF
from repro.opt.cfg import build_cfg, compute_skip_spans, to_dot
from repro.opt.dataflow import (
    CC,
    ENTRY,
    available_copies,
    available_exprs,
    available_stores,
    def_use_chains,
    liveness,
    memory_deadness,
    reaching_defs,
    walk_live,
    walk_mem_dead,
)

ENC = machine_description().encoder

MEM = Mem(100, 0, 13)
OTHER = Mem(200, 0, 13)

#: Every sealed solver; its ``Solution.name`` is the key with ``-`` for ``_``.
SOLVERS = {
    "liveness": liveness,
    "reaching_defs": reaching_defs,
    "memory_deadness": memory_deadness,
    "available_stores": available_stores,
    "available_exprs": lambda cfg: available_exprs(
        cfg, ENC.expression_ops()
    ),
    "available_copies": available_copies,
}


def buf(items, deaths=()):
    buffer = CodeBuffer()
    buffer.items = list(items)
    buffer.deaths = list(deaths)
    return buffer


class TestCfgStructure:
    def test_straight_line_is_one_block(self):
        cfg = build_cfg(buf([
            Instr("la", (R(1), Mem(5, 0, 0))),
            Instr("lr", (R(2), R(1))),
        ]), ENC)
        assert cfg.ok
        assert cfg.nblocks == 1
        assert cfg.blocks[0].exits  # falls off the end

    def test_conditional_branch_makes_diamond(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("lr", (R(2), R(1))),
            LabelMark(1),
            Instr("ar", (R(2), R(2))),
        ]), ENC)
        assert cfg.ok
        assert cfg.nblocks == 3
        assert sorted(cfg.blocks[0].succs) == [1, 2]
        assert cfg.blocks[1].succs == [2]
        assert cfg.label_block[1] == 2
        assert cfg.reachable == frozenset({0, 1, 2})

    def test_unconditional_branch_has_single_successor(self):
        cfg = build_cfg(buf([
            BranchSite(cond=15, label=3, index_reg=0),
            Instr("lr", (R(2), R(1))),  # unreachable
            LabelMark(3),
        ]), ENC)
        assert cfg.ok
        assert cfg.blocks[0].succs == [2]
        assert 1 not in cfg.reachable

    def test_halt_block_has_no_successors(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("svc", (Imm(0),)),
            Instr("lr", (R(2), R(1))),
        ]), ENC)
        assert cfg.blocks[0].halts
        assert not cfg.blocks[0].succs

    def test_call_target_is_a_root(self):
        site = BranchSite(cond=15, label=9, index_reg=0, link_reg=14)
        cfg = build_cfg(buf([
            site,
            LabelMark(9),
            Instr("ar", (R(1), R(1))),
        ]), ENC)
        assert cfg.ok
        assert cfg.label_block[9] in cfg.roots

    def test_address_taken_label_is_a_root(self):
        cfg = build_cfg(buf([
            AConSite(label=4),
            LabelMark(4),
            Instr("ar", (R(1), R(1))),
        ]), ENC)
        assert cfg.label_block[4] in cfg.roots

    def test_branch_to_undefined_label_degrades(self):
        cfg = build_cfg(buf([BranchSite(cond=15, label=77, index_reg=0)]),
                        ENC)
        assert not cfg.ok
        assert "L77" in cfg.reason

    def test_label_inside_skip_span_degrades(self):
        cfg = build_cfg(buf([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            LabelMark(5),
            Instr("ar", (R(1), R(1))),
        ]), ENC)
        assert not cfg.ok
        assert "skip span" in cfg.reason

    def test_skip_span_items_are_may_executed(self):
        items = [
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("la", (R(3), Mem(1, 0, 0))),  # 4 bytes: inside the span
            Instr("la", (R(4), Mem(2, 0, 0))),  # outside
        ]
        spans = compute_skip_spans(items, ENC)
        assert spans == {1}
        cfg = build_cfg(buf(items), ENC)
        assert cfg.ok
        assert cfg.item_effects[1].may
        assert not cfg.item_effects[2].may

    def test_data_block_is_a_barrier_item(self):
        cfg = build_cfg(buf([DataBlock(data=b"\0\0\0\0")]), ENC)
        assert cfg.item_effects[0].effects.barrier


class TestLiveness:
    def test_use_keeps_register_live_backwards(self):
        cfg = build_cfg(buf([
            Instr("la", (R(3), Mem(5, 0, 0))),
            Instr("lr", (R(4), R(3))),
        ]), ENC)
        live = liveness(cfg)
        facts = list(walk_live(cfg, live, cfg.blocks[0]))
        # Reverse order: the lr comes first.
        (_, _, after_lr), (_, _, after_la) = facts
        assert 3 in after_la   # the lr still needs r3
        assert 4 in after_lr   # exit boundary: everything live

    def test_halt_kills_everything(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("la", (R(3), Mem(5, 0, 0))),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        live = liveness(cfg)
        facts = {i: after for i, _, after in
                 walk_live(cfg, live, cfg.blocks[0])}
        assert facts[0] == frozenset()  # nothing live after la

    def test_branch_index_reg_is_not_a_use(self):
        # The long form *loads* the index register before branching
        # through it; its old value must not be kept alive.
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("lr", (R(5), R(4))),
            Instr("ltr", (R(4), R(4))),
            BranchSite(cond=8, label=1, index_reg=5),
            LabelMark(1),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        live = liveness(cfg)
        after = {i: f for i, _, f in walk_live(cfg, live, cfg.blocks[0])}
        assert 5 not in after[0]

    def test_cc_pseudo_register(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            LabelMark(1),
        ]), ENC)
        live = liveness(cfg)
        after = {i: f for i, _, f in walk_live(cfg, live, cfg.blocks[0])}
        assert CC in after[0]  # the branch still reads the CC


class TestReachingDefsAndChains:
    def test_def_reaches_use(self):
        cfg = build_cfg(buf([
            Instr("la", (R(3), Mem(5, 0, 0))),
            Instr("lr", (R(4), R(3))),
        ]), ENC)
        reaching = reaching_defs(cfg, entry_defined=frozenset({13}))
        chains = def_use_chains(cfg, reaching)
        assert chains.defs_of_use[(1, 3)] == frozenset({(0, 3)})
        assert (1, 3) in chains.uses_of_def[(0, 3)]

    def test_entry_pseudo_def(self):
        cfg = build_cfg(buf([Instr("lr", (R(4), R(13)))]), ENC)
        reaching = reaching_defs(cfg, entry_defined=frozenset({13}))
        chains = def_use_chains(cfg, reaching)
        assert chains.defs_of_use[(0, 13)] == frozenset({(ENTRY, 13)})

    def test_undefined_use_has_no_sites(self):
        cfg = build_cfg(buf([Instr("lr", (R(4), R(9)))]), ENC)
        reaching = reaching_defs(cfg, entry_defined=frozenset({13}))
        chains = def_use_chains(cfg, reaching)
        assert chains.defs_of_use[(0, 9)] == frozenset()

    def test_join_merges_both_defs(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("la", (R(3), Mem(1, 0, 0))),
            LabelMark(1),
            Instr("la", (R(3), Mem(2, 0, 0))),
            LabelMark(2),
            Instr("lr", (R(4), R(3))),
        ]), ENC)
        # Only one def on the branch-taken path reaches the lr?  No:
        # the fall-through path redefines r3, the taken path jumps past
        # the first la straight to the second.  Both defs are la's.
        reaching = reaching_defs(cfg)
        chains = def_use_chains(cfg, reaching)
        sites = chains.defs_of_use[(6, 3)]
        assert sites == frozenset({(4, 3)})


class TestMemoryDeadness:
    def test_store_before_halt_is_dead(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        dead = memory_deadness(cfg)
        facts = {i: f for i, _, f in
                 walk_mem_dead(cfg, dead, cfg.blocks[0])}
        assert facts[0] is None  # TOP: everything is dead after a halt

    def test_read_revives_location(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("l", (R(4), MEM)),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        dead = memory_deadness(cfg)
        facts = {i: f for i, _, f in
                 walk_mem_dead(cfg, dead, cfg.blocks[0])}
        loc = cfg.item_effects[0].effects.writes[0]
        assert facts[0] is not None and loc not in facts[0]

    def test_overwrite_makes_upstream_store_dead(self):
        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("st", (R(4), MEM)),
        ]), ENC)
        dead = memory_deadness(cfg)
        facts = {i: f for i, _, f in
                 walk_mem_dead(cfg, dead, cfg.blocks[0])}
        loc = cfg.item_effects[0].effects.writes[0]
        assert facts[0] is not None and loc in facts[0]

    def test_exit_boundary_keeps_everything_observable(self):
        cfg = build_cfg(buf([Instr("st", (R(3), MEM))]), ENC)
        dead = memory_deadness(cfg)
        facts = {i: f for i, _, f in
                 walk_mem_dead(cfg, dead, cfg.blocks[0])}
        assert facts[0] == frozenset()  # nothing provably dead


class TestAvailableFacts:
    def test_store_makes_pair_available_across_blocks(self):
        from repro.opt.dataflow import walk_avail

        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            BranchSite(cond=15, label=1, index_reg=0),
            LabelMark(1),
            Instr("l", (R(4), MEM)),
        ]), ENC)
        avail = available_stores(cfg)
        block = cfg.blocks[cfg.label_block[1]]
        before = {i: p for i, _, p in walk_avail(cfg, avail, block)}
        loc = cfg.item_effects[0].effects.writes[0]
        load_index = block.end - 1
        assert (loc, 3) in before[load_index]

    def test_redefining_register_kills_pair(self):
        from repro.opt.dataflow import walk_avail

        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("la", (R(3), Mem(9, 0, 0))),
            Instr("l", (R(4), MEM)),
        ]), ENC)
        avail = available_stores(cfg)
        before = {i: p for i, _, p in
                  walk_avail(cfg, avail, cfg.blocks[0])}
        loc = cfg.item_effects[0].effects.writes[0]
        assert (loc, 3) not in before[2]

    def test_branch_index_reg_kills_availability(self):
        # The long branch form may clobber its index register, so a
        # (loc, reg) pair with reg == index_reg cannot survive the
        # branch even though liveness ignores the may-def.
        from repro.opt.dataflow import walk_avail

        cfg = build_cfg(buf([
            Instr("st", (R(5), MEM)),
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=5),
            LabelMark(1),
            Instr("l", (R(6), MEM)),
        ]), ENC)
        avail = available_stores(cfg)
        block = cfg.blocks[cfg.label_block[1]]
        before = {i: p for i, _, p in walk_avail(cfg, avail, block)}
        loc = cfg.item_effects[0].effects.writes[0]
        load_index = block.end - 1
        assert (loc, 5) not in before[load_index]

    def test_copy_fact_flows_and_dies(self):
        from repro.opt.dataflow import walk_copies

        cfg = build_cfg(buf([
            Instr("lr", (R(5), R(4))),
            Instr("ar", (R(6), R(5))),
            Instr("la", (R(4), Mem(9, 0, 0))),
            Instr("ar", (R(7), R(5))),
        ]), ENC)
        copies = available_copies(cfg)
        before = {i: p for i, _, p in
                  walk_copies(cfg, copies, cfg.blocks[0])}
        assert (5, 4) in before[1]
        assert (5, 4) not in before[3]  # the la killed the source


class TestSolutionIntegrity:
    def test_verify_passes_untouched(self):
        cfg = build_cfg(buf([Instr("ar", (R(1), R(2)))]), ENC)
        liveness(cfg).solution.verify()

    def test_verify_raises_on_mutation(self):
        cfg = build_cfg(buf([Instr("ar", (R(1), R(2)))]), ENC)
        solution = liveness(cfg).solution
        solution.outs[0] = frozenset({99})
        with pytest.raises(DataflowError):
            solution.verify()

    def test_verify_raises_unsealed(self):
        solution = DF.Solution("liveness", {}, {})
        with pytest.raises(DataflowError):
            solution.verify()

    def test_fault_hook_runs_at_seal_time(self):
        calls = []
        DF.FAULT_HOOK = lambda s: calls.append(s.name)
        try:
            cfg = build_cfg(buf([Instr("ar", (R(1), R(2)))]), ENC)
            liveness(cfg)
        finally:
            DF.FAULT_HOOK = None
        assert calls == ["liveness"]

    # The exact snapshot seal, for every solver.  The fixture is a
    # diamond with a store, a copy and an expression, so each solver
    # has non-empty out-facts to damage.

    @staticmethod
    def _solved(solver):
        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("lr", (R(5), R(4))),
            Instr("ar", (R(6), R(5))),
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("l", (R(2), MEM)),
            LabelMark(1),
            Instr("ar", (R(2), R(6))),
        ]), ENC)
        solution = SOLVERS[solver](cfg).solution
        assert any(solution.outs.values())
        return solution

    @staticmethod
    def _nonempty_block(solution):
        return next(bid for bid, f in sorted(solution.outs.items()) if f)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_mutated_out_fact_fails(self, solver):
        solution = self._solved(solver)
        bid = self._nonempty_block(solution)
        solution.outs[bid] = solution.outs[bid] | {("bogus", 99)}
        with pytest.raises(DataflowError, match="integrity"):
            solution.verify()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_dropped_outs_fail(self, solver):
        solution = self._solved(solver)
        solution.outs.clear()
        with pytest.raises(DataflowError, match="integrity"):
            solution.verify()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_unsealed_solution_fails(self, solver):
        solution = self._solved(solver)
        solution.digest = ""
        with pytest.raises(DataflowError, match="never sealed"):
            solution.verify()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_equal_copy_passes(self, solver):
        solution = self._solved(solver)
        bid = self._nonempty_block(solution)
        copy = frozenset(list(solution.outs[bid]))
        assert copy is not solution.outs[bid]
        solution.outs[bid] = copy
        solution.ins = dict(solution.ins)
        solution.verify()

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("mutable", [set, list, dict.fromkeys])
    def test_mutable_fact_cannot_be_sealed(self, solver, mutable):
        solution = self._solved(solver)
        bid = self._nonempty_block(solution)
        solution.outs[bid] = mutable(solution.outs[bid])
        with pytest.raises(DataflowError, match="mutable"):
            solution.seal()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_fault_hook_sees_every_solver(self, solver):
        calls = []
        DF.FAULT_HOOK = lambda s: calls.append(s.name)
        try:
            self._solved(solver)
        finally:
            DF.FAULT_HOOK = None
        assert calls == [solver.replace("_", "-")]


class TestEffectCoverage:
    """Every mnemonic an encoder accepts must have an effects entry:
    a gap silently degrades every analysis to a barrier."""

    def test_s370_covers_all_mnemonics(self):
        assert ENC.effect_coverage() is not None
        assert ENC.mnemonics() <= ENC.effect_coverage()

    def test_toy_covers_all_mnemonics(self):
        from repro.machines.toy.machine import ToyEncoder

        enc = ToyEncoder()
        assert enc.mnemonics() <= enc.effect_coverage()

    def test_s370_effects_resolve_for_simple_instrs(self):
        for instr in (
            Instr("lr", (R(1), R(2))),
            Instr("st", (R(3), MEM)),
            Instr("ar", (R(1), R(2))),
        ):
            assert ENC.effects(instr) is not None


class TestDot:
    def test_dot_contains_blocks_and_liveness(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("lr", (R(2), R(1))),
            LabelMark(1),
        ]), ENC)
        live = liveness(cfg)
        dot = to_dot(cfg, live_in=live.live_in, live_out=live.live_out,
                     title="t")
        assert dot.startswith('digraph "t"')
        assert "live-in:" in dot and "live-out:" in dot
        assert "b0 -> b2" in dot or "b0 -> b1" in dot

    def test_unreachable_block_is_dashed(self):
        cfg = build_cfg(buf([
            BranchSite(cond=15, label=1, index_reg=0),
            Instr("lr", (R(2), R(1))),
            LabelMark(1),
        ]), ENC)
        assert "style=dashed" in to_dot(cfg)
