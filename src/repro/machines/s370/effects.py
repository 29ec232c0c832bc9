"""Per-mnemonic def/use effect table for System/370.

This is the S/370 instantiation of the machine-neutral
:class:`~repro.core.effects.InstrEffects` contract consumed by the CFG
builder and the iterative dataflow solvers (:mod:`repro.opt.cfg`,
:mod:`repro.opt.dataflow`).  The peephole optimizer's window rules share
the same table (wrapping it with its own stricter barrier set), so
local and global analyses can never disagree about what an instruction
touches.

Every mnemonic in :data:`repro.machines.s370.isa.OPCODES` is covered
(``tests/test_cfg_dataflow.py`` asserts it): instructions the analyses
cannot usefully model (``ex``, ``mvcl``, ``clcl``) are *deliberate*
barriers, which is still an entry -- a mnemonic missing entirely would
be an SL053 coverage gap.

Most entries are read off the operand roles and CC behaviour of the
:mod:`repro.machines.s370.isa` records; only :data:`HAND_WRITTEN`
mnemonics, whose effects depend on operand values, have code here.

Refinements over the peephole's original facts:

* ``stm``/``lm`` get real wrap-around register-range effects (marked
  ``save_restore`` so the SL050 use-before-def check skips the
  callee-save traffic of routine prologues);
* control transfers carry a ``flow`` classification (``bcr 15,x`` is an
  indirect jump, ``bal``/``balr``/``svc`` are calls, ``svc 0``/``svc 9``
  halt) so the CFG builder knows where blocks end;
* ``bc``/``bcr``/``bct``/``bctr`` record whether they read the CC.
"""

from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, Optional

from repro.core.effects import (
    BARRIER_EFFECTS,
    FLOW_CALL,
    FLOW_CJUMP,
    FLOW_HALT,
    FLOW_JUMP,
    FLOW_NONE,
    InstrEffects,
    Loc,
)
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370 import isa
from repro.machines.s370.isa import (
    ADDR,
    OPCODES,
    REG,
    REGISTER_FIELDS,
    SS_LENGTH,
    OpInfo,
)

#: Instructions the table deliberately models as full barriers: execute
#: rewrites its target, and the long-move/compare forms carry dynamic
#: lengths in register pairs.
DELIBERATE_BARRIERS = frozenset({"ex", "mvcl", "clcl"})

#: Mnemonics whose effects depend on operand values (branch flow by
#: mask, the SVC services, the STM/LM register ranges, the runtime-stub
#: BAL contracts) or that are deliberate barriers; the roles in
#: :data:`OPCODES` describe every other mnemonic completely.
HAND_WRITTEN = DELIBERATE_BARRIERS | frozenset(
    {"bc", "bcr", "bal", "balr", "bct", "bctr", "svc", "stm", "lm"}
)

#: Registers with defined values when the simulator enters a module (or
#: a caller BALs into a routine): the runtime bases, link registers and
#: the result/scratch registers of :mod:`repro.machines.s370.runtime`.
ENTRY_DEFINED = frozenset({0, 1, 10, 11, 12, 13, 14, 15})

#: Exact effect contracts for ``BAL r14,off(,r10)`` calls into the
#: runtime support area (:mod:`repro.machines.s370.runtime`).  These are
#: the only BAL targets generated code ever uses besides real routine
#: calls (which are symbolic ``BranchSite`` items, not ``bal`` Instrs),
#: and their bodies are fixed five-instruction stubs, so modelling them
#: as barriers throws away every fact in every routine prologue.  Keyed
#: by the stub offset; built lazily to avoid an import cycle with
#: :mod:`repro.machines.s370.runtime`.
_RUNTIME_STUBS: dict = {}


def _runtime_stub_effects(disp: int) -> Optional[InstrEffects]:
    if not _RUNTIME_STUBS:
        from repro.machines.s370 import runtime as rt

        # entry_code: L r1,next_frame(,r10); ST r13,old_base(,r1);
        # LR r13,r1; A r1,frame_size(,r10); ST r1,next_frame(,r10);
        # BCR 15,r14.  The old_base store lands in the *new* frame
        # (caller-invisible fresh memory), so it is a may-write in
        # frame coordinates; next_frame is an exact pr-area must-write.
        _RUNTIME_STUBS[rt.OFF_ENTRY_CODE] = InstrEffects(
            uses=frozenset({rt.R_PR_BASE, rt.R_STACK_BASE}),
            defs=frozenset({1, rt.R_STACK_BASE, rt.R_LINK}),
            reads=(
                (rt.R_PR_BASE, 0, rt.OFF_NEXT_FRAME, 4),
                (rt.R_PR_BASE, 0, rt.OFF_FRAME_SIZE, 4),
            ),
            writes=((rt.R_PR_BASE, 0, rt.OFF_NEXT_FRAME, 4),),
            may_writes=((rt.R_STACK_BASE, 0, rt.OFF_OLD_BASE, 4),),
            sets_cc=True,
            flow=FLOW_CALL,
        )
        # underflow/overflow: BCR cond,r14 back on an in-range CC, else
        # an abnormal-termination SVC that keeps everything observable.
        # Modelled as reading all registers and all memory (nothing may
        # be optimized away across the trap path) while writing nothing.
        check = InstrEffects(
            uses=frozenset(range(16)),
            defs=frozenset({rt.R_LINK}),
            reads=(None,),
            reads_cc=True,
            flow=FLOW_CALL,
        )
        _RUNTIME_STUBS[rt.OFF_UNDERFLOW] = check
        _RUNTIME_STUBS[rt.OFF_OVERFLOW] = check
    return _RUNTIME_STUBS.get(disp)


#: Candidates for the available-expressions analysis (-O3 global CSE):
#: loads and address arithmetic whose result depends only on the named
#: operands, cannot trap and sets no condition code.  RX arithmetic is
#: excluded: it reads its own destination, so the "expression" would be
#: destination-dependent.
EXPRESSION_OPS = frozenset({"l", "lh", "la"})


def _reg_of(operand) -> Optional[int]:
    """The register number an R (or register-denoting Imm) names."""
    if isinstance(operand, R):
        return operand.n
    if isinstance(operand, Imm):
        return operand.value
    return None


def _addr_regs(operand) -> FrozenSet[int]:
    if isinstance(operand, Mem):
        return frozenset(n for n in (operand.base, operand.index) if n)
    return frozenset()


def _loc_of(operand, width: Optional[int]) -> Loc:
    if isinstance(operand, Mem):
        return (operand.base, operand.index, operand.disp, width)
    if isinstance(operand, Imm):
        return (0, 0, operand.value, width)
    return None


def _rr(ops, n):
    """Register numbers of the first n operands (None on shape mismatch)."""
    if len(ops) < n:
        return None
    regs = tuple(_reg_of(o) for o in ops[:n])
    return None if any(r is None for r in regs) else regs


def _range_regs(first: int, last: int) -> FrozenSet[int]:
    """The wrap-around register range of STM/LM (r14..r12 wraps at 15)."""
    regs = set()
    r = first
    while True:
        regs.add(r)
        if r == last:
            return frozenset(regs)
        r = (r + 1) % 16


def _multi_move(instr: Instr, is_store: bool) -> InstrEffects:
    """STM (store multiple) / LM (load multiple)."""
    if len(instr.operands) != 3:
        return BARRIER_EFFECTS
    regs = _rr(instr.operands, 2)
    if regs is None:
        return BARRIER_EFFECTS
    span = _range_regs(regs[0], regs[1])
    addr = _addr_regs(instr.operands[2])
    loc = _loc_of(instr.operands[2], 4 * len(span))
    if is_store:
        return InstrEffects(
            uses=span | addr, writes=(loc,), save_restore=True
        )
    return InstrEffects(
        uses=addr, defs=span, reads=(loc,), save_restore=True
    )


def _branch_flow(mask: Optional[int]) -> str:
    if mask == 15:
        return FLOW_JUMP
    if mask == 0:
        return ""  # branch never: a nop
    return FLOW_CJUMP


def _derived(info: OpInfo, ops) -> InstrEffects:
    """Effects read off the operand roles of ``info``."""
    roles = info.required
    # RR instructions read their two register fields and ignore any
    # further operands.
    if len(ops) != len(roles) and (
        len(ops) < len(roles) or info.format != "RR"
    ):
        return BARRIER_EFFECTS
    uses, defs, regs, reads, writes = set(), set(), [], [], []
    length = None
    for role, operand in zip(roles, ops):
        if role.kind == REG:
            n = _reg_of(operand)
            if n is None:
                return BARRIER_EFFECTS
            regs.append(n)
            for k in role.uses:
                uses.add(n + k)
            for k in role.defs:
                defs.add(n + k)
        elif role.kind == ADDR:
            width = role.width
            if width == SS_LENGTH:
                if length is None:
                    # SS D1(L,B1): the length rides in the index slot,
                    # the address is D1(,B1).
                    if not isinstance(operand, Mem):
                        return BARRIER_EFFECTS
                    length = operand.index + 1
                    operand = Mem(operand.disp, 0, operand.base)
                width = length
            uses |= _addr_regs(operand)
            if role.access:
                loc = _loc_of(operand, width)
                if "r" in role.access:
                    reads.append(loc)
                if "w" in role.access:
                    writes.append(loc)
    if info.zero_idiom and regs[0] == regs[1]:
        # The result (and the CC) is 0 whatever the register held, so
        # this is a definition, not a use -- exactly like the
        # caller-provided values behind an STM.
        return InstrEffects(defs=frozenset(regs[:1]), sets_cc=True)
    return InstrEffects(
        uses=frozenset(uses),
        defs=frozenset(defs),
        reads=tuple(reads),
        writes=tuple(writes),
        sets_cc=bool(info.cc),
        cc_only=info.cc == "only",
        pair=info.pair,
    )


def instr_effects(instr: Instr) -> Optional[InstrEffects]:
    """Effects for one symbolic instruction; ``None`` when the mnemonic
    is outside :data:`OPCODES` (the framework then assumes a barrier)."""
    op = instr.opcode
    ops = instr.operands
    info = OPCODES.get(op)
    if info is None:
        return None
    if op not in HAND_WRITTEN:
        return _derived(info, ops)
    if op in DELIBERATE_BARRIERS:
        return BARRIER_EFFECTS
    # ---- control transfers ------------------------------------------------
    if op == "bc":
        if len(ops) != 2:
            return BARRIER_EFFECTS
        mask = _reg_of(ops[0])
        flow = _branch_flow(mask)
        return InstrEffects(
            uses=_addr_regs(ops[1]),
            reads_cc=mask not in (0, 15),
            barrier=True,
            flow=flow,
        )
    if op == "bcr":
        regs = _rr(ops, 2)
        if regs is None:
            return BARRIER_EFFECTS
        mask, target = regs
        if target == 0:
            return InstrEffects()  # bcr m,0: a no-op
        return InstrEffects(
            uses=frozenset({target}),
            reads_cc=mask not in (0, 15),
            flow=_branch_flow(mask),
        )
    if op in ("bal", "balr"):
        regs = _rr(ops, 1)
        link = regs[0] if regs is not None else None
        if (
            op == "bal"
            and link is not None
            and len(ops) == 2
            and isinstance(ops[1], Mem)
            and ops[1].index == 0
        ):
            from repro.machines.s370.runtime import R_LINK, R_PR_BASE

            if link == R_LINK and ops[1].base == R_PR_BASE:
                stub = _runtime_stub_effects(ops[1].disp)
                if stub is not None:
                    return stub
        defs = frozenset({link}) if link is not None else frozenset()
        return InstrEffects(defs=defs, barrier=True, flow=FLOW_CALL)
    if op == "bct":
        effects = _derived(info, ops)
        if effects.barrier:
            return effects
        return replace(effects, flow=FLOW_CJUMP)
    if op == "bctr":
        regs = _rr(ops, 2)
        if regs is None:
            return BARRIER_EFFECTS
        target = regs[1]  # bctr r,0 only decrements
        return InstrEffects(
            uses=frozenset(regs if target else regs[:1]),
            defs=frozenset(regs[:1]),
            flow=FLOW_CJUMP if target else FLOW_NONE,
        )
    if op == "svc":
        number = _reg_of(ops[0]) if len(ops) == 1 else None
        if number == isa.SVC_HALT:
            # A clean stop reads nothing: registers, the CC and memory
            # are all dead after it (lets analyses clean up trailing
            # stores on the normal-exit path).
            return InstrEffects(flow=FLOW_HALT)
        if number in (isa.SVC_ABORT, isa.SVC_CHECK_LOW,
                      isa.SVC_CHECK_HIGH):
            # Abnormal termination: keep everything observable intact.
            return InstrEffects(barrier=True, flow=FLOW_HALT)
        # The I/O services have exact register contracts (the simulator
        # implements them); the output stream / input cursor they touch
        # is modelled as a write to an unknown location so no pass ever
        # treats them as removable or reorders stores around them.
        if number in (isa.SVC_WRITE_INT, isa.SVC_WRITE_CHAR,
                      isa.SVC_WRITE_BOOL):
            return InstrEffects(uses=frozenset({1}), writes=(None,))
        if number == isa.SVC_WRITE_NL:
            return InstrEffects(writes=(None,))
        if number == isa.SVC_WRITE_STR:
            return InstrEffects(
                uses=frozenset({1, 2}), reads=(None,), writes=(None,)
            )
        if number == isa.SVC_READ_INT:
            return InstrEffects(defs=frozenset({1}), writes=(None,))
        return InstrEffects(barrier=True, flow=FLOW_CALL)
    return _multi_move(instr, is_store=op == "stm")  # stm / lm


#: Mnemonics :func:`instr_effects` understands (= the whole ISA).
COVERED: FrozenSet[str] = frozenset(OPCODES)


def imm_reg_mention(instr: Instr, reg: int) -> bool:
    """Does ``reg`` appear as an Imm-encoded register *field*?

    Constants such as ``stack_base`` resolve to :class:`Imm` operands
    but denote registers in register-field positions; renaming passes
    must treat them as mentions.
    """
    info = OPCODES.get(instr.opcode)
    if info is None:
        return True  # unknown: assume the worst
    roles = info.roles_for(len(instr.operands)) or info.roles
    return any(
        role.kind in REGISTER_FIELDS
        and isinstance(operand, Imm)
        and operand.value == reg
        for role, operand in zip(roles, instr.operands)
    )
