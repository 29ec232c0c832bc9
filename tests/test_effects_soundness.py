"""Soundness gate: the S/370 effects table against the simulator.

Every -O2..-O4 rewrite trusts :func:`repro.machines.s370.effects.
instr_effects`.  This property test executes each mnemonic in
``isa.OPCODES`` on random register, memory and CC states through
``Simulator.step_fast`` and checks the table's claims:

* every changed register is in ``defs | may_defs``;
* a CC change implies ``sets_cc``;
* every written byte lies inside a declared ``writes``/``may_writes``
  location (evaluated on the pre-state registers), and program output
  counts as a write to an unknown location;
* perturbing a register outside ``uses`` -- or the CC when not
  ``reads_cc`` -- changes nothing else;
* under all four CC values the resulting pc agrees with ``flow``
  (ordinary instructions fall through, ``jump`` never does, a
  CC-dependent pc is a ``cjump`` that ``reads_cc``).

A ``barrier`` record claims everything, so its register and memory
claims hold vacuously; its flow is still checked.  The deliberate
barriers (``DELIBERATE_BARRIERS``) are excused by name.  Executions
that raise a typed simulator fault are skipped: the program stops
there.  The self-check at the end mutates one entry of the table at a
time and requires the property to catch it.
"""

import random
from dataclasses import replace

import pytest

from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.core.effects import (
    FLOW_CJUMP,
    FLOW_HALT,
    FLOW_JUMP,
    FLOW_NONE,
)
from repro.errors import SimulatorError
from repro.machines.s370 import effects, isa
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.simulator import Simulator

MEM = 0x8000
PC = 0x7800
DATA_LO, DATA_HI = 0x1000, 0x7000
CASES = 30
ENC = S370Encoder()
EDGES = [0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE,
         0x40000000, 0x80000001, 0xFFFF8000, 0x00008000]

PAIR_OPS = {"mr", "dr", "m", "d", "slda", "srda", "sldl", "srdl"}
SS_OPS = {"mvc", "clc", "nc", "oc", "xc"}


def _value(rng):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(EDGES)
    if roll < 0.5:
        return rng.randrange(0, 64)
    return rng.randrange(0, 1 << 32)


class Case:
    """One random machine state plus the instruction to run on it."""

    def __init__(self, rng):
        self.rng = rng
        self.regs = [_value(rng) for _ in range(16)]
        self.cc = rng.randrange(4)
        self.memory = bytearray(rng.randbytes(MEM))
        self.inputs = [rng.randrange(-(1 << 31), 1 << 31)] \
            if rng.random() < 0.7 else []
        self.instr = None

    def reg(self, even=False):
        if even:
            return self.rng.randrange(0, 15, 2)
        return self.rng.randrange(16)

    def address(self, width, index=True):
        """A ``Mem(d, x, b)`` whose address lands in the data area,
        setting the base/index registers it names (high-byte garbage
        included: addresses wrap at 24 bits)."""
        rng = self.rng
        d = rng.randrange(0, 0x1000)
        x = rng.choice([0, rng.randrange(1, 16)]) if index else 0
        b = rng.choice([0, rng.randrange(1, 16), rng.randrange(1, 16)])
        target = rng.randrange(DATA_LO, DATA_HI - width)
        garbage = rng.choice([0, 0, rng.randrange(1, 256) << 24])
        if x and b and x == b:
            target -= (target - d) % 2
            self.regs[x] = (target - d) // 2 & 0xFFFFFF
        elif x and b:
            xv = rng.randrange(0, 0x200)
            self.regs[x] = xv | garbage
            self.regs[b] = (target - d - xv) & 0xFFFFFF
        elif x or b:
            self.regs[x or b] = ((target - d) & 0xFFFFFF) | garbage
        return Mem(d, x, b)

    def branch_target(self, r):
        """Point register ``r`` somewhere that is not the fallthrough."""
        self.regs[r] = self.rng.randrange(DATA_LO, DATA_HI) & ~1


def build(case, op):
    """A random, encodable instruction for mnemonic ``op``."""
    rng = case.rng
    info = isa.OPCODES[op]
    fmt = info.format
    if op == "bcr":
        r2 = rng.choice([0, rng.randrange(1, 16)])
        if r2:
            case.branch_target(r2)
        return Instr(op, (Imm(rng.choice([0, 15, rng.randrange(16)])),
                          R(r2)))
    if op in ("balr", "bctr"):
        r1, r2 = case.reg(), rng.choice([0, rng.randrange(1, 16)])
        if r2:
            case.branch_target(r2)
        if op == "bctr" and rng.random() < 0.3:
            case.regs[r1] = 1  # counts down to zero: no branch
        return Instr(op, (R(r1), R(r2)))
    if fmt == "RR":
        r1, r2 = case.reg(even=op in PAIR_OPS), case.reg()
        if op == "dr" and rng.random() < 0.7:
            # A sign-extended dividend and a nonzero divisor: no trap.
            case.regs[r1] = 0xFFFFFFFF if case.regs[r1 + 1] >> 31 else 0
            if r2 in (r1, r1 + 1) or not case.regs[r2]:
                r2 = (r1 + 2) % 16
                case.regs[r2] = rng.randrange(1, 1000)
        return Instr(op, (R(r1), R(r2)))
    if op == "bc":
        mem = case.address(0)
        return Instr(op, (Imm(rng.choice([0, 15, rng.randrange(16)])), mem))
    if fmt == "RX":
        width = 0 if op in ("la", "bal", "bct") else 4
        r1 = case.reg(even=op in PAIR_OPS)
        mem = case.address(width)
        if op == "bct" and rng.random() < 0.3:
            case.regs[r1] = 1
        if op == "d" and rng.random() < 0.7:
            case.regs[r1] = 0xFFFFFFFF if case.regs[r1 + 1] >> 31 else 0
            if r1 not in (mem.base, mem.index) and (
                r1 + 1 not in (mem.base, mem.index)
            ):
                a = _ea(case.regs, mem.base, mem.index, mem.disp)
                case.memory[a:a + 4] = rng.randrange(1, 1000).to_bytes(
                    4, "big")
        return Instr(op, (R(r1), mem))
    if op in ("stm", "lm"):
        r1, r3 = case.reg(), case.reg()
        if rng.random() < 0.4:  # wrap-around range, e.g. r14..r12
            r1, r3 = rng.randrange(8, 16), rng.randrange(0, 8)
        count = (r3 - r1) % 16 + 1
        return Instr(op, (R(r1), R(r3), case.address(4 * count, False)))
    if fmt == "RS":  # shifts
        r1 = case.reg(even=op in PAIR_OPS)
        if rng.random() < 0.5:
            return Instr(op, (R(r1), Imm(rng.randrange(64))))
        b = rng.randrange(1, 16)
        return Instr(op, (R(r1), Mem(rng.randrange(0x1000), 0, b)))
    if fmt == "SI":
        i2 = rng.choice([0, 0xFF, 0x80, rng.randrange(256)])
        return Instr(op, (case.address(1, False), Imm(i2)))
    if fmt == "SS":
        length = rng.choice([1, 256, rng.randrange(1, 24)])
        src = case.address(length, False)
        dst = case.address(length, False)
        if op == "mvc" and dst.base and rng.random() < 0.3:
            # Destructive overlap: the destination starts one byte in.
            src = Mem(max(dst.disp - 1, 0), 0, dst.base)
        return Instr(op, (Mem(dst.disp, length - 1, dst.base), src))
    # svc
    number = rng.randrange(11)
    if number == isa.SVC_WRITE_STR:
        case.regs[1] = rng.randrange(DATA_LO, DATA_HI - 64)
        case.regs[2] = rng.randrange(0, 64)
    return Instr(op, (Imm(number),))


def _ea(regs, base, index, disp):
    address = disp
    if index:
        address += regs[index] & 0xFFFFFFFF
    if base:
        address += regs[base] & 0xFFFFFFFF
    return address & 0xFFFFFF


def execute(case, regs, cc):
    """Run the case's instruction once from the given registers/CC."""
    sim = Simulator(memory_size=MEM, input_values=case.inputs)
    sim.memory[:] = case.memory
    sim.regs[:] = regs
    sim.cc = cc
    sim.pc = PC
    fault = None
    try:
        sim.step_fast()
    except SimulatorError as error:
        fault = type(error).__name__
    return {
        "regs": list(sim.regs), "cc": sim.cc, "pc": sim.pc,
        "memory": bytes(sim.memory), "output": "".join(sim._output),
        "input_pos": sim._input_pos, "halted": sim._halted,
        "trap": sim._trap, "fault": fault,
    }


def _inside(address, locs, regs):
    for loc in locs:
        if loc is None or loc[3] is None:
            return True
        base, index, disp, width = loc
        start = _ea(regs, base, index, disp)
        if start <= address < start + width:
            return True
    return False


def violations(op, seed=0, cases=CASES):
    """Every way the effects table disagrees with the simulator on
    ``cases`` random states for ``op`` (an empty list means sound)."""
    rng = random.Random(f"{op}/{seed}")
    problems = []
    executed = 0
    for n in range(cases):
        case = Case(rng)
        instr = build(case, op)
        code = ENC.encode(instr)
        case.memory[PC:PC + len(code)] = code
        fallthrough = PC + len(code)
        eff = effects.instr_effects(instr)
        barrier = eff.barrier
        uses = set(range(16)) if barrier else set(eff.uses)
        defs = set(range(16)) if barrier else set(eff.defs | eff.may_defs)
        sets_cc = barrier or eff.sets_cc
        reads_cc = barrier or eff.reads_cc
        writes = (None,) if barrier else eff.writes + eff.may_writes
        tag = f"{op} case {n} {instr}"

        base = execute(case, case.regs, case.cc)
        if base["fault"]:
            continue
        executed += 1
        ended = base["halted"] or base["trap"] is not None

        changed = {r for r in range(16) if base["regs"][r] != case.regs[r]}
        if not changed <= defs:
            problems.append(f"{tag}: changed r{sorted(changed - defs)} "
                            f"outside defs {sorted(defs)}")
        if base["cc"] != case.cc and not sets_cc:
            problems.append(f"{tag}: changed the CC without sets_cc")
        if base["memory"] != bytes(case.memory):
            for a, (old, new) in enumerate(zip(case.memory,
                                               base["memory"])):
                if old != new and not _inside(a, writes, case.regs):
                    problems.append(
                        f"{tag}: wrote {a:#x} outside {writes}")
                    break
        if (base["output"] or base["input_pos"]) and None not in writes:
            problems.append(f"{tag}: I/O without an unknown-location write")

        # Registers outside `uses` must not influence anything.
        for r in sorted(set(range(16)) - uses):
            regs = list(case.regs)
            regs[r] ^= rng.choice([1, 0x80000000, rng.randrange(1, 1 << 32)])
            other = execute(case, regs, case.cc)
            expect = dict(base, regs=list(base["regs"]))
            if r not in defs:
                expect["regs"][r] = regs[r]  # passes through untouched
            if ended and other["trap"] == base["trap"]:
                other = dict(other, regs=expect["regs"])
            if other != expect:
                problems.append(f"{tag}: non-use r{r} changed the result")

        # All four CC values: the CC must not matter unless reads_cc.
        pcs = {}
        for cc in range(4):
            other = base if cc == case.cc else execute(case, case.regs, cc)
            pcs[cc] = other["pc"]
            if reads_cc or other["fault"]:
                continue
            expect = dict(base, cc=base["cc"] if sets_cc else cc)
            if other != expect:
                problems.append(f"{tag}: CC {cc} changed the result "
                                f"without reads_cc")
        if len(set(pcs.values())) > 1 and not (
            eff.reads_cc and eff.flow == FLOW_CJUMP
        ):
            problems.append(f"{tag}: pc depends on the CC but reads_cc="
                            f"{eff.reads_cc} flow={eff.flow!r}")
        if eff.flow == FLOW_NONE and (
            set(pcs.values()) != {fallthrough} or base["halted"]
        ):
            problems.append(f"{tag}: flow is none but pc went to "
                            f"{sorted(pcs.values())}")
        if eff.flow == FLOW_JUMP and fallthrough in pcs.values():
            problems.append(f"{tag}: flow is jump but it fell through")
        if eff.flow == FLOW_HALT and not ended:
            problems.append(f"{tag}: flow is halt but execution went on")
    if not executed:
        problems.append(f"{op}: every case faulted; nothing was checked")
    return problems


CHECKED = sorted(set(isa.OPCODES) - effects.DELIBERATE_BARRIERS)


@pytest.mark.parametrize("op", CHECKED)
def test_effects_match_the_simulator(op):
    problems = violations(op)
    assert not problems, "\n".join(problems[:10])


def test_every_opcode_is_checked_or_excused_by_name():
    assert set(CHECKED) | effects.DELIBERATE_BARRIERS == set(isa.OPCODES)
    assert len(isa.OPCODES) == 67
    for op in effects.DELIBERATE_BARRIERS:
        assert effects.instr_effects(Instr(op, ())).barrier


def test_branch_flows_are_exercised():
    """The flow checks see taken and untaken branches of every kind."""
    seen = set()
    for op in ("bc", "bcr", "bct", "bctr", "bal", "balr"):
        rng = random.Random(f"{op}/0")
        for _ in range(CASES):
            case = Case(rng)
            instr = build(case, op)
            code = ENC.encode(instr)
            case.memory[PC:PC + len(code)] = code
            pc = execute(case, case.regs, case.cc)["pc"]
            seen.add((op, pc == PC + len(code)))
    assert seen == {(op, taken) for op in ("bc", "bcr", "bct", "bctr")
                    for taken in (True, False)} | {
        ("bal", False), ("balr", False), ("balr", True)}


def _mutated(op, change):
    original = effects.instr_effects

    def instr_effects(instr):
        eff = original(instr)
        if instr.opcode == op:
            eff = change(eff, instr)
        return eff

    return instr_effects


@pytest.mark.parametrize("op, change", [
    ("ar", lambda eff, instr: replace(
        eff, defs=eff.defs - {instr.operands[0].n})),
    ("cr", lambda eff, instr: replace(eff, sets_cc=False)),
    ("st", lambda eff, instr: replace(eff, writes=())),
], ids=["drop-def", "drop-sets-cc", "drop-write"])
def test_a_mutated_table_fails_the_property(monkeypatch, op, change):
    monkeypatch.setattr(effects, "instr_effects", _mutated(op, change))
    assert violations(op)
