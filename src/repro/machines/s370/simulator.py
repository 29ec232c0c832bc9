"""A System/370 subset simulator.

This stands in for the paper's Amdahl 470 (see DESIGN.md,
"Substitutions"): it executes the object code the generated code
generator emits, so correctness claims are checked by *running* the
code, not by eyeballing listings.  The subset covers every instruction
the shipped SDTS, the baseline code generator and the runtime stubs can
emit; condition-code semantics follow the Principles of Operation.

I/O is provided by SVC services (a stand-in for the MTS/OS supervisor):
integers, characters, booleans, strings and newlines are appended to
``SimResult.output``.  Character data is ASCII, not EBCDIC -- a
documented substitution that changes no control flow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import (
    AlignmentFaultError,
    InvalidOpcodeError,
    MemoryFaultError,
    RegisterPairFaultError,
    SimulatorError,
    StepLimitError,
)
from repro.machines.s370 import isa, runtime


def to_u32(value: int) -> int:
    return value & 0xFFFFFFFF


def to_s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def to_u64(value: int) -> int:
    return value & 0xFFFFFFFFFFFFFFFF


def to_s64(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - (1 << 64) if value & (1 << 63) else value


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    output: str = ""
    steps: int = 0
    halted: bool = False
    trap: Optional[str] = None
    instruction_counts: Dict[str, int] = field(default_factory=dict)


class Simulator:
    """Registers, memory, condition code and the fetch/execute loop.

    Two execution lanes share one set of instruction semantics:

    * ``predecode=True`` (the default) caches, per program-counter
      value, a zero-argument closure with the operand fields already
      decoded -- a direct-threaded dispatch table filled in lazily as
      execution reaches each instruction, so embedded data in the text
      region is never decoded.  Any store into the predecoded text
      range invalidates exactly the overlapping slots, so
      self-modifying code stays correct.
    * ``predecode=False`` is the original decode-every-step loop,
      preserved verbatim as the measured baseline lane (see
      :mod:`repro.bench.speed`, section ``simulator``).

    Both lanes produce identical :class:`SimResult` values (output,
    step count, instruction counts) and identical trap behavior.
    """

    def __init__(
        self,
        memory_size: int = runtime.MEMORY_SIZE,
        input_values: Optional[List[int]] = None,
        strict_alignment: bool = False,
        predecode: bool = True,
    ):
        #: raise :class:`AlignmentFaultError` on misaligned fullword/
        #: halfword access (S/360-style integral boundaries).  Off by
        #: default: the S/370 tolerates misalignment, and so do we.
        self.strict_alignment = strict_alignment
        #: execute through the predecoded dispatch cache (fast lane).
        self.predecode = predecode
        self.memory = bytearray(memory_size)
        self.regs = [0] * 16
        self.cc = 0
        self.pc = 0
        self._halted = False
        self._trap: Optional[str] = None
        self._output: List[str] = []
        self._counts: Counter = Counter()
        #: integers handed out by SVC_READ_INT, in order.
        self.input_values: List[int] = list(input_values or [])
        self._input_pos = 0
        # Predecode dispatch cache: pc -> bound handler closure, plus
        # pc -> end address (pc + length) for exact invalidation.  Both
        # empty until the fast lane executes something.
        self._decoded: Dict[int, Callable[[], None]] = {}
        self._decoded_end: Dict[int, int] = {}
        # Text-region bounds of the loaded image; stores overlapping
        # [lo, hi) must invalidate predecoded slots.
        self._text_lo = 0
        self._text_hi = 0

    @property
    def decoded_pcs(self):
        """The set of program counters with a live predecoded slot."""
        return set(self._decoded)

    # ---- fault context ------------------------------------------------------------

    def psw(self) -> dict:
        """Program-status snapshot attached to every typed trap."""
        return {"pc": self.pc, "cc": self.cc, "regs": tuple(self.regs)}

    def _fault(self, exc, message: str) -> SimulatorError:
        """Build a typed trap carrying the current PSW/register context."""
        return exc(message, psw=self.psw())

    # ---- memory access -----------------------------------------------------------

    def _check(self, address: int, length: int) -> None:
        if address < 0 or address + length > len(self.memory):
            raise self._fault(
                MemoryFaultError,
                f"address {address:#x}+{length} outside memory",
            )

    def _check_aligned(self, address: int, length: int) -> None:
        if self.strict_alignment and address % length:
            raise self._fault(
                AlignmentFaultError,
                f"address {address:#x} is not on a {length}-byte boundary",
            )

    def read_word(self, address: int) -> int:
        self._check(address, 4)
        self._check_aligned(address, 4)
        return int.from_bytes(self.memory[address : address + 4], "big")

    def _invalidate(self, address: int, length: int) -> None:
        """Drop predecoded slots overlapping a store into [address,
        address+length).  Exact: a slot survives unless the written
        range intersects its own [pc, pc+len) byte range."""
        ends = self._decoded_end
        decoded = self._decoded
        # The longest instruction is 6 bytes, so only pcs within 5
        # bytes below the store can overlap it.
        for pc in range(address - 5, address + length):
            end = ends.get(pc)
            if end is not None and end > address:
                del ends[pc]
                del decoded[pc]

    def write_word(self, address: int, value: int) -> None:
        self._check(address, 4)
        self._check_aligned(address, 4)
        if (
            self._decoded
            and address < self._text_hi
            and address + 4 > self._text_lo
        ):
            self._invalidate(address, 4)
        self.memory[address : address + 4] = to_u32(value).to_bytes(4, "big")

    def read_half(self, address: int) -> int:
        self._check(address, 2)
        self._check_aligned(address, 2)
        value = int.from_bytes(self.memory[address : address + 2], "big")
        return value - 0x10000 if value & 0x8000 else value

    def write_half(self, address: int, value: int) -> None:
        self._check(address, 2)
        self._check_aligned(address, 2)
        if (
            self._decoded
            and address < self._text_hi
            and address + 2 > self._text_lo
        ):
            self._invalidate(address, 2)
        self.memory[address : address + 2] = (value & 0xFFFF).to_bytes(2, "big")

    def read_byte(self, address: int) -> int:
        self._check(address, 1)
        return self.memory[address]

    def write_byte(self, address: int, value: int) -> None:
        self._check(address, 1)
        if (
            self._decoded
            and self._text_lo <= address < self._text_hi
        ):
            self._invalidate(address, 1)
        self.memory[address] = value & 0xFF

    # ---- program loading ---------------------------------------------------------

    def load_image(self, image: runtime.ExecutableImage) -> None:
        """Install the runtime area, program image and initial registers."""
        # A fresh image means every cached decode is stale; drop them
        # before the relocation writes below touch the text region.
        self._decoded.clear()
        self._decoded_end.clear()
        self._text_lo = 0
        self._text_hi = 0
        area = runtime.build_runtime_area()
        self.memory[runtime.PR_AREA : runtime.PR_AREA + len(area)] = area
        base = runtime.MODULE_BASE
        if base + len(image.code) > len(self.memory):
            raise self._fault(
                MemoryFaultError,
                f"program image ({len(image.code)} bytes) does not fit "
                f"in memory",
            )
        self.memory[base : base + len(image.code)] = image.code
        for offset in image.relocations:
            self.write_word(base + offset, self.read_word(base + offset) + base)
        if image.data:
            if len(image.data) > runtime.GLOBAL_AREA_SIZE:
                raise SimulatorError("global data image too large")
            self.memory[
                runtime.GLOBAL_AREA : runtime.GLOBAL_AREA + len(image.data)
            ] = image.data

        self.regs = [0] * 16
        self.regs[runtime.R_PR_BASE] = runtime.PR_AREA
        self.regs[runtime.R_GLOBAL_BASE] = runtime.GLOBAL_AREA
        self.regs[runtime.R_CODE_BASE] = base
        # Frame zero for the main program's caller.
        frame0 = runtime.FRAME_AREA
        self.write_word(
            runtime.PR_AREA + runtime.OFF_NEXT_FRAME,
            frame0 + runtime.FRAME_SIZE,
        )
        self.regs[runtime.R_STACK_BASE] = frame0
        self.regs[runtime.R_LINK] = runtime.PR_AREA + runtime.OFF_HALT
        self.regs[runtime.R_ENTRY] = base + image.entry
        self.pc = base + image.entry
        self._halted = False
        self._trap = None
        self._output = []
        self._text_lo = base
        self._text_hi = base + len(image.code)

    # ---- execution ------------------------------------------------------------------

    def run(self, max_steps: int = 2_000_000) -> SimResult:
        if self.predecode:
            return self._run_predecoded(max_steps)
        steps = 0
        while not self._halted and self._trap is None:
            if steps >= max_steps:
                raise self._fault(
                    StepLimitError,
                    f"exceeded {max_steps} steps (runaway program?)",
                )
            self.step()
            steps += 1
        return SimResult(
            output="".join(self._output),
            steps=steps,
            halted=self._halted,
            trap=self._trap,
            instruction_counts=dict(self._counts),
        )

    def _run_predecoded(self, max_steps: int) -> SimResult:
        """The fast lane: direct-threaded dispatch off the decode cache."""
        decoded = self._decoded
        decode = self._decode
        steps = 0
        while not self._halted and self._trap is None:
            if steps >= max_steps:
                raise self._fault(
                    StepLimitError,
                    f"exceeded {max_steps} steps (runaway program?)",
                )
            handler = decoded.get(self.pc)
            if handler is None:
                handler = decode(self.pc)
            handler()
            steps += 1
        return SimResult(
            output="".join(self._output),
            steps=steps,
            halted=self._halted,
            trap=self._trap,
            instruction_counts=dict(self._counts),
        )

    def step_fast(self) -> None:
        """Execute one instruction through the predecode cache.

        The resumable single-step twin of :meth:`_run_predecoded`,
        used by harnesses (e.g. the ``simcache`` chaos injector) that
        need to interleave execution with cache surgery.
        """
        handler = self._decoded.get(self.pc)
        if handler is None:
            handler = self._decode(self.pc)
        handler()

    def step(self) -> None:
        opcode = self.read_byte(self.pc)
        info = isa.BY_OPCODE.get(opcode)
        if info is None:
            raise self._fault(
                InvalidOpcodeError,
                f"unknown opcode {opcode:#04x} at {self.pc:#x}",
            )
        self._counts[info.mnemonic] += 1
        handler = getattr(self, f"_x_{info.format.lower()}")
        handler(info)

    # ---- predecoded dispatch ---------------------------------------------------------

    def _decode(self, pc: int) -> Callable[[], None]:
        """Decode the instruction at ``pc`` into a bound closure.

        Decoding is lazy -- it happens the first time execution reaches
        ``pc`` -- so embedded data in the text region is never decoded,
        and a decode-time fault carries exactly the PSW the slow lane
        would raise with.
        """
        opcode = self.read_byte(pc)
        info = isa.DECODE_TABLE[opcode]
        if info is None:
            raise self._fault(
                InvalidOpcodeError,
                f"unknown opcode {opcode:#04x} at {self.pc:#x}",
            )
        factory = _DECODERS[info.format]
        handler = factory(self, pc, info)
        self._decoded[pc] = handler
        self._decoded_end[pc] = pc + info.length
        return handler

    def _unimplemented(self, info: isa.OpInfo) -> Callable[[], None]:
        """A slot for an ISA-listed mnemonic the simulator never grew a
        handler for: counts the step, then raises the slow lane's
        fault."""
        counts = self._counts

        def fn() -> None:
            counts[info.mnemonic] += 1
            raise self._fault(
                InvalidOpcodeError,
                f"unimplemented {info.format} op {info.mnemonic!r}",
            )

        return fn

    # ---- helpers -----------------------------------------------------------------------

    def _addr(self, x: int, b: int, d: int) -> int:
        address = d
        if x:
            address += to_u32(self.regs[x])
        if b:
            address += to_u32(self.regs[b])
        return to_u32(address) & 0xFFFFFF  # 24-bit addressing

    def _set_cc_value(self, value: int) -> None:
        signed = to_s32(value)
        self.cc = 0 if signed == 0 else (1 if signed < 0 else 2)

    def _set_cc_compare(self, a: int, b: int) -> None:
        self.cc = 0 if a == b else (1 if a < b else 2)

    def _arith(self, a: int, b: int, sub: bool) -> int:
        result = a - b if sub else a + b
        if result < -0x80000000 or result > 0x7FFFFFFF:
            self.cc = 3
            return to_s32(result)
        self.cc = 0 if result == 0 else (1 if result < 0 else 2)
        return result

    def _pair(self, r1: int) -> int:
        if r1 % 2:
            raise self._fault(
                RegisterPairFaultError,
                f"even/odd pair register {r1} is odd",
            )
        return to_s64((to_u32(self.regs[r1]) << 32) | to_u32(self.regs[r1 + 1]))

    def _set_pair(self, r1: int, value: int) -> None:
        value = to_u64(value)
        self.regs[r1] = to_u32(value >> 32)
        self.regs[r1 + 1] = to_u32(value)

    # ---- RR format ------------------------------------------------------------------------

    def _x_rr(self, info: isa.OpInfo) -> None:
        b1 = self.read_byte(self.pc + 1)
        r1, r2 = b1 >> 4, b1 & 0xF
        next_pc = self.pc + 2
        op = info.mnemonic
        s = lambda r: to_s32(self.regs[r])

        if op == "lr":
            self.regs[r1] = self.regs[r2]
        elif op == "ltr":
            self.regs[r1] = self.regs[r2]
            self._set_cc_value(self.regs[r1])
        elif op == "lcr":
            self.regs[r1] = to_u32(-s(r2))
            self._set_cc_value(self.regs[r1])
        elif op == "lpr":
            self.regs[r1] = to_u32(abs(s(r2)))
            self._set_cc_value(self.regs[r1])
        elif op == "lnr":
            self.regs[r1] = to_u32(-abs(s(r2)))
            self._set_cc_value(self.regs[r1])
        elif op == "ar":
            self.regs[r1] = to_u32(self._arith(s(r1), s(r2), sub=False))
        elif op == "sr":
            self.regs[r1] = to_u32(self._arith(s(r1), s(r2), sub=True))
        elif op == "alr":
            total = to_u32(self.regs[r1]) + to_u32(self.regs[r2])
            self.regs[r1] = to_u32(total)
            self.cc = (2 if total > 0xFFFFFFFF else 0) + (
                1 if to_u32(total) else 0
            )
        elif op == "slr":
            a, b = to_u32(self.regs[r1]), to_u32(self.regs[r2])
            self.regs[r1] = to_u32(a - b)
            if a < b:
                self.cc = 1        # borrow, nonzero
            else:
                self.cc = 2 if a == b else 3
        elif op == "mr":
            product = to_s32(self.regs[r1 + 1]) * s(r2)
            self._set_pair(r1, product)
        elif op == "dr":
            self._divide(r1, s(r2))
        elif op == "cr":
            self._set_cc_compare(s(r1), s(r2))
        elif op == "clr":
            self._set_cc_compare(to_u32(self.regs[r1]), to_u32(self.regs[r2]))
        elif op == "nr":
            self.regs[r1] = to_u32(self.regs[r1] & self.regs[r2])
            self.cc = 1 if self.regs[r1] else 0
        elif op == "or":
            self.regs[r1] = to_u32(self.regs[r1] | self.regs[r2])
            self.cc = 1 if self.regs[r1] else 0
        elif op == "xr":
            self.regs[r1] = to_u32(self.regs[r1] ^ self.regs[r2])
            self.cc = 1 if self.regs[r1] else 0
        elif op == "bcr":
            if r2 and (r1 >> (3 - self.cc)) & 1:
                next_pc = to_u32(self.regs[r2]) & 0xFFFFFF
        elif op == "balr":
            self.regs[r1] = next_pc
            if r2:
                next_pc = to_u32(self.regs[r2]) & 0xFFFFFF
        elif op == "bctr":
            self.regs[r1] = to_u32(s(r1) - 1)
            if r2 and to_u32(self.regs[r1]) != 0:
                next_pc = to_u32(self.regs[r2]) & 0xFFFFFF
        elif op == "mvcl":
            self._mvcl(r1, r2)
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented RR op {op!r}"
            )
        self.pc = next_pc

    def _divide(self, r1: int, divisor: int) -> None:
        if divisor == 0:
            self._trap = "divide by zero"
            return
        dividend = self._pair(r1)
        quotient = int(dividend / divisor)  # truncation toward zero
        remainder = dividend - quotient * divisor
        if quotient < -0x80000000 or quotient > 0x7FFFFFFF:
            self._trap = "fixed-point divide overflow"
            return
        self.regs[r1] = to_u32(remainder)
        self.regs[r1 + 1] = to_u32(quotient)

    def _mvcl(self, r1: int, r2: int) -> None:
        dest = to_u32(self.regs[r1]) & 0xFFFFFF
        dlen = to_u32(self.regs[r1 + 1]) & 0xFFFFFF
        src = to_u32(self.regs[r2]) & 0xFFFFFF
        slen = to_u32(self.regs[r2 + 1]) & 0xFFFFFF
        pad = (to_u32(self.regs[r2 + 1]) >> 24) & 0xFF
        for i in range(dlen):
            value = self.read_byte(src + i) if i < slen else pad
            self.write_byte(dest + i, value)
        moved = min(dlen, slen)
        self.regs[r1] = to_u32(dest + dlen)
        self.regs[r1 + 1] = 0
        self.regs[r2] = to_u32(src + moved)
        self.regs[r2 + 1] = to_u32(self.regs[r2 + 1]) & 0xFF000000
        self.cc = 0 if dlen == slen else (1 if dlen < slen else 2)

    # ---- RX format --------------------------------------------------------------------------

    def _x_rx(self, info: isa.OpInfo) -> None:
        b1 = self.read_byte(self.pc + 1)
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        r1, x2 = b1 >> 4, b1 & 0xF
        b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
        address = self._addr(x2, b, d)
        next_pc = self.pc + 4
        op = info.mnemonic
        s = lambda r: to_s32(self.regs[r])

        if op == "l":
            self.regs[r1] = to_u32(self.read_word(address))
        elif op == "lh":
            self.regs[r1] = to_u32(self.read_half(address))
        elif op == "la":
            self.regs[r1] = address
        elif op == "st":
            self.write_word(address, self.regs[r1])
        elif op == "sth":
            self.write_half(address, self.regs[r1])
        elif op == "stc":
            self.write_byte(address, self.regs[r1])
        elif op == "ic":
            self.regs[r1] = to_u32(
                (self.regs[r1] & 0xFFFFFF00) | self.read_byte(address)
            )
        elif op == "a":
            self.regs[r1] = to_u32(
                self._arith(s(r1), to_s32(self.read_word(address)), sub=False)
            )
        elif op == "ah":
            self.regs[r1] = to_u32(
                self._arith(s(r1), self.read_half(address), sub=False)
            )
        elif op == "s":
            self.regs[r1] = to_u32(
                self._arith(s(r1), to_s32(self.read_word(address)), sub=True)
            )
        elif op == "sh":
            self.regs[r1] = to_u32(
                self._arith(s(r1), self.read_half(address), sub=True)
            )
        elif op == "m":
            product = to_s32(self.regs[r1 + 1]) * to_s32(self.read_word(address))
            self._set_pair(r1, product)
        elif op == "mh":
            self.regs[r1] = to_u32(s(r1) * self.read_half(address))
        elif op == "d":
            self._divide(r1, to_s32(self.read_word(address)))
        elif op == "c":
            self._set_cc_compare(s(r1), to_s32(self.read_word(address)))
        elif op == "ch":
            self._set_cc_compare(s(r1), self.read_half(address))
        elif op == "cl":
            self._set_cc_compare(
                to_u32(self.regs[r1]), to_u32(self.read_word(address))
            )
        elif op == "n":
            self.regs[r1] = to_u32(self.regs[r1] & self.read_word(address))
            self.cc = 1 if self.regs[r1] else 0
        elif op == "o":
            self.regs[r1] = to_u32(self.regs[r1] | self.read_word(address))
            self.cc = 1 if self.regs[r1] else 0
        elif op == "x":
            self.regs[r1] = to_u32(self.regs[r1] ^ self.read_word(address))
            self.cc = 1 if self.regs[r1] else 0
        elif op == "bc":
            if (r1 >> (3 - self.cc)) & 1:
                next_pc = address
        elif op == "bal":
            self.regs[r1] = next_pc
            next_pc = address
        elif op == "bct":
            self.regs[r1] = to_u32(s(r1) - 1)
            if to_u32(self.regs[r1]) != 0:
                next_pc = address
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented RX op {op!r}"
            )
        self.pc = next_pc

    # ---- RS format ---------------------------------------------------------------------------

    def _x_rs(self, info: isa.OpInfo) -> None:
        b1 = self.read_byte(self.pc + 1)
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        r1, r3 = b1 >> 4, b1 & 0xF
        b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
        op = info.mnemonic

        if op in ("sla", "sra", "sll", "srl", "slda", "srda", "sldl", "srdl"):
            amount = self._addr(0, b, d) & 0x3F
            self._shift(op, r1, amount)
        elif op == "stm":
            address = self._addr(0, b, d)
            r = r1
            while True:
                self.write_word(address, self.regs[r])
                address += 4
                if r == r3:
                    break
                r = (r + 1) % 16
        elif op == "lm":
            address = self._addr(0, b, d)
            r = r1
            while True:
                self.regs[r] = to_u32(self.read_word(address))
                address += 4
                if r == r3:
                    break
                r = (r + 1) % 16
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented RS op {op!r}"
            )
        self.pc += 4

    def _shift(self, op: str, r1: int, amount: int) -> None:
        if op in ("slda", "srda", "sldl", "srdl"):
            value = self._pair(r1)
            if op == "slda":
                result = to_s64(value << amount)
                self._set_pair(r1, result)
                self.cc = 0 if result == 0 else (1 if result < 0 else 2)
            elif op == "srda":
                result = value >> amount
                self._set_pair(r1, result)
                self.cc = 0 if result == 0 else (1 if result < 0 else 2)
            elif op == "sldl":
                self._set_pair(r1, to_u64(to_u64(value) << amount))
            else:  # srdl
                self._set_pair(r1, to_u64(value) >> amount)
            return
        value = to_s32(self.regs[r1])
        if op == "sla":
            result = to_s32(value << amount)
            self.regs[r1] = to_u32(result)
            self.cc = 0 if result == 0 else (1 if result < 0 else 2)
        elif op == "sra":
            result = value >> amount
            self.regs[r1] = to_u32(result)
            self.cc = 0 if result == 0 else (1 if result < 0 else 2)
        elif op == "sll":
            self.regs[r1] = to_u32(to_u32(self.regs[r1]) << amount)
        else:  # srl
            self.regs[r1] = to_u32(self.regs[r1]) >> amount

    # ---- SI format -------------------------------------------------------------------------------

    def _x_si(self, info: isa.OpInfo) -> None:
        i2 = self.read_byte(self.pc + 1)
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
        address = self._addr(0, b, d)
        op = info.mnemonic

        if op == "mvi":
            self.write_byte(address, i2)
        elif op == "ni":
            value = self.read_byte(address) & i2
            self.write_byte(address, value)
            self.cc = 1 if value else 0
        elif op == "oi":
            value = self.read_byte(address) | i2
            self.write_byte(address, value)
            self.cc = 1 if value else 0
        elif op == "xi":
            value = self.read_byte(address) ^ i2
            self.write_byte(address, value)
            self.cc = 1 if value else 0
        elif op == "tm":
            value = self.read_byte(address) & i2
            if value == 0:
                self.cc = 0
            elif value == i2:
                self.cc = 3
            else:
                self.cc = 1
        elif op == "cli":
            self._set_cc_compare(self.read_byte(address), i2)
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented SI op {op!r}"
            )
        self.pc += 4

    # ---- SS format ---------------------------------------------------------------------------------

    def _x_ss(self, info: isa.OpInfo) -> None:
        length = self.read_byte(self.pc + 1) + 1  # length-1 encoding
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        b4 = self.read_byte(self.pc + 4)
        b5 = self.read_byte(self.pc + 5)
        a1 = self._addr(0, b2 >> 4, ((b2 & 0xF) << 8) | b3)
        a2 = self._addr(0, b4 >> 4, ((b4 & 0xF) << 8) | b5)
        op = info.mnemonic

        if op == "mvc":
            for i in range(length):  # byte-at-a-time: overlap semantics
                self.write_byte(a1 + i, self.read_byte(a2 + i))
        elif op == "clc":
            self.cc = 0
            for i in range(length):
                x, y = self.read_byte(a1 + i), self.read_byte(a2 + i)
                if x != y:
                    self.cc = 1 if x < y else 2
                    break
        elif op in ("nc", "oc", "xc"):
            any_bits = 0
            for i in range(length):
                x, y = self.read_byte(a1 + i), self.read_byte(a2 + i)
                if op == "nc":
                    value = x & y
                elif op == "oc":
                    value = x | y
                else:
                    value = x ^ y
                self.write_byte(a1 + i, value)
                any_bits |= value
            self.cc = 1 if any_bits else 0
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented SS op {op!r}"
            )
        self.pc += 6

    # ---- SVC (the simulator's supervisor services) ------------------------------------------------------

    def _x_svc(self, info: isa.OpInfo) -> None:
        number = self.read_byte(self.pc + 1)
        self.pc += 2
        r1 = to_s32(self.regs[1])
        if number == isa.SVC_HALT:
            self._halted = True
        elif number == isa.SVC_WRITE_INT:
            self._output.append(str(r1))
        elif number == isa.SVC_WRITE_CHAR:
            self._output.append(chr(self.regs[1] & 0xFF))
        elif number == isa.SVC_WRITE_NL:
            self._output.append("\n")
        elif number == isa.SVC_WRITE_BOOL:
            self._output.append("true" if r1 & 1 else "false")
        elif number == isa.SVC_WRITE_STR:
            address = to_u32(self.regs[1]) & 0xFFFFFF
            count = to_u32(self.regs[2])
            self._check(address, count)
            self._output.append(
                self.memory[address : address + count].decode(
                    "ascii", "replace"
                )
            )
        elif number == isa.SVC_READ_INT:
            if self._input_pos >= len(self.input_values):
                self._trap = "read past end of input"
            else:
                self.regs[1] = to_u32(self.input_values[self._input_pos])
                self._input_pos += 1
        elif number == isa.SVC_CHECK_LOW:
            self._trap = "range check: underflow"
        elif number == isa.SVC_CHECK_HIGH:
            self._trap = "range check: overflow"
        elif number == isa.SVC_ABORT:
            self._trap = f"abort {r1}"
        else:
            raise self._fault(InvalidOpcodeError, f"unknown SVC {number}")


# ---- predecode factories ----------------------------------------------------------
#
# One factory per instruction format.  Each decodes the operand fields
# exactly once and returns a zero-argument closure specialized for the
# mnemonic, with `next_pc` and register numbers baked in as constants.
# The closures must mirror the `_x_*` handlers above instruction for
# instruction: count first (the slow lane counts before executing, even
# when the handler then faults), semantics second, program-counter
# update last.  Effective addresses are recomputed on every execution
# (base/index registers are live state); everything else is constant.


def _ea_factory(sim: "Simulator", x: int, b: int, d: int) -> Callable[[], int]:
    """A specialized effective-address closure (mirrors `_addr`)."""
    regs = sim.regs
    if x and b:
        def ea() -> int:
            return (
                d + (regs[x] & 0xFFFFFFFF) + (regs[b] & 0xFFFFFFFF)
            ) & 0xFFFFFF
    elif x:
        def ea() -> int:
            return (d + (regs[x] & 0xFFFFFFFF)) & 0xFFFFFF
    elif b:
        def ea() -> int:
            return (d + (regs[b] & 0xFFFFFFFF)) & 0xFFFFFF
    else:
        const = d & 0xFFFFFF

        def ea() -> int:
            return const
    return ea


def _decode_rr(sim: "Simulator", pc: int, info: isa.OpInfo):
    b1 = sim.read_byte(pc + 1)
    r1, r2 = b1 >> 4, b1 & 0xF
    next_pc = pc + 2
    op = info.mnemonic
    regs = sim.regs
    counts = sim._counts

    if op == "lr":
        def fn() -> None:
            counts["lr"] += 1
            regs[r1] = regs[r2]
            sim.pc = next_pc
    elif op == "ltr":
        def fn() -> None:
            counts["ltr"] += 1
            regs[r1] = regs[r2]
            sim._set_cc_value(regs[r1])
            sim.pc = next_pc
    elif op == "lcr":
        def fn() -> None:
            counts["lcr"] += 1
            regs[r1] = to_u32(-to_s32(regs[r2]))
            sim._set_cc_value(regs[r1])
            sim.pc = next_pc
    elif op == "lpr":
        def fn() -> None:
            counts["lpr"] += 1
            regs[r1] = to_u32(abs(to_s32(regs[r2])))
            sim._set_cc_value(regs[r1])
            sim.pc = next_pc
    elif op == "lnr":
        def fn() -> None:
            counts["lnr"] += 1
            regs[r1] = to_u32(-abs(to_s32(regs[r2])))
            sim._set_cc_value(regs[r1])
            sim.pc = next_pc
    elif op == "ar":
        def fn() -> None:
            counts["ar"] += 1
            regs[r1] = to_u32(
                sim._arith(to_s32(regs[r1]), to_s32(regs[r2]), sub=False)
            )
            sim.pc = next_pc
    elif op == "sr":
        def fn() -> None:
            counts["sr"] += 1
            regs[r1] = to_u32(
                sim._arith(to_s32(regs[r1]), to_s32(regs[r2]), sub=True)
            )
            sim.pc = next_pc
    elif op == "alr":
        def fn() -> None:
            counts["alr"] += 1
            total = (regs[r1] & 0xFFFFFFFF) + (regs[r2] & 0xFFFFFFFF)
            regs[r1] = total & 0xFFFFFFFF
            sim.cc = (2 if total > 0xFFFFFFFF else 0) + (
                1 if total & 0xFFFFFFFF else 0
            )
            sim.pc = next_pc
    elif op == "slr":
        def fn() -> None:
            counts["slr"] += 1
            a, b = regs[r1] & 0xFFFFFFFF, regs[r2] & 0xFFFFFFFF
            regs[r1] = (a - b) & 0xFFFFFFFF
            if a < b:
                sim.cc = 1        # borrow, nonzero
            else:
                sim.cc = 2 if a == b else 3
            sim.pc = next_pc
    elif op == "mr":
        def fn() -> None:
            counts["mr"] += 1
            sim._set_pair(r1, to_s32(regs[r1 + 1]) * to_s32(regs[r2]))
            sim.pc = next_pc
    elif op == "dr":
        def fn() -> None:
            counts["dr"] += 1
            sim._divide(r1, to_s32(regs[r2]))
            sim.pc = next_pc
    elif op == "cr":
        def fn() -> None:
            counts["cr"] += 1
            sim._set_cc_compare(to_s32(regs[r1]), to_s32(regs[r2]))
            sim.pc = next_pc
    elif op == "clr":
        def fn() -> None:
            counts["clr"] += 1
            sim._set_cc_compare(
                regs[r1] & 0xFFFFFFFF, regs[r2] & 0xFFFFFFFF
            )
            sim.pc = next_pc
    elif op == "nr":
        def fn() -> None:
            counts["nr"] += 1
            regs[r1] = (regs[r1] & regs[r2]) & 0xFFFFFFFF
            sim.cc = 1 if regs[r1] else 0
            sim.pc = next_pc
    elif op == "or":
        def fn() -> None:
            counts["or"] += 1
            regs[r1] = (regs[r1] | regs[r2]) & 0xFFFFFFFF
            sim.cc = 1 if regs[r1] else 0
            sim.pc = next_pc
    elif op == "xr":
        def fn() -> None:
            counts["xr"] += 1
            regs[r1] = (regs[r1] ^ regs[r2]) & 0xFFFFFFFF
            sim.cc = 1 if regs[r1] else 0
            sim.pc = next_pc
    elif op == "bcr":
        def fn() -> None:
            counts["bcr"] += 1
            if r2 and (r1 >> (3 - sim.cc)) & 1:
                sim.pc = regs[r2] & 0xFFFFFF
            else:
                sim.pc = next_pc
    elif op == "balr":
        def fn() -> None:
            counts["balr"] += 1
            regs[r1] = next_pc
            # regs[r2] is read *after* the r1 write (r1 may equal r2).
            sim.pc = (regs[r2] & 0xFFFFFF) if r2 else next_pc
    elif op == "bctr":
        def fn() -> None:
            counts["bctr"] += 1
            regs[r1] = to_u32(to_s32(regs[r1]) - 1)
            if r2 and regs[r1] != 0:
                sim.pc = regs[r2] & 0xFFFFFF
            else:
                sim.pc = next_pc
    elif op == "mvcl":
        def fn() -> None:
            counts["mvcl"] += 1
            sim._mvcl(r1, r2)
            sim.pc = next_pc
    else:
        fn = sim._unimplemented(info)
    return fn


def _decode_rx(sim: "Simulator", pc: int, info: isa.OpInfo):
    b1 = sim.read_byte(pc + 1)
    b2 = sim.read_byte(pc + 2)
    b3 = sim.read_byte(pc + 3)
    r1, x2 = b1 >> 4, b1 & 0xF
    b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
    ea = _ea_factory(sim, x2, b, d)
    next_pc = pc + 4
    op = info.mnemonic
    regs = sim.regs
    counts = sim._counts

    if op == "l":
        def fn() -> None:
            counts["l"] += 1
            regs[r1] = sim.read_word(ea()) & 0xFFFFFFFF
            sim.pc = next_pc
    elif op == "lh":
        def fn() -> None:
            counts["lh"] += 1
            regs[r1] = sim.read_half(ea()) & 0xFFFFFFFF
            sim.pc = next_pc
    elif op == "la":
        def fn() -> None:
            counts["la"] += 1
            regs[r1] = ea()
            sim.pc = next_pc
    elif op == "st":
        def fn() -> None:
            counts["st"] += 1
            sim.write_word(ea(), regs[r1])
            sim.pc = next_pc
    elif op == "sth":
        def fn() -> None:
            counts["sth"] += 1
            sim.write_half(ea(), regs[r1])
            sim.pc = next_pc
    elif op == "stc":
        def fn() -> None:
            counts["stc"] += 1
            sim.write_byte(ea(), regs[r1])
            sim.pc = next_pc
    elif op == "ic":
        def fn() -> None:
            counts["ic"] += 1
            regs[r1] = (
                (regs[r1] & 0xFFFFFF00) | sim.read_byte(ea())
            ) & 0xFFFFFFFF
            sim.pc = next_pc
    elif op == "a":
        def fn() -> None:
            counts["a"] += 1
            regs[r1] = to_u32(
                sim._arith(
                    to_s32(regs[r1]), to_s32(sim.read_word(ea())), sub=False
                )
            )
            sim.pc = next_pc
    elif op == "ah":
        def fn() -> None:
            counts["ah"] += 1
            regs[r1] = to_u32(
                sim._arith(to_s32(regs[r1]), sim.read_half(ea()), sub=False)
            )
            sim.pc = next_pc
    elif op == "s":
        def fn() -> None:
            counts["s"] += 1
            regs[r1] = to_u32(
                sim._arith(
                    to_s32(regs[r1]), to_s32(sim.read_word(ea())), sub=True
                )
            )
            sim.pc = next_pc
    elif op == "sh":
        def fn() -> None:
            counts["sh"] += 1
            regs[r1] = to_u32(
                sim._arith(to_s32(regs[r1]), sim.read_half(ea()), sub=True)
            )
            sim.pc = next_pc
    elif op == "m":
        def fn() -> None:
            counts["m"] += 1
            sim._set_pair(
                r1, to_s32(regs[r1 + 1]) * to_s32(sim.read_word(ea()))
            )
            sim.pc = next_pc
    elif op == "mh":
        def fn() -> None:
            counts["mh"] += 1
            regs[r1] = to_u32(to_s32(regs[r1]) * sim.read_half(ea()))
            sim.pc = next_pc
    elif op == "d":
        def fn() -> None:
            counts["d"] += 1
            sim._divide(r1, to_s32(sim.read_word(ea())))
            sim.pc = next_pc
    elif op == "c":
        def fn() -> None:
            counts["c"] += 1
            sim._set_cc_compare(
                to_s32(regs[r1]), to_s32(sim.read_word(ea()))
            )
            sim.pc = next_pc
    elif op == "ch":
        def fn() -> None:
            counts["ch"] += 1
            sim._set_cc_compare(to_s32(regs[r1]), sim.read_half(ea()))
            sim.pc = next_pc
    elif op == "cl":
        def fn() -> None:
            counts["cl"] += 1
            sim._set_cc_compare(
                regs[r1] & 0xFFFFFFFF, sim.read_word(ea()) & 0xFFFFFFFF
            )
            sim.pc = next_pc
    elif op == "n":
        def fn() -> None:
            counts["n"] += 1
            regs[r1] = (regs[r1] & sim.read_word(ea())) & 0xFFFFFFFF
            sim.cc = 1 if regs[r1] else 0
            sim.pc = next_pc
    elif op == "o":
        def fn() -> None:
            counts["o"] += 1
            regs[r1] = (regs[r1] | sim.read_word(ea())) & 0xFFFFFFFF
            sim.cc = 1 if regs[r1] else 0
            sim.pc = next_pc
    elif op == "x":
        def fn() -> None:
            counts["x"] += 1
            regs[r1] = (regs[r1] ^ sim.read_word(ea())) & 0xFFFFFFFF
            sim.cc = 1 if regs[r1] else 0
            sim.pc = next_pc
    elif op == "bc":
        if r1 == 15:
            def fn() -> None:
                counts["bc"] += 1
                sim.pc = ea()
        elif r1 == 0:
            def fn() -> None:
                counts["bc"] += 1
                sim.pc = next_pc
        else:
            def fn() -> None:
                counts["bc"] += 1
                sim.pc = ea() if (r1 >> (3 - sim.cc)) & 1 else next_pc
    elif op == "bal":
        def fn() -> None:
            counts["bal"] += 1
            regs[r1] = next_pc
            sim.pc = ea()
    elif op == "bct":
        def fn() -> None:
            counts["bct"] += 1
            regs[r1] = to_u32(to_s32(regs[r1]) - 1)
            sim.pc = ea() if regs[r1] != 0 else next_pc
    else:
        fn = sim._unimplemented(info)
    return fn


def _decode_rs(sim: "Simulator", pc: int, info: isa.OpInfo):
    b1 = sim.read_byte(pc + 1)
    b2 = sim.read_byte(pc + 2)
    b3 = sim.read_byte(pc + 3)
    r1, r3 = b1 >> 4, b1 & 0xF
    b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
    ea = _ea_factory(sim, 0, b, d)
    next_pc = pc + 4
    op = info.mnemonic
    regs = sim.regs
    counts = sim._counts

    if op in ("sla", "sra", "sll", "srl", "slda", "srda", "sldl", "srdl"):
        def fn() -> None:
            counts[op] += 1
            sim._shift(op, r1, ea() & 0x3F)
            sim.pc = next_pc
    elif op == "stm":
        def fn() -> None:
            counts["stm"] += 1
            address = ea()
            r = r1
            while True:
                sim.write_word(address, regs[r])
                address += 4
                if r == r3:
                    break
                r = (r + 1) % 16
            sim.pc = next_pc
    elif op == "lm":
        def fn() -> None:
            counts["lm"] += 1
            address = ea()
            r = r1
            while True:
                regs[r] = sim.read_word(address) & 0xFFFFFFFF
                address += 4
                if r == r3:
                    break
                r = (r + 1) % 16
            sim.pc = next_pc
    else:
        fn = sim._unimplemented(info)
    return fn


def _decode_si(sim: "Simulator", pc: int, info: isa.OpInfo):
    i2 = sim.read_byte(pc + 1)
    b2 = sim.read_byte(pc + 2)
    b3 = sim.read_byte(pc + 3)
    b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
    ea = _ea_factory(sim, 0, b, d)
    next_pc = pc + 4
    op = info.mnemonic
    counts = sim._counts

    if op == "mvi":
        def fn() -> None:
            counts["mvi"] += 1
            sim.write_byte(ea(), i2)
            sim.pc = next_pc
    elif op in ("ni", "oi", "xi"):
        combine = {
            "ni": lambda v: v & i2,
            "oi": lambda v: v | i2,
            "xi": lambda v: v ^ i2,
        }[op]

        def fn() -> None:
            counts[op] += 1
            address = ea()
            value = combine(sim.read_byte(address))
            sim.write_byte(address, value)
            sim.cc = 1 if value else 0
            sim.pc = next_pc
    elif op == "tm":
        def fn() -> None:
            counts["tm"] += 1
            value = sim.read_byte(ea()) & i2
            if value == 0:
                sim.cc = 0
            elif value == i2:
                sim.cc = 3
            else:
                sim.cc = 1
            sim.pc = next_pc
    elif op == "cli":
        def fn() -> None:
            counts["cli"] += 1
            sim._set_cc_compare(sim.read_byte(ea()), i2)
            sim.pc = next_pc
    else:
        fn = sim._unimplemented(info)
    return fn


def _decode_ss(sim: "Simulator", pc: int, info: isa.OpInfo):
    length = sim.read_byte(pc + 1) + 1  # length-1 encoding
    b2 = sim.read_byte(pc + 2)
    b3 = sim.read_byte(pc + 3)
    b4 = sim.read_byte(pc + 4)
    b5 = sim.read_byte(pc + 5)
    ea1 = _ea_factory(sim, 0, b2 >> 4, ((b2 & 0xF) << 8) | b3)
    ea2 = _ea_factory(sim, 0, b4 >> 4, ((b4 & 0xF) << 8) | b5)
    next_pc = pc + 6
    op = info.mnemonic
    counts = sim._counts

    if op == "mvc":
        def fn() -> None:
            counts["mvc"] += 1
            a1, a2 = ea1(), ea2()
            for i in range(length):  # byte-at-a-time: overlap semantics
                sim.write_byte(a1 + i, sim.read_byte(a2 + i))
            sim.pc = next_pc
    elif op == "clc":
        def fn() -> None:
            counts["clc"] += 1
            a1, a2 = ea1(), ea2()
            sim.cc = 0
            for i in range(length):
                x, y = sim.read_byte(a1 + i), sim.read_byte(a2 + i)
                if x != y:
                    sim.cc = 1 if x < y else 2
                    break
            sim.pc = next_pc
    elif op in ("nc", "oc", "xc"):
        def fn() -> None:
            counts[op] += 1
            a1, a2 = ea1(), ea2()
            any_bits = 0
            for i in range(length):
                x, y = sim.read_byte(a1 + i), sim.read_byte(a2 + i)
                if op == "nc":
                    value = x & y
                elif op == "oc":
                    value = x | y
                else:
                    value = x ^ y
                sim.write_byte(a1 + i, value)
                any_bits |= value
            sim.cc = 1 if any_bits else 0
            sim.pc = next_pc
    else:
        fn = sim._unimplemented(info)
    return fn


def _decode_svc(sim: "Simulator", pc: int, info: isa.OpInfo):
    number = sim.read_byte(pc + 1)
    next_pc = pc + 2
    regs = sim.regs
    counts = sim._counts

    if number == isa.SVC_HALT:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._halted = True
    elif number == isa.SVC_WRITE_INT:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._output.append(str(to_s32(regs[1])))
    elif number == isa.SVC_WRITE_CHAR:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._output.append(chr(regs[1] & 0xFF))
    elif number == isa.SVC_WRITE_NL:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._output.append("\n")
    elif number == isa.SVC_WRITE_BOOL:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._output.append("true" if to_s32(regs[1]) & 1 else "false")
    elif number == isa.SVC_WRITE_STR:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            address = regs[1] & 0xFFFFFF
            count = regs[2] & 0xFFFFFFFF
            sim._check(address, count)
            sim._output.append(
                sim.memory[address : address + count].decode(
                    "ascii", "replace"
                )
            )
    elif number == isa.SVC_READ_INT:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            if sim._input_pos >= len(sim.input_values):
                sim._trap = "read past end of input"
            else:
                regs[1] = to_u32(sim.input_values[sim._input_pos])
                sim._input_pos += 1
    elif number == isa.SVC_CHECK_LOW:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._trap = "range check: underflow"
    elif number == isa.SVC_CHECK_HIGH:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._trap = "range check: overflow"
    elif number == isa.SVC_ABORT:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            sim._trap = f"abort {to_s32(regs[1])}"
    else:
        def fn() -> None:
            counts["svc"] += 1
            sim.pc = next_pc
            raise sim._fault(InvalidOpcodeError, f"unknown SVC {number}")
    return fn


#: format tag -> decode factory, consulted once per (pc, image) by
#: :meth:`Simulator._decode`.
_DECODERS = {
    "RR": _decode_rr,
    "RX": _decode_rx,
    "RS": _decode_rs,
    "SI": _decode_si,
    "SS": _decode_ss,
    "SVC": _decode_svc,
}
