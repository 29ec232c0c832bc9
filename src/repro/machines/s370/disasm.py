"""A disassembler for the implemented S/370 subset.

Inverse of :class:`~repro.machines.s370.encode.S370Encoder` over the
supported mnemonics; used for object-module inspection (the CLI's
``objdump`` command) and as the encoder's round-trip property-test
partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.machines.s370.isa import DECODE_TABLE, OpInfo


@dataclass(frozen=True)
class Disassembled:
    """One decoded instruction (or unknown-data marker)."""

    address: int
    length: int
    data: bytes
    text: str

    def render(self) -> str:
        return f"{self.address:06X}  {self.data.hex().upper():<16} {self.text}"


def _mem(d: int, x: int, b: int) -> str:
    if x:
        return f"{d}({x},{b})"
    if b:
        return f"{d}(,{b})"
    return str(d)


def _decode_one(code: bytes, offset: int) -> Tuple[int, str]:
    """(length, text) for the instruction at ``offset``."""
    op = code[offset]
    info: Optional[OpInfo] = DECODE_TABLE[op]
    if info is None:
        return 2, f"dc    x'{code[offset:offset + 2].hex()}'"

    def byte(i: int) -> int:
        return code[offset + i] if offset + i < len(code) else 0

    mnemonic = info.mnemonic
    if info.format == "RR":
        r1, r2 = byte(1) >> 4, byte(1) & 0xF
        first = str(r1) if info.mask_r1 else f"r{r1}"
        return 2, f"{mnemonic:<6}{first},r{r2}"
    if info.format == "SVC":
        return 2, f"{mnemonic:<6}{byte(1)}"
    if info.format == "RX":
        r1, x2 = byte(1) >> 4, byte(1) & 0xF
        b2, d2 = byte(2) >> 4, ((byte(2) & 0xF) << 8) | byte(3)
        first = str(r1) if info.mask_r1 else f"r{r1}"
        return 4, f"{mnemonic:<6}{first},{_mem(d2, x2, b2)}"
    if info.format == "RS":
        r1, r3 = byte(1) >> 4, byte(1) & 0xF
        b2, d2 = byte(2) >> 4, ((byte(2) & 0xF) << 8) | byte(3)
        if mnemonic in ("stm", "lm"):
            return 4, f"{mnemonic:<6}r{r1},r{r3},{_mem(d2, 0, b2)}"
        return 4, f"{mnemonic:<6}r{r1},{_mem(d2, 0, b2)}"
    if info.format == "SI":
        i2 = byte(1)
        b1, d1 = byte(2) >> 4, ((byte(2) & 0xF) << 8) | byte(3)
        return 4, f"{mnemonic:<6}{_mem(d1, 0, b1)},{i2}"
    assert info.format == "SS"
    length = byte(1)
    b1, d1 = byte(2) >> 4, ((byte(2) & 0xF) << 8) | byte(3)
    b2, d2 = byte(4) >> 4, ((byte(4) & 0xF) << 8) | byte(5)
    return 6, (
        f"{mnemonic:<6}{d1}({length + 1},{b1}),{_mem(d2, 0, b2)}"
    )


def disassemble(
    code: bytes, start: int = 0, base_address: int = 0
) -> List[Disassembled]:
    """Linear sweep from ``start`` to the end of ``code``.

    Data interleaved with code (literal pools, address constants) decodes
    as whatever instruction its bytes spell -- a linear sweep cannot know
    better; pass ``start`` past a leading literal pool when you have a
    :class:`ResolvedModule` (its ``entry`` is exactly that).
    """
    out: List[Disassembled] = []
    offset = start
    while offset < len(code):
        length, text = _decode_one(code, offset)
        length = min(length, len(code) - offset)
        out.append(
            Disassembled(
                address=base_address + offset,
                length=length,
                data=code[offset : offset + length],
                text=text,
            )
        )
        offset += length
    return out


def render(code: bytes, start: int = 0, base_address: int = 0) -> str:
    return "\n".join(
        d.render() for d in disassemble(code, start, base_address)
    )
