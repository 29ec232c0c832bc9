"""A disassembler for the implemented S/370 subset.

Inverse of :class:`~repro.machines.s370.encode.S370Encoder` over the
supported mnemonics; used for object-module inspection (the CLI's
``objdump`` command) and as the encoder's round-trip property-test
partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.machines.s370.isa import DECODE_TABLE, REG, UNUSED, OpInfo


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

    # The field layouts of the formats (see isa), in operand order; the
    # record's roles say how each field is written.
    hi, lo = byte(1) >> 4, byte(1) & 0xF
    base, disp = byte(2) >> 4, ((byte(2) & 0xF) << 8) | byte(3)
    if info.format == "RR":
        fields = (hi, lo)
    elif info.format == "RX":
        fields = (hi, _mem(disp, lo, base))
    elif info.format == "RS":
        fields = (hi, lo, _mem(disp, 0, base))
    elif info.format == "SI":
        fields = (_mem(disp, 0, base), byte(1))
    elif info.format == "SS":
        b2, d2 = byte(4) >> 4, ((byte(4) & 0xF) << 8) | byte(5)
        fields = (f"{disp}({byte(1) + 1},{base})", _mem(d2, 0, b2))
    else:  # SVC
        fields = (byte(1),)
    text = ",".join(
        f"r{field}" if role.kind == REG else str(field)
        for role, field in zip(info.roles, fields)
        if role.kind != UNUSED
    )
    return info.length, f"{info.mnemonic:<6}{text}"


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
