"""System/370 instruction subset: mnemonics, formats, opcodes, lengths.

Formats (Principles of Operation):

====== ===== =========================================================
format bytes fields
====== ===== =========================================================
RR     2     op | r1 r2                 (BCR/BC carry a mask in r1)
RX     4     op | r1 x2 | b2 | d2
RS     4     op | r1 r3 | b2 | d2       (shifts ignore r3)
SI     4     op | i2    | b1 | d1
SS     6     op | l     | b1 d1 | b2 d2 (one length byte, L-1 encoded)
SVC    2     op | i
====== ===== =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class OpInfo:
    """Encoding facts for one mnemonic."""

    mnemonic: str
    format: str
    opcode: int
    length: int
    #: True when the r1 field is a condition-code mask, not a register.
    mask_r1: bool = False


def _op(mnemonic: str, fmt: str, opcode: int, mask_r1: bool = False) -> OpInfo:
    length = {"RR": 2, "RX": 4, "RS": 4, "SI": 4, "SS": 6, "SVC": 2}[fmt]
    return OpInfo(mnemonic, fmt, opcode, length, mask_r1)


#: The implemented S/370 subset, keyed by lower-case mnemonic.
OPCODES: Dict[str, OpInfo] = {
    o.mnemonic: o
    for o in [
        # RR
        _op("lr", "RR", 0x18),
        _op("ltr", "RR", 0x12),
        _op("lcr", "RR", 0x13),
        _op("lpr", "RR", 0x10),
        _op("lnr", "RR", 0x11),
        _op("ar", "RR", 0x1A),
        _op("sr", "RR", 0x1B),
        _op("mr", "RR", 0x1C),
        _op("dr", "RR", 0x1D),
        _op("alr", "RR", 0x1E),
        _op("slr", "RR", 0x1F),
        _op("cr", "RR", 0x19),
        _op("clr", "RR", 0x15),
        _op("nr", "RR", 0x14),
        _op("or", "RR", 0x16),
        _op("xr", "RR", 0x17),
        _op("bcr", "RR", 0x07, mask_r1=True),
        _op("balr", "RR", 0x05),
        _op("bctr", "RR", 0x06),
        _op("mvcl", "RR", 0x0E),
        _op("clcl", "RR", 0x0F),
        # RX
        _op("l", "RX", 0x58),
        _op("lh", "RX", 0x48),
        _op("la", "RX", 0x41),
        _op("st", "RX", 0x50),
        _op("sth", "RX", 0x40),
        _op("stc", "RX", 0x42),
        _op("ic", "RX", 0x43),
        _op("a", "RX", 0x5A),
        _op("ah", "RX", 0x4A),
        _op("s", "RX", 0x5B),
        _op("sh", "RX", 0x4B),
        _op("m", "RX", 0x5C),
        _op("mh", "RX", 0x4C),
        _op("d", "RX", 0x5D),
        _op("c", "RX", 0x59),
        _op("ch", "RX", 0x49),
        _op("cl", "RX", 0x55),
        _op("n", "RX", 0x54),
        _op("o", "RX", 0x56),
        _op("x", "RX", 0x57),
        _op("bc", "RX", 0x47, mask_r1=True),
        _op("bal", "RX", 0x45),
        _op("bct", "RX", 0x46),
        _op("ex", "RX", 0x44),
        # RS
        _op("sla", "RS", 0x8B),
        _op("sra", "RS", 0x8A),
        _op("sll", "RS", 0x89),
        _op("srl", "RS", 0x88),
        _op("slda", "RS", 0x8F),
        _op("srda", "RS", 0x8E),
        _op("sldl", "RS", 0x8D),
        _op("srdl", "RS", 0x8C),
        _op("stm", "RS", 0x90),
        _op("lm", "RS", 0x98),
        # SI
        _op("mvi", "SI", 0x92),
        _op("ni", "SI", 0x94),
        _op("oi", "SI", 0x96),
        _op("xi", "SI", 0x97),
        _op("tm", "SI", 0x91),
        _op("cli", "SI", 0x95),
        # SS
        _op("mvc", "SS", 0xD2),
        _op("clc", "SS", 0xD5),
        _op("nc", "SS", 0xD4),
        _op("oc", "SS", 0xD6),
        _op("xc", "SS", 0xD7),
        # SVC
        _op("svc", "SVC", 0x0A),
    ]
}

#: opcode byte -> OpInfo or None, as a dense 256-entry table indexed
#: by the simulator's decoder and the disassembler.
DECODE_TABLE: List[Optional[OpInfo]] = [None] * 256
for _info in OPCODES.values():
    DECODE_TABLE[_info.opcode] = _info
del _info


def instruction_length(first_byte: int) -> int:
    """S/370 length coding: bits 0-1 of the opcode select 2/4/4/6 bytes."""
    top = first_byte >> 6
    return {0: 2, 1: 4, 2: 4, 3: 6}[top]


# ---- condition-code masks (BC instruction) ---------------------------------

COND_ALWAYS = 15
COND_EQ = 8       # CC0
COND_LT = 4       # CC1 (low after compare)
COND_GT = 2       # CC2 (high after compare)
COND_NE = 7
COND_LE = 13      # not high
COND_GE = 11      # not low
COND_FALSE = 8    # TM: all selected bits zero
COND_TRUE = 7     # TM: mixed / all ones (covers CC3 for one-bit booleans)


# ---- SVC service numbers (this reproduction's tiny "OS") ---------------------

SVC_HALT = 0
SVC_WRITE_INT = 1
SVC_WRITE_CHAR = 2
SVC_WRITE_NL = 3
SVC_CHECK_LOW = 4
SVC_CHECK_HIGH = 5
SVC_WRITE_STR = 6
SVC_WRITE_BOOL = 7
SVC_READ_INT = 8
SVC_ABORT = 9
