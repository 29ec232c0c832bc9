"""System/370 instruction subset: one record per mnemonic.

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

Each record also gives the role of every operand, in assembler order,
as one token per operand:

* register fields: ``u`` read, ``d`` defined, ``ud`` both; ``odd`` an
  even/odd pair whose odd half is read and both halves defined
  (multiply), ``pair`` one read and defined whole (divide, double
  shift, long move); ``m`` a condition-code mask; ``-`` unused (the
  shifts' r3);
* addresses: ``a`` computed only; ``rN``/``wN``/``rwN`` read, write or
  both N bytes there, N = ``L`` the SS length (carried by the first
  operand), no N a width set by the register range (STM/LM);
* ``i`` an immediate.  A ``?`` suffix marks an operand that may be
  left out; its field then encodes 0.

``cc`` is ``"set"`` when the instruction sets the condition code and
``"only"`` when the code is its only result (compares and tests);
``zero_idiom`` marks ``sr``/``xr``/``slr``, whose ``r,r`` form makes 0
whatever the register held.  The encoder, the disassembler and the
def/use effects table (:mod:`repro.machines.s370.effects`) all read
these records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

#: :attr:`Role.kind` values.  Register fields hold REG, MASK or UNUSED.
REG, MASK, UNUSED, ADDR, IMM = "reg", "mask", "unused", "addr", "imm"
REGISTER_FIELDS = frozenset({REG, MASK, UNUSED})
#: :attr:`Role.width` of an SS operand: the length in the first operand.
SS_LENGTH = -1


@dataclass(frozen=True)
class Role:
    """One operand, parsed from its token.  ``uses``/``defs`` are offsets
    from a register field's number (1 is the odd half of a pair)."""

    kind: str
    uses: Tuple[int, ...] = ()
    defs: Tuple[int, ...] = ()
    access: str = ""
    width: Optional[int] = None
    optional: bool = False


_TOKENS = {
    "u": Role(REG, uses=(0,)), "d": Role(REG, defs=(0,)),
    "ud": Role(REG, (0,), (0,)), "odd": Role(REG, (1,), (0, 1)),
    "pair": Role(REG, (0, 1), (0, 1)), "m": Role(MASK),
    "-": Role(UNUSED), "a": Role(ADDR), "i": Role(IMM),
}


def _role(token: str) -> Role:
    optional = token.endswith("?")
    token = token.rstrip("?")
    if token in _TOKENS:
        return replace(_TOKENS[token], optional=optional)
    access = token.rstrip("0123456789L")
    size = token[len(access):]
    width = SS_LENGTH if size == "L" else int(size) if size else None
    return Role(ADDR, access=access, width=width, optional=optional)


@dataclass(frozen=True)
class OpInfo:
    """Encoding facts and operand roles for one mnemonic."""

    mnemonic: str
    format: str
    opcode: int
    length: int
    roles: Tuple[Role, ...]
    #: ``roles`` without the optional ones.
    required: Tuple[Role, ...]
    cc: str = ""
    zero_idiom: bool = False
    #: An operand is an even/odd register pair.
    pair: bool = False

    def roles_for(self, count: int) -> Optional[Tuple[Role, ...]]:
        """The roles of ``count`` operands: all of them, or the required
        ones when the optional operands are left out; None otherwise."""
        if count == len(self.roles):
            return self.roles
        if count == len(self.required):
            return self.required
        return None


def _op(mnemonic: str, fmt: str, opcode: int, roles: str, cc: str = "",
        zero_idiom: bool = False) -> OpInfo:
    length = {"RR": 2, "RX": 4, "RS": 4, "SI": 4, "SS": 6, "SVC": 2}[fmt]
    parsed = tuple(_role(token) for token in roles.split(","))
    return OpInfo(
        mnemonic, fmt, opcode, length, parsed,
        tuple(role for role in parsed if not role.optional), cc,
        zero_idiom, any(len(role.defs) == 2 for role in parsed),
    )


#: The implemented S/370 subset, keyed by lower-case mnemonic.
OPCODES: Dict[str, OpInfo] = {
    o.mnemonic: o
    for o in [
        # RR
        _op("lr", "RR", 0x18, "d,u"),
        _op("ltr", "RR", 0x12, "d,u", cc="set"),
        _op("lcr", "RR", 0x13, "d,u", cc="set"),
        _op("lpr", "RR", 0x10, "d,u", cc="set"),
        _op("lnr", "RR", 0x11, "d,u", cc="set"),
        _op("ar", "RR", 0x1A, "ud,u", cc="set"),
        _op("sr", "RR", 0x1B, "ud,u", cc="set", zero_idiom=True),
        _op("mr", "RR", 0x1C, "odd,u"),
        _op("dr", "RR", 0x1D, "pair,u"),
        _op("alr", "RR", 0x1E, "ud,u", cc="set"),
        _op("slr", "RR", 0x1F, "ud,u", cc="set", zero_idiom=True),
        _op("cr", "RR", 0x19, "u,u", cc="only"),
        _op("clr", "RR", 0x15, "u,u", cc="only"),
        _op("nr", "RR", 0x14, "ud,u", cc="set"),
        _op("or", "RR", 0x16, "ud,u", cc="set"),
        _op("xr", "RR", 0x17, "ud,u", cc="set", zero_idiom=True),
        _op("bcr", "RR", 0x07, "m,u"),
        _op("balr", "RR", 0x05, "d,u"),
        _op("bctr", "RR", 0x06, "ud,u?"),
        _op("mvcl", "RR", 0x0E, "pair,pair", cc="set"),
        _op("clcl", "RR", 0x0F, "pair,pair", cc="set"),
        # RX
        _op("l", "RX", 0x58, "d,r4"),
        _op("lh", "RX", 0x48, "d,r2"),
        _op("la", "RX", 0x41, "d,a"),
        _op("st", "RX", 0x50, "u,w4"),
        _op("sth", "RX", 0x40, "u,w2"),
        _op("stc", "RX", 0x42, "u,w1"),
        _op("ic", "RX", 0x43, "ud,r1"),
        _op("a", "RX", 0x5A, "ud,r4", cc="set"),
        _op("ah", "RX", 0x4A, "ud,r2", cc="set"),
        _op("s", "RX", 0x5B, "ud,r4", cc="set"),
        _op("sh", "RX", 0x4B, "ud,r2", cc="set"),
        _op("m", "RX", 0x5C, "odd,r4"),
        _op("mh", "RX", 0x4C, "ud,r2"),
        _op("d", "RX", 0x5D, "pair,r4"),
        _op("c", "RX", 0x59, "u,r4", cc="only"),
        _op("ch", "RX", 0x49, "u,r2", cc="only"),
        _op("cl", "RX", 0x55, "u,r4", cc="only"),
        _op("n", "RX", 0x54, "ud,r4", cc="set"),
        _op("o", "RX", 0x56, "ud,r4", cc="set"),
        _op("x", "RX", 0x57, "ud,r4", cc="set"),
        _op("bc", "RX", 0x47, "m,a"),
        _op("bal", "RX", 0x45, "d,a"),
        _op("bct", "RX", 0x46, "ud,a"),
        _op("ex", "RX", 0x44, "u,a"),
        # RS
        _op("sla", "RS", 0x8B, "ud,-?,a", cc="set"),
        _op("sra", "RS", 0x8A, "ud,-?,a", cc="set"),
        _op("sll", "RS", 0x89, "ud,-?,a"),
        _op("srl", "RS", 0x88, "ud,-?,a"),
        _op("slda", "RS", 0x8F, "pair,-?,a", cc="set"),
        _op("srda", "RS", 0x8E, "pair,-?,a", cc="set"),
        _op("sldl", "RS", 0x8D, "pair,-?,a"),
        _op("srdl", "RS", 0x8C, "pair,-?,a"),
        _op("stm", "RS", 0x90, "u,u?,w"),
        _op("lm", "RS", 0x98, "d,d?,r"),
        # SI
        _op("mvi", "SI", 0x92, "w1,i"),
        _op("ni", "SI", 0x94, "rw1,i", cc="set"),
        _op("oi", "SI", 0x96, "rw1,i", cc="set"),
        _op("xi", "SI", 0x97, "rw1,i", cc="set"),
        _op("tm", "SI", 0x91, "r1,i", cc="only"),
        _op("cli", "SI", 0x95, "r1,i", cc="only"),
        # SS
        _op("mvc", "SS", 0xD2, "wL,rL"),
        _op("clc", "SS", 0xD5, "rL,rL", cc="only"),
        _op("nc", "SS", 0xD4, "rwL,rL", cc="set"),
        _op("oc", "SS", 0xD6, "rwL,rL", cc="set"),
        _op("xc", "SS", 0xD7, "rwL,rL", cc="set"),
        # SVC
        _op("svc", "SVC", 0x0A, "i"),
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
