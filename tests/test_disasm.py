"""Unit + property tests: the S/370 disassembler vs. the encoder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370.disasm import disassemble, render
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.isa import MASK, OPCODES

ENC = S370Encoder()


def roundtrip(instr):
    data = ENC.encode(instr)
    decoded = disassemble(data)
    assert len(decoded) == 1
    return decoded[0]


class TestKnownForms:
    def test_rr(self):
        assert roundtrip(Instr("ar", (R(1), R(2)))).text == "ar    r1,r2"

    def test_bcr_mask(self):
        assert roundtrip(
            Instr("bcr", (Imm(15), R(14)))
        ).text == "bcr   15,r14"

    def test_rx_indexed(self):
        assert roundtrip(
            Instr("l", (R(5), Mem(850, 4, 12)))
        ).text == "l     r5,850(4,12)"

    def test_rx_base_only(self):
        assert roundtrip(
            Instr("st", (R(1), Mem(80, 0, 13)))
        ).text == "st    r1,80(,13)"

    def test_rs_shift(self):
        assert roundtrip(
            Instr("sla", (R(1), Imm(2)))
        ).text == "sla   r1,2"

    def test_rs_multiple(self):
        assert roundtrip(
            Instr("stm", (R(14), R(12), Mem(8, 0, 13)))
        ).text == "stm   r14,r12,8(,13)"

    def test_si(self):
        assert roundtrip(
            Instr("tm", (Mem(80, 0, 13), Imm(1)))
        ).text == "tm    80(,13),1"

    def test_ss_shows_true_length(self):
        # encoded length byte 11 means 12 bytes
        data = ENC.encode(Instr("mvc", (Mem(0, 11, 1), Mem(0, 0, 2))))
        assert disassemble(data)[0].text == "mvc   0(12,1),0(,2)"

    def test_svc(self):
        assert roundtrip(Instr("svc", (Imm(1),))).text == "svc   1"

    def test_unknown_bytes_decode_as_dc(self):
        decoded = disassemble(b"\xff\x00")
        assert decoded[0].text.startswith("dc")


class TestSweep:
    def test_whole_program(self):
        from repro.pascal import compile_source

        compiled = compile_source(
            "program d; var x: integer;\n"
            "begin x := 6 * 7; writeln(x) end.\n"
        )
        module = compiled.module
        text = render(module.code, start=module.entry)
        # every encoder-produced mnemonic is recognizable
        assert "dc" not in text.split()
        assert "svc   1" in text
        assert "mr" in text

    def test_addresses_advance_by_length(self):
        from repro.pascal import compile_source

        compiled = compile_source(
            "program d; var x: integer;\n"
            "begin x := 1; writeln(x) end.\n"
        )
        module = compiled.module
        decoded = disassemble(module.code, start=module.entry)
        position = module.entry
        for item in decoded:
            assert item.address == position
            position += item.length
        assert position == len(module.code)


def _mem_strategy():
    return st.builds(
        Mem,
        st.integers(0, 4095),
        st.integers(0, 15),
        st.integers(0, 15),
    )


_RX_OPS = sorted(
    n for n, i in OPCODES.items()
    if i.format == "RX" and i.roles[0].kind != MASK
)
_RR_OPS = sorted(
    n for n, i in OPCODES.items()
    if i.format == "RR" and i.roles[0].kind != MASK and n != "bctr"
)


class TestRoundtripProperties:
    @given(
        op=st.sampled_from(_RX_OPS),
        r1=st.integers(0, 15),
        mem=_mem_strategy(),
    )
    @settings(max_examples=80, deadline=None)
    def test_rx_reencodes(self, op, r1, mem):
        """encode -> disassemble -> the decoded fields match."""
        instr = Instr(op, (R(r1), mem))
        decoded = roundtrip(instr)
        assert decoded.text.startswith(op)
        assert f"r{r1}," in decoded.text
        assert str(mem.disp) in decoded.text

    @given(
        op=st.sampled_from(_RR_OPS),
        r1=st.integers(0, 15),
        r2=st.integers(0, 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_rr_reencodes(self, op, r1, r2):
        decoded = roundtrip(Instr(op, (R(r1), R(r2))))
        assert decoded.text == f"{op:<6}r{r1},r{r2}"

    @given(data=st.binary(min_size=2, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes_never_crash(self, data):
        decoded = disassemble(data)
        assert sum(d.length for d in decoded) == len(data)


#: Operand forms per format: (operands, disassembly after the mnemonic).
_FORMS = {
    "RR": [((R(3), R(12)), "r3,r12"), ((R(0), R(15)), "r0,r15")],
    "RX": [
        ((R(5), Mem(850, 4, 12)), "r5,850(4,12)"),
        ((R(1), Mem(80, 0, 13)), "r1,80(,13)"),
        ((R(2), Imm(100)), "r2,100"),
    ],
    "RS": [((R(2), Imm(3)), "r2,3"), ((R(4), Mem(5, 0, 7)), "r4,5(,7)")],
    "SI": [
        ((Mem(80, 0, 13), Imm(1)), "80(,13),1"),
        ((Mem(4095, 0, 0), Imm(255)), "4095,255"),
    ],
    "SS": [  # length bytes 0 and 255: 1 and 256 bytes
        ((Mem(0, 0, 1), Mem(0, 0, 2)), "0(1,1),0(,2)"),
        ((Mem(16, 255, 13), Mem(4, 0, 11)), "16(256,13),4(,11)"),
    ],
    "SVC": [((Imm(1),), "1"), ((Imm(255),), "255")],
}
_MASK_FORMS = [(Imm(0), "0"), (Imm(8), "8"), (Imm(15), "15")]
_SPECIAL_FORMS = {
    "bcr": [((m, R(14)), f"{t},r14") for m, t in _MASK_FORMS]
    + [((Imm(8), R(0)), "8,r0")],
    "bc": [((m, Mem(12, 0, 12)), f"{t},12(,12)") for m, t in _MASK_FORMS]
    + [((Imm(7), Mem(40, 3, 12)), "7,40(3,12)")],
    "bctr": [((R(4),), "r4,r0"), ((R(4), R(5)), "r4,r5")],
    "stm": [
        ((R(14), R(12), Mem(8, 0, 13)), "r14,r12,8(,13)"),
        ((R(2), R(5), Mem(0, 0, 1)), "r2,r5,0(,1)"),
    ],
}
_SPECIAL_FORMS["lm"] = _SPECIAL_FORMS["stm"]

#: S370Encoder.operand_arity per format; bctr also takes one operand.
_ARITY = {"RR": (2, 2), "RX": (2, 2), "RS": (2, 3), "SI": (2, 2),
          "SS": (2, 2), "SVC": (1, 1)}


@pytest.mark.parametrize("mnemonic", sorted(OPCODES))
def test_every_record_roundtrips(mnemonic):
    """encode -> disassemble gives the exact text and size of every
    operand form; the arity the static analyzer checks is pinned."""
    info = OPCODES[mnemonic]
    forms = _SPECIAL_FORMS.get(mnemonic, _FORMS[info.format])
    for operands, text in forms:
        instr = Instr(mnemonic, operands)
        data = ENC.encode(instr)
        assert ENC.size(instr) == len(data) == info.length
        decoded = disassemble(data)
        assert [(d.length, d.text) for d in decoded] == [
            (info.length, f"{mnemonic:<6}{text}")
        ]
    expected = (1, 2) if mnemonic == "bctr" else _ARITY[info.format]
    assert ENC.operand_arity(mnemonic) == expected
