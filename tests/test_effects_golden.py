"""The S/370 effects table against frozen golden answers.

``tests/fixtures/effects/effects.json`` holds what
:func:`repro.machines.s370.effects.instr_effects` answered, at the
commit named in its header, for a dense enumeration of operand shapes
over every mnemonic: well-formed forms, wrong arities and wrong operand
kinds in every slot (see ``generate_vectors.py`` beside it).  The
effects are derived from the operand-role records in
:mod:`repro.machines.s370.isa`; this test pins that derivation, and
``tests/test_effects_soundness.py`` checks the answers against the
simulator.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.codegen.emitter import Instr
from repro.machines.s370 import isa
from repro.machines.s370.effects import instr_effects

FIXTURES = Path(__file__).parent / "fixtures" / "effects"

_spec = importlib.util.spec_from_file_location(
    "effects_vectors", FIXTURES / "generate_vectors.py"
)
GEN = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(GEN)

with open(FIXTURES / "effects.json") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("mnemonic", sorted(GOLDEN["vectors"]))
def test_effects_match_golden(mnemonic):
    table = GOLDEN["effects"]
    wrong = [
        shape
        for shape, index in GOLDEN["vectors"][mnemonic].items()
        if GEN.record(instr_effects(Instr(mnemonic, GEN.parse_shape(shape))))
        != table[index]
    ]
    assert not wrong, f"{len(wrong)} shapes differ, first: {wrong[:5]}"


def test_vectors_cover_every_mnemonic_and_special_shape():
    vectors = GOLDEN["vectors"]
    assert set(isa.OPCODES) < set(vectors)
    for shape in ("r3 r3", "i8 r0", "r14 m80(0,10)", "r14 m80(3,10)",
                  "r14 r1 m8(0,13)", "m8(255,13) m8(0,13)"):
        assert shape in vectors["ar"], shape
    assert {f"i{n}" for n in range(12)} <= set(vectors["svc"])
