"""Generate the golden ``instr_effects`` vectors in this directory.

Each vector is one symbolic instruction -- a mnemonic and an operand
shape -- and the :class:`~repro.core.effects.InstrEffects` record that
:func:`repro.machines.s370.effects.instr_effects` returned for it at the
commit named in the header.  The shapes are a dense enumeration over
every mnemonic in ``isa.OPCODES``: zero to four operands, each slot a
register, an immediate or an address from the pools below, so wrong
arities and wrong operand kinds are covered as well as the well-formed
forms.  The pools make sure of the special cases:

* ``r,r`` zero idioms and ``bcr m,0``/``bctr r,0`` (register 0);
* condition masks 0, 8 and 15;
* the runtime-stub offsets off ``pr_base`` (r10), with and without an
  index register, and an offset there that is no stub;
* ``stm``/``lm`` ranges that wrap around (r14..r1);
* SS length bytes 0 and 255 (the index slot of the first operand);
* ``svc`` 0 to 11 and an unknown service number.

Run it against a checkout of any commit:

    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python generate_vectors.py <out_dir> <commit>

``tests/test_effects_golden.py`` replays the vectors and imports
:func:`parse_shape` and :func:`record` from here, so both sides read
and write the same notation.
"""
import json
import re
import sys

from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.core.effects import InstrEffects
from repro.machines.s370 import isa, runtime as rt
from repro.machines.s370.effects import instr_effects

_STUBS = (rt.OFF_ENTRY_CODE, rt.OFF_UNDERFLOW, rt.OFF_OVERFLOW)

#: Operands for every slot of the zero- to two-operand shapes.
POOL = (
    [R(n) for n in (0, 1, 3, 14, 15)]
    + [Imm(v) for v in (0, 8, 14, 15)]
    + [Mem(0, 0, 0), Mem(8, 0, 13), Mem(8, 3, 13), Mem(8, 255, 13)]
    + [Mem(off, 0, rt.R_PR_BASE) for off in _STUBS]
    + [Mem(rt.OFF_ENTRY_CODE, 3, rt.R_PR_BASE), Mem(4, 0, rt.R_PR_BASE)]
)
#: A smaller pool for the three-operand shapes.
SMALL = [R(1), R(14), Imm(3), Mem(8, 0, 13), Mem(8, 3, 13)]

_MEM = re.compile(r"m(\d+)\((\d+),(\d+)\)$")


def operand_text(operand):
    if isinstance(operand, R):
        return f"r{operand.n}"
    if isinstance(operand, Imm):
        return f"i{operand.value}"
    return f"m{operand.disp}({operand.index},{operand.base})"


def parse_shape(text):
    """``"r1 m8(3,13)"`` -> ``(R(1), Mem(8, 3, 13))``."""
    operands = []
    for token in text.split():
        if token[0] == "r":
            operands.append(R(int(token[1:])))
        elif token[0] == "i":
            operands.append(Imm(int(token[1:])))
        else:
            disp, index, base = _MEM.match(token).groups()
            operands.append(Mem(int(disp), int(index), int(base)))
    return tuple(operands)


_DEFAULT = InstrEffects()


def record(effects):
    """An InstrEffects (or None) as JSON: its non-default fields."""
    if effects is None:
        return None
    out = {}
    for name in _DEFAULT.__dataclass_fields__:
        value = getattr(effects, name)
        if value == getattr(_DEFAULT, name):
            continue
        if isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = [None if loc is None else list(loc) for loc in value]
        out[name] = value
    return out


def shapes(mnemonic):
    yield ()
    for a in POOL:
        yield (a,)
    for a in POOL:
        for b in POOL:
            yield (a, b)
    for a in SMALL:
        for b in SMALL:
            for c in SMALL:
                yield (a, b, c)
    yield (R(1),) * 4
    if mnemonic == "svc":
        for number in list(range(12)) + [77]:
            yield (Imm(number),)


def make_vectors():
    table, ids, vectors = [], {}, {}
    for mnemonic in list(isa.OPCODES) + ["nosuchop"]:
        answers = {}
        for shape in shapes(mnemonic):
            rec = record(instr_effects(Instr(mnemonic, shape)))
            key = json.dumps(rec, sort_keys=True)
            if key not in ids:
                ids[key] = len(table)
                table.append(rec)
            answers[" ".join(operand_text(o) for o in shape)] = ids[key]
        vectors[mnemonic] = answers
    return table, vectors


def main():
    out_dir, commit = sys.argv[1], sys.argv[2]
    table, vectors = make_vectors()
    header = {
        "source": "repro.machines.s370.effects.instr_effects",
        "commit": commit,
        "format": "effects: the distinct answers, each the non-default "
                  "InstrEffects fields (sets sorted, Locs as [base, "
                  "index, disp, width]) or null for an unknown mnemonic; "
                  "vectors: mnemonic -> {operand shape: effects index}, "
                  "a shape being space-separated operands rN (R), iN "
                  "(Imm) and mD(X,B) (Mem disp, index, base).",
    }
    with open(f"{out_dir}/effects.json", "w") as fh:
        fh.write("{\n")
        fh.write('"header": ' + json.dumps(header, indent=1) + ",\n")
        fh.write('"effects": [\n')
        fh.write(",\n".join(json.dumps(r, sort_keys=True) for r in table))
        fh.write("\n],\n")
        fh.write('"vectors": {\n')
        fh.write(",\n".join(
            json.dumps(m) + ": " + json.dumps(v)
            for m, v in vectors.items()
        ))
        fh.write("\n}\n}\n")
    count = sum(len(v) for v in vectors.values())
    print(count, "vectors,", len(table), "distinct effects")


if __name__ == "__main__":
    main()
