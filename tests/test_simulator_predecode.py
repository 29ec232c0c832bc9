"""The predecoded dispatch lane against frozen reference vectors.

``tests/fixtures/simulator/`` holds golden vectors recorded from the
original decode-every-step loop (``Simulator.step``) before it was
deleted; its header names the commit and the seed.  ``steps.json``
pins one instruction per vector -- every mnemonic in ``isa.OPCODES``,
every SVC service, unknown opcodes and a pc outside memory -- as a
pre-state and a post-state: registers, CC, pc, a sparse memory window,
output, instruction counts and the typed trap with its PSW.
``runs.json`` pins whole runs: compiled workloads, alignment faults and
tolerance, the register-pair fault, self-modifying code and embedded
data.  The simulator's one execution lane must reproduce both.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro.errors import RegisterPairFaultError, SimulatorError
from repro.core.codegen.emitter import Imm, Instr, R
from repro.machines.s370 import isa, runtime
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.simulator import Simulator

ENC = S370Encoder()
BASE = runtime.MODULE_BASE
FIXTURES = Path(__file__).parent / "fixtures" / "simulator"


def _load(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


STEPS = _load("steps.json")
RUNS = {v["id"]: v for v in _load("runs.json")["vectors"]}
STEP_MEMORY = STEPS["header"]["memory_size"]
BY_MNEMONIC = defaultdict(list)
for _vector in STEPS["vectors"]:
    BY_MNEMONIC[_vector["mnemonic"] or "(none)"].append(_vector)
del _vector


def _image(instrs, data=b""):
    code = b"".join(ENC.encode(i) for i in instrs)
    code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
    return runtime.ExecutableImage(code=code, entry=0, data=data)


def _fault_record(error):
    psw = error.psw
    return {
        "class": type(error).__name__,
        "message": str(error),
        "psw": {"pc": psw["pc"], "cc": psw["cc"], "regs": list(psw["regs"])},
    }


def _poke(memory, windows):
    for addr, data in windows:
        raw = bytes.fromhex(data)
        memory[addr:addr + len(raw)] = raw


# ---- single steps ------------------------------------------------------------


def _code_byte(pre, offset):
    """The byte at ``pc + offset`` in a vector's pre-state."""
    address = pre["pc"] + offset
    for addr, data in pre["mem"]:
        if addr <= address < addr + len(data) // 2:
            return bytes.fromhex(data)[address - addr]
    raise KeyError(address)


def _replay_step(vector):
    """Execute one vector's instruction; returns (post-state, memory)."""
    pre = vector["pre"]
    sim = Simulator(memory_size=STEP_MEMORY, input_values=pre["input"],
                    strict_alignment=pre["strict_alignment"])
    _poke(sim.memory, pre["mem"])
    sim.regs[:] = pre["regs"]
    sim.cc = pre["cc"]
    sim.pc = pre["pc"]
    fault = None
    try:
        sim.step_fast()
    except SimulatorError as error:
        fault = _fault_record(error)
    post = {
        "regs": list(sim.regs),
        "cc": sim.cc,
        "pc": sim.pc,
        "mem": [
            [addr, sim.memory[addr:addr + len(data) // 2].hex()]
            for addr, data in pre["mem"]
        ],
        "output": "".join(sim._output),
        "counts": dict(sim._counts),
        "halted": sim._halted,
        "trap": sim._trap,
        "fault": fault,
    }
    return post, sim.memory


class TestGoldenSteps:
    @pytest.mark.parametrize("mnemonic", sorted(BY_MNEMONIC))
    def test_step_vectors(self, mnemonic):
        for vector in BY_MNEMONIC[mnemonic]:
            post, memory = _replay_step(vector)
            assert post == vector["post"], vector["id"]
            # No byte outside the recorded windows may change.
            expected = bytearray(STEP_MEMORY)
            _poke(expected, vector["post"]["mem"])
            assert memory == expected, vector["id"]

    def test_vectors_cover_every_opcode_and_trap_class(self):
        assert set(isa.OPCODES) <= set(BY_MNEMONIC)
        classes = {
            (v["post"]["fault"] or {}).get("class")
            for v in STEPS["vectors"]
        }
        assert classes >= {
            "MemoryFaultError", "AlignmentFaultError",
            "RegisterPairFaultError", "InvalidOpcodeError",
        }
        # SS length bytes 0 and 255 (1 and 256 bytes) are both pinned.
        for op in ("mvc", "clc", "nc", "oc", "xc"):
            lbytes = {_code_byte(v["pre"], 1) for v in BY_MNEMONIC[op]}
            assert {0, 255} <= lbytes, op


# ---- whole runs --------------------------------------------------------------------


def _replay_run(run_id):
    """Replay one recorded run, assert it matches, and return it."""
    vector = RUNS[run_id]
    image = vector["image"]
    sim = Simulator(strict_alignment=vector["strict_alignment"])
    sim.load_image(runtime.ExecutableImage(
        code=bytes.fromhex(image["code"]), entry=image["entry"],
        data=bytes.fromhex(image["data"]),
        relocations=list(image["relocations"]),
    ))
    setup = vector["setup"]
    if setup:
        for r, value in setup["regs"].items():
            sim.regs[int(r)] = value
        _poke(sim.memory, setup["mem"])
    record = {"fault": None}
    try:
        result = sim.run()
    except SimulatorError as error:
        record["fault"] = _fault_record(error)
    else:
        record.update(output=result.output, steps=result.steps,
                      halted=result.halted, trap=result.trap,
                      counts=result.instruction_counts)
    record.update(regs=list(sim.regs), cc=sim.cc, pc=sim.pc,
                  memory_sha256=hashlib.sha256(sim.memory).hexdigest())
    assert record == vector["result"]
    return record


class TestLaneDifferential:
    @pytest.mark.parametrize(
        "run_id",
        ["app1a", "app1b", "straight", "ladder", "arrays", "loop"],
        ids=["app1a", "app1b", "straight", "ladder", "arrays", "loop"],
    )
    def test_compiled_workloads_identical(self, run_id):
        record = _replay_run(run_id)
        assert record["halted"] and record["trap"] is None
        assert record["counts"]  # instruction counts compared too

    def test_strict_alignment_faults_identically(self):
        record = _replay_run("strict-alignment-fault")
        assert record["fault"]["class"] == "AlignmentFaultError"

    def test_strict_alignment_off_tolerates_identically(self):
        record = _replay_run("alignment-tolerated")
        assert record["fault"] is None
        assert record["regs"][3] == 77

    def test_register_pair_fault_typed_in_both_lanes(self):
        # SRDA of an odd first register is a specification exception:
        # the typed trap carries the recorded PSW.
        record = _replay_run("register-pair-fault")
        assert record["fault"]["class"] == "RegisterPairFaultError"
        assert record["fault"]["psw"]["pc"] == BASE

    def test_register_pair_fault_raised_directly(self):
        sim = Simulator()
        with pytest.raises(RegisterPairFaultError):
            sim._pair(5)


class TestSelfModifyingCode:
    def test_store_rewrites_future_iteration(self):
        """A loop that overwrites its own add with a subtract.

        Iteration 1 executes ``A`` (r3 += 10) and stores an ``S``
        encoding over it; iteration 2 must execute the new ``S``
        (r3 -= 10) -- which only happens if the store invalidated the
        already-predecoded slot.
        """
        record = _replay_run("self-modifying")
        assert record["regs"][3] == 0  # +10 then -10, not +10 +10

    def test_invalidation_is_exact(self):
        """A store drops exactly the overlapping predecoded slots."""
        instrs = [Instr("lr", (R(1), R(1))) for _ in range(5)]  # 2B each
        image = _image(instrs)
        sim = Simulator()
        sim.load_image(image)
        result = sim.run()
        assert result.halted
        expected = {BASE + off for off in (0, 2, 4, 6, 8, 10)}
        assert sim.decoded_pcs == expected

        # A word store over [BASE+4, BASE+8) kills the slots at +4 and
        # +6 -- and only those (the slot at +2 ends exactly at +4).
        sim.write_word(BASE + 4, 0)
        assert sim.decoded_pcs == expected - {BASE + 4, BASE + 6}

        # A byte store only kills the single covering slot.
        sim.write_byte(BASE + 9, 0)
        assert sim.decoded_pcs == expected - {
            BASE + 4, BASE + 6, BASE + 8
        }

        # Stores outside the text region leave the cache alone.
        sim.write_word(runtime.GLOBAL_AREA, 123)
        assert sim.decoded_pcs == expected - {
            BASE + 4, BASE + 6, BASE + 8
        }

    def test_load_image_clears_cache(self):
        image = _image([Instr("lr", (R(1), R(1)))])
        sim = Simulator()
        sim.load_image(image)
        sim.run()
        assert sim.decoded_pcs
        sim.load_image(image)
        assert sim.decoded_pcs == set()


class TestLaneSelection:
    def test_embedded_data_is_never_decoded(self):
        # Lazy decode: a garbage word placed after the halt is part of
        # the text region but never executed, so it must never decode
        # (eager predecode would fault on it).
        record = _replay_run("embedded-data")
        assert record["fault"] is None and record["halted"]
