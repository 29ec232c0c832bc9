"""Generate the golden simulator vectors in this directory.

The vectors were recorded from the original decode-every-step lane
(``Simulator(predecode=False)``, ``Simulator.step``) before it was
deleted, so this script only runs against a checkout of the commit
named in the vectors' header, which still has that lane:

    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python generate_vectors.py <out_dir> <commit>

Each vector is also replayed on the predecoded lane of that commit;
the ids it disagreed on are listed in the header
(``predecoded_lane_disagreed_on``).
"""
import hashlib
import json
import random
import sys

from repro.bench import workloads as W
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.errors import SimulatorError
from repro.machines.s370 import isa, runtime
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.simulator import Simulator
from repro.pascal.compiler import compile_source

SEED = 370
MEM = 0x8000
PC = 0x7800
M32 = 0xFFFFFFFF
EDGES = [0, 1, 2, 3, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE,
         0x40000000, 0x7FFFFFFE, 0x80000001, 0xFFFF8000, 0x00008000]

PAIR_OPS = {"mr", "dr", "m", "d", "slda", "srda", "sldl", "srdl"}
WIDTH = {
    "l": 4, "a": 4, "s": 4, "n": 4, "o": 4, "x": 4, "c": 4, "cl": 4,
    "m": 4, "d": 4, "st": 4, "lh": 2, "ah": 2, "sh": 2, "mh": 2, "ch": 2,
    "sth": 2, "ic": 1, "stc": 1,
}


class Case:
    def __init__(self, rng):
        self.rng = rng
        self.regs = [self.r32() for _ in range(16)]
        self.cc = rng.randrange(4)
        self.mem = {}
        self.strict = rng.random() < 0.25
        self.input = []
        self.pc = PC
        self.code = b""

    def r32(self):
        rng = self.rng
        if rng.random() < 0.35:
            return rng.choice(EDGES)
        if rng.random() < 0.3:
            return rng.randrange(0, 64)
        return rng.randrange(0, 1 << 32)

    def window(self, addr, n, fill=None):
        for a in range(addr - 4, addr + n + 4):
            if 0 <= a < MEM and a not in self.mem:
                self.mem[a] = self.rng.randrange(256) if fill is None else fill

    def target(self, width):
        """A data address: mostly inside memory, sometimes off its end."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.06:
            return MEM - rng.randrange(0, max(width, 1))  # straddles the end
        if roll < 0.10:
            return rng.randrange(MEM, 1 << 24)  # wholly outside
        return rng.randrange(0x2000, 0x7000 - width)

    def address(self, x, b, d, width):
        """Set regs[x]/regs[b] so d(x,b) lands on a chosen target."""
        rng = self.rng
        if not x and not b:
            return d
        target = self.target(width)
        garbage = rng.choice([0, 0, 0, rng.randrange(1, 256) << 24])
        if x and b and x != b:
            xv = rng.randrange(0, 0x200)
            self.regs[x] = xv | garbage
            self.regs[b] = (target - d - xv) & 0xFFFFFF
        elif x and b:  # same register twice: 2*r + d
            if (target - d) % 2:
                target += 1
            self.regs[x] = ((target - d) // 2) & 0xFFFFFF
        else:
            r = x or b
            self.regs[r] = ((target - d) & 0xFFFFFF) | garbage
        return target & 0xFFFFFF


def ea(case, x, b, d):
    a = d
    if x:
        a += case.regs[x] & M32
    if b:
        a += case.regs[b] & M32
    return a & 0xFFFFFF


def reg(rng, even=False):
    if even:
        return rng.randrange(0, 15, 2)
    return rng.randrange(16)


def mem_field(rng):
    return rng.choice([0, 0, rng.randrange(1, 16), rng.randrange(1, 16)])


# ---- per-format case builders ----------------------------------------------


def build_rr(case, info, variant):
    rng = case.rng
    op = info.mnemonic
    r1, r2 = reg(rng), reg(rng)
    if op in PAIR_OPS:
        r1 = reg(rng, even=True)
        if variant == "odd" and op == "dr":
            r1 = rng.randrange(1, 14, 2)
    if op == "dr":
        if rng.random() < 0.5:  # sign-extended dividend: no overflow
            case.regs[r1 if r1 % 2 == 0 else r1 - 1] = (
                M32 if case.regs[(r1 | 1)] & 0x80000000 else 0
            ) if r1 % 2 == 0 else case.regs[r1 - 1]
        if variant == "zero":
            r2 = (r1 + 4) % 16
            case.regs[r2] = 0
        elif variant == "odd":
            r2 = (r1 + 5) % 16
            case.regs[r2] = 7
        elif case.regs[r2] == 0:
            case.regs[r2] = 3
    if op in ("ar", "sr") and variant == "overflow":
        r2 = (r1 + 1) % 16
        case.regs[r1] = 0x7FFFFFFF if op == "ar" else 0x80000000
        case.regs[r2] = 1
    if op == "mvcl":
        r1, r2 = rng.sample(range(0, 15, 2), 2)
        dest = rng.randrange(0x2000, 0x3000)
        src = rng.randrange(0x4000, 0x5000)
        dlen, slen = rng.randrange(0, 40), rng.randrange(0, 40)
        pad = rng.randrange(256)
        case.regs[r1], case.regs[r1 + 1] = dest, dlen
        case.regs[r2], case.regs[r2 + 1] = src, (pad << 24) | slen
        case.window(dest, dlen)
        case.window(src, slen)
    if op in ("bcr", "balr", "bctr") and variant == "zero":
        r2 = 0
    if variant == "alias":  # branch register is also the link/count register
        r1 = r2 = rng.randrange(1, 16)
    if op == "bctr" and variant == "one":
        case.regs[r1] = 1
    case.code = bytes([info.opcode, (r1 << 4) | r2])


def build_rx(case, info, variant):
    rng = case.rng
    op = info.mnemonic
    r1 = reg(rng, even=op in PAIR_OPS)
    x, b, d = mem_field(rng), mem_field(rng), rng.randrange(0, 0x1000)
    if variant == "alias":  # an address register is also r1
        r1 = rng.randrange(1, 16)
        if rng.random() < 0.5:
            x = r1
        else:
            b = r1
    width = WIDTH.get(op, 0)
    if width:
        case.address(x, b, d, width)
        a = ea(case, x, b, d)
        case.window(a, width)
        if op == "d" and a + 4 <= MEM:
            divisor = 0 if variant == "zero" else rng.randrange(1, 1000)
            for i, byte in enumerate(divisor.to_bytes(4, "big")):
                case.mem[a + i] = byte
            if rng.random() < 0.5:
                case.regs[r1] = M32 if case.regs[r1 + 1] & 0x80000000 else 0
    else:  # la / branches / ex: the address is only computed
        if x:
            case.regs[x] = case.r32()
        if b:
            case.regs[b] = case.r32()
    if op == "bct" and variant == "one":
        case.regs[r1] = 1
    case.code = bytes(
        [info.opcode, (r1 << 4) | x, (b << 4) | (d >> 8), d & 0xFF]
    )


def build_rs(case, info, variant):
    rng = case.rng
    op = info.mnemonic
    b, d = mem_field(rng), rng.randrange(0, 0x1000)
    if op in ("stm", "lm"):
        r1, r3 = reg(rng), reg(rng)
        if variant == "wrap":
            r1, r3 = rng.randrange(8, 16), rng.randrange(0, 8)
        count = (r3 - r1) % 16 + 1
        case.address(0, b, d, 4 * count)
        a = ea(case, 0, b, d)
        case.window(a, 4 * count)
    else:
        r1 = reg(rng, even=op in PAIR_OPS)
        if variant == "odd":
            r1 = rng.randrange(1, 14, 2)
        r3 = 0
        if b:
            case.regs[b] = case.r32()
    case.code = bytes(
        [info.opcode, (r1 << 4) | r3, (b << 4) | (d >> 8), d & 0xFF]
    )


def build_si(case, info, variant):
    rng = case.rng
    i2 = rng.choice([0, 0xFF, 1, 0x80, rng.randrange(256), rng.randrange(256)])
    b, d = mem_field(rng), rng.randrange(0, 0x1000)
    case.address(0, b, d, 1)
    a = ea(case, 0, b, d)
    case.window(a, 1)
    if info.mnemonic == "tm" and variant == "ones" and a < MEM:
        case.mem[a] = 0xFF
    case.code = bytes([info.opcode, i2, (b << 4) | (d >> 8), d & 0xFF])


def build_ss(case, info, variant):
    rng = case.rng
    lbyte = {"short": 0, "long": 255}.get(variant, rng.randrange(0, 24))
    length = lbyte + 1
    b1, d1 = mem_field(rng), rng.randrange(0, 0x1000)
    b2, d2 = mem_field(rng), rng.randrange(0, 0x1000)
    if variant == "overlap" and b1 and b2:
        b2 = b1
        d2 = max(0, d1 - 1)
        d1 = d2 + 1
    case.address(0, b1, d1, length)
    if not (variant == "overlap" and b1 == b2):
        case.address(0, b2, d2, length)
    a1, a2 = ea(case, 0, b1, d1), ea(case, 0, b2, d2)
    case.window(a1, length)
    case.window(a2, length)
    if variant == "equal" and a1 + length <= MEM and a2 + length <= MEM:
        for i in range(length - 1):
            case.mem[a1 + i] = case.mem[a2 + i]
    case.code = bytes(
        [info.opcode, lbyte, (b1 << 4) | (d1 >> 8), d1 & 0xFF,
         (b2 << 4) | (d2 >> 8), d2 & 0xFF]
    )


def build_svc(case, number, variant):
    rng = case.rng
    if number == isa.SVC_WRITE_STR:
        if variant == "fault":
            case.regs[1] = rng.randrange(0x2000, 0x3000)
            case.regs[2] = 0x7FFFFFFF
        else:
            addr = rng.randrange(0x2000, 0x3000)
            count = rng.randrange(0, 30)
            case.regs[1] = addr | rng.choice([0, 0x5A000000])
            case.regs[2] = count
            case.window(addr, count)
            for a in range(addr, addr + count):
                case.mem[a] = rng.randrange(0x20, 0x7F)
    if number == isa.SVC_READ_INT and variant != "empty":
        case.input = [rng.randrange(-(1 << 31), 1 << 31)
                      for _ in range(rng.randrange(1, 3))]
    case.code = bytes([isa.OPCODES["svc"].opcode, number])


BUILDERS = {"RR": build_rr, "RX": build_rx, "RS": build_rs,
            "SI": build_si, "SS": build_ss}

#: Extra named variants per mnemonic, on top of the random cases.
VARIANTS = {
    "ar": ["overflow"], "sr": ["overflow"],
    "dr": ["zero", "odd"], "d": ["zero"],
    "bcr": ["zero"], "balr": ["zero", "alias"],
    "bctr": ["zero", "one", "alias"],
    "bal": ["alias", "alias"], "bct": ["one", "alias", "alias"],
    "la": ["alias"],
    "slda": ["odd"], "srda": ["odd"], "sldl": ["odd"], "srdl": ["odd"],
    "stm": ["wrap", "wrap"], "lm": ["wrap", "wrap"],
    "tm": ["ones"],
    "mvc": ["short", "long", "overlap"], "clc": ["short", "long", "equal"],
    "nc": ["short", "long"], "oc": ["short", "long"],
    "xc": ["short", "long"],
}
RANDOM_CASES = 6
DISAGREE = []


# ---- execution and state capture ---------------------------------------------


def runs_of(mem):
    """Sparse memory {addr: byte} -> [[addr, hex], ...] contiguous runs."""
    out = []
    for a in sorted(mem):
        if out and out[-1][0] + len(out[-1][1]) // 2 == a:
            out[-1][1] += "%02x" % mem[a]
        else:
            out.append([a, "%02x" % mem[a]])
    return out


def pre_state(case):
    mem = dict(case.mem)
    for i, byte in enumerate(case.code):
        if case.pc + i < MEM:
            mem[case.pc + i] = byte
    return {
        "regs": list(case.regs),
        "cc": case.cc,
        "pc": case.pc,
        "mem": runs_of(mem),
        "strict_alignment": case.strict,
        "input": list(case.input),
    }


def load(pre):
    sim = Simulator(memory_size=MEM, input_values=pre["input"],
                    strict_alignment=pre["strict_alignment"])
    for addr, data in pre["mem"]:
        raw = bytes.fromhex(data)
        sim.memory[addr:addr + len(raw)] = raw
    sim.regs[:] = pre["regs"]
    sim.cc = pre["cc"]
    sim.pc = pre["pc"]
    return sim


def post_state(sim, pre, fault):
    mem = []
    for addr, data in pre["mem"]:
        n = len(data) // 2
        mem.append([addr, sim.memory[addr:addr + n].hex()])
    # Every changed byte must lie inside the recorded windows.
    expected = bytearray(MEM)
    for addr, data in pre["mem"]:
        raw = bytes.fromhex(data)
        expected[addr:addr + len(raw)] = raw
    covered = set()
    for addr, data in pre["mem"]:
        covered.update(range(addr, addr + len(data) // 2))
    for a in range(MEM):
        if sim.memory[a] != expected[a] and a not in covered:
            raise AssertionError(f"write outside window at {a:#x}")
    return {
        "regs": list(sim.regs),
        "cc": sim.cc,
        "pc": sim.pc,
        "mem": mem,
        "output": "".join(sim._output),
        "counts": dict(sim._counts),
        "halted": sim._halted,
        "trap": sim._trap,
        "fault": fault,
    }


def execute(pre, stepper):
    sim = load(pre)
    fault = None
    try:
        stepper(sim)
    except SimulatorError as error:
        fault = {
            "class": type(error).__name__,
            "message": str(error),
            "psw": {"pc": error.psw["pc"], "cc": error.psw["cc"],
                    "regs": list(error.psw["regs"])},
        }
    return post_state(sim, pre, fault)


def legacy_step(sim):
    sim.step()


def fast_step(sim):
    sim.step_fast()


def make_steps(rng):
    vectors = []
    for mnemonic, info in isa.OPCODES.items():
        if info.format == "SVC":
            continue
        plan = [None] * RANDOM_CASES + VARIANTS.get(mnemonic, [])
        for i, variant in enumerate(plan):
            case = Case(rng)
            BUILDERS[info.format](case, info, variant)
            vectors.append((f"{mnemonic}-{i}", mnemonic, pre_state(case)))
    svc_plan = [(n, None) for n in range(10)] + [
        (isa.SVC_WRITE_STR, "fault"), (isa.SVC_READ_INT, "empty"),
        (isa.SVC_WRITE_INT, None), (isa.SVC_WRITE_CHAR, None),
        (isa.SVC_WRITE_BOOL, None), (isa.SVC_ABORT, None), (77, None),
    ]
    for i, (number, variant) in enumerate(svc_plan):
        case = Case(rng)
        build_svc(case, number, variant)
        vectors.append((f"svc-{i}", "svc", pre_state(case)))
    # Bytes that are no instruction, and a pc outside memory.
    for i, opcode in enumerate([0x00, 0xFF, 0x01, 0xB2]):
        case = Case(rng)
        case.code = bytes([opcode, rng.randrange(256), 0, 0, 0, 0])
        vectors.append((f"unknown-{i}", None, pre_state(case)))
    case = Case(rng)
    case.pc = MEM + 0x10
    vectors.append(("pc-outside-memory", None, pre_state(case)))
    out = []
    for vid, mnemonic, pre in vectors:
        post = execute(pre, legacy_step)
        fast = execute(pre, fast_step)
        if fast != post:
            DISAGREE.append(vid)
        out.append({"id": vid, "mnemonic": mnemonic, "pre": pre,
                    "post": post})
    return out


# ---- whole runs ------------------------------------------------------------------

ENC = S370Encoder()


def _image(instrs, data=b""):
    code = b"".join(ENC.encode(i) for i in instrs)
    code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
    return runtime.ExecutableImage(code=code, entry=0, data=data)


def image_record(image):
    return {"code": image.code.hex(), "entry": image.entry,
            "data": image.data.hex(),
            "relocations": list(image.relocations)}


def run_cases():
    cases = []
    for name, source in [
        ("app1a", W.appendix1_equation()),
        ("app1b", W.appendix1_fragment()),
        ("straight", W.straightline(40, seed=5)),
        ("ladder", W.branch_ladder(25)),
        ("arrays", W.array_kernel(10)),
        ("loop", W.loop_kernel(120)),
    ]:
        cases.append({"id": name, "image": compile_source(source).image(),
                      "strict_alignment": False, "setup": None})
    load_misaligned = _image(
        [Instr("l", (R(3), Mem(2, 0, runtime.R_GLOBAL_BASE)))]
    )
    cases.append({"id": "strict-alignment-fault", "image": load_misaligned,
                  "strict_alignment": True, "setup": None})
    cases.append({
        "id": "alignment-tolerated", "image": load_misaligned,
        "strict_alignment": False,
        "setup": {"regs": {}, "mem": [
            [runtime.GLOBAL_AREA + 2, (77).to_bytes(4, "big").hex()]]},
    })
    cases.append({"id": "register-pair-fault",
                  "image": _image([Instr("srda", (R(3), Imm(1)))]),
                  "strict_alignment": False, "setup": None})
    replacement = ENC.encode(
        Instr("s", (R(3), Mem(4, 0, runtime.R_GLOBAL_BASE)))
    )
    cases.append({
        "id": "self-modifying",
        "image": _image([
            Instr("l", (R(6), Mem(0, 0, runtime.R_GLOBAL_BASE))),
            Instr("a", (R(3), Mem(4, 0, runtime.R_GLOBAL_BASE))),
            Instr("st", (R(6), Mem(4, 0, runtime.R_CODE_BASE))),
            Instr("bct", (R(4), Mem(4, 0, runtime.R_CODE_BASE))),
        ], data=replacement + (10).to_bytes(4, "big")),
        "strict_alignment": False,
        "setup": {"regs": {"3": 0, "4": 2}, "mem": []},
    })
    code = ENC.encode(Instr("lr", (R(1), R(1))))
    code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
    code += b"\xff\xff\xff\xff"
    cases.append({"id": "embedded-data",
                  "image": runtime.ExecutableImage(code=code, entry=0),
                  "strict_alignment": False, "setup": None})
    return cases


def run_one(case, predecode):
    sim = Simulator(strict_alignment=case["strict_alignment"],
                    predecode=predecode)
    sim.load_image(case["image"])
    setup = case["setup"]
    if setup:
        for r, value in setup["regs"].items():
            sim.regs[int(r)] = value
        for addr, data in setup["mem"]:
            raw = bytes.fromhex(data)
            sim.memory[addr:addr + len(raw)] = raw
    record = {"fault": None}
    try:
        result = sim.run()
    except SimulatorError as error:
        record["fault"] = {
            "class": type(error).__name__, "message": str(error),
            "psw": {"pc": error.psw["pc"], "cc": error.psw["cc"],
                    "regs": list(error.psw["regs"])},
        }
    else:
        record.update(output=result.output, steps=result.steps,
                      halted=result.halted, trap=result.trap,
                      counts=result.instruction_counts)
    record.update(regs=list(sim.regs), cc=sim.cc, pc=sim.pc,
                  memory_sha256=hashlib.sha256(sim.memory).hexdigest())
    return record


def make_runs():
    out = []
    for case in run_cases():
        legacy = run_one(case, predecode=False)
        fast = run_one(case, predecode=True)
        if legacy != fast:
            DISAGREE.append(case["id"])
        out.append({"id": case["id"], "image": image_record(case["image"]),
                    "strict_alignment": case["strict_alignment"],
                    "setup": case["setup"], "result": legacy})
    return out


def dump(path, header, vectors):
    with open(path, "w") as fh:
        fh.write("{\n")
        fh.write('"header": ' + json.dumps(header, indent=1) + ",\n")
        fh.write('"vectors": [\n')
        fh.write(",\n".join(json.dumps(v, sort_keys=True) for v in vectors))
        fh.write("\n]\n}\n")


def main():
    out_dir, commit = sys.argv[1], sys.argv[2]
    rng = random.Random(SEED)
    steps = make_steps(rng)
    runs = make_runs()
    common = {
        "source": "the legacy decode-every-step Simulator.step lane "
                  "(Simulator(predecode=False))",
        "commit": commit,
        "seed": SEED,
        "predecoded_lane_disagreed_on": sorted(DISAGREE),
    }
    dump(f"{out_dir}/steps.json", dict(common, **{
        "memory_size": MEM,
        "format": "pre: regs, cc, pc, mem [[addr, hex]], strict_alignment, "
                  "input; post: regs, cc, pc, mem (same windows), output, "
                  "counts, halted, trap, fault {class, message, psw} or "
                  "null.  Output and counts start empty.  No byte outside "
                  "the windows changes.",
    }), steps)
    dump(f"{out_dir}/runs.json", dict(common, **{
        "memory_size": runtime.MEMORY_SIZE,
        "format": "image {code, entry, data, relocations}, "
                  "strict_alignment, setup {regs, mem} applied after "
                  "load_image, result: fault or output/steps/halted/trap/"
                  "counts, then final regs, cc, pc and memory_sha256.",
    }), runs)
    print(len(steps), "step vectors,", len(runs), "runs")


if __name__ == "__main__":
    main()
