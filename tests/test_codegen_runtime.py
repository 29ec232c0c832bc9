"""Unit tests: the skeletal parser / code emission routine.

These drive small specs through the full CoGG pipeline and inspect the
emitted symbolic instructions, exercising the behaviours of paper
sections 3 and 4 one at a time.
"""

import pytest

from repro.errors import CodeGenError
from repro.core.cogg import build_code_generator
from repro.core.machine import (
    ClassKind,
    MachineDescription,
    RegisterClass,
    simple_machine,
)
from repro.core.codegen.emitter import BranchSite, Imm, LabelMark, R, SkipSite
from repro.ir.linear import IFToken as T

from helpers import TINY_SPEC, tiny_build


def mnemonics(code):
    return [i.opcode for i in code.instructions()]


class TestBasicTranslation:
    def test_paper_section1_example(self):
        """store(word d.a, iadd(word d.a, word d.b)) == A := A + B."""
        build = tiny_build()
        code = build.code_generator.generate(
            [
                T("store"), T("d", 100),
                T("iadd"),
                T("word"), T("d", 100),
                T("word"), T("d", 104),
            ]
        )
        assert mnemonics(code) == ["load", "load", "add", "stor"]

    def test_statement_sequence(self):
        build = tiny_build()
        tokens = []
        for _ in range(3):
            tokens += [
                T("store"), T("d", 0),
                T("word"), T("d", 4),
            ]
        code = build.code_generator.generate(tokens)
        assert mnemonics(code) == ["load", "stor"] * 3

    def test_empty_input_rejected(self):
        build = tiny_build()
        with pytest.raises(CodeGenError):
            build.code_generator.generate([])

    def test_blocking_signals_error(self):
        """Per the paper: a bad IF makes the generator 'stop and signal
        an error' instead of emitting a wrong sequence."""
        build = tiny_build()
        with pytest.raises(CodeGenError) as err:
            build.code_generator.generate(
                [T("store"), T("d", 0), T("store"), T("d", 0)]
            )
        assert "blocked" in str(err.value)

    def test_truncated_input_rejected(self):
        build = tiny_build()
        with pytest.raises(CodeGenError):
            build.code_generator.generate([T("store"), T("d", 0)])

    def test_register_operands_fill_templates(self):
        build = tiny_build()
        code = build.code_generator.generate(
            [
                T("store"), T("d", 8),
                T("iadd"), T("word"), T("d", 0), T("word"), T("d", 4),
            ]
        )
        add = code.instructions()[2]
        regs = {op.n for op in add.operands}
        assert len(regs) == 2  # two distinct registers

    def test_deep_expression_uses_distinct_registers(self):
        build = tiny_build()
        # ((w+w)+(w+w)) requires two simultaneously live registers.
        tokens = [T("store"), T("d", 0), T("iadd"),
                  T("iadd"), T("word"), T("d", 0), T("word"), T("d", 4),
                  T("iadd"), T("word"), T("d", 8), T("word"), T("d", 12)]
        code = build.code_generator.generate(tokens)
        assert mnemonics(code) == [
            "load", "load", "add", "load", "load", "add", "add", "stor",
        ]


SEMOP_SPEC = """
$Non-terminals
 r = register, dbl = double, cc = condition
$Terminals
 dsp, lbl, cond, lng, cse, cnt
$Operators
 fullword, imult, store, label_def, branch_op, move, icompare,
 make_common, use_common
$Opcodes
 l, st, mr, lr, mvc, cr
$Constants
 using, need, modifies, ignore_lhs, push_odd, push_even, load_odd_reg,
 label_location, branch, skip, ibm_length, full_common, find_common
 zero = 0; two = 2; unconditional = 15
$Productions
r.2 ::= fullword dsp.1 r.1
 using r.2
 l r.2,dsp.1(zero,r.1)
r.2 ::= imult r.2 r.1
 using dbl.1
 load_odd_reg dbl.1,r.2
 mr dbl.1,r.1
 push_odd dbl.1
 ignore_lhs
lambda ::= store dsp.1 r.1 r.2
 st r.2,dsp.1(zero,r.1)
lambda ::= label_def lbl.1
 label_location lbl.1
lambda ::= branch_op lbl.1 cond.1 cc.1
 using r.3
 branch cond.1,lbl.1,r.3
cc.1 ::= icompare r.1 r.2
 using cc.1
 cr r.1,r.2
lambda ::= move dsp.1 r.1 dsp.2 r.2 lng.1
 ibm_length lng.1
 mvc dsp.1(lng.1,r.1),dsp.2(zero,r.2)
r.2 ::= make_common cse.1 cnt.1 fullword dsp.1 r.1 r.2
 full_common cse.1,cnt.1,r.2,dsp.1,r.1
r.1 ::= use_common cse.1
 find_common cse.1
 ignore_lhs
"""


def semop_machine():
    gpr = RegisterClass(
        "register", ClassKind.GPR,
        members=tuple(range(16)), allocatable=tuple(range(1, 10)),
    )
    dbl = RegisterClass(
        "double", ClassKind.PAIR,
        members=(2, 4, 6, 8), allocatable=(2, 4, 6, 8), pair_of="r",
    )
    cc = RegisterClass("condition", ClassKind.CC)
    return MachineDescription(
        name="semop-test",
        classes={"r": gpr, "dbl": dbl, "cc": cc},
        constants={"code_base": 12},
        move_op={"r": "lr"},
        semop_opcodes={"load_odd_reg": "lr"},
    )


def semop_build():
    return build_code_generator(SEMOP_SPEC, semop_machine())


class TestMachineIdioms:
    def test_push_odd_result_register(self):
        """paper 4.3: IMULT leaves the product in the odd register."""
        build = semop_build()
        code = build.code_generator.generate(
            [
                T("store"), T("dsp", 0), T("r", 13),
                T("imult"),
                T("fullword"), T("dsp", 4), T("r", 13),
                T("fullword"), T("dsp", 8), T("r", 13),
            ]
        )
        names = mnemonics(code)
        assert names == ["l", "l", "lr", "mr", "st"]
        lr = code.instructions()[2]
        mr = code.instructions()[3]
        st = code.instructions()[4]
        even = mr.operands[0].n
        assert lr.operands[0].n == even + 1       # loaded into the odd
        assert st.operands[0].n == even + 1       # odd pushed as result

    def test_label_and_branch_recorded(self):
        build = semop_build()
        code = build.code_generator.generate(
            [
                T("label_def"), T("lbl", 7),
                T("branch_op"), T("lbl", 7), T("cond", 8),
                T("icompare"),
                T("fullword"), T("dsp", 0), T("r", 13),
                T("fullword"), T("dsp", 4), T("r", 13),
            ]
        )
        marks = [i for i in code.buffer.items if isinstance(i, LabelMark)]
        sites = [i for i in code.buffer.items if isinstance(i, BranchSite)]
        assert [m.label for m in marks] == [7]
        assert len(sites) == 1
        assert sites[0].cond == 8
        assert sites[0].label == 7
        assert sites[0].index_reg != 0
        assert 7 in code.labels.defined

    def test_branch_to_undefined_label_caught_by_dictionary(self):
        build = semop_build()
        code = build.code_generator.generate(
            [
                T("branch_op"), T("lbl", 9), T("cond", 8),
                T("icompare"),
                T("fullword"), T("dsp", 0), T("r", 13),
                T("fullword"), T("dsp", 4), T("r", 13),
            ]
        )
        with pytest.raises(CodeGenError):
            code.labels.validate()

    def test_ibm_length_decrements(self):
        build = semop_build()
        code = build.code_generator.generate(
            [
                T("move"), T("dsp", 0), T("r", 13),
                T("dsp", 8), T("r", 13), T("lng", 12),
            ]
        )
        mvc = code.instructions()[0]
        assert mvc.opcode == "mvc"
        assert mvc.operands[0].index == 11  # length-1 encoding


class TestCommonSubexpressions:
    def tokens_declare(self, cse, count):
        return [
            T("store"), T("dsp", 0), T("r", 13),
            T("make_common"), T("cse", cse), T("cnt", count),
            T("fullword"), T("dsp", 96), T("r", 13),
            T("fullword"), T("dsp", 4), T("r", 13),
        ]

    def tokens_use(self, cse):
        return [
            T("store"), T("dsp", 8), T("r", 13),
            T("use_common"), T("cse", cse),
        ]

    def test_use_in_register(self):
        """paper 4.4: FIND_COMMON prefixes the register while it lives."""
        build = semop_build()
        code = build.code_generator.generate(
            self.tokens_declare(1, 1) + self.tokens_use(1)
        )
        names = mnemonics(code)
        # declare: l + st;  use: st straight from the CSE register.
        assert names == ["l", "st", "st"]
        first_store = code.instructions()[1]
        second_store = code.instructions()[2]
        assert first_store.operands[0] == second_store.operands[0]

    def test_use_count_exhaustion_detected(self):
        build = semop_build()
        with pytest.raises(CodeGenError) as err:
            build.code_generator.generate(
                self.tokens_declare(1, 1)
                + self.tokens_use(1)
                + self.tokens_use(1)
            )
        assert "more often" in str(err.value)

    def test_undeclared_cse_rejected(self):
        build = semop_build()
        with pytest.raises(CodeGenError):
            build.code_generator.generate(self.tokens_use(3))


class TestNeedShuffle:
    def test_shuffle_emits_move_and_patches_stack(self):
        spec = TINY_SPEC + """lambda ::= out r.2
 need r.1
 load r.1,0(zero,r.2)
"""
        # extend the tiny spec: declare 'out' and 'need'
        spec = spec.replace(
            "$Operators\n word, iadd, store",
            "$Operators\n word, iadd, store, out",
        ).replace(
            "$Constants\n using, modifies",
            "$Constants\n using, modifies, need",
        )
        build = build_code_generator(
            spec, simple_machine("t", registers=range(1, 8))
        )
        # Force the value into r1 (the first LRU choice), then 'out'
        # needs r1 specifically -> shuffle.
        code = build.code_generator.generate(
            [T("out"), T("word"), T("d", 0)]
        )
        names = mnemonics(code)
        assert names[0] == "load"
        # a shuffle 'lr'-style move was emitted by the move hook
        assert any("shuffle" in i.comment for i in code.instructions())


class TestBufferLifetime:
    @pytest.mark.parametrize("level", [1, 4])
    def test_buffer_freed_by_refcount(self, level):
        """A compile's CodeBuffer dies with its last reference, without
        waiting for the cyclic garbage collector."""
        import gc
        import weakref

        from repro.bench.workloads import call_heavy
        from repro.pascal.compiler import compile_source

        compile_source(call_heavy(), opt_level=level)  # warm caches
        gc.collect()
        gc.disable()
        try:
            compiled = compile_source(call_heavy(), opt_level=level)
            buffer = weakref.ref(compiled.generated.buffer)
            del compiled
            assert buffer() is None
        finally:
            gc.enable()
