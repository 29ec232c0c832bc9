"""The peephole's per-run fact indexes: death queries and effects calls.

The engine answers register-death queries from per-register sorted
index lists and writes the surviving facts back to ``CodeBuffer.deaths``
once.  The property test drives random query/update sequences through
the engine and through a brute-force scan of a plain list (the
reference kept here), which must agree on every answer and on the final
list, order included.  The count gates replace ``instr_effects`` at
every binding, so they see each real evaluation behind the buffer's
effects memo: one peephole run computes each instruction's effects at
most once, and one -O4 compile evaluates each ``(opcode, operands)``
key at most once per buffer.
"""

import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.workloads import call_heavy, straightline
from repro.core.codegen.emitter import CodeBuffer, Instr
from repro.core.codegen.labels import LabelDictionary
from repro.machines.s370 import effects as s370_effects
from repro.opt import peephole
from repro.opt.peephole import ALL_RULES, _Engine
from repro.pascal import compile_source


class _ListDeaths:
    """Reference: every query is a linear scan of the ``(d, r)`` list."""

    def __init__(self, deaths):
        self.deaths = list(deaths)

    def first_death_after(self, reg, idx):
        best = None
        for d, r in self.deaths:
            if r == reg and d > idx and (best is None or d < best):
                best = d
        return best

    def death_in(self, reg, lo, hi):
        return any(r == reg and lo < d <= hi for d, r in self.deaths)

    def remove_deaths(self, reg, lo, hi):
        self.deaths = [
            (d, r) for d, r in self.deaths if not (r == reg and lo < d <= hi)
        ]

    def move_death(self, idx, old, new):
        for pos, (d, r) in enumerate(self.deaths):
            if d == idx and r == old:
                self.deaths[pos] = (d, new)
                return


_INDEX = st.integers(min_value=0, max_value=12)
_REG = st.integers(min_value=0, max_value=4)
_QUERY = st.one_of(
    st.tuples(st.just("first"), _REG, _INDEX),
    st.tuples(st.just("in"), _REG, _INDEX, _INDEX),
    st.tuples(st.just("remove"), _REG, _INDEX, _INDEX),
    st.tuples(st.just("move"), _INDEX, _REG, _REG),
)


def _recorded_move(deaths):
    """A move of a recorded fact, so duplicates get moved too."""
    return st.sampled_from(deaths).flatmap(
        lambda fact: st.tuples(st.just("move"), st.just(fact[0]),
                               st.just(fact[1]), _REG)
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deaths=st.lists(st.tuples(_INDEX, _REG), max_size=30), data=st.data())
def test_death_index_matches_list_scan(deaths, data):
    buffer = CodeBuffer()
    buffer.deaths = list(deaths)
    engine = _Engine(buffer, LabelDictionary(), set(ALL_RULES), False)
    reference = _ListDeaths(deaths)
    ops = _QUERY | _recorded_move(deaths) if deaths else _QUERY
    for op, *args in data.draw(st.lists(ops, max_size=40)):
        if op == "first":
            assert engine._first_death_after(*args) == \
                reference.first_death_after(*args)
        elif op == "in":
            assert engine._death_in(*args) == reference.death_in(*args)
        elif op == "remove":
            engine._remove_deaths(*args)
            reference.remove_deaths(*args)
        else:
            engine._move_death(*args)
            reference.move_death(*args)
    assert buffer.deaths == deaths  # untouched until the write-back
    engine.write_back_deaths()
    assert buffer.deaths == reference.deaths


def _count_effects(monkeypatch):
    """Count every real effects evaluation: ``instr_effects`` is replaced
    at every module binding it, so the memo's miss path is counted
    whichever binding it calls.  Returns the evaluated keys."""
    original = s370_effects.instr_effects
    keys = []

    def counting_effects(instr):
        keys.append((instr.opcode, instr.operands))
        return original(instr)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" \
                and getattr(module, "instr_effects", None) is original:
            monkeypatch.setattr(module, "instr_effects", counting_effects)
    return keys


@pytest.mark.parametrize("assignments", [250, 1000])
def test_effects_computed_at_most_once_per_instruction(
        monkeypatch, assignments):
    calls = _count_effects(monkeypatch)
    runs = []
    run = peephole.run_peephole

    def measured_run(generated, *args, **kwargs):
        entering = sum(
            isinstance(item, Instr) for item in generated.buffer.items
        )
        del calls[:]
        result = run(generated, *args, **kwargs)
        runs.append((entering, len(calls)))
        return result

    monkeypatch.setattr(peephole, "run_peephole", measured_run)
    compile_source(straightline(assignments), opt_level=1)
    assert len(runs) == 1
    entering, effects_calls = runs[0]
    assert 0 < effects_calls <= entering


def test_effects_derived_once_per_key_per_buffer_at_O4(monkeypatch):
    """At -O4 the peephole, every CFG build (so every solver, summary
    and spill-plan probe) and every global rewrite share the buffer's
    effects memo: no ``(opcode, operands)`` key is evaluated twice for
    one buffer."""
    calls = _count_effects(monkeypatch)
    buffers = []
    init = CodeBuffer.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        buffers.append(self)

    monkeypatch.setattr(CodeBuffer, "__init__", tracked_init)
    compile_source(call_heavy(), opt_level=4)
    assert calls
    assert max(Counter(calls).values()) <= len(buffers)
    assert len(calls) <= sum(len(b.effects_memo) for b in buffers)
