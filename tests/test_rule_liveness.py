"""Every optimizer rule and pass earns its keep on a small fixed corpus.

A peephole rule or global pass that never fires changes neither output
nor speed, yet every fixpoint iteration still pays for its scan.  This
corpus -- two named Pascal snippets plus two fixed random programs --
makes each name in ``ALL_RULES`` and ``ALL_PASSES`` fire at least once,
so a rule that stops firing (or a new one that never does) fails here
instead of lingering.  Every compile must also print what -O0 prints.
"""

from collections import Counter

import pytest

from helpers import random_rich_program
from repro.opt import ALL_RULES
from repro.opt.globalopt import ALL_PASSES
from repro.pascal.compiler import compile_source

#: A test whose condition code nothing reads once the empty ``then``
#: branch is gone: fires ``g_dead_cc`` (and ``g_fallthrough``).
DEAD_CC = """program deadcc; var a, b: integer;
begin
  a := 3; b := 5;
  if a < b then begin end;
  b := a + b;
  writeln(b)
end.
"""

#: The ``then`` store is dead, leaving ``Bc L1; B L2; L1:`` behind:
#: fires ``g_branch_flip``.
BRANCH_FLIP = """program flip; var a, b: integer;
begin
  a := 3; b := 5;
  if a > b then a := 9 else writeln(b);
  a := b;
  writeln(a)
end.
"""

#: (name, source, opt level).
CORPUS = [
    ("dead_cc", DEAD_CC, 2),
    ("branch_flip", BRANCH_FLIP, 2),
    ("random_rich_program(40)", random_rich_program(40), 4),
    ("random_rich_program(109)", random_rich_program(109), 4),
]


@pytest.fixture(scope="module")
def compiled():
    return {
        name: (compile_source(source, opt_level=0),
               compile_source(source, opt_level=level))
        for name, source, level in CORPUS
    }


def test_every_rule_and_pass_fires(compiled):
    hits = Counter()
    for _, optimized in compiled.values():
        hits.update(optimized.stats["peephole"]["hits"])
        hits.update(optimized.stats["global"]["hits"])
    dead = [name for name in (*ALL_RULES, *ALL_PASSES) if not hits[name]]
    assert dead == [], f"never fired on the liveness corpus: {dead}"


@pytest.mark.parametrize("name", [name for name, _, _ in CORPUS])
def test_output_matches_o0(compiled, name):
    baseline, optimized = compiled[name]
    r0, r = baseline.run(), optimized.run()
    assert r0.halted and r.halted
    assert r.output == r0.output
