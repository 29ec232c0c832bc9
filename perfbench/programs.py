"""Seeded Pascal program generators for the three benchmark workloads.

The benchmark owns its traffic: these generators live beside
``run.py``, so an edit to the compiler's own workload helpers cannot
change what is measured.  Each workload is a fixed *corpus plan* -- the number
of programs, their sizes and the shapes they mix are constants -- and
the seed only picks variable names, operators, literals and data.  That
keeps totals such as code bytes and executed instructions close across
seeds while every seed still compiles different programs.

Every value the generated code computes stays inside what both the
simulator and the reference interpreter compute identically: ``+`` and
``-`` wrap the same way on both sides, so only the operands of ``*``,
``div`` and ``mod`` are bounded (with ``mod``), and every divisor is
``x * x + 1`` for a bounded ``x``, never zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Program:
    name: str
    source: str

    @property
    def lines(self) -> int:
        return self.source.count("\n")


# ---------------------------------------------------------------------------
# Expressions shared by the generators.
# ---------------------------------------------------------------------------


def _bounded(rng: random.Random, var: str) -> str:
    return f"({var} mod {rng.choice((10, 50, 100, 1000))})"


def _divisor(rng: random.Random, var: str) -> str:
    m = rng.choice((5, 7, 13))
    return f"(({var} mod {m}) * ({var} mod {m}) + 1)"


def _straight_rhs(rng: random.Random, names: List[str]) -> str:
    """One right-hand side over ``names``: sums, bounded products and
    quotients, and short non-commutative chains with literals."""
    x, y, z = (rng.choice(names) for _ in range(3))
    k = rng.randint(1, 999)
    form = rng.randrange(8)
    if form == 0:
        return f"{x} {rng.choice('+-')} {y}"
    if form == 1:
        return f"{x} {rng.choice('+-')} {y} {rng.choice('+-')} {z}"
    if form == 2:
        return f"{_bounded(rng, x)} * {_bounded(rng, y)}"
    if form == 3:
        return f"{x} div {_divisor(rng, y)}"
    if form == 4:
        return f"{x} - ({y} - ({z} - {k}))"
    if form == 5:
        return f"({x} + {k}) - {_bounded(rng, y)} * {rng.randint(2, 9)}"
    if form == 6:
        return f"{x} mod {rng.randint(3, 997)} + {y}"
    return f"{k} - {x}"


# ---------------------------------------------------------------------------
# straight_O1: single-block straight-line programs of mixed sizes.
# ---------------------------------------------------------------------------

#: Assignment counts: five size classes, four programs each.  A
#: percentile of the compile times then falls inside one class and is
#: set by four programs' samples, so one program's content does not
#: decide it; the classes alternate through a pass.
STRAIGHT_SIZES = (125, 200, 350, 600, 1000) * 4


def straight_program(rng: random.Random, name: str, assignments: int) -> str:
    names = [f"v{i}" for i in range(8)]
    inits = " ".join(
        f"{v} := {rng.randint(-500, 500)};" for v in names
    )
    body = "\n".join(
        f"  {rng.choice(names)} := {_straight_rhs(rng, names)};"
        for _ in range(assignments)
    )
    half = len(names) // 2
    return (
        f"program {name};\n"
        f"var {', '.join(names)}: integer;\n"
        "begin\n"
        f"  {inits}\n"
        f"{body}\n"
        f"  writeln({' + '.join(names[:half])}, ' ', "
        f"{' + '.join(names[half:])})\n"
        "end.\n"
    )


def straight_corpus(seed: int) -> List[Program]:
    rng = random.Random(f"straight_O1:{seed}")
    return [
        Program(f"straight{i}_{n}", straight_program(rng, f"straight{i}", n))
        for i, n in enumerate(STRAIGHT_SIZES)
    ]


# ---------------------------------------------------------------------------
# structured_O4: multi-routine programs over many short blocks.
# ---------------------------------------------------------------------------

#: Routine-kind mix per program: (tally/scale leaves, var-param updaters,
#: direct recursion, mutual-recursion pairs, branch ladders, loops, deep
#: non-commutative expressions) -- 6, 9, 13, 16 and 21 routines, three
#: programs each, as for ``STRAIGHT_SIZES``.  Fixed, as are all trip
#: counts and recursion depths, so only the content varies with the seed.
STRUCTURED_PLANS = (
    (1, 1, 1, 0, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 2),
    (2, 2, 1, 1, 2, 2, 2),
    (2, 2, 2, 1, 3, 2, 3),
    (3, 3, 2, 2, 3, 3, 3),
) * 3

_GLOBALS = ("g0", "g1", "g2", "g3", "g4", "g5")


def _deep_chain(rng: random.Random, depth: int, leaves: List[str]) -> str:
    """A right-nested ``-`` chain mixing literals and variables: operand
    order is fixed, so every left operand is held across its right
    subtree and the register file overflows past ~14 levels."""
    expr = rng.choice(leaves)
    for _ in range(depth):
        left = (
            str(rng.randint(1, 4000)) if rng.random() < 0.6
            else rng.choice(leaves)
        )
        expr = f"({left} - {expr})"
    return expr


def structured_program(rng: random.Random, name: str, plan) -> str:
    leaves_n, updaters_n, rec_n, mutual_n, ladders_n, loops_n, deep_n = plan
    routines: List[str] = []
    calls: List[str] = []  # statements that exercise each routine

    for i in range(leaves_n):
        g = rng.choice(_GLOBALS)
        routines.append(
            f"procedure tally{i}(x: integer);\n"
            f"begin\n  s := s + x - {g}\nend;\n"
        )
        a, b = rng.sample(_GLOBALS, 2)
        calls.append(
            f"u := {a} + {b}; tally{i}({a} + {b}); t := t + {a} + {b};"
        )
    for i in range(updaters_n):
        k = rng.randint(2, 9)
        routines.append(
            f"procedure bump{i}(var x: integer; d: integer);\n"
            f"begin\n  x := x + d * {k} - {_bounded(rng, 'x')}\nend;\n"
        )
        target = rng.choice(("s", "t", "u") + _GLOBALS)
        calls.append(f"bump{i}({target}, {rng.choice(_GLOBALS)} mod 100);")
    for i in range(rec_n):
        k = rng.randint(1, 9)
        routines.append(
            f"function rec{i}(n: integer): integer;\n"
            "begin\n"
            f"  if n <= 0 then rec{i} := {k}\n"
            f"  else rec{i} := n - rec{i}(n - 1) + {_bounded(rng, 'n')}\n"
            "end;\n"
        )
        calls.append(f"s := s + rec{i}({8 + i});")
    for i in range(mutual_n):
        k = rng.randint(1, 50)
        routines.append(
            f"function even{i}(n: integer): integer;\n"
            "begin\n"
            f"  if n <= 0 then even{i} := {k}\n"
            f"  else even{i} := odd{i}(n - 1) + 1\n"
            "end;\n"
            f"function odd{i}(n: integer): integer;\n"
            "begin\n"
            f"  if n <= 0 then odd{i} := 0\n"
            f"  else odd{i} := even{i}(n - 1) - 2\n"
            "end;\n"
        )
        calls.append(f"t := t + even{i}({10 + i});")
    for i in range(ladders_n):
        rungs = []
        for _ in range(7):
            bound = rng.randint(-100, 100)
            rungs.append(
                f"  if x > {bound} then y := y + {rng.randint(1, 97)}"
                f" else y := y - {_bounded(rng, 'x')};"
            )
        routines.append(
            f"function ladder{i}(x: integer): integer;\n"
            "var y: integer;\n"
            "begin\n"
            "  y := 0;\n"
            + "\n".join(rungs) + "\n"
            f"  ladder{i} := y\n"
            "end;\n"
        )
        calls.append(
            f"u := ladder{i}({rng.choice(_GLOBALS)} mod 200 - 100);"
            f" s := s + u;"
        )
    for i in range(loops_n):
        g = rng.choice(_GLOBALS)
        routines.append(
            f"procedure loop{i}(n: integer);\n"
            "var i, acc: integer;\n"
            "begin\n"
            "  acc := 0;\n"
            "  for i := 1 to n do begin\n"
            f"    acc := acc + (i mod 7) * {_bounded(rng, g)};\n"
            f"    if acc > {rng.randint(500, 5000)} then"
            f" acc := acc - {rng.randint(100, 900)}\n"
            "  end;\n"
            "  i := 0;\n"
            f"  while i < n do begin {g} := {g} + (acc mod 5); i := i + 2 end;\n"
            f"  t := t + acc\n"
            "end;\n"
        )
        calls.append(f"loop{i}({16 + 4 * i});")
    for i in range(deep_n):
        leaves = ["a", "b", "c"] + list(rng.sample(_GLOBALS, 2))
        routines.append(
            f"function deep{i}(a, b, c: integer): integer;\n"
            "begin\n"
            f"  deep{i} := {_deep_chain(rng, rng.randint(15, 22), leaves)}\n"
            "end;\n"
        )
        args = ", ".join(
            f"{rng.choice(_GLOBALS)} mod 100" for _ in range(3)
        )
        calls.append(f"s := s + deep{i}({args});")

    rng.shuffle(calls)
    inits = " ".join(f"{g} := {rng.randint(-300, 300)};" for g in _GLOBALS)
    main = "\n".join(f"    {c}" for c in calls)
    return (
        f"program {name};\n"
        f"var {', '.join(_GLOBALS)}, s, t, u, k: integer;\n"
        + "".join(routines)
        + "begin\n"
        f"  {inits}\n"
        "  s := 0; t := 0; u := 0;\n"
        "  for k := 1 to 3 do begin\n"
        f"{main}\n"
        "    g0 := g0 + k\n"
        "  end;\n"
        f"  writeln(s, ' ', t, ' ', u, ' ', {' + '.join(_GLOBALS)})\n"
        "end.\n"
    )


def structured_corpus(seed: int) -> List[Program]:
    rng = random.Random(f"structured_O4:{seed}")
    return [
        Program(
            f"structured{i}",
            structured_program(rng, f"structured{i}", plan),
        )
        for i, plan in enumerate(STRUCTURED_PLANS)
    ]


# ---------------------------------------------------------------------------
# loops_run: small loop-heavy programs (simulation dominates).
# ---------------------------------------------------------------------------


def _sort_kernel(rng: random.Random, name: str) -> str:
    n = 40
    mult, inc = rng.choice((17, 29, 37)), rng.randint(1, 99)
    return f"""program {name};
var a: array[0..{n - 1}] of integer;
    i, j, x, tmp, sum: integer;
begin
  x := {rng.randint(1, 999)};
  for i := 0 to {n - 1} do begin
    x := (x mod 1000) * {mult} + {inc};
    a[i] := x mod 1000
  end;
  for i := 0 to {n - 2} do
    for j := 0 to {n - 2} - i do
      if a[j] > a[j + 1] then begin
        tmp := a[j]; a[j] := a[j + 1]; a[j + 1] := tmp
      end;
  sum := 0;
  for i := 0 to {n - 1} do sum := sum + a[i] * (i mod 10);
  writeln(a[0], ' ', a[{n - 1}], ' ', sum)
end.
"""


def _sieve_kernel(rng: random.Random, name: str) -> str:
    n = 640
    return f"""program {name};
var flag: array[0..{n}] of integer;
    i, j, count, last: integer;
begin
  for i := 0 to {n} do flag[i] := 1;
  i := 2;
  while i * i <= {n} do begin
    if flag[i] = 1 then begin
      j := i * i;
      while j <= {n} do begin flag[j] := 0; j := j + i end
    end;
    i := i + 1
  end;
  count := 0; last := 0;
  for i := 2 to {n} do
    if flag[i] = 1 then begin count := count + 1; last := i end;
  writeln(count, ' ', last)
end.
"""


def _gcd_kernel(rng: random.Random, name: str) -> str:
    lo = rng.randint(100, 200)
    return f"""program {name};
var i, j, a, b, r, total: integer;
function gcd(x, y: integer): integer;
var t: integer;
begin
  while y <> 0 do begin t := x mod y; x := y; y := t end;
  gcd := x
end;
begin
  total := 0;
  for i := {lo} to {lo + 24} do
    for j := {lo + 7} to {lo + 31} do
      total := total + gcd(i * {rng.randint(2, 9)}, j) mod {rng.randint(50, 99)};
  writeln(total)
end.
"""


def _collatz_kernel(rng: random.Random, name: str) -> str:
    # Trip counts swing widely between neighbouring starts, so the range
    # is fixed and the seed only changes which statistic is printed.
    return f"""program {name};
var n, x, steps, longest, best: integer;
begin
  longest := 0; best := 0;
  for n := 1 to 61 do begin
    x := n; steps := 0;
    repeat
      if x mod 2 = 0 then x := x div 2 else x := 3 * x + 1;
      steps := steps + 1
    until x = 1;
    if steps > longest then begin longest := steps; best := n end
  end;
  writeln(best, ' ', longest {rng.choice('+-')} {rng.randint(1, 99)})
end.
"""


def _matrix_kernel(rng: random.Random, name: str) -> str:
    n = 9
    return f"""program {name};
var a, b, c: array[0..{n * n - 1}] of integer;
    i, j, k, s, trace: integer;
begin
  for i := 0 to {n * n - 1} do begin
    a[i] := (i * {rng.randint(3, 11)}) mod 17 - 8;
    b[i] := (i * {rng.randint(3, 11)} + {rng.randint(0, 9)}) mod 13 - 6
  end;
  for i := 0 to {n - 1} do
    for j := 0 to {n - 1} do begin
      s := 0;
      for k := 0 to {n - 1} do
        s := s + a[i * {n} + k] * b[k * {n} + j];
      c[i * {n} + j] := s
    end;
  trace := 0;
  for i := 0 to {n - 1} do trace := trace + c[i * {n} + i];
  writeln(trace, ' ', c[{n + 1}])
end.
"""


def _recurrence_kernel(rng: random.Random, name: str) -> str:
    iters = 2500
    return f"""program {name};
var i, a, b, c, d: integer;
begin
  a := {rng.randint(1, 9)}; b := {rng.randint(1, 9)}; c := 0; d := 0;
  i := 0;
  while i < {iters} do begin
    c := c + a * 3 - (b div 2);
    a := a + (c mod 7);
    b := b + 1;
    if b > 1000 then b := b - 999;
    if c > 100000 then begin c := c - 100000; d := d + 1 end;
    i := i + 1
  end;
  writeln(c, ' ', d, ' ', a mod 1000)
end.
"""


def _digits_kernel(rng: random.Random, name: str) -> str:
    lo = rng.randint(1000, 9000)
    return f"""program {name};
var n, x, digits, total: integer;
begin
  total := 0;
  for n := {lo} to {lo + 400} do begin
    x := n; digits := 0;
    while x > 0 do begin digits := digits + x mod 10; x := x div 10 end;
    total := total + digits * (n mod {rng.randint(2, 9)})
  end;
  writeln(total)
end.
"""


LOOP_KERNELS: Dict[str, Callable[[random.Random, str], str]] = {
    "sort": _sort_kernel,
    "sieve": _sieve_kernel,
    "gcd": _gcd_kernel,
    "collatz": _collatz_kernel,
    "matrix": _matrix_kernel,
    "recurrence": _recurrence_kernel,
    "digits": _digits_kernel,
}


def loops_corpus(seed: int) -> List[Program]:
    rng = random.Random(f"loops_run:{seed}")
    return [
        Program(f"loops_{kind}", kernel(rng, f"loop{i}"))
        for i, (kind, kernel) in enumerate(LOOP_KERNELS.items())
    ]


CORPORA: Dict[str, Callable[[int], List[Program]]] = {
    "straight_O1": straight_corpus,
    "structured_O4": structured_corpus,
    "loops_run": loops_corpus,
}
