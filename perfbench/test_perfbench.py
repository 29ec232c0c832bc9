"""Self-tests of the benchmark (not part of the compiler's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that the generated programs are valid traffic, that what the
benchmark prints matches ``BENCHMARK.json``, that the correctness check
really counts a wrong output, that tracing leaves object code alone, and
that every deterministic count repeats under two hash seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
from programs import CORPORA  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, *extra: str, env=None) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env=env, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["text"] = "\n".join(lines[:-1])
    return result


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_generated_programs_are_valid_terminating_traffic(workload):
    from repro.pascal import compile_source, interpret_source

    level = bench.WORKLOADS[workload].opt_level
    for program in CORPORA[workload](0):
        expected = interpret_source(program.source)  # raises if rejected
        result = compile_source(program.source, opt_level=level).run(
            max_steps=bench.STEP_LIMIT
        )
        assert result.halted and result.trap is None, program.name
        assert result.output == expected, program.name


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_printed_metrics_match_benchmark_json(workload, trace, section):
    result = _bench(workload, trace, "--limit", "2")
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    for name in declared:
        assert name in result["text"]
    assert "failed_share" in result["text"]


def test_wrong_expected_output_counts_as_failure():
    program = CORPORA["loops_run"](0)[0]
    m = bench.Measurement()
    bench.one_program(program, "not the output\n", 1, m, {})
    bench.one_program(program, None, 1, m, {})
    assert m.attempted == 2 and m.failed == 2
    assert m.failed / m.attempted == 1.0

    right = bench.oracle([program])[program.name]
    ok = bench.Measurement()
    bench.one_program(program, right, 1, ok, {})
    assert ok.attempted == 1 and ok.failed == 0


def test_tracing_changes_no_object_code():
    from repro.opt import peephole
    from repro.pascal import compile_source

    program = CORPORA["structured_O4"](0)[1]
    plain = compile_source(program.source, opt_level=4)
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    original = peephole.instr_effects
    with instrumentation.active():
        assert peephole.instr_effects is not original
        traced = compile_source(program.source, opt_level=4)
        traced_run = traced.run(max_steps=bench.STEP_LIMIT)
    assert peephole.instr_effects is original
    assert traced.object_records == plain.object_records
    assert traced_run.output == plain.run(max_steps=bench.STEP_LIMIT).output
    names = {span[0] for span in tracer.drain()}
    assert {"effects", "cfg", "globalopt", "spillplan.generate",
            "summaries.compute", "select", "simulate"} <= names


def _counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "bytes")
    }


@pytest.mark.parametrize("workload,limit", [("structured_O4", "7"),
                                            ("straight_O1", "3"),
                                            ("loops_run", "7")])
def test_counts_repeat_across_hash_seeds(workload, limit):
    seen = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        counts = {}
        for trace in (0, 1):
            counts.update(
                _counts(_bench(workload, trace, "--limit", limit, env=env))
            )
        seen.append(counts)
    assert seen[0] == seen[1]
    assert seen[0]["executed_instructions"] > 0 and seen[0]["code_bytes"] > 0
