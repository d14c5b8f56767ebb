"""Tests of the benchmark itself: oracles, seeded inputs, and the tracing wrappers."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from workloads import WORKLOADS, check_output, golden_path, write_input  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# Small commands that between them reach every wrapped layer.
SMALL_COMMANDS = [
    ["cupring", "--algebra", "heisenberg:2", "--max-degree", "3"],
    ["morse", "--algebra", "zassenhaus-e:2", "--module", "adjoint", "--max-degree", "3"],
    ["cohomology", "--algebra", "zassenhaus-f:2", "--module", "adjoint", "--max-degree", "2"],
]


def _commands():
    return [(w.name, i, c) for w in WORKLOADS.values() for i, c in enumerate(w.commands)]


def _break_dimension(out: dict) -> None:
    if "degrees" in out:
        out["degrees"][-1]["dimH"] += 1
        out["degrees"][-1]["dimZ"] += 1
    elif "products" in out:
        out["dims"][2] += 1
    else:
        out["cohomology_dims"][1] += 1


@pytest.mark.parametrize("workload,index,command", _commands())
def test_oracle_accepts_golden_and_rejects_wrong_dimension(workload, index, command):
    out = json.loads(golden_path(workload, index).read_text())
    assert command.oracle(out) == []
    _break_dimension(out)
    assert command.oracle(out) != []


def test_cupring_oracle_rejects_a_wrong_product():
    command = WORKLOADS["cupring"].commands[0]
    out = json.loads(golden_path("cupring", 0).read_text())
    product = next(p for p in out["products"] if p["left"] == "h1_0" and p["right"] == "h1_1")
    value = product["value"]
    if "h2_0" in value:
        del value["h2_0"]
    else:
        value["h2_0"] = "1"
    assert command.oracle(out) != []


def test_golden_check_rejects_changed_bytes(tmp_path):
    command = WORKLOADS["morse"].commands[0]
    golden = golden_path("morse", 0)
    good = golden.read_bytes()
    assert check_output(command, good, True, golden, "unused.json") == []
    changed = good.replace(b'"agrees": true', b'"agrees": true ')
    assert check_output(command, changed, True, golden, "unused.json") == [
        "output differs from morse.0.json"
    ]
    assert check_output(command, changed, False, golden, "unused.json") == []


def test_one_seed_gives_identical_input_files(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert not write_input(a, "zassenhaus-f:3", 7, "coh-gf8/0/0")
    assert not write_input(b, "zassenhaus-f:3", 7, "coh-gf8/0/0")
    write_input(c, "zassenhaus-f:3", 8, "coh-gf8/0/0")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_seed_zero_is_the_named_presentation(tmp_path):
    path = tmp_path / "named.json"
    assert write_input(path, "heisenberg:3", 0, "cupring/0/0")
    from commcoh import heisenberg

    assert json.loads(path.read_text()) == heisenberg(3).to_json()


def test_basis_change_keeps_the_cohomology(tmp_path):
    from commcoh import adjoint_module, cohomology, import_algebra, zassenhaus_f

    path = tmp_path / "changed.json"
    write_input(path, "zassenhaus-f:2", 3, "t")
    changed = import_algebra(path)  # rejects a presentation that breaks Jacobi
    named = zassenhaus_f(2)
    assert changed != named
    for n in range(3):
        got = cohomology(changed, adjoint_module(changed), n)
        want = cohomology(named, adjoint_module(named), n)
        assert (got.dim_Z, got.dim_B) == (want.dim_Z, want.dim_B)


def _child(mode, report, args, prelude=""):
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); {prelude}"
        f"import child; sys.exit(child.main({[mode, str(report), '--', *args, '--format', 'json']!r}))"
    )
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=ENV, cwd=ROOT)


@pytest.mark.parametrize("args", SMALL_COMMANDS, ids=lambda a: a[0])
def test_wrappers_leave_cli_output_unchanged(tmp_path, args):
    plain = subprocess.run(
        [sys.executable, "-m", "commcoh.cli", *args, "--format", "json"], capture_output=True, env=ENV
    )
    assert plain.returncode == 0
    for mode in ("plain", "trace", "count"):
        observed = _child(mode, tmp_path / f"{mode}.json", args)
        assert observed.returncode == 0, observed.stderr
        assert observed.stdout == plain.stdout, mode
    report = json.loads((tmp_path / "trace.json").read_text())
    assert report["absent"] == []
    names = {span[0] for span in report["spans"]}
    assert "cli.parse" in names and "cli.handler" in names
    assert json.loads((tmp_path / "count.json").read_text())["mul_calls"] > 0


def test_every_layer_function_is_reached(tmp_path):
    # Named algebras skip the Jacobi check that an algebra file goes through.
    algebra_file = tmp_path / "algebra.json"
    write_input(algebra_file, "zassenhaus-f:2", 1, "t")
    from_file = SMALL_COMMANDS[2][:2] + [str(algebra_file)] + SMALL_COMMANDS[2][3:]
    commands = SMALL_COMMANDS[:2] + [from_file]
    reached = set()
    for k, args in enumerate(commands):
        report = tmp_path / f"report{k}.json"
        assert _child("trace", report, args).returncode == 0
        reached |= {span[0] for span in json.loads(report.read_text())["spans"]}
    import child

    assert {name for name, _, _ in child.LAYER_FUNCTIONS} <= reached


def test_missing_function_is_reported_absent(tmp_path):
    report = tmp_path / "report.json"
    args = ["morse", "--algebra", "zassenhaus-e:2", "--module", "adjoint", "--max-degree", "3"]
    # As if a later change had deleted the function the CLI imported.
    prelude = "import commcoh.cli, commcoh.morse; del commcoh.morse.greedy_matching; "
    done = _child("trace", report, args, prelude=prelude)
    assert done.returncode == 0, done.stderr
    data = json.loads(report.read_text())
    assert data["absent"] == ["commcoh.morse.greedy_matching"]
    values, _ = bench.layer_values(bench.Rep(reports=[data]))
    assert values["morse.greedy_matching_s"] == 0.0
    assert values["morse.morse_complex_s"] > 0.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert whys == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "morse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=""), timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""
