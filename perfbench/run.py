"""The commcoh benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it needs nothing but `src/`.  Each
repetition runs every command of the workload through the commcoh CLI in a
fresh Python process, one at a time (a closed loop with one client), because
a CLI user pays for interpreter start, imports and cold caches on every call.
Repetition r gets its own seeded change of basis (see workloads.py), and
every output is checked against the workload's oracle.  Repetitions continue
until the next one would end after --seconds, with at least three.

--trace 0 reports the end-to-end metrics: medians over repetitions of the
wall time from spawn to exit (summed over the workload's commands), the
set-up time from spawn until the algebra and module are parsed (summed
likewise), and the peak resident set of the largest command.

--trace 1 spends half of --seconds on plain repetitions and half on traced
ones, which wrap each layer's public functions (child.py), then counts
FiniteField.mul calls in one more pass that is not timed.  It reports the
per-layer metrics, medians over the traced repetitions.  Every `<layer>.<fn>_s`
is self time: time inside calls to that function minus time in the wrapped
calls nested in them.  Tracing overhead (traced minus plain wall time) and
the share of plain wall time the spans account for are printed above the
result.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Work files go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import now  # noqa: E402
from workloads import WORKLOADS, Workload, check_output, golden_path, write_input  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path(".bench_build") / "perfbench"
MIN_REPS = 3
COVERAGE_FLOOR = 0.8

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "algebra.jacobi_violations_s": "s",
    "cochain.differential_matrix_s": "s",
    "cochain.differential_matrix_calls": "count",
    "cochain.matrix_entries": "count",
    "cochain.source_image_hit_ratio": "ratio",
    "cochain.differential_matrix_hit_ratio": "ratio",
    "linalg.kernel_s": "s",
    "linalg.image_s": "s",
    "linalg.quotient_s": "s",
    "linalg.rank_s": "s",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.elim_bytes_computed": "bytes",
    "cohomology.cohomology_s": "s",
    "cohomology.class_coordinates_s": "s",
    "cohomology.class_coordinates_calls": "count",
    "cup.cup_s": "s",
    "cup.cup_calls": "count",
    "cup.ring_table_s": "s",
    "morse.complex_from_cochains_s": "s",
    "morse.greedy_matching_s": "s",
    "morse.morse_complex_s": "s",
    "morse.cohomology_dims_s": "s",
    "morse.matching_size": "count",
    "morse.reduced_cells_ratio": "ratio",
    "field.mul_calls": "count",
}
ELIMINATIONS = ("linalg.kernel", "linalg.image", "linalg.rank", "linalg.solve")


@dataclass
class Rep:
    """One repetition of a workload: every command once."""

    wall: float = 0.0
    setup: float = 0.0
    rss_mb: float = 0.0
    commands: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)


def run_rep(workload: Workload, seed: int, rep: int, mode: str) -> Rep:
    out = Rep()
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    src = (Path.cwd() / "src").resolve()
    for i, command in enumerate(workload.commands):
        stem = WORK / f"{workload.name}.{i}"
        algebra_file = f"{stem}.json"
        identity = write_input(Path(algebra_file), command.algebra, seed, f"{workload.name}/{rep}/{i}")
        report_file = Path(f"{stem}.report.json")
        report_file.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), mode, str(report_file), "--", command.subcommand,
                "--algebra", algebra_file, *command.options, "--format", "json"]
        with open(f"{stem}.out", "wb") as stdout, open(f"{stem}.err", "wb") as stderr:
            spawned = now()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            exited = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.commands += 1
        out.wall += exited - spawned
        out.rss_mb = max(out.rss_mb, usage.ru_maxrss / 1024)
        golden = golden_path(workload.name, i)
        problems = check_command(command, mode, proc.returncode, stem, identity, golden)
        if report_file.exists():
            report = json.loads(report_file.read_text())
            if not Path(report["package"]).resolve().is_relative_to(src):
                problems.append(f"imported commcoh from {report['package']}, not {src}")
            parse_ends = [end for name, _, end, _, _ in report["spans"] if name == "cli.parse"]
            if parse_ends:
                report["setup_end"] = max(parse_ends)
                out.setup += report["setup_end"] - spawned
            elif mode != "count":
                problems.append(f"no set-up marker (absent: {report['absent']})")
            out.reports.append(report)
        if problems:
            out.failed += 1
            out.problems.extend(f"{workload.name} rep {rep} command {i}: {p}" for p in problems)
    return out


def check_command(command, mode: str, code: int, stem: Path, identity: bool, golden: Path) -> list[str]:
    """Problems with one finished command: exit code, report, and (unless counting) output."""
    if code != 0 or not Path(f"{stem}.report.json").exists():
        tail = Path(f"{stem}.err").read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {code} {tail}"]
    if mode == "count":
        return []
    return check_output(command, Path(f"{stem}.out").read_bytes(), identity, golden, f"{stem}.json")


def measure(workload: Workload, seed: int, mode: str, budget: float) -> list[Rep]:
    """Repetitions 0, 1, ... until the next would likely end after `budget` seconds."""
    reps: list[Rep] = []
    start = now()
    while True:
        reps.append(run_rep(workload, seed, len(reps), mode))
        if len(reps) >= MIN_REPS and now() - start + median(r.wall for r in reps) > budget:
            return reps


def layer_values(rep: Rep) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced repetition, and the wall time they account for.

    That is set-up, plus the self time of every layer span after set-up, plus
    rendering; the handlers' own time outside any layer span is left out.
    """
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    hits = {"cochain.source_image": [0, 0], "cochain.differential_matrix": [0, 0]}
    cells = [0, 0]
    covered = rep.setup
    for report in rep.reports:
        spans = report["spans"]
        nested = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                nested[parent] += end - start
        handler_end = report["main_end"]
        setup_end = report.get("setup_end", report["main_start"])
        for k, (name, start, end, _, fields) in enumerate(spans):
            self_time = end - start - nested[k]
            values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + self_time
            values[f"{name}_calls"] = values.get(f"{name}_calls", 0) + 1
            if name == "cli.handler":
                handler_end = end
            elif end > setup_end:
                covered += self_time
            shape = (fields or {}).get("shape")
            if shape and name == "cochain.differential_matrix":
                values["cochain.matrix_entries"] += shape[0] * shape[1]
            if shape and name in ELIMINATIONS:
                rows, cols, k = shape
                values["linalg.elim_bytes_computed"] += rows * math.ceil(cols * k / 8)
            if name == "morse.greedy_matching":
                values["morse.matching_size"] += fields["size"]
            if name == "morse.morse_complex" and fields:
                cells[0] += fields["cells"]
                cells[1] += fields["reduced"]
        values["cli.import_s"] += report["import_s"]
        values["cli.render_s"] += report["main_end"] - handler_end
        covered += report["main_end"] - handler_end
        for name, (h, m) in report.get("caches", {}).items():
            hits[name][0] += h
            hits[name][1] += m
    for name, (h, m) in hits.items():
        values[f"{name}_hit_ratio"] = h / (h + m) if h + m else 0.0
    values["morse.reduced_cells_ratio"] = cells[1] / cells[0] if cells[0] else 0.0
    return {name: values[name] for name in PER_LAYER_UNITS}, covered


def spread(xs: list[float]) -> str:
    q1, q2, q3 = quantiles(xs, n=4)
    return f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} (n={len(xs)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=1, help="0 keeps the named basis and checks golden output"
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "commcoh" / "cli.py").is_file():
        print("error: src/commcoh/cli.py not found; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    # Untimed: starts the interpreter and imports the package once, so the file
    # cache is warm and the bytecode compiled, as for an installed CLI.
    subprocess.run([sys.executable, "-c", "import commcoh.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(Path.cwd() / "src")))

    if args.trace:
        plain = measure(workload, args.seed, "plain", args.seconds / 2)
        traced = measure(workload, args.seed, "trace", args.seconds / 2)
        counted = run_rep(workload, args.seed, 0, "count")
        reps = plain + traced + [counted]
        layers = [layer_values(r) for r in traced]
        metrics = {name: median(v[name] for v, _ in layers) for name in PER_LAYER_UNITS}
        metrics["field.mul_calls"] = sum(r.get("mul_calls", 0) for r in counted.reports)
        units = PER_LAYER_UNITS
        plain_wall = median(r.wall for r in plain)
        traced_wall = median(r.wall for r in traced)
        coverage = median(c for _, c in layers) / plain_wall
        absent = sorted({a for r in reps for rep in r.reports for a in rep["absent"]})
        print(f"{workload.name}: plain wall_s {spread([r.wall for r in plain])}")
        print(f"{workload.name}: traced wall_s {spread([r.wall for r in traced])}")
        overhead = traced_wall - plain_wall
        print(f"tracing overhead {overhead:+.4f} s ({overhead / plain_wall * 100:+.1f} %)")
        verdict = "ok" if coverage >= COVERAGE_FLOOR else f"BELOW {COVERAGE_FLOOR}"
        print(f"spans plus set-up cover {coverage:.3f} of plain wall_s ({verdict})")
        print(f"absent functions: {', '.join(absent) if absent else 'none'}")
        trace_dump = {
            "workload": workload.name,
            "seed": args.seed,
            "coverage": coverage,
            "overhead_s": overhead,
            "absent": absent,
            "per_rep": [v for v, _ in layers],
            "spans_rep0": [rep["spans"] for rep in traced[0].reports],
        }
        (WORK / f"{workload.name}.trace.json").write_text(json.dumps(trace_dump) + "\n")
    else:
        reps = measure(workload, args.seed, "plain", args.seconds)
        metrics = {
            "wall_s": median(r.wall for r in reps),
            "setup_s": median(r.setup for r in reps),
            "peak_rss_mb": median(r.rss_mb for r in reps),
        }
        units = END_TO_END_UNITS
        print(f"{workload.name}: wall_s {spread([r.wall for r in reps])}")
        print(f"{workload.name}: setup_s {spread([r.setup for r in reps])}")

    attempted = sum(r.commands for r in reps)
    failed = sum(r.failed for r in reps)
    for r in reps:
        for p in r.problems[:5]:
            print(f"FAILED {p}", file=sys.stderr)
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} commands)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
