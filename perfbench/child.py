"""One commcoh CLI command in a fresh process, observed from outside the program.

    python3 perfbench/child.py MODE REPORT -- CLI-ARGS...

runs `commcoh.cli.main(CLI-ARGS)` with the package on PYTHONPATH.  MODE is

  plain  wrap only the CLI's parse functions, to mark when set-up ends;
  trace  also put a span around every call into each layer's public
         functions and read the lru_cache counters at the end;
  count  count calls of FiniteField.mul, and time nothing.

Spans stay in memory and are written, with the clock readings the parent
needs, as JSON to REPORT after the command returns.  A function a later
change has removed or renamed is listed under "absent" instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def now() -> float:
    """CLOCK_MONOTONIC, which the parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (span name, module, attribute path).  Functions are patched in every commcoh
# module that holds them, so each caller's own lookup finds the wrapper;
# methods are patched on their class.
PARSE_FUNCTIONS = (
    ("cli.parse", "commcoh.cli", "parse_algebra"),
    ("cli.parse", "commcoh.cli", "parse_module"),
)
LAYER_FUNCTIONS = PARSE_FUNCTIONS + (
    ("algebra.jacobi_violations", "commcoh.algebra", "AlgebraPresentation.jacobi_violations"),
    ("cochain.differential_matrix", "commcoh.cochain", "differential_matrix"),
    ("linalg.kernel", "commcoh.linalg", "kernel_basis"),
    ("linalg.image", "commcoh.linalg", "image_basis"),
    ("linalg.quotient", "commcoh.linalg", "quotient_basis"),
    ("linalg.rank", "commcoh.linalg", "rank"),
    ("linalg.solve", "commcoh.linalg", "solve"),
    ("cohomology.cohomology", "commcoh.cohomology", "cohomology"),
    ("cohomology.class_coordinates", "commcoh.cohomology", "CohomologyResult.class_coordinates"),
    ("cup.cup", "commcoh.cup", "cup"),
    ("cup.ring_table", "commcoh.cup", "ring_table"),
    ("morse.complex_from_cochains", "commcoh.morse", "complex_from_cochains"),
    ("morse.greedy_matching", "commcoh.morse", "greedy_matching"),
    ("morse.morse_complex", "commcoh.morse", "morse_complex"),
    ("morse.cohomology_dims", "commcoh.morse", "BasedComplex.cohomology_dims"),
)
CACHES = (
    ("cochain.source_image", "commcoh.cochain", "_source_image_cached"),
    ("cochain.differential_matrix", "commcoh.cochain", "_differential_matrix_cached"),
)
MUL = ("commcoh.field", "FiniteField.mul")


def _resolve(module: str, path: str):
    """(owner, attribute, value), or None when any part of the path is missing."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _shape(obj) -> list[int] | None:
    """[rows, cols, field degree] of a Matrix, or None for anything else."""
    try:
        return [obj.nrows, obj.ncols, obj.field.degree]
    except AttributeError:
        return None


def _describe(name: str, args, result):
    """The size fields recorded with a span."""
    if name in ("linalg.kernel", "linalg.image", "linalg.rank", "linalg.solve"):
        return {"shape": _shape(args[0]) if args else None}
    if name == "cochain.differential_matrix":
        return {"shape": _shape(result)}
    if name == "morse.greedy_matching":
        return {"size": len(result)}
    if name == "morse.morse_complex":
        try:
            return {"cells": sum(result.original.dims()), "reduced": sum(result.reduced.dims())}
        except AttributeError:
            return None
    return None


class Recorder:
    """Spans as [name, start, end, parent index, fields], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, now(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            span[4] = _describe(name, args, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (span name, module, path) target, recording the missing ones as absent."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "commcoh" and m]
        for name, module, path in targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            wrapped = self.wrap(name, fn)
            if "." in path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def _wrap_handlers(recorder: Recorder, cli) -> None:
    """A span around each `cmd_*` handler; the render step is what follows it."""
    for key, value in list(vars(cli).items()):
        if key.startswith("cmd_") and callable(value):
            setattr(cli, key, recorder.wrap("cli.handler", value))


def _count_mul(absent: list[str]) -> list[int]:
    """Patch FiniteField.mul to count its calls into the returned one-element list."""
    calls = [0]
    found = _resolve(*MUL)
    if found is None:
        absent.append(".".join(MUL))
        return calls
    owner, attr, mul = found

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    setattr(owner, attr, counted)
    return calls


def _cache_counters(absent: list[str]) -> dict[str, list[int]]:
    """[hits, misses] of each lru_cache in CACHES."""
    out = {}
    for name, module, path in CACHES:
        found = _resolve(module, path)
        info = getattr(found[2], "cache_info", None) if found else None
        if info is None:
            absent.append(f"{module}.{path}")
            continue
        hits, misses = info()[:2]
        out[name] = [hits, misses]
    return out


def main(argv: list[str]) -> int:
    mode, report_path, sep, *cli_args = argv
    if mode not in ("plain", "trace", "count") or sep != "--":
        raise SystemExit(f"usage: child.py plain|trace|count REPORT -- CLI-ARGS (got {argv[:3]})")
    t_import = now()
    cli = importlib.import_module("commcoh.cli")
    recorder = Recorder()
    report = {
        "import_s": now() - t_import,
        "package": sys.modules["commcoh"].__file__,
        "absent": recorder.absent,
    }
    if mode == "count":
        mul_calls = _count_mul(recorder.absent)
    else:
        recorder.install(LAYER_FUNCTIONS if mode == "trace" else PARSE_FUNCTIONS)
        if mode == "trace":
            _wrap_handlers(recorder, cli)
    report["main_start"] = now()
    code = cli.main(cli_args)
    sys.stdout.flush()
    report["main_end"] = now()
    report["spans"] = recorder.spans
    if mode == "trace":
        report["caches"] = _cache_counters(recorder.absent)
    if mode == "count":
        report["mul_calls"] = mul_calls[0]
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
