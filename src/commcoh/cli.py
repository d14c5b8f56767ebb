"""Command line front end.

Subcommands cover validation (check), dimension and representative
reports (cohomology, cocycles2, scan), the product structure (cupring),
comparison maps between flavors (compare), the four-term sequence
(sequence), extension of scalars (basechange), and discrete Morse
reduction (morse).

Each subcommand takes only the options it reads (`READS`).  Exit codes:
0 on success, 1 when the computation could not be carried out (a usage
error, bad input, size caps), 2 when a validation or consistency check
failed on an otherwise well-formed input, 3 on an internal failure: a
fault in commcoh itself, not in what it was given.  A reader that closes
the output early (``| head``) gets the command's own code and no traceback.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import sys

from .algebra import (
    AxiomError,
    PresentationError,
    abelian,
    adjoint_module,
    dim2,
    dual_module,
    heisenberg,
    import_algebra,
    import_module,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from .cochain import DegreeCapError, check_degree, degree_cap_override
from .cohomology import NotACocycleError, coboundary_witness, cohomology
from .cup import ring_table
from .field import FieldError, make_field
from .linalg import SizeCapError, entry_cap_override
from .morse import (
    MorseError,
    complex_from_cochains,
    greedy_matching,
    heisenberg_matching,
    morse_complex,
)

FLAVORS = {
    "comm": "symmetric",
    "symmetric": "symmetric",
    "alt": "alternating",
    "alternating": "alternating",
    "leibniz": "tensor",
    "tensor": "tensor",
}


def _is_json_path(text: str) -> bool:
    return os.path.exists(text) or os.path.splitext(text)[1] == ".json"


def parse_algebra(text: str, field_degree: int):
    """A builder name like heisenberg:2 or zassenhaus-e:3, or a JSON file path."""
    if _is_json_path(text):
        return import_algebra(text)
    name, _, raw = text.partition(":")
    try:
        params = [int(p) for p in raw.split(",") if p != ""]
    except ValueError:
        name = None  # a parameter that is not an integer names no builder
    fld = make_field(field_degree)
    if name == "dim2" and not params:
        return dim2(fld)
    if name == "abelian" and len(params) == 1:
        return abelian(params[0], fld)
    if name == "heisenberg" and len(params) == 1:
        return heisenberg(params[0], fld)
    if name in ("zassenhaus-e", "zassenhaus_e") and len(params) == 1:
        return zassenhaus_e(params[0], fld)
    if name in ("zassenhaus-f", "zassenhaus_f") and len(params) == 1:
        if field_degree != 1:
            raise ValueError("zassenhaus-f fixes its own field; drop --field-degree")
        return zassenhaus_f(params[0])
    raise ValueError(
        f"unknown algebra {text!r}; expected dim2, abelian:d, heisenberg:l, "
        "zassenhaus-e:n, zassenhaus-f:n, or a JSON file path"
    )


def parse_module(text: str, algebra):
    """trivial, adjoint, dual, or a JSON file path."""
    builders = {"trivial": trivial_module, "adjoint": adjoint_module, "dual": dual_module}
    if text in builders:
        return builders[text](algebra)
    if _is_json_path(text):
        return import_module(algebra, text)
    raise ValueError(
        f"unknown module {text!r}; expected trivial, adjoint, dual, or a JSON file path"
    )


def _flavor(args) -> str:
    return FLAVORS[args.flavor]


def _setup(args):
    algebra = parse_algebra(args.algebra, args.field_degree)
    module = parse_module(args.module, algebra)
    return algebra, module


def _check_degree_cap(args) -> None:
    """Fail before any work when the top degree needs cochains above the degree cap:
    H^N needs degree N + 1, and the Morse complex to degree N needs degree N."""
    top = args.max_degree
    if args.command == "morse":
        what, degree = f"the complex to degree {top}", top
    else:
        what, degree = f"H^{top}", top + 1
    try:
        check_degree(degree)
    except DegreeCapError as exc:
        raise DegreeCapError(
            f"{what} needs cochains of degree {degree}, but {exc}; raise it with --degree-cap"
        ) from None


def _dims(res) -> dict:
    """The dimensions of Z, B and H in one degree of a cohomology result."""
    return {"dimZ": res.dim_Z, "dimB": res.dim_B, "dimH": res.dim_H}


def _degree_block(algebra, module, flavor, n, with_reps):
    res = cohomology(algebra, module, n, flavor)
    block = {"degree": n, "dimC": res.space.dim, **_dims(res)}
    if with_reps:
        block["representatives"] = [rep.to_json() for rep in res.representatives]
    return block


# -- command handlers (each returns payload, exit code) ---------------------------------


def cmd_check(args):
    algebra = parse_algebra(args.algebra, args.field_degree)
    jacobi = algebra.jacobi_violations()
    payload = {
        "algebra": {
            "dim": algebra.dim,
            "field_degree": algebra.field.degree,
            "basis": list(algebra.basis_names),
        },
        "jacobi_ok": not jacobi,
        "is_lie": algebra.is_lie(),
    }
    if not jacobi:
        payload["square_ideal_dim"] = algebra.square_ideal().dim
    if args.module != "trivial":
        payload["module"] = {"dim": parse_module(args.module, algebra).dim}
    return payload, 2 if jacobi else 0


def cmd_cohomology(args):
    algebra, module = _setup(args)
    flavor = _flavor(args)
    blocks = [
        _degree_block(algebra, module, flavor, n, args.reps)
        for n in range(args.max_degree + 1)
    ]
    payload = {
        "algebra": args.algebra,
        "module": args.module,
        "flavor": flavor,
        "degrees": blocks,
    }
    return payload, 0


def cmd_cocycles2(args):
    from .structure import central_extension

    algebra, module = _setup(args)
    flavor = _flavor(args)
    res = cohomology(algebra, module, 2, flavor)
    payload = {
        "algebra": args.algebra,
        "module": args.module,
        "flavor": flavor,
        **_dims(res),
        "representatives": [rep.to_json() for rep in res.representatives],
    }
    if flavor == "symmetric" and module.dim == 1 and args.module == "trivial":
        extensions = []
        for rep in res.representatives:
            ext = central_extension(algebra, rep)
            extensions.append(
                {
                    "dim": ext.dim,
                    "splits": coboundary_witness(rep) is not None,
                }
            )
        payload["central_extensions"] = extensions
    return payload, 0


def cmd_cupring(args):
    algebra = parse_algebra(args.algebra, args.field_degree)
    table = ring_table(algebra, args.max_degree)
    return table.to_json(), 2 if table.defects else 0


def cmd_morse(args):
    flavor = _flavor(args)
    algebra, module = _setup(args)
    # the collapsing matching is built on the Heisenberg algebra over GF(2)
    ell = algebra.dim // 2
    fast = ell >= 1 and algebra == heisenberg(ell)
    if fast and flavor == "symmetric" and args.module == "trivial":
        cx, matching = heisenberg_matching(ell, args.max_degree)
    else:
        cx = complex_from_cochains(algebra, module, flavor, args.max_degree)
        matching = greedy_matching(cx)
    red = morse_complex(cx, matching)
    payload = red.to_json(cells=args.reps)
    payload["original_cohomology_dims"] = cx.cohomology_dims()
    agrees = payload["cohomology_dims"] == payload["original_cohomology_dims"]
    payload["agrees"] = agrees
    return payload, 0 if agrees else 2


def cmd_sequence(args):
    from .structure import exact_sequence_check

    algebra = parse_algebra(args.algebra, args.field_degree)
    report = exact_sequence_check(algebra)
    return report.to_json(), 0 if report.ok else 2


def cmd_compare(args):
    from .structure import comparison_comm_to_leibniz, comparison_lie_to_comm

    algebra, module = _setup(args)
    lie = algebra.is_lie()
    rows, defects = [], False
    for n in range(args.max_degree + 1):
        reports = {"comm_to_leibniz": comparison_comm_to_leibniz(algebra, module, n)}
        if lie:
            reports["alt_to_comm"] = comparison_lie_to_comm(algebra, module, n)
        rows.append({"degree": n, **{key: c.to_json() for key, c in reports.items()}})
        defects = defects or any(c.chain_defects for c in reports.values())
    return {"algebra": args.algebra, "module": args.module, "degrees": rows}, 2 if defects else 0


def cmd_basechange(args):
    from .structure import base_change

    if args.field_degree < 2:
        raise ValueError("basechange needs --field-degree 2 or more")
    algebra = parse_algebra(args.algebra, 1)
    module = parse_module(args.module, algebra)
    flavor = _flavor(args)
    big_algebra, big_module = base_change(algebra, module, args.field_degree)
    rows = []
    all_match = True
    for n in range(args.max_degree + 1):
        base = _dims(cohomology(algebra, module, n, flavor))
        extended = _dims(cohomology(big_algebra, big_module, n, flavor))
        match = base == extended
        all_match = all_match and match
        rows.append({"degree": n, "base": base, "extended": extended, "match": match})
    payload = {
        "algebra": args.algebra,
        "field_degree": args.field_degree,
        "flavor": flavor,
        "degrees": rows,
        "all_match": all_match,
    }
    return payload, 0 if all_match else 2


def cmd_scan(args):
    algebra, module = _setup(args)
    lie = algebra.is_lie()
    rows = []
    for n in range(args.max_degree + 1):
        row = {"degree": n}
        for flavor in ("symmetric", "tensor") + (("alternating",) if lie else ()):
            res = cohomology(algebra, module, n, flavor)
            row[flavor] = {"dimC": res.space.dim, **_dims(res)}
        rows.append(row)
    payload = {
        "algebra": args.algebra,
        "module": args.module,
        "is_lie": lie,
        "degrees": rows,
    }
    return payload, 0


# -- rendering ---------------------------------------------------------------------------


def _scalar(v) -> bool:
    return not isinstance(v, (dict, list))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, dict) and not v:
        return "{}"
    return str(v)


def render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    is_dict = isinstance(obj, dict)
    entries = [(f"{k}:", v) for k, v in obj.items()] if is_dict else [("-", v) for v in obj]
    lines = []
    for head, val in entries:  # only a dict entry puts a list of scalars on its own line
        if _scalar(val) or (is_dict and isinstance(val, list) and all(map(_scalar, val))):
            lines.append(f"{pad}{head} {_fmt(val)}")
        elif isinstance(val, dict) and all(map(_scalar, val.values())):
            inner = ", ".join(f"{k}={_fmt(x)}" for k, x in val.items()) or "{}"
            lines.append(f"{pad}{head} {inner}")
        else:
            lines.append(f"{pad}{head}")
            lines.extend(render_text(val, indent + 1))
    return lines


# -- entry point --------------------------------------------------------------------------


def _degree(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a degree 0, 1, 2, ..., got {text!r}")
    return int(text)


# the options that only some subcommands read
OPTIONS = {
    "module": (
        "--module",
        dict(default="trivial", help="trivial, adjoint, dual, or a JSON file path"),
    ),
    "flavor": (
        "--flavor",
        dict(
            default="comm",
            choices=sorted(FLAVORS),
            help="cochain flavor; comm = symmetric, alt = alternating, leibniz = tensor",
        ),
    ),
    "max-degree": ("--max-degree", dict(type=_degree, default=3)),
    "reps": ("--reps", dict(action="store_true", help="include representative cochains")),
}
# which of OPTIONS each subcommand reads, besides the common options
READS = {
    "check": "module",
    "cohomology": "module flavor max-degree reps",
    "cocycles2": "module flavor",
    "cupring": "max-degree",
    "morse": "module flavor max-degree reps",
    "sequence": "",
    "compare": "module max-degree",
    "basechange": "module flavor max-degree",
    "scan": "module max-degree",
}
_EXIT_HOOK: list = []  # gc.freeze, once main has registered it


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--algebra",
        default="dim2",
        help="builder name (dim2, abelian:d, heisenberg:l, zassenhaus-e:n, "
        "zassenhaus-f:n) or JSON file path",
    )
    common.add_argument("--field-degree", type=int, default=1, help="work over GF(2^k)")
    common.add_argument("--cap", type=int, help="override the matrix entry cap")
    common.add_argument("--degree-cap", type=int, help="override the cochain degree cap")
    common.add_argument("--out", help="also write the JSON payload to this file")
    common.add_argument("--format", default="text", choices=["text", "json"])

    parser = argparse.ArgumentParser(
        prog="commcoh",
        description="cohomology of commutative Lie algebras in characteristic 2",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("check", cmd_check, "validate an algebra or module presentation"),
        ("cohomology", cmd_cohomology, "dimensions and representatives by degree"),
        ("cocycles2", cmd_cocycles2, "degree-2 classes and their central extensions"),
        ("cupring", cmd_cupring, "multiplication table of classes under cup product"),
        ("morse", cmd_morse, "discrete Morse reduction of the cochain complex"),
        ("sequence", cmd_sequence, "the four-term low-degree sequence"),
        ("compare", cmd_compare, "comparison maps between cochain flavors"),
        ("basechange", cmd_basechange, "dimensions before and after extending scalars"),
        ("scan", cmd_scan, "dimension table across all applicable flavors"),
    ]
    for name, handler, help_text in commands:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for option in READS[name].split():
            flag, kwargs = OPTIONS[option]
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. The first call registers `gc.freeze` at exit
    for the whole process, so the shutdown collection walks none of its heap: objects held
    only in reference cycles, the caller's included, are then not finalized at exit."""
    if not _EXIT_HOOK:
        _EXIT_HOOK.append(atexit.register(gc.freeze))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code kept for failed checks
        return 1 if exc.code == 2 else exc.code
    try:
        with contextlib.ExitStack() as stack:
            if args.cap is not None:
                stack.enter_context(entry_cap_override(args.cap))
            if args.degree_cap is not None:
                stack.enter_context(degree_cap_override(args.degree_cap))
            if "max-degree" in READS[args.command]:
                _check_degree_cap(args)
            payload, code = args.handler(args)
        dumped = json.dumps(payload, indent=2) if args.out or args.format == "json" else ""
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(dumped + "\n")
        text = dumped if args.format == "json" else "\n".join(render_text(payload))
    except (AxiomError, MorseError, NotACocycleError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except (
        FieldError,
        PresentationError,
        SizeCapError,
        DegreeCapError,
        ValueError,
        OSError,  # a missing input file, an unwritable --out
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send the interpreter's final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
