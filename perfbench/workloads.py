"""The benchmark's workloads: seeded inputs, the CLI commands, and their oracles.

A workload is a list of commcoh CLI commands run one after another.  Each
command names a built-in algebra; the benchmark never passes that name to
the program.  It draws a monomial change of basis from the seed (a random
permutation of the basis, times a random nonzero diagonal scaling when the
field is larger than GF(2)), applies it to the built-in presentation, and
hands the program the resulting algebra JSON file through --algebra.

A monomial change keeps the structure constants exactly as sparse as before
and leaves every cohomology dimension unchanged, so the oracles below are
fixed numbers that do not depend on the seed.  Seed 0 is reserved for the
identity change: the file then holds the named presentation itself, and the
output must also match, byte for byte, a golden file in golden/.  Each was
captured from the named presentation, before any optimisation landed, with

    PYTHONPATH=src python3 -m commcoh.cli SUBCOMMAND --algebra NAME OPTIONS --format json
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Command:
    subcommand: str
    algebra: str  # built-in name, as the CLI would parse it
    options: tuple[str, ...]
    oracle: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


# -- GF(2^k) arithmetic for the basis change, independent of the program ------------


def gf_mul(a: int, b: int, modulus: int) -> int:
    degree = modulus.bit_length() - 1
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> degree:
            a ^= modulus
    return res


def gf_inv(a: int, modulus: int) -> int:
    """a^(2^k - 2), the inverse of a nonzero a."""
    degree = modulus.bit_length() - 1
    result, base, e = 1, a, (1 << degree) - 2
    while e:
        if e & 1:
            result = gf_mul(result, base, modulus)
        base = gf_mul(base, base, modulus)
        e >>= 1
    return result


# -- seeded inputs ---------------------------------------------------------------------


def draw_change(seed: int, tag: str, dim: int, field_degree: int) -> tuple[list[int], list[int]]:
    """(perm, scale): new basis vector a is scale[a] * e_{perm[a]}.  Seed 0 is the identity."""
    if seed == 0:
        return list(range(dim)), [1] * dim
    rng = random.Random(f"{seed}/{tag}")
    perm = list(range(dim))
    rng.shuffle(perm)
    if field_degree == 1:
        return perm, [1] * dim
    return perm, [rng.randrange(1, 1 << field_degree) for _ in range(dim)]


def apply_change(data: dict, perm: list[int], scale: list[int]) -> dict:
    """The algebra JSON `data` rewritten in the basis e'_a = scale[a] * e_{perm[a]}.

    [e'_a, e'_b] = scale[a] scale[b] sum_s c^s e_s, and e_s = e'_{a'} / scale[a']
    for a' = perm^-1(s).
    """
    modulus = data["field"]["modulus"]
    dim = data["dim"]
    new_of_old = [0] * dim
    for a, s in enumerate(perm):
        new_of_old[s] = a
    table: dict[tuple[int, int], dict[int, int]] = {}
    for entry in data["brackets"]:
        i, j = new_of_old[entry["i"]], new_of_old[entry["j"]]
        if i > j:
            i, j = j, i
        factor = gf_mul(scale[i], scale[j], modulus)
        value = {}
        for s, text in entry["value"].items():
            t = new_of_old[int(s)]
            coeff = gf_mul(factor, int(text, 16), modulus)
            value[t] = gf_mul(coeff, gf_inv(scale[t], modulus), modulus)
        table[(i, j)] = value
    brackets = [
        {"i": i, "j": j, "value": {str(t): format(c, "x") for t, c in sorted(v.items())}}
        for (i, j), v in sorted(table.items())
    ]
    return {
        "field": data["field"],
        "dim": dim,
        "basis": [data["basis"][s] for s in perm],
        "brackets": brackets,
    }


def builtin_json(name: str) -> dict:
    """The named built-in presentation, built by the CLI's own parser."""
    from commcoh.cli import parse_algebra

    return parse_algebra(name, 1).to_json()


def write_input(path: Path, name: str, seed: int, tag: str) -> bool:
    """Write the seeded algebra file; True when the change drawn is the identity."""
    data = builtin_json(name)
    perm, scale = draw_change(seed, tag, data["dim"], data["field"]["degree"])
    identity = perm == sorted(perm) and all(c == 1 for c in scale)
    if not identity:
        data = apply_change(data, perm, scale)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return identity


# -- oracles ---------------------------------------------------------------------------


def _cochain_dim(flavor: str, d: int, m: int, n: int) -> int:
    if flavor == "tensor":
        return m * d**n
    return m * comb(d + n - 1, n)


def cohomology_oracle(flavor: str, d: int, m: int, dims_h: list[int]) -> Callable[[dict], list[str]]:
    """Checks a `cohomology` payload: dim H^n, dim C^n from the cochain count, H = Z - B."""

    def check(out: dict) -> list[str]:
        problems = []
        if out.get("flavor") != flavor:
            problems.append(f"flavor {out.get('flavor')!r}, expected {flavor!r}")
        blocks = out.get("degrees", [])
        got = [b.get("dimH") for b in blocks]
        if got != dims_h:
            problems.append(f"dim H = {got}, expected {dims_h}")
        for n, b in enumerate(blocks):
            if b.get("degree") != n:
                problems.append(f"block {n} is labelled degree {b.get('degree')}")
            dim_c = _cochain_dim(flavor, d, m, n)
            if b.get("dimC") != dim_c:
                problems.append(f"dim C^{n} = {b.get('dimC')}, expected {dim_c}")
            if b.get("dimH") != b.get("dimZ", 0) - b.get("dimB", 0):
                problems.append(f"degree {n}: dim H != dim Z - dim B")
        return problems

    return check


def _gf2_rank(vectors: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def cupring_oracle(dims_h: list[int], decomposables: list[int]) -> Callable[[dict], list[str]]:
    """Checks a GF(2) `cupring` payload against properties that hold in every basis.

    Class counts; one product per unordered label pair; no defects; h0_0 is a
    unit; the table is associative; and the products of positive-degree
    classes span `decomposables[n]` dimensions of H^n.
    """
    top = len(dims_h) - 1
    expected_products = sum(
        (dims_h[a] * (dims_h[a] + 1) // 2) if a == b else dims_h[a] * dims_h[b]
        for a in range(top + 1)
        for b in range(a, top + 1 - a)
    )

    def check(out: dict) -> list[str]:
        if out.get("dims") != dims_h or [len(row) for row in out.get("labels", [])] != dims_h:
            return [f"dims {out.get('dims')}, expected {dims_h}"]
        problems = []
        labels = out["labels"]
        degree_of = {lab: n for n, row in enumerate(labels) for lab in row}
        bit_of = {lab: 1 << i for row in labels for i, lab in enumerate(row)}
        products = out.get("products", [])
        if len(products) != expected_products:
            problems.append(f"{len(products)} products, expected {expected_products}")
        table: dict[tuple[str, str], int] = {}
        for p in products:
            a, b, value = p.get("left"), p.get("right"), p.get("value", {})
            if a not in degree_of or b not in degree_of or (a, b) in table:
                return problems + [f"product {a}*{b} is unknown or repeated"]
            n = degree_of[a] + degree_of[b]
            if n > top or any(degree_of.get(lab) != n or c != "1" for lab, c in value.items()):
                return problems + [f"{a}*{b} = {value} is not a GF(2) class of degree {n}"]
            table[(a, b)] = table[(b, a)] = sum(bit_of[lab] for lab in value)
        if out.get("defects") != []:
            problems.append(f"defects {out.get('defects')}")

        def times(vec: int, n: int, c: str) -> int:
            """(sum of the degree-n classes in vec) * c."""
            acc = 0
            for i, lab in enumerate(labels[n]):
                if vec >> i & 1:
                    acc ^= table.get((lab, c), 0)
            return acc

        unit = labels[0][0] if labels and labels[0] else None
        if any(table.get((unit, lab)) != bit_of[lab] for lab in degree_of):
            problems.append(f"{unit} is not a unit")
        for na in range(1, top + 1):
            for nb in range(na, top + 1 - na):
                for nc in range(1, top + 1 - na - nb):
                    for a, b, c in itertools.product(labels[na], labels[nb], labels[nc]):
                        ab_c = times(table.get((a, b), 0), na + nb, c)
                        if ab_c != times(table.get((b, c), 0), nb + nc, a):
                            return problems + [f"({a}*{b})*{c} != {a}*({b}*{c})"]
        by_degree: list[list[int]] = [[] for _ in range(top + 1)]
        for (a, b), v in table.items():
            if degree_of[a] > 0 and degree_of[b] > 0:
                by_degree[degree_of[a] + degree_of[b]].append(v)
        spans = [_gf2_rank(vs) for vs in by_degree]
        if spans != decomposables:
            problems.append(f"products span {spans} dimensions of H^n, expected {decomposables}")
        return problems

    return check


def morse_oracle(d: int, m: int, top: int, dims_h: list[int]) -> Callable[[dict], list[str]]:
    """Checks a `morse` payload: both dimension lists, agreement, and the cell count."""
    original = [_cochain_dim("symmetric", d, m, n) for n in range(top + 1)]

    def check(out: dict) -> list[str]:
        problems = []
        if out.get("original_dims") != original:
            problems.append(f"original dims {out.get('original_dims')}, expected {original}")
        for key in ("cohomology_dims", "original_cohomology_dims"):
            if out.get(key) != dims_h:
                problems.append(f"{key} {out.get(key)}, expected {dims_h}")
        if out.get("agrees") is not True:
            problems.append(f"agrees is {out.get('agrees')!r}")
        reduced = out.get("reduced_dims", [])
        if sum(original) - sum(reduced) != 2 * out.get("matching_size", -1):
            problems.append("reduced cells do not equal original cells minus twice the matching")
        return problems

    return check


# Built-in dimensions: heisenberg:l has 2l+1, zassenhaus-e:n and zassenhaus-f:n have 2^n - 1.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coh-gf2",
            "packed GF(2) path: a few large eliminations, 6561x2187 kernel dominates",
            (
                Command(
                    "cohomology",
                    "heisenberg:1",
                    ("--flavor", "leibniz", "--max-degree", "7", "--cap", "20000000"),
                    # The Pell numbers.
                    cohomology_oracle("tensor", 3, 1, [1, 2, 5, 12, 29, 70, 169, 408]),
                ),
                Command(
                    "cohomology",
                    "zassenhaus-e:4",
                    ("--max-degree", "3", "--cap", "20000000"),
                    cohomology_oracle("symmetric", 15, 1, [1, 0, 4, 5]),
                ),
            ),
        ),
        Workload(
            "coh-gf8",
            "generic GF(8) elimination, f.mul in the inner loop; a GF(2)-only change must not move it",
            (
                Command(
                    "cohomology",
                    "zassenhaus-f:3",
                    ("--module", "adjoint", "--max-degree", "3"),
                    cohomology_oracle("symmetric", 7, 7, [0, 3, 7, 24]),
                ),
            ),
        ),
        Workload(
            "cupring",
            "842 cup products and 842 small solves: many small linalg calls, little elimination",
            (
                Command(
                    "cupring",
                    "heisenberg:3",
                    ("--max-degree", "4"),
                    # The span of products in each degree is a ring invariant,
                    # read off the golden table.
                    cupring_oracle([1, 6, 20, 50, 114], [0, 0, 14, 50, 100]),
                ),
            ),
        ),
        Workload(
            "morse",
            "greedy Morse matching dominates; the only workload that reaches the morse module",
            (
                Command(
                    "morse",
                    "zassenhaus-e:3",
                    ("--module", "adjoint", "--max-degree", "4"),
                    morse_oracle(7, 7, 4, [0, 3, 7, 24]),
                ),
            ),
        ),
    )
}


def golden_path(workload: str, index: int) -> Path:
    return GOLDEN_DIR / f"{workload}.{index}.json"


def check_output(
    command: Command, stdout: bytes, identity: bool, golden: Path, input_path: str
) -> list[str]:
    """Every problem with one command's JSON output; empty when it is right."""
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = command.oracle(out)
    if identity:
        # The program saw the file, not the name; the golden run saw the name.
        named = stdout.replace(json.dumps(input_path).encode(), json.dumps(command.algebra).encode())
        if named != golden.read_bytes():
            problems.append(f"output differs from {golden.name}")
    return problems
