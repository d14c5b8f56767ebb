"""Presentations of commutative algebras over GF(2^k) and their modules.

An algebra is given by structure constants for a *symmetric* bracket:
for basis indices i <= j the table stores [e_i, e_j] as a sparse
coefficient vector, and [e_j, e_i] is the same element.  Diagonal entries
[e_i, e_i] are allowed and need not vanish; an algebra with all of them
zero is an ordinary Lie algebra.  In characteristic 2 the Jacobi identity
is required either way, and `jacobi_violations` lists where it fails: the
jacobiator of i <= j <= k sums [[e_a, e_b], e_c] over the stored brackets
for the 3 ways to take c out of {i, j, k}, where a term with a != b and c
in {a, b} comes twice and cancels.

A module is its action matrices rho(e_i), held as packed rows, subject to the
characteristic-2 axiom rho([x,y]) = rho(x)rho(y) + rho(y)rho(x), which in
particular forces every square [x,x] to act trivially.  `ModulePresentation`
takes the packed rows; the adjoint and dual modules read theirs off the stored
brackets, and dense matrices enter only through `module_from_actions`, which
packs them and checks the axiom.

Internally vectors are rows lane-packed as in linalg, and `packed_bracket`
is the one bracket arithmetic, on which the square ideal is computed.  Dense
vectors appear only at the API, in `bracket` (which packs, brackets and
unpacks), `act`, `module_from_actions` and the `actions` view.

Presentations key the cochain caches, so they are immutable once hashed, and
each computes its hash once, from its content key, on first use.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from operator import xor
from types import MappingProxyType

from .field import GF2, FieldError, FiniteField, _is_int, scalar_from_hex, scalar_to_hex
from .linalg import Matrix, SizeCapError, Subspace, _entry_cap, _pack_lanes, _pack_row, _unpack_row
from .linalg import check_entry_count, nonzeros, scale_packed

Vec = Sequence[int]

# a cochain label reads "(name,name,...)|mu", so basis names avoid these characters
LABEL_DELIMITERS = ",()|"


class PresentationError(ValueError):
    """A structurally invalid algebra or module presentation."""


class AxiomError(ValueError):
    """An algebra or module presentation violating its defining identities."""

    def __init__(self, message: str, violations):
        super().__init__(message)
        self.violations = violations


class AlgebraPresentation:
    """A finite-dimensional algebra with a symmetric bracket, by structure constants.

    Instances are hashed into the cochain caches, so `brackets` is read-only.
    """

    __slots__ = ("field", "dim", "basis_names", "brackets", "_into", "_key", "_hash", "_jacobi")

    def __init__(
        self,
        field: FiniteField,
        dim: int,
        basis_names: Sequence[str],
        brackets: dict[tuple[int, int], dict[int, int]],
    ):
        if not _is_int(dim):
            raise PresentationError(f"dimension must be an int, got {dim!r}")
        if dim < 0:
            raise PresentationError("negative dimension")
        if not isinstance(basis_names, (list, tuple)) or not all(
            isinstance(n, str) for n in basis_names
        ):
            raise PresentationError(f"basis names must be a list of strings, got {basis_names!r}")
        names = tuple(basis_names)
        if len(names) != dim:
            raise PresentationError(f"{len(names)} basis names for dimension {dim}")
        if len(set(names)) != dim or any(not n for n in names):
            raise PresentationError("basis names must be nonempty and distinct")
        for name in names:
            if any(c in LABEL_DELIMITERS for c in name):
                raise PresentationError(
                    f"basis name {name!r} contains one of {' '.join(LABEL_DELIMITERS)}, "
                    "which delimit cochain labels"
                )
        clean = {}
        for (i, j), value in brackets.items():
            if not (_is_int(i) and _is_int(j) and 0 <= i <= j < dim):
                raise PresentationError(f"bracket pair ({i!r}, {j!r}) is not ordered ints in range")
            entry = {}
            for s, bits in value.items():
                if not (_is_int(s) and 0 <= s < dim):
                    raise PresentationError(f"bracket target index {s!r} is not an int in range")
                field.check_bits(bits)
                if bits:
                    entry[s] = bits
            if entry:
                clean[(i, j)] = MappingProxyType(entry)
        self.field = field
        self.dim = dim
        self.basis_names = names
        self.brackets = MappingProxyType(clean)
        self._into = None
        self._key = None
        self._hash = None
        self._jacobi = None

    # -- bracket evaluation ---------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, int]:
        """[e_i, e_j] as a sparse coefficient dict (symmetric in i, j)."""
        if i > j:
            i, j = j, i
        return self.brackets.get((i, j), {})

    def bracket(self, x: Vec, y: Vec) -> list[int]:
        """[x, y] for coefficient vectors x, y; ValueError or FieldError for a malformed one."""
        f, d = self.field, self.dim
        return _unpack_row(self.packed_bracket(_pack_row(x, f, d), _pack_row(y, f, d)), d, f)

    def packed_bracket(self, x: int, y: int) -> int:
        """[x, y] for rows lane-packed as in linalg: the terms x_i y_j [e_i, e_j] over the
        nonzero lanes of x and y, summed into one row by `_pack_lanes`."""
        f = self.field
        ys = nonzeros(y, f.degree)
        terms = (
            (s, f.mul(f.mul(a, b), bits))
            for i, a in nonzeros(x, f.degree)
            for j, b in ys
            for s, bits in self.bracket_basis(i, j).items()
        )
        return _pack_lanes(terms, self.dim, f)

    def bracket_into(self, s: int) -> list[tuple[int, int, int]]:
        """All (i <= j, coeff) with a nonzero e_s component in [e_i, e_j]."""
        if self._into is None:
            into = [[] for _ in range(self.dim)]
            for (i, j), value in sorted(self.brackets.items()):
                for t, bits in sorted(value.items()):
                    into[t].append((i, j, bits))
            self._into = into
        return self._into[s]

    # -- axioms -----------------------------------------------------------------

    def jacobi_violations(self) -> list[tuple[int, int, int, tuple[int, ...]]]:
        """Basis triples (i <= j <= k), ascending, whose jacobiator [[x,y],z] + [[z,x],y] +
        [[y,z],x] is nonzero, each with it as a d-tuple.  The jacobiator sums [[e_a, e_b], e_c]
        over the 3 ways to take c out of the multiset {i, j, k}: each stored [e_s, e_c], in
        both orders, meets each (a, b, x) of `bracket_into(s)`, and a term with a != b and c
        in {a, b} occurs twice and cancels, so it is skipped.  Computed once per presentation,
        whose brackets are read-only, packed per sorted triple; a new list per call."""
        if self._jacobi is None:
            f, k = self.field, self.field.degree
            acc: dict[tuple[int, int, int], int] = {}
            for (p, q), value in self.brackets.items():
                row = sum(bits << (k * t) for t, bits in value.items())
                scaled = {1: row}  # x [e_s, e_c], made once per coefficient x
                for s, c in ((p, q), (q, p)) if p != q else ((p, q),):
                    for a, b, x in self.bracket_into(s):
                        if a != b and (c == a or c == b):
                            continue
                        key = (c, a, b) if c <= a else (a, c, b) if c <= b else (a, b, c)
                        term = scaled.get(x) or scaled.setdefault(x, scale_packed(row, x, f))
                        acc[key] = acc.get(key, 0) ^ term
            self._jacobi = tuple(
                (*key, tuple(_unpack_row(acc[key], self.dim, f))) for key in sorted(acc) if acc[key]
            )
        return list(self._jacobi)

    def is_lie(self) -> bool:
        """True when every diagonal bracket [x, x] vanishes (ordinary Lie algebra)."""
        if any((i, i) in self.brackets for i in range(self.dim)):
            return False
        return not (self.jacobi_violations() if self._jacobi is None else self._jacobi)

    def square_ideal(self) -> Subspace:
        """The span of all squares [x, x]; central, since [[x,x],y] = 0 by Jacobi."""
        f, d = self.field, self.dim
        # The squares of a general element also involve cross terms [x,y]+[y,x] = 0,
        # so the basis squares span everything.
        squares = [_pack_lanes(self.bracket_basis(i, i).items(), d, f) for i in range(d)]
        sub = Subspace.from_packed(f, squares, d)
        for v in sub._packed_basis():
            for j in range(d):
                if self.packed_bracket(v, 1 << (f.degree * j)):
                    raise PresentationError(
                        f"square ideal is not central at basis index {j}; Jacobi must fail"
                    )
        return sub

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for (i, j), value in sorted(self.brackets.items()):
            entries.append(
                {
                    "i": i,
                    "j": j,
                    "value": {str(s): scalar_to_hex(bits) for s, bits in sorted(value.items())},
                }
            )
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "basis": list(self.basis_names),
            "brackets": entries,
        }

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, AlgebraPresentation) and self._content_key() == other._content_key()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._content_key())
        return self._hash

    def _content_key(self):
        if self._key is None:
            self._key = (
                self.field.degree,
                self.field.modulus,
                self.dim,
                self.basis_names,
                tuple(sorted((p, tuple(sorted(v.items()))) for p, v in self.brackets.items())),
            )
        return self._key

    def __repr__(self) -> str:
        return f"AlgebraPresentation(dim {self.dim} over GF(2^{self.field.degree}))"


# -- builders ---------------------------------------------------------------------
# A builder of a sized family checks its d x d bracket table against the entry cap
# before it builds any list.


def abelian(dim: int, fld: FiniteField | None = None) -> AlgebraPresentation:
    """The abelian algebra of the given dimension (all brackets zero)."""
    check_entry_count(dim, dim)
    f = fld if fld is not None else GF2
    return AlgebraPresentation(f, dim, [f"x{i}" for i in range(dim)], {})


def dim2(fld: FiniteField | None = None) -> AlgebraPresentation:
    """The 2-dimensional algebra with basis a, b and [a, b] = a."""
    f = fld if fld is not None else GF2
    return AlgebraPresentation(f, 2, ["a", "b"], {(0, 1): {0: 1}})


def heisenberg(ell: int, fld: FiniteField | None = None) -> AlgebraPresentation:
    """The (2*ell+1)-dimensional Heisenberg algebra: [b_i, c_i] = a, a central."""
    if ell < 1:
        raise PresentationError(f"heisenberg needs ell >= 1, got {ell}")
    check_entry_count(2 * ell + 1, 2 * ell + 1)
    f = fld if fld is not None else GF2
    names = ["a"] + [f"b{i}" for i in range(1, ell + 1)] + [f"c{i}" for i in range(1, ell + 1)]
    brackets = {(i, ell + i): {0: 1} for i in range(1, ell + 1)}
    return AlgebraPresentation(f, 2 * ell + 1, names, brackets)


def _check_zassenhaus_n(name: str, n: int) -> None:
    """Refuse n < 2, and an n whose (2^n - 1)^2 table passes the entry cap, as every n past
    the cap's bit length does: that n is refused before 2^n is computed."""
    if n < 2:
        raise PresentationError(f"{name} needs n >= 2, got {n}")
    if n > _entry_cap.get().bit_length():
        raise SizeCapError(f"(2^{n} - 1) x (2^{n} - 1) entries exceeds the cap {_entry_cap.get()}")
    check_entry_count((1 << n) - 1, (1 << n) - 1)


def zassenhaus_e(n: int, fld: FiniteField | None = None) -> AlgebraPresentation:
    """The commutant of the Zassenhaus algebra W_1(n) over GF(2), in the e-basis.

    Basis e_{-1}, e_0, ..., e_{2^n - 3} (dimension 2^n - 1) with
    [e_i, e_j] = C(i+j+2, i+1) mod 2 * e_{i+j} when the target index is in
    range, and 0 otherwise.  Out-of-range products carry an even binomial
    coefficient, so the truncation is exact.  At the positions a = i+1 and
    b = j+1, Lucas's theorem makes C(a+b, a) odd exactly when a & b = 0, so
    the stored pairs a <= b are the submasks b of the complement of a, and
    then a + b = a | b is in range; only a = b = 0, whose target e_{-2} is
    not, is left out.
    """
    _check_zassenhaus_n("zassenhaus_e", n)
    f = fld if fld is not None else GF2
    dim = (1 << n) - 1
    names = [f"e{i}" for i in range(-1, dim - 1)]
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(dim):
        free, b = dim ^ a, 0
        while True:  # the submasks b of free, ascending
            if a <= b < dim and b:
                brackets[(a, b)] = {a + b - 1: 1}
            if b == free:
                break
            b = (b - free) & free
    return AlgebraPresentation(f, dim, names, brackets)


def zassenhaus_f(n: int) -> AlgebraPresentation:
    """The same commutant over GF(2^n), in the basis f_alpha, alpha in GF(2^n)*.

    [f_alpha, f_beta] = (alpha + beta) f_{alpha + beta}; basis ordered by
    increasing bitmask of alpha.  Structure constants are not in the prime
    field, so this presentation is not eligible for base change.
    """
    _check_zassenhaus_n("zassenhaus_f", n)
    f = FiniteField(n)
    alphas = list(range(1, f.order))
    names = [f"f{a}" for a in alphas]
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for ia, alpha in enumerate(alphas):
        for ib in range(ia + 1, len(alphas)):
            beta = alphas[ib]
            gamma = alpha ^ beta  # alpha + beta in the field
            if gamma:
                brackets[(ia, ib)] = {gamma - 1: gamma}
    return AlgebraPresentation(f, len(alphas), names, brackets)


def _read_json(source):
    """The parsed JSON of a file path (FileNotFoundError if it is missing), or a parsed value."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return json.load(fh)
    return source


def import_algebra(source) -> AlgebraPresentation:
    """Load an algebra from a JSON file path or a parsed dict.

    Format: {"field": {"characteristic": 2, "degree": k, "modulus": m},
    "dim": d, "basis": [names], "brackets": [{"i": i, "j": j,
    "value": {"s": "hex"}}]}.  Pairs are unordered, i = j is allowed,
    duplicate pairs are an error, omitted pairs are zero.  The imported
    presentation must satisfy the Jacobi identity.
    """
    data = _read_json(source)
    try:
        f = FiniteField.from_json(data["field"])
        dim = data["dim"]
        names = data["basis"]
        raw = data["brackets"]
    except KeyError as exc:
        raise PresentationError(f"algebra file is missing key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise PresentationError(f"malformed algebra file: {exc}") from None
    if not isinstance(raw, list):
        raise PresentationError('brackets must be a list of {"i", "j", "value"} objects')
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for entry in raw:
        try:
            i, j = sorted((entry["i"], entry["j"]))  # the constructor checks that both are ints
            value = {}
            for s, h in entry.get("value", {}).items():
                if not (s.isascii() and s.isdigit()):
                    raise ValueError(f"bracket target key {s!r} is not a decimal numeral")
                value[int(s)] = scalar_from_hex(h, f)
            if (i, j) in brackets:
                raise PresentationError(f"duplicate bracket pair ({i}, {j})")
        except (FieldError, PresentationError):
            raise
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            raise PresentationError(f"malformed bracket entry {entry!r}: {exc}") from None
        brackets[(i, j)] = value
    algebra = AlgebraPresentation(f, dim, names, brackets)
    violations = algebra.jacobi_violations()
    if violations:
        raise AxiomError(
            f"imported algebra violates Jacobi on {len(violations)} basis triples, "
            f"first at {violations[0][:3]}",
            violations,
        )
    return algebra


# -- modules ------------------------------------------------------------------------


class ModulePresentation:
    """A module over an AlgebraPresentation, given by rho(e_t) for each basis element.

    `rho[t]` is the tuple of the m rows of rho(e_t), each lane-packed over nu as in
    linalg, and `acting` lists, ascending, the t with rho(e_t) != 0.  Both are
    read-only like the algebra's brackets; `actions` unpacks the matrices on every
    read.  The constructor checks only that each row is an int within m lanes (any
    k-bit lane is a field element); dense matrices enter by `module_from_actions`.
    """

    __slots__ = ("algebra", "dim", "rho", "acting", "_key", "_hash")

    def __init__(self, algebra: AlgebraPresentation, dim: int, rho: Sequence[Sequence[int]]):
        if not _is_int(dim):
            raise PresentationError(f"module dimension must be an int, got {dim!r}")
        if dim < 0:
            raise PresentationError("negative module dimension")
        stored = tuple(map(tuple, rho))
        if len(stored) != algebra.dim or any(len(rows) != dim for rows in stored):
            raise PresentationError(f"rho needs {algebra.dim} action matrices of {dim} rows each")
        width = algebra.field.degree * dim
        for rows in stored:  # type(row) is int excludes bool, and each check runs in C
            if rows and not (
                {*map(type, rows)} == {int} and min(rows) >= 0 and max(rows).bit_length() <= width
            ):
                raise PresentationError(f"an action row is not a packed row of {dim} lanes")
        self.algebra = algebra
        self.dim = dim
        self.rho = stored
        self.acting = tuple(t for t, rows in enumerate(stored) if any(rows))
        self._key = None
        self._hash = None

    @property
    def actions(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The action matrices as tuples of dense rows, unpacked from `rho`."""
        f, m = self.algebra.field, self.dim
        return tuple(tuple(tuple(_unpack_row(r, m, f)) for r in rows) for rows in self.rho)

    def act(self, x: Vec, vec: Vec) -> list[int]:
        """rho(x) v for checked coefficient vectors, read off the nonzero lanes of `rho`."""
        f = self.algebra.field
        f.check_vector(x, self.algebra.dim)
        f.check_vector(vec, self.dim)
        out = [0] * self.dim
        for t, c in enumerate(x):
            if c:
                for mu, row in enumerate(self.rho[t]):
                    for nu, bits in nonzeros(row, f.degree):
                        out[mu] ^= f.mul(c, f.mul(bits, vec[nu]))
        return out

    def axiom_violations(self) -> list[tuple[int, int, tuple]]:
        """Pairs (i <= j) where rho([e_i,e_j]) != rho(e_i)rho(e_j) + rho(e_j)rho(e_i), each
        with its defects (mu, nu, lhs entry, rhs entry), the nonzero entries of lhs + rhs:
        lhs sums `scale_packed` rows of `rho`, rhs XORs the rows of two `Matrix.mul`s."""
        f = self.algebra.field
        k, mask, m = f.degree, f.order - 1, self.dim
        mats = [Matrix.from_packed(f, rows, m) for rows in self.rho]
        violations = []
        for i in range(self.algebra.dim):
            for j in range(i, self.algebra.dim):
                lhs = [0] * m
                for s, bits in self.algebra.bracket_basis(i, j).items():
                    lhs = [a ^ scale_packed(r, bits, f) for a, r in zip(lhs, self.rho[s])]
                products = mats[i].mul(mats[j]).packed_rows(), mats[j].mul(mats[i]).packed_rows()
                defect = tuple(
                    (mu, nu, (left >> (k * nu)) & mask, (right >> (k * nu)) & mask)
                    for mu, (left, right) in enumerate(zip(lhs, map(xor, *products)))
                    if left != right
                    for nu, _ in nonzeros(left ^ right, k)
                )
                if defect:
                    violations.append((i, j, defect))
        return violations

    def to_json(self) -> dict:
        hexes = [[[scalar_to_hex(a) for a in row] for row in mat] for mat in self.actions]
        return {"dim": self.dim, "actions": hexes}

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ModulePresentation) and self._content_key() == other._content_key()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._content_key())
        return self._hash

    def _content_key(self):
        if self._key is None:
            self._key = (self.algebra._content_key(), self.dim, self.rho)
        return self._key

    def __repr__(self) -> str:
        return f"ModulePresentation(dim {self.dim} over algebra of dim {self.algebra.dim})"


def module_from_actions(
    algebra: AlgebraPresentation, actions: Sequence[Sequence[Sequence[int]]], dim: int
) -> ModulePresentation:
    """Build and validate a module presentation from dense action matrices, the one
    door for them: each row is packed by `_pack_row`, then the axiom is checked."""
    rho = []
    for mat in actions:
        if len(mat) != dim or any(len(r) != dim for r in mat):
            raise PresentationError("action matrix is not dim x dim")
        rho.append([_pack_row(r, algebra.field, dim) for r in mat])
    mod = ModulePresentation(algebra, dim, rho)
    violations = mod.axiom_violations()
    if violations:
        i, j, defect = violations[0]
        raise AxiomError(
            f"module axiom fails on basis pair ({i}, {j}); first defect {defect[0]}",
            violations,
        )
    return mod


def trivial_module(algebra: AlgebraPresentation) -> ModulePresentation:
    """The one-dimensional module with zero action."""
    return ModulePresentation(algebra, 1, [(0,)] * algebra.dim)


def _ad_rows(algebra: AlgebraPresentation, dual: bool) -> list[list[int]]:
    """The packed rows of ad(e_t), or of its transpose, read off the stored brackets:
    each [e_t, e_nu] with a c e_s term puts c in lane nu of row s of ad(e_t), in both
    orders when t != nu, and the transpose puts it in lane s of row nu."""
    d, k = algebra.dim, algebra.field.degree
    rho = [[0] * d for _ in range(d)]
    for (i, j), value in algebra.brackets.items():
        for t, nu in {(i, j), (j, i)}:
            for s, c in value.items():
                row, lane = (nu, s) if dual else (s, nu)
                rho[t][row] ^= c << (k * lane)
    return rho


def adjoint_module(algebra: AlgebraPresentation) -> ModulePresentation:
    """The algebra acting on itself by x . y = [x, y]."""
    return ModulePresentation(algebra, algebra.dim, _ad_rows(algebra, dual=False))


def dual_module(algebra: AlgebraPresentation) -> ModulePresentation:
    """The dual of the adjoint module: (x . f)(y) = f([x, y]), matrices transposed."""
    return ModulePresentation(algebra, algebra.dim, _ad_rows(algebra, dual=True))


def import_module(algebra: AlgebraPresentation, source) -> ModulePresentation:
    """Load a module from a JSON file path or dict: {"dim": m, "actions": [d m x m hex
    matrices]}, each matrix and each row a JSON array."""
    data = _read_json(source)
    f = algebra.field
    try:
        raw = data["actions"]
        if not isinstance(raw, list) or not all(
            isinstance(mat, list) and all(isinstance(row, list) for row in mat) for mat in raw
        ):
            raise TypeError("every action matrix and every row must be an array")
        actions = [[[scalar_from_hex(a, f) for a in row] for row in mat] for mat in raw]
        dim = data["dim"]
    except FieldError:
        raise
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise PresentationError(f"malformed module file: {exc}") from None
    return module_from_actions(algebra, actions, dim)
