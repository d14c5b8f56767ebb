"""Presentations of commutative algebras over GF(2^k) and their modules.

An algebra is given by structure constants for a *symmetric* bracket:
for basis indices i <= j the table stores [e_i, e_j] as a sparse
coefficient vector, and [e_j, e_i] is the same element.  Diagonal entries
[e_i, e_i] are allowed and need not vanish; an algebra with all of them
zero is an ordinary Lie algebra (in characteristic 2 the Jacobi identity
is required either way, and `jacobi_violations` lists where it fails).

A module is a list of action matrices rho(e_i) subject to the
characteristic-2 axiom rho([x,y]) = rho(x)rho(y) + rho(y)rho(x), which in
particular forces every square [x,x] to act trivially.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from types import MappingProxyType

from .field import GF2, FieldError, FiniteField, _is_int, binom_mod2, scalar_from_hex, scalar_to_hex
from .linalg import Matrix, Subspace, _pack_row, kernel_basis

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

    __slots__ = ("field", "dim", "basis_names", "brackets", "_into", "_key", "_jacobi")

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
        self._jacobi = None

    # -- bracket evaluation ---------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, int]:
        """[e_i, e_j] as a sparse coefficient dict (symmetric in i, j)."""
        if i > j:
            i, j = j, i
        return self.brackets.get((i, j), {})

    def bracket(self, x: Vec, y: Vec) -> list[int]:
        """[x, y] for coefficient vectors x, y; ValueError or FieldError for a malformed one."""
        f = self.field
        f.check_vector(x, self.dim)
        f.check_vector(y, self.dim)
        out = [0] * self.dim
        for (i, j), value in self.brackets.items():
            if i == j:
                c = f.mul(x[i], y[i])
            else:
                c = f.add(f.mul(x[i], y[j]), f.mul(x[j], y[i]))
            if c:
                for s, bits in value.items():
                    out[s] = f.add(out[s], f.mul(c, bits))
        return out

    def bracket_into(self, s: int) -> list[tuple[int, int, int]]:
        """All (i <= j, coeff) with a nonzero e_s component in [e_i, e_j]."""
        if self._into is None:
            into = [[] for _ in range(self.dim)]
            for (i, j), value in sorted(self.brackets.items()):
                for t, bits in sorted(value.items()):
                    into[t].append((i, j, bits))
            self._into = into
        return self._into[s]

    def ad_matrix(self, i: int) -> list[list[int]]:
        """Matrix of x -> [e_i, x] in the chosen basis (column j = [e_i, e_j])."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for s, bits in self.bracket_basis(i, j).items():
                rows[s][j] = bits
        return rows

    def basis_vector(self, i: int) -> list[int]:
        v = [0] * self.dim
        v[i] = 1
        return v

    # -- axioms -----------------------------------------------------------------

    def jacobi_violations(self) -> list[tuple[int, int, int, tuple[int, ...]]]:
        """Basis triples (i <= j <= k) where [[x,y],z] + [[z,x],y] + [[y,z],x] != 0.

        Computed once per presentation, whose brackets are read-only; a new list per call."""
        if self._jacobi is None:
            f = self.field
            d = self.dim
            violations = []
            for i in range(d):
                for j in range(i, d):
                    for k in range(j, d):
                        acc = [0] * d
                        for a, b, c in ((i, j, k), (k, i, j), (j, k, i)):
                            for s, bits in self.bracket_basis(a, b).items():
                                for t, bits2 in self.bracket_basis(s, c).items():
                                    acc[t] = f.add(acc[t], f.mul(bits, bits2))
                        if any(acc):
                            violations.append((i, j, k, tuple(acc)))
            self._jacobi = tuple(violations)
        return list(self._jacobi)

    def is_lie(self) -> bool:
        """True when every diagonal bracket [x, x] vanishes (ordinary Lie algebra)."""
        if any((i, i) in self.brackets for i in range(self.dim)):
            return False
        return not (self.jacobi_violations() if self._jacobi is None else self._jacobi)

    def square_ideal(self) -> Subspace:
        """The span of all squares [x, x]; central, since [[x,x],y] = 0 by Jacobi."""
        vecs = []
        for i in range(self.dim):
            diag = self.bracket_basis(i, i)
            if diag:
                v = [0] * self.dim
                for s, bits in diag.items():
                    v[s] = bits
                vecs.append(v)
        # The squares of a general element also involve cross terms [x,y]+[y,x] = 0,
        # so the basis squares span everything.
        sub = Subspace.from_vectors(self.field, vecs, self.dim)
        for v in sub.basis:
            for j in range(self.dim):
                if any(self.bracket(list(v), self.basis_vector(j))):
                    raise PresentationError(
                        f"square ideal is not central at basis index {j}; Jacobi must fail"
                    )
        return sub

    def quotient_by(self, ideal: Subspace) -> tuple["AlgebraPresentation", Matrix]:
        """Quotient algebra L/I and the projection matrix onto the complement basis.

        Raises ContainmentError-ish PresentationError if I is not an ideal.
        """
        if ideal.ambient_dim != self.dim or ideal.field != self.field:
            raise PresentationError("ideal does not live in this algebra")
        for v in ideal.basis:
            for j in range(self.dim):
                img = self.bracket(list(v), self.basis_vector(j))
                if not ideal.contains(img):
                    raise PresentationError(
                        f"subspace is not an ideal: [{v}, e_{j}] = {tuple(img)} escapes it"
                    )
        pivot_set = set(ideal.pivots)
        free = [c for c in range(self.dim) if c not in pivot_set]
        r = len(free)
        # projection: x -> free-position coordinates of the residual of x mod I
        proj = Matrix.from_rows(
            self.field,
            [[ideal.reduce(self.basis_vector(j))[c] for j in range(self.dim)] for c in free],
            self.dim,
        )
        names = [self.basis_names[c] for c in free]
        new_brackets: dict[tuple[int, int], dict[int, int]] = {}
        for a in range(r):
            for b in range(a, r):
                img = self.bracket(self.basis_vector(free[a]), self.basis_vector(free[b]))
                residual = ideal.reduce(img)
                entry = {t: residual[c] for t, c in enumerate(free) if residual[c]}
                if entry:
                    new_brackets[(a, b)] = entry
        return AlgebraPresentation(self.field, r, names, new_brackets), proj

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
        return isinstance(other, AlgebraPresentation) and self._content_key() == other._content_key()

    def __hash__(self) -> int:
        return hash(self._content_key())

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


def abelian(dim: int, fld: FiniteField | None = None) -> AlgebraPresentation:
    """The abelian algebra of the given dimension (all brackets zero)."""
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
    f = fld if fld is not None else GF2
    names = ["a"] + [f"b{i}" for i in range(1, ell + 1)] + [f"c{i}" for i in range(1, ell + 1)]
    brackets = {(i, ell + i): {0: 1} for i in range(1, ell + 1)}
    return AlgebraPresentation(f, 2 * ell + 1, names, brackets)


def zassenhaus_e(n: int, fld: FiniteField | None = None) -> AlgebraPresentation:
    """The commutant of the Zassenhaus algebra W_1(n) over GF(2), in the e-basis.

    Basis e_{-1}, e_0, ..., e_{2^n - 3} (dimension 2^n - 1) with
    [e_i, e_j] = C(i+j+2, i+1) mod 2 * e_{i+j} when the target index is in
    range, and 0 otherwise.  Out-of-range products carry an even binomial
    coefficient, so the truncation is exact.
    """
    if n < 2:
        raise PresentationError(f"zassenhaus_e needs n >= 2, got {n}")
    f = fld if fld is not None else GF2
    top = (1 << n) - 3
    indices = list(range(-1, top + 1))
    names = [f"e{i}" for i in indices]
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for a, i in enumerate(indices):
        for b in range(a, len(indices)):
            j = indices[b]
            t = i + j
            if -1 <= t <= top and binom_mod2(i + j + 2, i + 1):
                brackets[(a, b)] = {t + 1: 1}
    return AlgebraPresentation(f, len(indices), names, brackets)


def zassenhaus_f(n: int) -> AlgebraPresentation:
    """The same commutant over GF(2^n), in the basis f_alpha, alpha in GF(2^n)*.

    [f_alpha, f_beta] = (alpha + beta) f_{alpha + beta}; basis ordered by
    increasing bitmask of alpha.  Structure constants are not in the prime
    field, so this presentation is not eligible for base change.
    """
    if n < 2:
        raise PresentationError(f"zassenhaus_f needs n >= 2, got {n}")
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


def span_subalgebra(
    algebra: AlgebraPresentation, generators: Iterable[Vec]
) -> tuple[AlgebraPresentation, Subspace]:
    """The subalgebra generated by the given vectors.

    The span is closed under the bracket iteratively until stable; the
    result is presented in the RREF basis of the closure, together with
    that subspace of the ambient algebra.
    """
    vecs = [list(v) for v in generators]
    span = Subspace.from_vectors(algebra.field, vecs, algebra.dim)
    while True:
        new = []
        basis = [list(v) for v in span.basis]
        for x in range(len(basis)):
            for y in range(x, len(basis)):
                img = algebra.bracket(basis[x], basis[y])
                if not span.contains(img):
                    new.append(img)
        if not new:
            break
        span = Subspace.from_vectors(algebra.field, basis + new, algebra.dim)
    basis = [list(v) for v in span.basis]
    r = len(basis)
    names = [f"g{i}" for i in range(r)]
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for x in range(r):
        for y in range(x, r):
            img = algebra.bracket(basis[x], basis[y])
            coords = span.coordinates(img)
            assert coords is not None  # closure guarantees containment
            entry = {t: c for t, c in enumerate(coords) if c}
            if entry:
                brackets[(x, y)] = entry
    return AlgebraPresentation(algebra.field, r, names, brackets), span


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
    """A module over an AlgebraPresentation, given by one action matrix per basis element.

    `actions` is a tuple of row tuples, read-only like the algebra's brackets.
    """

    __slots__ = ("algebra", "dim", "actions", "_packed", "_key")

    def __init__(self, algebra: AlgebraPresentation, dim: int, actions: Sequence[Sequence[Sequence[int]]]):
        if len(actions) != algebra.dim:
            raise PresentationError(
                f"{len(actions)} action matrices for an algebra of dimension {algebra.dim}"
            )
        if not _is_int(dim):
            raise PresentationError(f"module dimension must be an int, got {dim!r}")
        mats = tuple(tuple(tuple(r) for r in a) for a in actions)
        for rows in mats:
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise PresentationError("action matrix is not dim x dim")
            for r in rows:
                algebra.field.check_vector(r, dim)
        self.algebra = algebra
        self.dim = dim
        self.actions = mats
        self._packed = None
        self._key = None

    def packed_action(self) -> tuple[list[int], list[list[tuple[int, int]]]]:
        """(acting, rows): the indices t with rho(e_t) != 0, ascending, and for each
        t the pairs (mu, row mu of rho(e_t)) of its nonzero rows, lane-packed over nu
        as in linalg."""
        if self._packed is None:
            f, m = self.algebra.field, self.dim
            rows = [
                [(mu, _pack_row(row, f, m)) for mu, row in enumerate(mat) if any(row)]
                for mat in self.actions
            ]
            self._packed = [t for t, r in enumerate(rows) if r], rows
        return self._packed

    def act(self, x: Vec, vec: Vec) -> list[int]:
        """rho(x) v for checked coefficient vectors; a dense loop, apart from the packed engine."""
        f = self.algebra.field
        f.check_vector(x, self.algebra.dim)
        f.check_vector(vec, self.dim)
        out = [0] * self.dim
        for t, c in enumerate(x):
            if c:
                for mu, row in enumerate(self.actions[t]):
                    for nu, bits in enumerate(row):
                        if bits and vec[nu]:
                            out[mu] = f.add(out[mu], f.mul(c, f.mul(bits, vec[nu])))
        return out

    def axiom_violations(self) -> list[tuple[int, int, tuple]]:
        """Pairs (i <= j) where rho([e_i,e_j]) != rho(e_i)rho(e_j) + rho(e_j)rho(e_i)."""
        f = self.algebra.field
        d = self.algebra.dim
        m = self.dim
        mats = [Matrix.from_rows(f, rows, m) for rows in self.actions]
        violations = []
        for i in range(d):
            for j in range(i, d):
                lhs = [[0] * m for _ in range(m)]
                for s, bits in self.algebra.bracket_basis(i, j).items():
                    for mu in range(m):
                        row = self.actions[s][mu]
                        lrow = lhs[mu]
                        for nu in range(m):
                            if row[nu]:
                                lrow[nu] = f.add(lrow[nu], f.mul(bits, row[nu]))
                rhs = mats[i].mul(mats[j]).add(mats[j].mul(mats[i])).rows()
                defect = [
                    (mu, nu, lhs[mu][nu], rhs[mu][nu])
                    for mu in range(m)
                    for nu in range(m)
                    if lhs[mu][nu] != rhs[mu][nu]
                ]
                if defect:
                    violations.append((i, j, tuple(defect)))
        return violations

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "actions": [
                [[scalar_to_hex(a) for a in row] for row in mat] for mat in self.actions
            ],
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, ModulePresentation) and self._content_key() == other._content_key()

    def __hash__(self) -> int:
        return hash(self._content_key())

    def _content_key(self):
        if self._key is None:
            self._key = (
                self.algebra._content_key(),
                self.dim,
                self.actions,
            )
        return self._key

    def __repr__(self) -> str:
        return f"ModulePresentation(dim {self.dim} over algebra of dim {self.algebra.dim})"


def module_from_actions(
    algebra: AlgebraPresentation, actions: Sequence[Sequence[Sequence[int]]], dim: int
) -> ModulePresentation:
    """Build and validate a module presentation from explicit action matrices."""
    mod = ModulePresentation(algebra, dim, actions)
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
    return ModulePresentation(algebra, 1, [[[0]] for _ in range(algebra.dim)])


def adjoint_module(algebra: AlgebraPresentation) -> ModulePresentation:
    """The algebra acting on itself by x . y = [x, y]."""
    return ModulePresentation(
        algebra, algebra.dim, [algebra.ad_matrix(i) for i in range(algebra.dim)]
    )


def dual_module(algebra: AlgebraPresentation) -> ModulePresentation:
    """The dual of the adjoint module: (x . f)(y) = f([x, y]), matrices transposed."""
    mats = []
    d = algebra.dim
    for i in range(d):
        ad = algebra.ad_matrix(i)
        mats.append([[ad[nu][mu] for nu in range(d)] for mu in range(d)])
    return ModulePresentation(algebra, d, mats)


def import_module(algebra: AlgebraPresentation, source) -> ModulePresentation:
    """Load a module from a JSON file path or dict: {"dim": m, "actions": [d m x m hex matrices]}."""
    data = _read_json(source)
    f = algebra.field
    try:
        actions = [
            [[scalar_from_hex(a, f) for a in row] for row in mat] for mat in data["actions"]
        ]
        dim = data["dim"]
    except FieldError:
        raise
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise PresentationError(f"malformed module file: {exc}") from None
    return module_from_actions(algebra, actions, dim)


# -- derivations -----------------------------------------------------------------------


def derivation_space(algebra: AlgebraPresentation) -> tuple[Subspace, Subspace]:
    """(All derivations, inner derivations ad_x) as subspaces of d x d matrices.

    A derivation satisfies D[x,y] = [Dx,y] + [x,Dy]; matrices are flattened
    row-major, unknown D[u][v] at index u*d + v.
    """
    f = algebra.field
    d = algebra.dim
    rows = []
    for i in range(d):
        for j in range(i, d):
            bb = algebra.bracket_basis(i, j)
            for t in range(d):
                row = [0] * (d * d)
                # D([e_i,e_j])_t = sum_s bb_s D[t][s]
                for s, bits in bb.items():
                    row[t * d + s] = f.add(row[t * d + s], bits)
                # [D e_i, e_j]_t = sum_u D[u][i] [e_u,e_j]_t
                for u in range(d):
                    c = algebra.bracket_basis(u, j).get(t, 0)
                    if c:
                        row[u * d + i] = f.add(row[u * d + i], c)
                    c2 = algebra.bracket_basis(i, u).get(t, 0)
                    if c2:
                        row[u * d + j] = f.add(row[u * d + j], c2)
                if any(row):
                    rows.append(row)
    ders = kernel_basis(Matrix.from_rows(f, rows, d * d))
    inner_vecs = []
    for i in range(d):
        ad = algebra.ad_matrix(i)
        inner_vecs.append([ad[u][v] for u in range(d) for v in range(d)])
    inner = Subspace.from_vectors(f, inner_vecs, d * d)
    return ders, inner
