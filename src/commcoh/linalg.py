"""Exact dense linear algebra over GF(2^k).

Matrices are row-major with entries stored as field bit representations.
Over GF(2) a row is packed into a single Python int (bit j = column j) and
stays packed from the matrix through kernels, images, subspaces and
quotients; it is unpacked only where a caller reads a vector.  Over larger
fields a row is a list of ints.

The GF(2) engine eliminates each row on its lowest set bit against the
pivots found so far, then back-substitutes once in descending pivot order.
The larger fields use column-scan Gauss-Jordan elimination.  Both produce
the reduced row echelon form, which is unique, so the two paths give the
same subspaces on 0/1 inputs; the test suite checks this, and checks the
GF(2) engine against a column-scan reference kept in the tests.

Everything here is deterministic: pivots are the leftmost nonzero entries
of the reduced rows, subspaces are kept in reduced row echelon form, and
quotient bases are the pivot-complement vectors of the numerator.

A module-level entry cap (rows * cols) turns runaway size requests into
errors instead of memory exhaustion; see set_entry_cap / entry_cap_override.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

from .field import FiniteField

_DEFAULT_ENTRY_CAP = 1_000_000
_entry_cap = _DEFAULT_ENTRY_CAP


class SizeCapError(ValueError):
    """A requested object exceeds the configured entry cap."""


class ContainmentError(ValueError):
    """A subspace inclusion that an operation requires does not hold."""


def get_entry_cap() -> int:
    return _entry_cap


def set_entry_cap(cap: int) -> None:
    global _entry_cap
    if cap < 1:
        raise ValueError(f"entry cap must be positive, got {cap}")
    _entry_cap = cap


@contextmanager
def entry_cap_override(cap: int):
    """Temporarily raise or lower the entry cap (used by tests and the CLI)."""
    global _entry_cap
    old = _entry_cap
    set_entry_cap(cap)
    try:
        yield
    finally:
        _entry_cap = old


def check_entry_count(nrows: int, ncols: int) -> None:
    if nrows * ncols > _entry_cap:
        raise SizeCapError(
            f"{nrows} x {ncols} = {nrows * ncols} entries exceeds the cap {_entry_cap}"
        )


class Matrix:
    """A dense matrix over a FiniteField.  Treat instances as immutable."""

    __slots__ = ("field", "nrows", "ncols", "_packed", "_rows", "_solver")

    def __init__(self, field: FiniteField, nrows: int, ncols: int, packed, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._packed = packed  # list[int] bitmask rows, GF(2) only
        self._rows = rows      # list[list[int]] otherwise
        self._solver = None    # solve()'s elimination of a GF(2) matrix, made on first use

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: FiniteField, nrows: int, ncols: int) -> "Matrix":
        check_entry_count(nrows, ncols)
        if field.degree == 1:
            return cls(field, nrows, ncols, [0] * nrows, None)
        return cls(field, nrows, ncols, None, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_rows(
        cls, field: FiniteField, rows: Sequence[Sequence[int]], ncols: int | None = None
    ) -> "Matrix":
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        check_entry_count(len(rows), ncols)
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for a in r:
                field.check_bits(a)
        if field.degree == 1:
            packed = [_pack_row(r) for r in rows]
            return cls(field, len(rows), ncols, packed, None)
        return cls(field, len(rows), ncols, None, rows)

    @classmethod
    def from_packed(cls, field: FiniteField, packed: Sequence[int], ncols: int) -> "Matrix":
        if field.degree != 1:
            raise ValueError("packed rows are a GF(2) representation")
        check_entry_count(len(packed), ncols)
        return cls(field, len(packed), ncols, list(packed), None)

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        if m._packed is not None:
            for i in range(n):
                m._packed[i] = 1 << i
        else:
            for i in range(n):
                m._rows[i][i] = 1
        return m

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if self._packed is not None:
            return (self._packed[i] >> j) & 1
        return self._rows[i][j]

    def row(self, i: int) -> list[int]:
        if self._packed is not None:
            return _unpack_row(self._packed[i], self.ncols)
        return list(self._rows[i])

    def rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.nrows)]

    def col(self, j: int) -> list[int]:
        return [self.entry(i, j) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        if self._packed is not None:
            return all(r == 0 for r in self._packed)
        return all(all(a == 0 for a in r) for r in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.field, self.nrows, self.ncols) != (other.field, other.nrows, other.ncols):
            return False
        if self._packed is not None and other._packed is not None:
            return self._packed == other._packed
        return self.rows() == other.rows()

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over GF(2^{self.field.degree}))"

    # -- arithmetic -------------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        if self._packed is not None:
            return Matrix(
                self.field, self.nrows, self.ncols,
                [a ^ b for a, b in zip(self._packed, other._packed)], None,
            )
        f = self.field
        rows = [
            [f.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self._rows, other._rows)
        ]
        return Matrix(self.field, self.nrows, self.ncols, None, rows)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        check_entry_count(self.nrows, other.ncols)
        if self._packed is not None:
            out = []
            brows = other._packed
            for a in self._packed:
                acc = 0
                while a:
                    low = a & -a
                    acc ^= brows[low.bit_length() - 1]
                    a ^= low
                out.append(acc)
            return Matrix(self.field, self.nrows, other.ncols, out, None)
        f = self.field
        bt = other.rows()
        out_rows = []
        for i in range(self.nrows):
            arow = self._rows[i]
            acc = [0] * other.ncols
            for k, a in enumerate(arow):
                if a:
                    brow = bt[k]
                    for j in range(other.ncols):
                        b = brow[j]
                        if b:
                            acc[j] = f.add(acc[j], f.mul(a, b))
            out_rows.append(acc)
        return Matrix(self.field, self.nrows, other.ncols, None, out_rows)

    def mul_vec(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        f = self.field
        if self._packed is not None:
            v = _pack_row(vec)
            return [_parity(r & v) for r in self._packed]
        out = []
        for r in self._rows:
            acc = 0
            for a, x in zip(r, vec):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def transpose(self) -> "Matrix":
        check_entry_count(self.ncols, self.nrows)
        if self._packed is not None:
            cols = [0] * self.ncols
            for i, r in enumerate(self._packed):
                bit = 1 << i
                while r:
                    low = r & -r
                    cols[low.bit_length() - 1] |= bit
                    r ^= low
            return Matrix(self.field, self.ncols, self.nrows, cols, None)
        rows = [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Matrix(self.field, self.ncols, self.nrows, None, rows)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")


# Byte translation tables for moving between bit lists and packed ints through
# a binary string, so neither direction loops over the columns in Python.
_ENTRY_TO_DIGIT = b"0" + b"1" * 255
_DIGIT_TO_ENTRY = bytes.maketrans(b"01", b"\x00\x01")


def _pack_row(row: Sequence[int]) -> int:
    """Bit j of the result is set iff row[j] is nonzero (entries must lie in 0..255)."""
    return int(bytes(reversed(row)).translate(_ENTRY_TO_DIGIT) or b"0", 2)


def _unpack_row(mask: int, ncols: int) -> list[int]:
    return list(format(mask, f"0{ncols}b")[::-1][:ncols].encode().translate(_DIGIT_TO_ENTRY))


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _set_bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- elimination engines -------------------------------------------------------


def _echelon_packed(rows: Iterable[int]) -> dict[int, int]:
    """Echelon rows of the span of packed rows, keyed by their lowest set bit.

    Each incoming row is cleared against the stored rows one lowest set bit at
    a time until that bit is new, which makes it a pivot (the word-parallel
    GF(2) elimination of Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
    """
    echelon: dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            q = echelon.get(p)
            if q is None:
                echelon[p] = r
                break
            r ^= q
    return echelon


def _rref_packed(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """The reduced row echelon form of packed rows: (rows, pivots), pivots ascending.

    Back-substitution runs in descending pivot order, so every row with a
    higher pivot is already reduced when it is added in, and adding it clears
    exactly one pivot bit.  The RREF of a row space is unique, so this agrees
    with leftmost-pivot Gaussian elimination row for row.
    """
    echelon = _echelon_packed(rows)
    pivots = sorted(echelon)
    pivot_mask = sum(1 << p for p in pivots)
    for p in reversed(pivots):
        r = echelon[p]
        for q in _set_bits((r & pivot_mask) ^ (1 << p)):
            r ^= echelon[q]
        echelon[p] = r
    return [echelon[p] for p in pivots], pivots


def _rref_generic(
    rows: Iterable[Sequence[int]], ncols: int, f: FiniteField
) -> tuple[list[list[int]], list[int]]:
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv_inv = f.inv(rows[r][c])
        if piv_inv != 1:
            rows[r] = [f.mul(piv_inv, a) for a in rows[r]]
        piv = rows[r]
        for i in range(nrows):
            coeff = rows[i][c]
            if i != r and coeff:
                rows[i] = [f.add(a, f.mul(coeff, b)) for a, b in zip(rows[i], piv)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _kernel_packed(rref_rows: list[int], pivots: list[int], ncols: int) -> list[int]:
    """One kernel vector per free column j: e_j plus e_p for each RREF row p holding bit j."""
    free_mask = ((1 << ncols) - 1) & ~sum(1 << p for p in pivots)
    vecs = {j: 1 << j for j in _set_bits(free_mask)}
    for row, p in zip(rref_rows, pivots):
        bit = 1 << p
        for j in _set_bits(row & free_mask):
            vecs[j] |= bit
    return list(vecs.values())


def _kernel_generic(rref_rows, pivots, ncols, f: FiniteField) -> list[list[int]]:
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for j in free_cols:
        v = [0] * ncols
        v[j] = 1
        for r, p in enumerate(pivots):
            coeff = rref_rows[r][j]
            if coeff:
                v[p] = f.neg(coeff)
        basis.append(v)
    return basis


class Subspace:
    """A subspace of K^n held as a reduced-row-echelon basis.

    Over GF(2) the RREF rows stay packed into ints (keyed by pivot) and
    `basis` unpacks them into tuples on first use; over larger fields the
    rows are tuples from the start.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_packed", "_pivot_mask", "_basis")

    def __init__(self, field: FiniteField, ambient_dim: int, rows, pivots):
        """rows: the RREF rows in pivot order, packed ints over GF(2), sequences otherwise."""
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        if field.degree == 1:
            self._packed = dict(zip(self.pivots, rows))
            self._pivot_mask = sum(1 << p for p in self.pivots)
            self._basis = None
        else:
            self._packed = None
            self._basis = tuple(tuple(v) for v in rows)

    @classmethod
    def from_vectors(
        cls, field: FiniteField, vectors: Iterable[Sequence[int]], ambient_dim: int
    ) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if field.degree == 1:
            rows, pivots = _rref_packed(_pack_row(v) for v in vecs)
        else:
            rows, pivots = _rref_generic(vecs, ambient_dim, field)
        return cls(field, ambient_dim, rows, pivots)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        if self._basis is None:
            n = self.ambient_dim
            self._basis = tuple(tuple(_unpack_row(r, n)) for r in self._packed.values())
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _residual_packed(self, v: int) -> int:
        """v minus its combination of basis rows: RREF rows are zero at each other's pivots,
        so the coefficient of each row is v's own bit at that row's pivot."""
        for p in _set_bits(v & self._pivot_mask):
            v ^= self._packed[p]
        return v

    def _check_length(self, vec: Sequence[int]) -> None:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Residual of vec after elimination against the basis (zero iff contained)."""
        self._check_length(vec)
        if self._packed is not None:
            return tuple(_unpack_row(self._residual_packed(_pack_row(vec)), self.ambient_dim))
        f = self.field
        v = list(vec)
        for row, p in zip(self._basis, self.pivots):
            coeff = v[p]
            if coeff:
                v = [f.add(a, f.mul(coeff, b)) for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        if self._packed is not None:
            self._check_length(vec)
            return not self._residual_packed(_pack_row(vec))
        return all(a == 0 for a in self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        if self._packed is not None:
            return not any(self._residual_packed(r) for r in other._packed.values())
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, vec: Sequence[int]) -> list[int] | None:
        """Coefficients of vec in the RREF basis, or None if not contained."""
        self._check_length(vec)
        if self._packed is not None:
            v = _pack_row(vec)
            if self._residual_packed(v):
                return None
            return [(v >> p) & 1 for p in self.pivots]
        f = self.field
        v = list(vec)
        coords = []
        for row, p in zip(self._basis, self.pivots):
            coeff = v[p]
            coords.append(coeff)
            if coeff:
                v = [f.add(a, f.mul(coeff, b)) for a, b in zip(v, row)]
        if any(a != 0 for a in v):
            return None
        return coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace) or (self.field, self.ambient_dim) != (
            other.field, other.ambient_dim
        ):
            return False
        if self._packed is not None:
            return self._packed == other._packed
        return self._basis == other._basis

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def rank(a: Matrix) -> int:
    if a._packed is not None:
        return len(_echelon_packed(a._packed))
    _, pivots = _rref_generic(a._rows, a.ncols, a.field)
    return len(pivots)


def kernel_basis(a: Matrix) -> Subspace:
    """The right kernel {v : A v = 0} as a Subspace of K^ncols."""
    f = a.field
    if a._packed is not None:
        rref, pivots = _rref_packed(a._packed)
        return Subspace(f, a.ncols, *_rref_packed(_kernel_packed(rref, pivots, a.ncols)))
    rref, pivots = _rref_generic(a._rows, a.ncols, f)
    return Subspace.from_vectors(f, _kernel_generic(rref, pivots, a.ncols, f), a.ncols)


def image_basis(a: Matrix) -> Subspace:
    """The column space {A v} as a Subspace of K^nrows."""
    return row_space(a.transpose())


def row_space(a: Matrix) -> Subspace:
    if a._packed is not None:
        rows, pivots = _rref_packed(a._packed)
    else:
        rows, pivots = _rref_generic(a._rows, a.ncols, a.field)
    return Subspace(a.field, a.ncols, rows, pivots)


def _packed_solver(a: Matrix) -> tuple[list[tuple[int, int]], list[int]]:
    """The RREF of [A | I] split at column n, for solving A x = b over GF(2).

    Each row is (R_i | T_i) with T_i A = R_i, and T is invertible, so A x = b
    iff R x = T b.  Rows with R_i = 0 give the consistency conditions
    T_i . b = 0; a row with pivot p < n gives x_p = T_i . b for the solution
    that is zero on the free columns.
    """
    n = a.ncols
    rows, pivots = _rref_packed(r | (1 << (n + i)) for i, r in enumerate(a._packed))
    values = [(p, r >> n) for r, p in zip(rows, pivots) if p < n]
    checks = [r >> n for r, p in zip(rows, pivots) if p >= n]
    return values, checks


def solve(a: Matrix, b: Sequence[int]) -> list[int] | None:
    """One solution x of A x = b (free variables set to 0), or None.

    Over GF(2) the elimination of A is done on the first call and kept on
    the matrix, so later right-hand sides cost one parity per row.
    """
    if len(b) != a.nrows:
        raise ValueError("right-hand side length does not match row count")
    f = a.field
    n = a.ncols
    if a._packed is not None:
        if a._solver is None:
            a._solver = _packed_solver(a)
        values, checks = a._solver
        bv = _pack_row(b)
        if any(_parity(t & bv) for t in checks):
            return None
        x = [0] * n
        for p, t in values:
            x[p] = _parity(t & bv)
        return x
    aug = [row + [bi] for row, bi in zip(a._rows, b)]
    rref, pivots = _rref_generic(aug, n + 1, f)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for row, p in zip(rref, pivots):
        x[p] = row[n]
    return x


def quotient_basis(z: Subspace, b: Subspace) -> list[tuple[int, ...]]:
    """Representatives of Z/B: the RREF basis rows of Z whose pivot is not a pivot of B.

    Requires B <= Z; raises ContainmentError naming an offending vector otherwise.
    """
    if z.field != b.field or z.ambient_dim != b.ambient_dim:
        raise ValueError("quotient of subspaces of different ambient spaces")
    b_pivots = set(b.pivots)
    if z._packed is not None:
        n = z.ambient_dim
        for r in b._packed.values():
            if z._residual_packed(r):
                raise ContainmentError(
                    f"denominator vector {tuple(_unpack_row(r, n))} is not in the numerator"
                )
        reps = [tuple(_unpack_row(r, n)) for p, r in z._packed.items() if p not in b_pivots]
    else:
        for v in b.basis:
            if not z.contains(v):
                raise ContainmentError(f"denominator vector {v} is not in the numerator")
        reps = [v for v, p in zip(z.basis, z.pivots) if p not in b_pivots]
    assert len(reps) == z.dim - b.dim
    return reps
