"""Exact dense linear algebra over GF(2^k).

Every matrix row and every vector is one Python int in which entry j fills
bits k*j .. k*j + k - 1, its lane, as a field element bitmask; over GF(2) a
lane is one bit.  Adding two rows is one XOR for every k, and multiplying a
row by x acts on all of its lanes at once with shifts and masks (the packed
GF(2^e) layout of Albrecht, "The M4RIE library", ISSAC 2012).  Rows stay
packed from the matrix through kernels, images, subspaces and quotients
into cochains: `quotient_basis` returns packed rows, `solve` takes a packed
right-hand side, and a cochain (see cochain) is one such row.  They are
unpacked only where a caller reads a vector.

The engine eliminates each row on its lowest set bit, as in the word-parallel
GF(2) elimination of Albrecht, Bard and Hart (ACM TOMS 37(1), 2010).  A new
pivot row is scaled so that its pivot entry is 1 and stored k times, as x^t
times itself for t < k under the key s + t, where s is the bit offset of its
pivot lane.  Its lane s then holds the single bit t, so clearing bit s + t of
any row is one XOR with the row under that key, the same step for every k.
One back-substitution pass in descending pivot order gives the reduced row
echelon form, which is unique; the test suite checks it against a
column-scan reference elimination kept in the tests.

The rest is built from one product (`Matrix.mul`; `mul_vec` is a
one-column product), that elimination (`_echelon`, `_rref`) and one
reduction against a stored RREF (`Subspace._residual`).  `solve` reduces the
right-hand side against the RREF of A's columns, each column tagged with a
unit vector, and reads the solution off the tags of the residual.

Everything here is deterministic: pivots are the leftmost nonzero entries
of the reduced rows, subspaces are kept in reduced row echelon form, and
quotient bases are the pivot-complement vectors of the numerator.

This module is the one home of the packed row.  A dense vector is packed
only by `_pack_row(row, f, n)`, whose `FiniteField.check_vector(vec, n)` is
the one check of dense vectors (ValueError for a length other than n,
FieldError for a non-element), and sparse (lane, value) pairs by
`_pack_lanes`.  Nonzero lanes are read, ascending, by `nonzeros`
(`Matrix.nonzeros` for a matrix row), and `_unpack_row` unpacks a row.
Elsewhere single entries are placed by shifting, and rows pass through
`Matrix.from_packed`, `Matrix.packed_rows` and `scale_packed`.

An entry cap (rows * cols), held in a context variable, turns runaway size
requests into errors instead of memory exhaustion; see entry_cap_override.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

from .field import FiniteField

_entry_cap: ContextVar[int] = ContextVar("entry_cap", default=1_000_000)


class SizeCapError(ValueError):
    """A requested object exceeds the configured entry cap."""


class ContainmentError(ValueError):
    """A subspace inclusion that an operation requires does not hold."""


@contextmanager
def entry_cap_override(cap: int):
    """Raise or lower the entry cap in the current context (used by tests and the CLI)."""
    if cap < 1:
        raise ValueError(f"entry cap must be positive, got {cap}")
    token = _entry_cap.set(cap)
    try:
        yield
    finally:
        _entry_cap.reset(token)


def check_entry_count(nrows: int, ncols: int) -> None:
    cap = _entry_cap.get()
    if nrows * ncols > cap:
        raise SizeCapError(f"{nrows} x {ncols} = {nrows * ncols} entries exceeds the cap {cap}")


class Matrix:
    """A dense matrix over a FiniteField.  Treat instances as immutable."""

    __slots__ = ("field", "nrows", "ncols", "_packed", "_solver")

    def __init__(self, field: FiniteField, nrows: int, ncols: int, packed: list[int]):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._packed = packed  # one lane-packed int per row
        self._solver = None    # solve()'s subspace of tagged columns, made on first use

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: FiniteField, nrows: int, ncols: int) -> "Matrix":
        check_entry_count(nrows, ncols)
        return cls(field, nrows, ncols, [0] * nrows)

    @classmethod
    def from_rows(
        cls, field: FiniteField, rows: Sequence[Sequence[int]], ncols: int | None = None
    ) -> "Matrix":
        rows = list(rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        check_entry_count(len(rows), ncols)
        return cls(field, len(rows), ncols, [_pack_row(r, field, ncols) for r in rows])

    @classmethod
    def from_packed(cls, field: FiniteField, packed: Sequence[int], ncols: int) -> "Matrix":
        check_entry_count(len(packed), ncols)
        return cls(field, len(packed), ncols, list(packed))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "Matrix":
        return cls.from_packed(field, [1 << (field.degree * i) for i in range(n)], n)

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        f = self.field
        return (self._packed[i] >> (f.degree * j)) & (f.order - 1)

    def row(self, i: int) -> list[int]:
        return _unpack_row(self._packed[i], self.ncols, self.field)

    def packed_rows(self) -> list[int]:
        """The lane-packed rows as stored; the caller must not modify the list."""
        return self._packed

    def nonzeros(self, i: int) -> list[tuple[int, int]]:
        """(column, entry) of each nonzero entry of row i, columns ascending."""
        return nonzeros(self._packed[i], self.field.degree)

    def rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        return not any(self._packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field, self.nrows, self.ncols, self._packed) == (
            other.field, other.nrows, other.ncols, other._packed
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over GF(2^{self.field.degree}))"

    # -- arithmetic -------------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        if (self.field, self.nrows, self.ncols) != (other.field, other.nrows, other.ncols):
            raise ValueError("field or shape mismatch in matrix sum")
        return Matrix(
            self.field, self.nrows, self.ncols, [a ^ b for a, b in zip(self._packed, other._packed)]
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        check_entry_count(self.nrows, other.ncols)
        f = self.field
        k = f.degree
        tops = _tops(f, other.ncols)
        brows = other._packed
        out = []
        for a in self._packed:
            acc = 0
            for s, c in _lanes(a, k):
                acc ^= _scale(brows[s // k], c, f, tops)
            out.append(acc)
        return Matrix(f, self.nrows, other.ncols, out)

    def mul_vec(self, vec: Sequence[int]) -> list[int]:
        return self.mul(Matrix.from_rows(self.field, [[v] for v in vec], 1))._packed

    def transpose(self) -> "Matrix":
        """The transpose, a new matrix built on every call."""
        check_entry_count(self.ncols, self.nrows)
        k = self.field.degree
        cols = [0] * self.ncols
        for i, r in enumerate(self._packed):
            for s, c in _lanes(r, k):
                cols[s // k] |= c << (k * i)
        return Matrix(self.field, self.ncols, self.nrows, cols)


# -- lane arithmetic on packed rows ----------------------------------------------

# Byte translation tables for moving between GF(2) entry lists and packed ints
# through a binary string, so neither direction loops over the columns in Python.
_ENTRY_TO_DIGIT = b"0" + b"1" * 255
_DIGIT_TO_ENTRY = bytes.maketrans(b"01", b"\x00\x01")


def _pack_row(row: Sequence[int], f: FiniteField, n: int) -> int:
    """The packed int whose lane j holds row[j], once row passes `check_vector(row, n)`."""
    f.check_vector(row, n)
    if f.degree == 1:
        return int(bytes(reversed(row)).translate(_ENTRY_TO_DIGIT) or b"0", 2)
    lane = f"0{f.degree}b"
    return int("".join([format(a, lane) for a in reversed(row)]) or "0", 2)


def _pack_lanes(pairs: Iterable[tuple[int, int]], ncols: int, f: FiniteField) -> int:
    """The packed int whose lane j < ncols holds the sum of the values paired with j,
    built in a byte buffer in linear time (adding shifted values to an int is quadratic)."""
    k = f.degree
    buf = bytearray((k * ncols + 7) // 8)
    for j, c in pairs:
        s = k * j
        i, c = s >> 3, c << (s & 7)
        while c:
            buf[i] ^= c & 255
            c >>= 8
            i += 1
    return int.from_bytes(buf, "little")


def _unpack_row(mask: int, ncols: int, f: FiniteField) -> list[int]:
    k = f.degree
    bits = format(mask, f"0{k * ncols}b")
    if k == 1:
        return list(bits[::-1][:ncols].encode().translate(_DIGIT_TO_ENTRY))
    end = len(bits)
    return [int(bits[end - i - k : end - i], 2) for i in range(0, k * ncols, k)]


def _tops(f: FiniteField, nlanes: int) -> int:
    """The top bit of each of nlanes lanes."""
    return ((1 << (f.degree * nlanes)) - 1) // (f.order - 1) << (f.degree - 1)


def _times_x(row: int, f: FiniteField, tops: int) -> int:
    """x times every entry of a packed row; tops comes from _tops and covers the row."""
    top = row & tops
    return ((row ^ top) << 1) ^ (top >> (f.degree - 1)) * (f.modulus ^ f.order)


def _scale(row: int, c: int, f: FiniteField, tops: int) -> int:
    """c times every entry of a packed row: one _times_x per bit of c above the lowest."""
    if c == 1:
        return row
    acc = 0
    while c:
        if c & 1:
            acc ^= row
        c >>= 1
        if c:
            row = _times_x(row, f, tops)
    return acc


def scale_packed(row: int, c: int, f: FiniteField) -> int:
    """c times every entry of a packed row, as Matrix.from_packed lays rows out."""
    if c == 1:
        return row
    return _scale(row, c, f, _tops(f, row.bit_length() // f.degree + 1))


def _lanes(row: int, k: int):
    """(bit offset, value) of each nonzero lane of a packed row, highest first."""
    while row:
        s = row.bit_length() - 1
        s -= s % k
        c = row >> s
        yield s, c
        row ^= c << s


def nonzeros(row: int, k: int) -> list[tuple[int, int]]:
    """(lane, value) of each nonzero lane of a packed row with k-bit lanes, lanes ascending."""
    return [(s // k, c) for s, c in _lanes(row, k)][::-1]


def _set_bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- the elimination engine ------------------------------------------------------


def _store_pivot(echelon: dict[int, int], q: int, s: int, f: FiniteField, tops: int) -> None:
    """Store q, whose pivot entry at lane offset s is 1, as x^t q under key s + t for t < k."""
    echelon[s] = q
    for t in range(1, f.degree):
        q = _times_x(q, f, tops)
        echelon[s + t] = q


def _echelon(rows: Iterable[int], ncols: int, f: FiniteField) -> dict[int, int]:
    """Echelon rows of the span of packed rows, stored as _store_pivot keys them.

    Each incoming row is cleared one lowest set bit at a time until that bit
    has no key, which makes its lane a new pivot lane.
    """
    k = f.degree
    tops = _tops(f, ncols)
    echelon: dict[int, int] = {}
    for r in rows:
        while r:
            b = (r & -r).bit_length() - 1
            q = echelon.get(b)
            if q is None:
                s = b - b % k
                c = f.inv((r >> s) & (f.order - 1))
                _store_pivot(echelon, _scale(r, c, f, tops), s, f, tops)
                break
            r ^= q
    return echelon


def _rref(rows: Iterable[int], ncols: int, f: FiniteField) -> dict[int, int]:
    """The reduced row echelon form of packed rows, keyed as _echelon keys it, keys ascending.

    Back-substitution runs in descending pivot order, so every stored row with
    a higher pivot is already reduced when it is added in, and adding it
    clears exactly one bit of the pivot lanes.  The RREF of a row space is
    unique, so this agrees with leftmost-pivot Gaussian elimination row for row.
    """
    echelon = _echelon(rows, ncols, f)
    tops = _tops(f, ncols)
    keys = sorted(echelon)
    lane_mask = sum(1 << b for b in keys)
    for s in reversed(keys[:: f.degree]):
        r = echelon[s]
        for b in _set_bits((r & lane_mask) ^ (1 << s)):
            r ^= echelon[b]
        _store_pivot(echelon, r, s, f, tops)
    return {b: echelon[b] for b in keys}


class Subspace:
    """A subspace of K^n held as a reduced-row-echelon basis.

    The RREF rows stay packed, stored as _rref returns them, and `basis`
    unpacks them into tuples on every read.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_echelon", "_lane_mask")

    def __init__(self, field: FiniteField, ambient_dim: int, echelon: dict[int, int]):
        """echelon: a reduced row echelon form as _rref returns it."""
        keys = list(echelon)
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = tuple(s // field.degree for s in keys[:: field.degree])
        self._echelon = echelon
        self._lane_mask = sum(1 << b for b in keys)

    @classmethod
    def from_vectors(
        cls, field: FiniteField, vectors: Iterable[Sequence[int]], ambient_dim: int
    ) -> "Subspace":
        rows = [_pack_row(v, field, ambient_dim) for v in vectors]
        return cls(field, ambient_dim, _rref(rows, ambient_dim, field))

    def _packed_basis(self) -> list[int]:
        k = self.field.degree
        return [self._echelon[k * p] for p in self.pivots]

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        n, f = self.ambient_dim, self.field
        return tuple(tuple(_unpack_row(r, n, f)) for r in self._packed_basis())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _residual(self, v: int) -> int:
        """v minus its combination of basis rows: each stored row holds one bit of
        the pivot lanes, so each such bit of v is cleared by one XOR."""
        for b in _set_bits(v & self._lane_mask):
            v ^= self._echelon[b]
        return v

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Residual of vec after elimination against the basis (zero iff contained)."""
        n, f = self.ambient_dim, self.field
        return tuple(_unpack_row(self._residual(_pack_row(vec, f, n)), n, f))

    def contains(self, vec: Sequence[int]) -> bool:
        return not self._residual(_pack_row(vec, self.field, self.ambient_dim))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        return not any(self._residual(r) for r in other._packed_basis())

    def coordinates(self, vec: Sequence[int]) -> list[int] | None:
        """Coefficients of vec in the RREF basis, or None if not contained.

        The RREF rows have entry 1 at their own pivot and 0 at the others, so
        the coefficient of each row is vec's own entry at that row's pivot.
        """
        if self._residual(_pack_row(vec, self.field, self.ambient_dim)):
            return None
        return [vec[p] for p in self.pivots]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return False
        return (self.field, self.ambient_dim, self._echelon) == (
            other.field, other.ambient_dim, other._echelon
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def rank(a: Matrix) -> int:
    return len(_echelon(a._packed, a.ncols, a.field)) // a.field.degree


def kernel_basis(a: Matrix) -> Subspace:
    """The right kernel {v : A v = 0} as a Subspace of K^ncols.

    One kernel vector per free column j: e_j plus R_pj e_p for each RREF row
    R_p (characteristic 2, so minus is plus).
    """
    f = a.field
    k = f.degree
    echelon = _rref(a._packed, a.ncols, f)
    free_mask = ((1 << (k * a.ncols)) - 1) & ~sum(1 << b for b in echelon)
    vecs = {s: 1 << s for s in range(0, k * a.ncols, k) if s not in echelon}
    for s in list(echelon)[::k]:
        for t, c in _lanes(echelon[s] & free_mask, k):
            vecs[t] |= c << s
    return Subspace(f, a.ncols, _rref(vecs.values(), a.ncols, f))


def image_basis(a: Matrix) -> Subspace:
    """The column space {A v} as a Subspace of K^nrows."""
    return Subspace(a.field, a.nrows, _rref(a.transpose()._packed, a.nrows, a.field))


def solve(a: Matrix, b: int) -> list[int] | None:
    """One solution x of A x = b (free variables set to 0), or None.

    b is lane-packed over the nrows lanes; ValueError for a bit beyond them.
    On the first call the columns of A are eliminated once, column j tagged
    with e_j in lane ncols - 1 - j after the nrows lanes of the column, and
    the subspace is kept on the matrix.  Each row of its RREF is A y | y
    reversed for some y, so b's residual against it is b + A y | y reversed:
    b is in the image iff the residual has no entry in the column lanes, and
    then A y = b.  The tags are reversed so that a column depending on the
    columns before it is the pivot of a kernel row, which leaves y zero there.
    """
    f = a.field
    shift = f.degree * a.nrows
    if b >> shift:
        raise ValueError(f"right-hand side has entries beyond its {a.nrows} rows")
    if a._solver is None:
        width = a.nrows + a.ncols
        top = f.degree * (width - 1)
        tagged = (c | 1 << (top - f.degree * j) for j, c in enumerate(a.transpose()._packed))
        a._solver = Subspace(f, width, _rref(tagged, width, f))
    r = a._solver._residual(b)
    if r & ((1 << shift) - 1):
        return None
    return _unpack_row(r >> shift, a.ncols, f)[::-1]


def quotient_basis(z: Subspace, b: Subspace) -> list[int]:
    """Representatives of Z/B, packed: the RREF rows of Z whose pivot is not a pivot of B.

    Requires B <= Z; raises ContainmentError naming an offending vector otherwise.
    """
    if z.field != b.field or z.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    for r in b._packed_basis():
        if z._residual(r):
            vec = tuple(_unpack_row(r, z.ambient_dim, z.field))
            raise ContainmentError(f"denominator vector {vec} is not in the numerator")
    b_pivots = set(b.pivots)
    reps = [r for p, r in zip(z.pivots, z._packed_basis()) if p not in b_pivots]
    assert len(reps) == z.dim - b.dim
    return reps
