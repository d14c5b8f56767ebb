"""Exact dense linear algebra over GF(2^k).

Every matrix row and every vector is one Python int in which entry j fills
bits k*j .. k*j + k - 1, its lane, as a field element bitmask; over GF(2) a
lane is one bit.  Adding two rows is one XOR for every k, and field's
`_times_x` multiplies all of a row's lanes by x at once (the packed GF(2^e)
layout of Albrecht, "The M4RIE library", ISSAC 2012).  Rows stay
packed from the matrix through kernels, images, subspaces and quotients
into cochains: `quotient_basis` returns packed rows, `solve` takes a packed
right-hand side, and a cochain (see cochain) is one such row.  They are
unpacked only where a caller reads a vector.

One engine, `_echelon`, clears each row one set bit at a time, as in the
word-parallel GF(2) elimination of Albrecht, Bard and Hart (ACM TOMS 37(1),
2010), on the row's lowest set bit or, given the direction, on its highest.
The canonical RREF of a subspace pivots on the lowest lanes; `rank` and
`kernel_basis` pivot on the highest, which `bit_length` reads in constant
time, where the lowest takes two ints as wide as the row.  A new pivot row is
scaled so that its pivot entry is 1 and stored k times, as x^t times itself
for t < k under the key s + t, where s is the bit offset of its pivot lane.
Its lane s then holds the single bit t, so clearing bit s + t of any row is
one XOR with the row under that key, the same step for every k, in either
direction.  One back-substitution pass, away from the pivot side, gives the
reduced row echelon form, which is unique for its direction; the test suite
checks the lowest-lane form against a column-scan reference elimination kept
in the tests.  The highest-lane RREF of a matrix's rows is read directly as
the canonical basis of its kernel (see `kernel_basis`), and a matrix keeps
its independent rows, which are the pivots of its column space, once `rank`
has counted them (see `independent_rows`).

The rest is built from one product (`Matrix.mul`; `mul_vec` is a
one-column product), that elimination (`_echelon`, `_rref`) and one
reduction against a stored RREF (`Subspace._residual`).  `solve` reduces the
right-hand side b against the RREF of A's rows, each row tagged with a unit
vector, and reads x with x A = b off the tags of the residual.  The
dense random rows of Freivalds' test (see cohomology) are multiplied by
`dense_row_product`, which sums the rows of a matrix in C.

Everything here is deterministic: pivots are the leftmost nonzero entries
of the reduced rows, subspaces are kept in reduced row echelon form, and
quotient bases are the rows of the numerator off the denominator's pivots.

This module is the one home of the lane layout of a packed row (field holds
the arithmetic on its lanes).  A dense vector is packed only by
`_pack_row(row, f, n)`, whose `FiniteField.check_vector(vec, n)` is the one
check of dense vectors (ValueError for a length other than n, FieldError
for a non-element), and sparse (lane, value) pairs by `_pack_lanes`.
Nonzero lanes are read, ascending, by `nonzeros` (`Matrix.nonzeros` for a
matrix row), and `_unpack_row` unpacks a row.  Elsewhere single entries are
placed by shifting, and rows pass through `Matrix.from_packed` and
`Subspace.from_packed` (the one constructor of a span), which `_rows_fit`
checks, `Matrix.packed_rows` and field's `scale_packed`.

An entry cap (rows * cols), held in a context variable, turns runaway size
requests into errors instead of memory exhaustion; see entry_cap_override.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from functools import reduce
from itertools import compress
from operator import xor

from .field import FiniteField, _scale, _times_x, _tops

_entry_cap: ContextVar[int] = ContextVar("entry_cap", default=1_000_000)


class SizeCapError(ValueError):
    """A requested object exceeds the configured entry cap."""


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

    __slots__ = ("field", "nrows", "ncols", "_packed", "_solver", "_independent")

    def __init__(self, field: FiniteField, ncols: int, packed: list[int]):
        self.field = field
        self.nrows = len(packed)
        self.ncols = ncols
        self._packed = packed  # one lane-packed int per row
        self._solver = None    # solve()'s subspace of tagged rows, made on first use
        self._independent = None  # independent_rows()'s list, so that a matrix is eliminated once

    # -- constructors --------------------------------------------------------

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
        return cls(field, ncols, [_pack_row(r, field, ncols) for r in rows])

    @classmethod
    def from_packed(cls, field: FiniteField, packed: Sequence[int], ncols: int) -> "Matrix":
        check_entry_count(len(packed), ncols)
        if not _rows_fit(packed, field.degree * ncols):
            raise ValueError(f"a row is not a packed row of {ncols} lanes")
        return cls(field, ncols, list(packed))

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
        return Matrix(f, other.ncols, out)

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
        return Matrix(self.field, self.nrows, cols)


# -- the lane layout of packed rows ----------------------------------------------

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


def _rows_fit(rows: Sequence[int], width: int) -> bool:
    """Whether each row is an int, not a bool, with 0 <= row < 2^width; each check runs in C."""
    return not rows or {*map(type, rows)} <= {int} and min(rows) >= 0 and max(rows) >> width == 0


def _unpack_row(mask: int, ncols: int, f: FiniteField) -> list[int]:
    k = f.degree
    bits = format(mask, f"0{k * ncols}b")
    if k == 1:
        return list(bits[::-1][:ncols].encode().translate(_DIGIT_TO_ENTRY))
    end = len(bits)
    return [int(bits[end - i - k : end - i], 2) for i in range(0, k * ncols, k)]


# Lanes per chunk of `_lanes`: a chunk of k * 2048 bits is a whole number of bytes and of lanes.
_CHUNK_LANES = 2048


def _lanes(row: int, k: int):
    """(bit offset, value) of each nonzero lane of a packed row, highest first.

    A row wider than one chunk of _CHUNK_LANES lanes is cut into chunks by one
    to_bytes and each chunk is scanned on its own, so the scan is linear in the
    width of the row, where clearing each lane off the whole row is quadratic
    on a dense row.
    """
    width = k * _CHUNK_LANES
    if row.bit_length() > width:
        step = width // 8
        buf = row.to_bytes(-(-row.bit_length() // width) * step, "little")
        for i in range(len(buf) - step, -1, -step):
            for s, c in _lanes(int.from_bytes(buf[i : i + step], "little"), k):
                yield 8 * i + s, c
        return
    while row:
        s = row.bit_length() - 1
        s -= s % k
        c = row >> s
        yield s, c
        row ^= c << s


def nonzeros(row: int, k: int) -> list[tuple[int, int]]:
    """(lane, value) of each nonzero lane of a packed row with k-bit lanes, lanes ascending."""
    return [(s // k, c) for s, c in _lanes(row, k)][::-1]


def dense_row_product(u: int, a: Matrix) -> int:
    """u A, packed, for a packed row u of a.nrows lanes, most of them nonzero.

    Slice t of u, the bit t of each lane read off u's binary string, picks the
    rows of A whose sum S_t is taken by reduce(xor, compress(...)), and
    u A = sum of x^t S_t.  Both loops run in C, at a cost per row of A where
    the lane scan of `Matrix.mul` pays a Python step per nonzero lane.  On
    the uniformly random rows of a Freivalds test this is about five times
    faster than `Matrix.mul`, and on the sparse rows of a differential about
    ten times slower, so `Matrix.mul` keeps its lane scan for every row.
    """
    f = a.field
    k = f.degree
    bits = format(u, f"0{k * a.nrows}b")[::-1].encode().translate(_DIGIT_TO_ENTRY)
    tops = _tops(f, a.ncols)
    acc = 0
    for t in reversed(range(k)):
        acc = _times_x(acc, f, tops) ^ reduce(xor, compress(a._packed, bits[t::k]), 0)
    return acc


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


def _echelon(
    rows: Iterable[int], ncols: int, f: FiniteField, top: bool = False
) -> tuple[dict[int, int], list[int]]:
    """Echelon rows of the span of packed rows, stored as _store_pivot keys them,
    and the indices, ascending, of the rows that became pivots.

    Each incoming row is cleared one bit at a time, its lowest set bit or with
    top its highest, until that bit has no key, which makes its lane a new
    pivot lane and the row independent of the rows before it.  bit_length
    reads the highest bit in constant time; the lowest takes r & -r, which
    builds two ints as wide as the row at every step.
    """
    k = f.degree
    tops = _tops(f, ncols)
    echelon: dict[int, int] = {}
    independent: list[int] = []
    for i, r in enumerate(rows):
        while r:
            b = r.bit_length() - 1 if top else (r & -r).bit_length() - 1
            q = echelon.get(b)
            if q is None:
                s = b - b % k
                c = f.inv((r >> s) & (f.order - 1))
                _store_pivot(echelon, _scale(r, c, f, tops), s, f, tops)
                independent.append(i)
                break
            r ^= q
    return echelon, independent


def _rref(rows: Iterable[int], ncols: int, f: FiniteField, top: bool = False) -> dict[int, int]:
    """The reduced row echelon form of packed rows, keyed as _echelon keys it, keys ascending.

    Its pivots are the lowest lanes of its rows, or with top the highest.
    Back-substitution runs away from the pivot side (in descending pivot order
    for the lowest lanes, ascending for the highest), so every stored row it
    adds in is already reduced, and adding it clears exactly one bit of the
    pivot lanes.  The RREF of a row space is unique, so with lowest-lane pivots
    this agrees with leftmost-pivot Gaussian elimination row for row.
    """
    echelon = _echelon(rows, ncols, f, top)[0]
    tops = _tops(f, ncols)
    keys = sorted(echelon)
    lane_mask = sum(1 << b for b in keys)
    pivots = keys[:: f.degree]
    for s in pivots if top else reversed(pivots):
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
    def from_packed(cls, field: FiniteField, rows: Iterable[int], ambient_dim: int) -> "Subspace":
        """The span of packed rows; ValueError unless each is a packed row of ambient_dim lanes."""
        rows = list(rows)
        if not _rows_fit(rows, field.degree * ambient_dim):
            raise ValueError(f"a row is not a packed row of {ambient_dim} lanes")
        return cls(field, ambient_dim, _rref(rows, ambient_dim, field))

    @classmethod
    def from_vectors(
        cls, field: FiniteField, vectors: Iterable[Sequence[int]], ambient_dim: int
    ) -> "Subspace":
        rows = [_pack_row(v, field, ambient_dim) for v in vectors]
        return cls.from_packed(field, rows, ambient_dim)

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


def independent_rows(a: Matrix) -> list[int]:
    """The rows of A independent of the rows above them, ascending, found once and kept on A.

    Row i is one exactly when the column space of A has a pivot at lane i, so
    these are `image_basis(a).pivots`, found with no transpose.
    """
    if a._independent is None:
        a._independent = _echelon(a._packed, a.ncols, a.field, top=True)[1]
    return a._independent


def rank(a: Matrix) -> int:
    """The rank of A: the number of its independent rows."""
    return len(independent_rows(a))


def kernel_basis(a: Matrix) -> Subspace:
    """The right kernel {v : A v = 0} as a Subspace of K^ncols.

    One kernel vector per free column j: e_j plus R_pj e_p for each row R_p of
    the RREF of A's rows with pivots on the highest lanes (characteristic 2, so
    minus is plus).  R_p has entries only below its pivot p, so the vector of j
    has its lowest nonzero lane at j and zeros at the other free columns: the
    vectors are already the kernel's canonical (lowest-lane) RREF, and no second
    elimination is needed.  Once `rank` has found A's independent rows, only they
    are eliminated: they span the same row space, so the RREF is the same.
    """
    f = a.field
    k = f.degree
    rows = a._packed if a._independent is None else [a._packed[i] for i in a._independent]
    echelon = _rref(rows, a.ncols, f, True)  # top: pivots on the highest lanes
    free_mask = ((1 << (k * a.ncols)) - 1) & ~sum(1 << b for b in echelon)
    vecs = {s: 1 << s for s in range(0, k * a.ncols, k) if s not in echelon}
    for s in list(echelon)[::k]:
        for t, c in _lanes(echelon[s] & free_mask, k):
            vecs[t] |= c << s
    tops = _tops(f, a.ncols)
    basis: dict[int, int] = {}
    for s, v in vecs.items():
        _store_pivot(basis, v, s, f, tops)
    return Subspace(f, a.ncols, basis)


def image_basis(a: Matrix) -> Subspace:
    """The column space {A v} as a Subspace of K^nrows."""
    return Subspace.from_packed(a.field, a.transpose()._packed, a.nrows)


def solve(a: Matrix, b: int) -> list[int] | None:
    """One solution x of x A = b (free rows set to 0), or None: b's coordinates in A's rows.

    b is lane-packed over the ncols lanes; ValueError for a bit beyond them.
    On the first call the rows of A are eliminated once, row i tagged with
    e_i in lane nrows - 1 - i after the ncols lanes of the row, and the
    subspace is kept on the matrix.  Each row of its RREF is y A | y reversed
    for some y, so b's residual against it is b + y A | y reversed: b is in
    the row space iff the residual has no entry in its first ncols lanes, and
    then y A = b.  The tags are reversed so that a row depending on the rows
    above it is the pivot of a kernel row, which leaves y zero there.
    """
    f = a.field
    shift = f.degree * a.ncols
    if b >> shift:
        raise ValueError(f"right-hand side has entries beyond its {a.ncols} columns")
    if a._solver is None:
        width = a.nrows + a.ncols
        top = f.degree * (width - 1)
        tagged = (row | 1 << (top - f.degree * i) for i, row in enumerate(a._packed))
        a._solver = Subspace.from_packed(f, tagged, width)
    r = a._solver._residual(b)
    if r & ((1 << shift) - 1):
        return None
    return _unpack_row(r >> shift, a.nrows, f)[::-1]


def quotient_basis(z: Subspace, b_pivots: Iterable[int]) -> list[int]:
    """Representatives of Z/B, packed: the RREF rows of Z whose pivot is not in b_pivots.

    b_pivots are the pivots of B, such as the `independent_rows` of a matrix
    whose column space is B.  The caller checks B <= Z, which makes them
    pivots of Z, so that dim Z - dim B rows are returned.
    """
    b_pivots = set(b_pivots)
    return [r for p, r in zip(z.pivots, z._packed_basis()) if p not in b_pivots]
