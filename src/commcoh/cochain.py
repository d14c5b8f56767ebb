"""Cochain spaces of commutative algebras in characteristic 2.

Three flavors of n-cochains with values in a module M are supported:

* ``symmetric``  -- symmetric n-linear maps; basis indexed by multisets of
  basis indices (dimension C(d+n-1, n) * m).  This is the complex whose
  cohomology is the commutative cohomology.
* ``alternating`` -- n-linear maps vanishing on repeated arguments; basis
  indexed by strict index sets (dimension C(d, n) * m).  For Lie-algebra
  inputs this is the classical complex, sign-free in characteristic 2.
* ``tensor``      -- arbitrary n-linear maps; basis indexed by ordered index
  tuples (dimension d^n * m).

The differential of all three flavors is the sign-free formula

    (d phi)(x_1, ..., x_{n+1}) = sum_{i<j} phi([x_i, x_j], ... minus x_i, x_j ...)
                               + sum_i x_i . phi(... minus x_i ...),

where the bracket argument replaces position i (tensor flavor keeps the
argument order; the other flavors re-sort, and the alternating flavor
drops any term with a repeated argument).  On a basis multiset, repeated
entries contribute once per position pair, so even multiplicities cancel.

One private generator enumerates the terms of d on a source tuple once for
every module index nu: the bracket terms, which land at mu = nu with the
same coefficient for every nu, and the action terms by each basis vector
that acts nontrivially.  Targets come out as ranks in the next space: a
symmetric or alternating target through that space's index, a tensor target
as a base-d numeral, the order of `itertools.product`.  `tuple_index` ranks
a tensor tuple by the same numeral and `unindex` reads it back, so no tensor
space is listed.  Alternating terms are the symmetric terms with repeat-free
targets.  The matrix is assembled straight into lane-packed rows (see
linalg): a bracket term XORs its coefficient into row (target, nu), and an
action term XORs a packed row of rho(e_t) in at the source's lanes, so even
multiplicities cancel in place.

For the tensor flavor the generator gives only the first-argument terms
(i = 1 above).  Every other term of d_n on a source (x_1, ...) keeps x_1 in
front, and behind it is a term of d_{n-1} on the tail, at a target and a
source shifted by x_1 times the sizes of the spaces below.  So the rows of
d_n are d shifted copies of the rows of d_{n-1} with the first-argument
terms XORed in; `differential_matrix` builds the tensor degrees upward from
d_0, so d_{n-1} is cached when d_n reads it.  The symmetric and alternating
flavors re-sort their targets, so their terms are not shifts of the degree
below and each matrix is assembled from all of its terms.
`delta` reads the same terms without building a matrix.  The column of d at
a basis element (source, nu) is cached as (flat target index, coefficient)
pairs, with each prefix of a tensor source put in front of the
first-argument terms of the rest; `delta` adds the columns of a cochain's
nonzero lanes, each times its coefficient, into one sparse dict and packs
that once.  The test suite checks both the matrices and `delta` against a
direct multilinear evaluation of the defining formula.

A cochain is read on ordered basis arguments by one rule per flavor: a
symmetric cochain reads the sorted tuple, an alternating one reads it too
and is zero on a repeat, and a tensor cochain reads the arguments in order.
`CochainSpace.read` is that rule's one home; `Cochain.value`, `evaluate`,
`contract`, `lie_derivative` and `inclusion_matrix` all read through it.

A cochain is one packed row in linalg's lane layout, built only by
`Cochain(space, bits)`: dense coefficients enter through `CochainSpace.cochain`,
and nonzero lanes are read with linalg's `nonzeros`.  Representatives are the
packed rows `quotient_basis` returns, and `solve` takes a cochain's int.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

from .algebra import AlgebraPresentation, ModulePresentation
from .field import _is_int, scalar_to_hex
from .linalg import Matrix, _pack_lanes, _pack_row, _unpack_row, check_entry_count
from .linalg import nonzeros, scale_packed

FLAVORS = ("symmetric", "alternating", "tensor")
_UPWARD = ("alternating", "symmetric", "tensor")  # each flavor includes into the later ones

_degree_cap: ContextVar[int] = ContextVar("degree_cap", default=8)


class DegreeCapError(ValueError):
    """A requested cochain degree exceeds the configured cap."""


@contextmanager
def degree_cap_override(cap: int):
    """Raise or lower the degree cap in the current context."""
    if cap < 0:
        raise ValueError("degree cap must be nonnegative")
    token = _degree_cap.set(cap)
    try:
        yield
    finally:
        _degree_cap.reset(token)


def check_degree(n: int) -> None:
    """DegreeCapError when cochains of degree n are above the degree cap."""
    if n < 0:
        raise ValueError(f"cochain degree must be nonnegative, got {n}")
    cap = _degree_cap.get()
    if n > cap:
        raise DegreeCapError(f"degree {n} exceeds the cap {cap}")


def flavor_dim(d: int, n: int, m: int, flavor: str) -> int:
    """Uncapped dimension of the degree-n cochain space."""
    if flavor == "symmetric":
        return (math.comb(d + n - 1, n) if d > 0 else (1 if n == 0 else 0)) * m
    if flavor == "alternating":
        return math.comb(d, n) * m
    return d**n * m


def _insert_sorted(tpl: tuple[int, ...], value: int) -> tuple[int, ...]:
    i = bisect_left(tpl, value)
    return tpl[:i] + (value,) + tpl[i:]


# -- spaces and cochains ---------------------------------------------------------------


class CochainSpace:
    """The degree-n cochain space of one flavor, with a fixed basis order.

    Basis elements are pairs (argument tuple, module index); the flat index
    is tuple_rank * m + module_index, tuples in lexicographic order.
    """

    __slots__ = ("algebra", "module", "degree", "flavor", "_tuples", "_index")

    def __init__(self, algebra, module, degree, flavor):
        self.algebra = algebra
        self.module = module
        self.degree = degree
        self.flavor = flavor
        self._tuples = None
        self._index = None

    @property
    def dim(self) -> int:
        return flavor_dim(self.algebra.dim, self.degree, self.module.dim, self.flavor)

    @property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        if self._tuples is None:
            check_entry_count(self.dim, 1)
            d, n = range(self.algebra.dim), self.degree
            if self.flavor == "tensor":  # ranked as numerals, so listed on request, not kept
                return tuple(itertools.product(d, repeat=n))
            if self.flavor == "symmetric":
                self._tuples = tuple(itertools.combinations_with_replacement(d, n))
            else:
                self._tuples = tuple(itertools.combinations(d, n))
        return self._tuples

    def tuple_index(self, tpl: tuple[int, ...]) -> int:
        """The rank of a basis tuple; KeyError for a tuple that is not one."""
        return self.read(tpl) if self.flavor == "tensor" else self._ranks()[tpl]

    def read(self, args: Sequence[int]) -> int | None:
        """The rank of the basis tuple this flavor reads on ordered basis arguments.

        Symmetric reads the sorted tuple, alternating reads it and gives None
        (a zero value) on a repeat, tensor reads the arguments in order, as the
        base-d numeral that `unindex` reads back.  KeyError in every flavor for
        a wrong length or an index outside range(d).
        """
        d = self.algebra.dim
        if len(args) != self.degree or not all(0 <= t < d for t in args):
            raise KeyError(args)
        if self.flavor == "tensor":
            rank = 0
            for t in args:
                rank = rank * d + t
            return rank
        key = tuple(sorted(args))
        if self.flavor == "alternating" and len(set(key)) < len(key):
            return None
        return self._ranks()[key]

    def _ranks(self) -> dict[tuple[int, ...], int]:
        if self._index is None:
            self._index = {t: i for i, t in enumerate(self.tuples)}
        return self._index

    def index(self, tpl: tuple[int, ...], mu: int = 0) -> int:
        """The flat index of (tpl, mu); KeyError unless both are basis indices."""
        if not 0 <= mu < self.module.dim:
            raise KeyError(mu)
        return self.tuple_index(tpl) * self.module.dim + mu

    def unindex(self, flat: int) -> tuple[tuple[int, ...], int]:
        rank, mu = divmod(flat, self.module.dim)
        if self.flavor != "tensor":
            return self.tuples[rank], mu
        # a tensor rank is a base-d numeral, so the space need not be listed
        d = self.algebra.dim
        digits = []
        for _ in range(self.degree):
            rank, t = divmod(rank, d)
            digits.append(t)
        return tuple(reversed(digits)), mu

    def label(self, flat: int) -> str:
        tpl, mu = self.unindex(flat)
        names = ",".join(self.algebra.basis_names[t] for t in tpl)
        base = f"({names})"
        return base if self.module.dim == 1 else f"{base}|{mu}"

    def labels(self) -> list[str]:
        return [self.label(i) for i in range(self.dim)]

    def zero(self) -> "Cochain":
        check_entry_count(self.dim, 1)
        return Cochain(self, 0)

    def basis_cochain(self, flat: int) -> "Cochain":
        """The cochain dual to basis element `flat`; ValueError outside range(dim)."""
        if not 0 <= flat < self.dim:
            raise ValueError(f"basis index {flat} is not in range({self.dim})")
        check_entry_count(self.dim, 1)
        return Cochain(self, 1 << (self.algebra.field.degree * flat))

    def cochain(self, coeffs: Iterable[int]) -> "Cochain":
        """The cochain with these coefficients, packed and checked by linalg's `_pack_row`."""
        return Cochain(self, _pack_row(tuple(coeffs), self.algebra.field, self.dim))

    def from_items(self, items: dict[tuple[tuple[int, ...], int], int]) -> "Cochain":
        check_entry_count(self.dim, 1)
        f = self.algebra.field
        pairs = ((self.index(tpl, mu), f.check_bits(c)) for (tpl, mu), c in items.items())
        return Cochain(self, _pack_lanes(pairs, self.dim, f))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainSpace)
            and self.algebra == other.algebra
            and self.module == other.module
            and self.degree == other.degree
            and self.flavor == other.flavor
        )

    def __repr__(self) -> str:
        return f"CochainSpace({self.flavor}, degree {self.degree}, dim {self.dim})"


@lru_cache(maxsize=512)
def _space_cached(algebra, module, degree, flavor) -> CochainSpace:
    return CochainSpace(algebra, module, degree, flavor)


def cochain_space(
    algebra: AlgebraPresentation,
    module: ModulePresentation,
    degree: int,
    flavor: str = "symmetric",
) -> CochainSpace:
    # cap checks stay outside the cache so they apply on every call,
    # not just the first one per argument tuple
    check_degree(degree)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    if module.algebra != algebra:
        raise ValueError("module is over a different algebra")
    return _space_cached(algebra, module, degree, flavor)


class Cochain:
    """An element of a CochainSpace: `bits` holds the coefficient of flat index j in lane j.

    `Cochain(space, bits)` is the one constructor, ValueError unless bits is a packed row of
    the space; `CochainSpace.cochain` packs dense coefficients and `coeffs` unpacks them.
    """

    __slots__ = ("space", "bits")

    def __init__(self, space: CochainSpace, bits: int):
        if not _is_int(bits) or bits < 0 or bits >> (space.algebra.field.degree * space.dim):
            raise ValueError(f"not a packed row of {space}")
        self.space = space
        self.bits = bits

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_unpack_row(self.bits, self.space.dim, self.space.algebra.field))

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.space != other.space:
            raise ValueError("cochains from different spaces")
        return Cochain(self.space, self.bits ^ other.bits)

    def scale(self, bits: int) -> "Cochain":
        f = self.space.algebra.field
        return Cochain(self.space, scale_packed(self.bits, f.check_bits(bits), f))

    def value(self, args: Sequence[int], mu: int = 0) -> int:
        """The value on ordered basis arguments at module index mu; KeyError off the basis."""
        if not 0 <= mu < self.space.module.dim:
            raise KeyError(mu)
        return self.value_vector(args)[mu]

    def value_vector(self, args: Sequence[int]) -> list[int]:
        """The module vector on ordered basis arguments, read by `CochainSpace.read`."""
        rank, m, f = self.space.read(args), self.space.module.dim, self.space.algebra.field
        lanes = 0 if rank is None else self.bits >> (f.degree * m * rank)
        return _unpack_row(lanes & ((1 << f.degree * m) - 1), m, f)

    def items(self) -> list[tuple[tuple[tuple[int, ...], int], int]]:
        """Nonzero coefficients as ((tuple, module index), bits) pairs, flat index ascending."""
        k = self.space.algebra.field.degree
        return [(self.space.unindex(j), c) for j, c in nonzeros(self.bits, k)]

    def is_zero(self) -> bool:
        return not self.bits

    def __eq__(self, other) -> bool:
        return isinstance(other, Cochain) and (self.space, self.bits) == (other.space, other.bits)

    def to_json(self) -> list[dict]:
        names = self.space.algebra.basis_names
        return [
            {"args": [names[t] for t in tpl], "module": mu, "value": scalar_to_hex(bits)}
            for (tpl, mu), bits in self.items()
        ]

    def __repr__(self) -> str:
        nz = len(nonzeros(self.bits, self.space.algebra.field.degree))
        return f"Cochain({self.space.flavor} degree {self.space.degree}, {nz} nonzero)"


# -- the differential --------------------------------------------------------------------


def _source_terms(algebra, module, dst, source):
    """The terms of d on the basis cochains (source, nu), for every nu at once.

    Returns (bracket, action).  `bracket` maps a target rank in `dst` to the
    coefficient with which the bracket terms land at mu = nu, the same for every
    nu; `action` lists (target rank, t), one term landing through rho(e_t), for
    the e_t that act nontrivially, and a pair listed twice cancels.

    For the tensor flavor these are only the first-argument terms, those with
    x_1 in the bracket or acting; `dst` is then read for its flavor alone, and
    the ranks are in the space one degree above the source.  Every other term
    keeps x_1 = source[0] in front, behind which it is a first-argument term of
    a shorter tail (see `_source_image_cached` and `_tensor_rows`).
    """
    acting = module.packed_action()[0]
    n = len(source)
    bracket: dict[int, int] = {}
    if dst.flavor == "tensor":
        # ranks are base-d numerals, the order of itertools.product.  The action
        # term puts t in front of the source; a bracket term puts a in front of
        # the rest and inserts b at a position q of it, where e_s is in [e_a, e_b]
        # for s = source[0]
        d = algebra.dim
        top = d**n
        rank = 0
        for t in source:
            rank = rank * d + t
        action = [(t * top + rank, t) for t in acting]
        into = algebra.bracket_into(source[0]) if n else ()
        if into:
            rest = rank % d ** (n - 1)
            # slot[q] is the rank of the rest with a digit 0 inserted at position q
            pw = [d ** (n - 1 - q) for q in range(n)]
            slot = [rest // w * w * d + rest % w for w in pw]
            for u, v, coeff in into:
                for a, b in ((u, v),) if u == v else ((u, v), (v, u)):
                    for q in range(n):
                        key = a * top + slot[q] + b * pw[q]
                        bracket[key] = bracket.get(key, 0) ^ coeff
        return bracket, action

    # symmetric: on a multiset, even position multiplicities cancel.  Alternating:
    # the symmetric terms with repeat-free targets.  For a repeat-free source, an
    # action term by t has one iff t is not in the source, and a bracket term
    # (u, v) iff u != v and neither is in the rest; each has multiplicity one.
    strict = dst.flavor == "alternating"
    index = dst._ranks()
    action = [
        (index[_insert_sorted(source, t)], t)
        for t in acting
        if not (source.count(t) if strict else source.count(t) & 1)
    ]
    for p, s in enumerate(source):
        if p and source[p - 1] == s:
            continue
        rest = source[:p] + source[p + 1 :]
        for u, v, coeff in algebra.bracket_into(s):
            cu = rest.count(u)
            if u == v:
                mult = 0 if strict else ((cu + 2) * (cu + 1) // 2) & 1
            else:
                cv = rest.count(v)
                mult = not (cu or cv) if strict else ((cu + 1) * (cv + 1)) & 1
            if mult:
                key = index[_insert_sorted(_insert_sorted(rest, u), v)]
                bracket[key] = bracket.get(key, 0) ^ coeff
    return bracket, action


@lru_cache(maxsize=100_000)
def _source_image_cached(algebra, module, flavor, source, nu):
    """The column of d at (source, nu): (flat target index, coefficient) pairs, all nonzero."""
    dst = _space_cached(algebra, module, len(source) + 1, flavor)
    shift, lane = algebra.field.degree * nu, algebra.field.order - 1
    d, n, m = algebra.dim, len(source), module.dim
    rho = module.packed_action()[1]
    out: dict[int, int] = {}
    # a tensor term that keeps source[:i] in front is a first-argument term of
    # source[i:] behind that prefix, whose rank scales by d^(n + 1 - i)
    prefix = 0
    for i in range(n + 1 if flavor == "tensor" else 1):
        if i:
            prefix = prefix * d + source[i - 1]
        offset = prefix * d ** (n + 1 - i)
        bracket, action = _source_terms(algebra, module, dst, source[i:])
        for r, c in bracket.items():
            key = (offset + r) * m + nu
            out[key] = out.get(key, 0) ^ c
        for r, t in action:
            for mu, packed in rho[t]:
                key = (offset + r) * m + mu
                out[key] = out.get(key, 0) ^ ((packed >> shift) & lane)
    return tuple((flat, val) for flat, val in out.items() if val)


def differential_matrix(
    algebra: AlgebraPresentation,
    module: ModulePresentation,
    degree: int,
    flavor: str = "symmetric",
) -> Matrix:
    """Matrix of the degree-n differential: rows = degree n+1 basis, cols = degree n.

    A tensor matrix is built upward: degrees 0..n-1 are requested first, each a
    cache hit once built, so `_tensor_rows` finds d_{n-1} in the cache.
    """
    src = cochain_space(algebra, module, degree, flavor)
    dst = cochain_space(algebra, module, degree + 1, flavor)
    check_entry_count(dst.dim, src.dim)
    if flavor == "tensor":
        for n in range(degree):
            _differential_matrix_cached(algebra, module, n, flavor)
    return _differential_matrix_cached(algebra, module, degree, flavor)


@lru_cache(maxsize=256)
def _differential_matrix_cached(algebra, module, degree, flavor) -> Matrix:
    """The matrix of `differential_matrix`, which alone calls this for the tensor flavor."""
    src = cochain_space(algebra, module, degree, flavor)
    dst = cochain_space(algebra, module, degree + 1, flavor)
    if flavor == "tensor":
        rows = _tensor_rows(algebra, module, degree)
    else:
        rows = _add_terms(algebra, module, dst, src.tuples, [0] * dst.dim)
    return Matrix.from_packed(algebra.field, rows, src.dim)


def _add_terms(algebra, module, dst, sources, rows):
    """XOR the `_source_terms` of each source, the i-th at column i * m, into packed rows."""
    k = algebra.field.degree
    m = module.dim
    rho = module.packed_action()[1]
    for ti, source in enumerate(sources):
        base = k * m * ti  # lane of (source, nu = 0)
        bracket, action = _source_terms(algebra, module, dst, source)
        for r, c in bracket.items():
            for nu in range(m):
                rows[r * m + nu] ^= c << (base + k * nu)
        for r, t in action:
            for mu, packed in rho[t]:
                rows[r * m + mu] ^= packed << base
    return rows


def _tensor_rows(algebra, module, degree):
    """Packed rows of the tensor d_degree, built from those of the degree below.

    Row (x_1, r) of d_n holds every term that keeps x_1 in front as row r of
    d_{n-1} does, at the same lanes shifted by x_1 * d^(n-1) * m columns, so
    d_n is d shifted copies of d_{n-1} plus the first-argument terms of each
    source.  d_{-1} has m zero rows and no columns.  d_{n-1} is read from the
    matrix cache, where `differential_matrix` has put it.
    """
    d, m, k = algebra.dim, module.dim, algebra.field.degree
    if degree:
        below = _differential_matrix_cached(algebra, module, degree - 1, "tensor").packed_rows()
        width = k * m * d ** (degree - 1)  # bits of the sources with one x_1
    else:
        below, width = [0] * m, 0
    rows = [r << (x * width) for x in range(d) for r in below]
    dst = _space_cached(algebra, module, degree + 1, "tensor")
    return _add_terms(algebra, module, dst, itertools.product(range(d), repeat=degree), rows)


def delta(phi: Cochain) -> Cochain:
    """The differential of a cochain, one degree up; a tensor target space is not listed."""
    space = phi.space
    algebra, module, flavor = space.algebra, space.module, space.flavor
    target = cochain_space(algebra, module, space.degree + 1, flavor)
    check_entry_count(target.dim, 1)
    f = algebra.field
    image: dict[int, int] = {}
    for j, c in nonzeros(phi.bits, f.degree):
        source, nu = space.unindex(j)
        for flat, val in _source_image_cached(algebra, module, flavor, source, nu):
            image[flat] = image.get(flat, 0) ^ f.mul(c, val)
    return Cochain(target, _pack_lanes(image.items(), target.dim, f))


# -- evaluation and Cartan operators ------------------------------------------------------


def evaluate(phi: Cochain, args: Sequence[Sequence[int]]) -> list[int]:
    """Evaluate a cochain on coefficient vectors by full multilinear expansion.

    Each product of basis arguments is read by `CochainSpace.read`.
    """
    space = phi.space
    n = space.degree
    if len(args) != n:
        raise ValueError(f"{len(args)} arguments for a degree-{n} cochain")
    f = space.algebra.field
    for vec in args:
        f.check_vector(vec, space.algebra.dim)
    supports = [[(i, c) for i, c in enumerate(vec) if c] for vec in args]
    out = [0] * space.module.dim
    for combo in itertools.product(*supports):
        scale = 1
        for _, c in combo:
            scale = f.mul(scale, c)
        for mu, val in enumerate(phi.value_vector([i for i, _ in combo])):
            if val:
                out[mu] = f.add(out[mu], f.mul(scale, val))
    return out


def contract(x: Sequence[int], phi: Cochain) -> Cochain:
    """The contraction i(x): plug x into the first argument slot (degree n -> n-1)."""
    space = phi.space
    if space.flavor != "symmetric":
        raise ValueError("contraction is defined on symmetric cochains")
    if space.degree < 1:
        raise ValueError("cannot contract a degree-0 cochain")
    d = space.algebra.dim
    unit = [[int(i == t) for i in range(d)] for t in range(d)]
    target = cochain_space(space.algebra, space.module, space.degree - 1, "symmetric")
    coeffs = [v for tpl in target.tuples for v in evaluate(phi, [x] + [unit[t] for t in tpl])]
    return target.cochain(coeffs)


def lie_derivative(x: Sequence[int], phi: Cochain) -> Cochain:
    """The Lie derivative theta(x) = action of x on values plus bracketing into each slot."""
    space = phi.space
    if space.flavor != "symmetric":
        raise ValueError("the Lie derivative is defined on symmetric cochains")
    algebra = space.algebra
    f = algebra.field
    unit = [[int(i == t) for i in range(algebra.dim)] for t in range(algebra.dim)]
    coeffs = []
    for tpl in space.tuples:
        acc = space.module.act(x, phi.value_vector(tpl))
        args = [unit[t] for t in tpl]
        for p in range(space.degree):
            term = evaluate(phi, args[:p] + [algebra.bracket(x, args[p])] + args[p + 1 :])
            acc = [f.add(a, b) for a, b in zip(acc, term)]
        coeffs.extend(acc)
    return space.cochain(coeffs)


# -- flavor comparison -----------------------------------------------------------------


def _upward_reads(src: CochainSpace, dst: CochainSpace) -> list[int | None]:
    """The rank `src` reads on each tuple of `dst`; ValueError unless dst's flavor is larger."""
    if _UPWARD.index(src.flavor) >= _UPWARD.index(dst.flavor):
        raise ValueError(f"no inclusion from {src.flavor} to {dst.flavor}")
    check_entry_count(dst.dim, 1)
    # tensor tuples are walked in numeral order, so no tensor space is listed
    walk = itertools.product(range(dst.algebra.dim), repeat=dst.degree)
    return [src.read(tpl) for tpl in (walk if dst.flavor == "tensor" else dst.tuples)]


def inclusion_matrix(
    algebra: AlgebraPresentation,
    module: ModulePresentation,
    degree: int,
    src_flavor: str,
    dst_flavor: str,
) -> Matrix:
    """Matrix of the inclusion of a cochain flavor into a larger one.

    The flavors grow alternating -> symmetric -> tensor, and every upward pair
    has one rule: a target tuple takes the value that the source flavor reads
    on it, through `CochainSpace.read`.  In characteristic 2 an alternating
    map is symmetric, with value 0 on any tuple with repeats, and a symmetric
    map reads an ordered tuple sorted.  ValueError for an unknown flavor or a
    pair that is not upward.
    """
    src = cochain_space(algebra, module, degree, src_flavor)
    dst = cochain_space(algebra, module, degree, dst_flavor)
    reads = _upward_reads(src, dst)
    check_entry_count(dst.dim, src.dim)
    m, k = module.dim, algebra.field.degree
    rows = [0] * dst.dim
    for r, c in enumerate(reads):
        if c is not None:
            for mu in range(m):
                rows[r * m + mu] = 1 << (k * (c * m + mu))
    return Matrix.from_packed(algebra.field, rows, src.dim)


def include_cochain(phi: Cochain, dst_flavor: str) -> Cochain:
    """Reinterpret a cochain in a larger flavor (alternating -> symmetric -> tensor).

    Each target tuple takes the values the source reads on it, as in `inclusion_matrix`.
    """
    space = phi.space
    if dst_flavor == space.flavor:
        return phi
    dst = cochain_space(space.algebra, space.module, space.degree, dst_flavor)
    m, coeffs = space.module.dim, phi.coeffs
    reads = _upward_reads(space, dst)
    return dst.cochain(itertools.chain.from_iterable(
        (0,) * m if c is None else coeffs[c * m : c * m + m] for c in reads
    ))
