"""Cohomology of the cochain complexes.

The central entry point is `cohomology(algebra, module, degree, flavor)`.
Its dimensions come from ranks alone: dim Z^n = dim C^n - rank d_n and
dim B^n = rank d_{n-1}, and `linalg.rank` eliminates each differential once.
B <= Z, that is d_n d_{n-1} = 0, is checked once, by Freivalds' test, on
every path.  The cocycles and deterministic representatives of a basis of
the quotient are built only when first read, and then checked against those
ranks: the representatives take B's pivots from the independent rows of
d_{n-1}, which its rank already found.  `coboundary_witness` solves
d(psi) = phi.  The structure maps built on top of them live in `structure`.
"""

from __future__ import annotations

import random

from .algebra import AlgebraPresentation, ModulePresentation
from .linalg import (
    Matrix,
    Subspace,
    dense_row_product,
    image_basis,
    independent_rows,
    kernel_basis,
    quotient_basis,
    rank,
    solve,
)
from .cochain import (
    Cochain,
    CochainSpace,
    cochain_space,
    differential_matrix,
)

# Random rows per Freivalds test of d_n d_{n-1} = 0 (see `_check_square_zero`).
_TRIALS = 2


class NotACocycleError(ValueError):
    """An operation required a cocycle and was handed something else."""


class ComplexError(RuntimeError):
    """d_n d_{n-1} is not zero, or a built Z or B disagrees with the ranks.

    The program built the complex, so this is a fault of the program, not of
    its input; it is not a ValueError, so the CLI reports an internal error.
    """


def _check_square_zero(d: Matrix, below: Matrix, n: int) -> None:
    """Freivalds' test (IFIP 1977) that d_n d_{n-1} = d below = 0, with no elimination.

    (u d) below must be zero for each of _TRIALS rows u with uniformly
    random entries, two `dense_row_product` calls per row.  If P = d below
    is not zero and has rank r, a uniform row u has u P = 0 with probability
    q^-r over GF(q), so a nonzero P passes _TRIALS independent rows with
    probability at most q^-(r * _TRIALS): 1/4 over GF(2) and 1/16 over GF(4)
    for a P of rank 1.  The rows come from a fixed seed, so that every run
    does the same work: the bound is over the draw of the rows, and a given P
    is caught on every run or on none.  The full product d below, which is
    exact, is the tests' oracle.
    """
    rng = random.Random(0)
    for _ in range(_TRIALS):
        u = rng.getrandbits(d.field.degree * d.nrows)
        if dense_row_product(dense_row_product(u, d), below):
            raise ComplexError(f"d_{n} d_{n - 1} != 0")


class CohomologyResult:
    """Cocycles, coboundaries, and representatives in one degree and flavor.

    The result takes dim Z = dim C - rank d_n and dim B = rank d_{n-1}, and
    checks d_n d_{n-1} = 0, so B <= Z, by Freivalds' test: the one check of
    B <= Z, made when the result is built, whatever is read later.
    `cocycles` (the kernel of d_n), `coboundaries` (the image of d_{n-1}) and
    `representatives` (the packed rows of `quotient_basis`, given B's pivots
    as the independent rows of d_{n-1}) are built when first read.  A built Z
    or B whose dimension is not the ranks', or a pivot of B that is not a
    pivot of Z, raises ComplexError.
    """

    __slots__ = (
        "space", "dim_Z", "dim_B", "_cocycles", "_coboundaries", "_representatives", "_solver"
    )

    def __init__(self, space: CochainSpace):
        self.space = space
        self._cocycles = None
        self._coboundaries = None
        self._representatives = None
        self._solver = None
        d = self._differential(space.degree)
        self.dim_Z = space.dim - rank(d)
        self.dim_B = 0
        if space.degree:
            below = self._differential(space.degree - 1)
            self.dim_B = rank(below)
            _check_square_zero(d, below, space.degree)

    def _differential(self, degree: int) -> Matrix:
        sp = self.space
        return differential_matrix(sp.algebra, sp.module, degree, sp.flavor)

    def _checked(self, sub: Subspace, dim: int, name: str) -> Subspace:
        if sub.dim != dim:
            raise ComplexError(f"{self}: the built {name} has dimension {sub.dim}")
        return sub

    @property
    def cocycles(self) -> Subspace:
        if self._cocycles is None:
            z = kernel_basis(self._differential(self.degree))
            self._cocycles = self._checked(z, self.dim_Z, "Z")
        return self._cocycles

    @property
    def coboundaries(self) -> Subspace:
        if self._coboundaries is None:
            if self.degree == 0:
                b = Subspace(self.space.algebra.field, self.space.dim, {})
            else:
                b = image_basis(self._differential(self.degree - 1))
            self._coboundaries = self._checked(b, self.dim_B, "B")
        return self._coboundaries

    @property
    def representatives(self) -> list[Cochain]:
        if self._representatives is None:
            b_pivots = independent_rows(self._differential(self.degree - 1)) if self.degree else []
            reps = quotient_basis(self.cocycles, b_pivots)
            if len(reps) != self.dim_H:
                raise ComplexError(f"{self}: a pivot of B is not a pivot of Z")
            self._representatives = [Cochain(self.space, row) for row in reps]
        return self._representatives

    @property
    def degree(self) -> int:
        return self.space.degree

    @property
    def flavor(self) -> str:
        return self.space.flavor

    @property
    def dim_H(self) -> int:
        return self.dim_Z - self.dim_B

    def class_coordinates(self, phi: Cochain) -> list[int] | None:
        """Coordinates of a cocycle's class in the representative basis.

        None if phi is not a cocycle; ValueError if it lies in another space.
        Coboundaries map to all zeros.  The matrix whose rows are the
        representatives and then B's basis is built once per result from the
        packed rows, and `solve` eliminates it once and reuses that for every query.
        """
        if phi.space != self.space:
            raise ValueError("the cochain is not in this result's cochain space")
        if self._solver is None:
            f, n = self.space.algebra.field, self.space.dim
            rows = [rep.bits for rep in self.representatives] + self.coboundaries._packed_basis()
            self._solver = Matrix.from_packed(f, rows, n)
        sol = solve(self._solver, phi.bits)
        if sol is None:
            return None
        return sol[: self.dim_H]

    def __repr__(self) -> str:
        return (
            f"CohomologyResult({self.flavor} degree {self.degree}: "
            f"Z {self.dim_Z}, B {self.dim_B}, H {self.dim_H})"
        )


def cohomology(
    algebra: AlgebraPresentation,
    module: ModulePresentation,
    degree: int,
    flavor: str = "symmetric",
) -> CohomologyResult:
    """Cohomology of the chosen flavor in one degree.

    The dimensions come from the ranks of d_n and d_{n-1}; the cocycles,
    coboundaries and representatives are built only when first read.
    """
    return CohomologyResult(cochain_space(algebra, module, degree, flavor))


def coboundary_witness(phi: Cochain) -> Cochain | None:
    """A cochain psi with d(psi) = phi, or None when phi is not a coboundary."""
    space = phi.space
    if space.degree == 0:
        return None if phi.bits else space.zero()
    mat = differential_matrix(space.algebra, space.module, space.degree - 1, space.flavor)
    sol = solve(mat.transpose(), phi.bits)
    if sol is None:
        return None
    below = cochain_space(space.algebra, space.module, space.degree - 1, space.flavor)
    return below.cochain(sol)
