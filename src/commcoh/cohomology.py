"""Cohomology of the cochain complexes.

The central entry point is `cohomology(algebra, module, degree, flavor)`,
which returns cocycles, coboundaries, and deterministic representatives
of a basis of the quotient.  `coboundary_witness` solves d(psi) = phi.
The structure maps built on top of them live in `structure`.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation, ModulePresentation
from .linalg import Matrix, Subspace, image_basis, kernel_basis, quotient_basis, solve
from .cochain import (
    Cochain,
    CochainSpace,
    cochain_space,
    differential_matrix,
)


class NotACocycleError(ValueError):
    """An operation required a cocycle and was handed something else."""


class CohomologyResult:
    """Cocycles, coboundaries, and representatives in one degree and flavor.

    The representatives are the packed rows of `quotient_basis`, whose
    ContainmentError is the check that the coboundaries lie in the cocycles.
    """

    __slots__ = ("space", "cocycles", "coboundaries", "representatives", "_solver")

    def __init__(self, space: CochainSpace, cocycles: Subspace, coboundaries: Subspace):
        self.space = space
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.representatives = [
            Cochain._of(space, row) for row in quotient_basis(cocycles, coboundaries)
        ]
        self._solver = None

    @property
    def degree(self) -> int:
        return self.space.degree

    @property
    def flavor(self) -> str:
        return self.space.flavor

    @property
    def dim_Z(self) -> int:
        return self.cocycles.dim

    @property
    def dim_B(self) -> int:
        return self.coboundaries.dim

    @property
    def dim_H(self) -> int:
        return self.dim_Z - self.dim_B

    def class_coordinates(self, phi: Cochain) -> list[int] | None:
        """Coordinates of a cocycle's class in the representative basis.

        None if phi is not a cocycle; ValueError if it lies in another space.
        Coboundaries map to all zeros.  The [representatives | coboundaries]
        matrix is built once per result from the packed rows, and `solve`
        eliminates it once and reuses that for every query.
        """
        if phi.space != self.space:
            raise ValueError("the cochain is not in this result's cochain space")
        if self._solver is None:
            f, n = self.space.algebra.field, self.space.dim
            cols = [rep.bits for rep in self.representatives] + self.coboundaries._packed_basis()
            self._solver = Matrix.from_packed(f, cols, n).transpose()
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
    """Cohomology of the chosen flavor in one degree."""
    space = cochain_space(algebra, module, degree, flavor)
    z = kernel_basis(differential_matrix(algebra, module, degree, flavor))
    if degree == 0:
        b = Subspace.from_vectors(algebra.field, [], space.dim)
    else:
        b = image_basis(differential_matrix(algebra, module, degree - 1, flavor))
    return CohomologyResult(space, z, b)


def coboundary_witness(phi: Cochain) -> Cochain | None:
    """A cochain psi with d(psi) = phi, or None when phi is not a coboundary."""
    space = phi.space
    if space.degree == 0:
        return None if phi.bits else space.zero()
    mat = differential_matrix(space.algebra, space.module, space.degree - 1, space.flavor)
    sol = solve(mat, phi.bits)
    if sol is None:
        return None
    below = cochain_space(space.algebra, space.module, space.degree - 1, space.flavor)
    return below.cochain(sol)
