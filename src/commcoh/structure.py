"""Structure maps built on the cohomology of the cochain complexes.

* the comparison maps between the alternating, symmetric, and tensor
  flavors induced by the inclusions of cochain spaces,
* the four-term sequence connecting degree-2 classes with trivial
  coefficients, degree-1 classes with dual coefficients, invariant
  alternating forms, and degree-3 classes,
* base change of a presentation with prime-field structure constants,
* central extensions by a symmetric 2-cocycle.

The low-degree readings of cohomology (invariants, the dual of the
abelianization, outer derivations) and the documented Zassenhaus degree-2
family are oracles of the tests, which check `cohomology` against them.

Each map into classes (the flavor comparisons and the three maps of the
four-term sequence) is one product of packed rows with a packed matrix,
`_images`, followed by `_induced`, which reads the images' class coordinates.

The CLI imports this module only for the commands that use it (compare,
sequence, basechange and cocycles2), and the package resolves its names on
first access.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation, ModulePresentation, dual_module, trivial_module
from .field import FiniteField, make_field
from .linalg import Matrix, Subspace, _pack_lanes, kernel_basis, nonzeros, rank as matrix_rank
from .cochain import Cochain, cochain_space, delta, inclusion_matrix
from .cohomology import CohomologyResult, NotACocycleError, cohomology


# -- comparison maps between flavors ---------------------------------------------------


class ComparisonReport:
    """The map a flavor inclusion induces on classes, with its rank."""

    __slots__ = ("source", "target", "rank", "chain_defects")

    def __init__(
        self,
        source: CohomologyResult,
        target: CohomologyResult,
        rank: int,
        chain_defects: list,
    ):
        self.source = source
        self.target = target
        self.rank = rank
        self.chain_defects = chain_defects

    @property
    def kernel_dim(self) -> int:
        return self.source.dim_H - self.rank

    @property
    def is_injective(self) -> bool:
        return self.kernel_dim == 0

    @property
    def is_isomorphism(self) -> bool:
        return self.rank == self.target.dim_H == self.source.dim_H

    def to_json(self) -> dict:
        return {
            "degree": self.source.degree,
            "source_flavor": self.source.flavor,
            "target_flavor": self.target.flavor,
            "source_dimH": self.source.dim_H,
            "target_dimH": self.target.dim_H,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "injective": self.is_injective,
            "isomorphism": self.is_isomorphism,
        }


def _induced(f: FiniteField, coordinates, dim: int, images) -> tuple[Matrix, list[int]]:
    """The matrix with one row of class coordinates per image, and the misses.

    It is the transposed map, with the same rank.  `coordinates` gives an
    image's coordinates, or None for an image it does not recognize, which
    gets a zero row and goes into the misses.
    """
    rows, misses = [], []
    for n, image in enumerate(images):
        coords = coordinates(image)
        if coords is None:
            misses.append(n)
            coords = [0] * dim
        rows.append(coords)
    return Matrix.from_rows(f, rows, dim), misses


def _images(f: FiniteField, rows: list[int], mat: Matrix, space) -> list[Cochain]:
    """The packed rows times `mat`, one product for all of them, each a cochain of `space`."""
    product = Matrix.from_packed(f, rows, mat.nrows).mul(mat)
    return [Cochain(space, row) for row in product.packed_rows()]


def _comparison(algebra, module, degree, src_flavor, dst_flavor) -> ComparisonReport:
    src = cohomology(algebra, module, degree, src_flavor)
    dst = cohomology(algebra, module, degree, dst_flavor)
    inc = inclusion_matrix(algebra, module, degree, src_flavor, dst_flavor).transpose()
    images = _images(algebra.field, [rep.bits for rep in src.representatives], inc, dst.space)
    mat, misses = _induced(algebra.field, dst.class_coordinates, dst.dim_H, images)
    defects = [src.representatives[n] for n in misses]
    return ComparisonReport(src, dst, matrix_rank(mat), defects)


def comparison_lie_to_comm(
    algebra: AlgebraPresentation, module: ModulePresentation, degree: int
) -> ComparisonReport:
    """The map from alternating to symmetric cohomology classes.

    Defined on Lie algebras, where the alternating complex is a complex and
    its inclusion is a chain map; ValueError elsewhere, from the differential.
    """
    return _comparison(algebra, module, degree, "alternating", "symmetric")


def comparison_comm_to_leibniz(
    algebra: AlgebraPresentation, module: ModulePresentation, degree: int
) -> ComparisonReport:
    """The map from symmetric to tensor (all-multilinear) cohomology classes."""
    return _comparison(algebra, module, degree, "symmetric", "tensor")


# -- invariant alternating forms and the four-term sequence ---------------------------


def _bracket_read(algebra: AlgebraPresentation, space, i: int, j: int, c: int) -> int:
    """The packed row over `space` (trivial coefficients) that reads beta([e_i, e_j], e_c)."""
    k = algebra.field.degree
    row = 0
    for s, bits in algebra.bracket_basis(i, j).items():
        idx = space.read((s, c))  # None on a repeat, where an alternating form is zero
        if idx is not None:
            row ^= bits << (k * idx)
    return row


def alternating_invariant_forms(algebra: AlgebraPresentation) -> Subspace:
    """Alternating bilinear forms with beta([x,y],z) = beta([z,x],y), as a subspace.

    The forms are the alternating 2-cochains with trivial coefficients, and
    the ambient space is that cochain space's coordinates, one per basis pair.
    The bracket is symmetric and the forms alternating, so row (i, j, c) equals
    row (i, c, j) and row (i, j, j) is zero: only the rows with j < c are built.
    """
    d = range(algebra.dim)
    space = cochain_space(algebra, trivial_module(algebra), 2, "alternating")
    rows = [
        _bracket_read(algebra, space, i, j, c) ^ _bracket_read(algebra, space, c, i, j)
        for i in d for j in d for c in d if j < c
    ]
    return kernel_basis(Matrix.from_packed(algebra.field, [r for r in rows if r], space.dim))


class ExactSequenceReport:
    """Exactness data for 0 -> H2(L,K) -> H1(L,L*) -> B_alt(L) -> H3(L,K)."""

    __slots__ = (
        "dim_h2", "dim_h1_dual", "dim_balt", "dim_h3", "map1_rank", "map2_rank",
        "map3_rank", "map1_injective", "exact_at_h1", "exact_at_balt", "defects",
    )

    def __init__(
        self,
        dim_h2: int,
        dim_h1_dual: int,
        dim_balt: int,
        dim_h3: int,
        map1_rank: int,
        map2_rank: int,
        map3_rank: int,
        map1_injective: bool,
        exact_at_h1: bool,
        exact_at_balt: bool,
        defects: list,
    ):
        self.dim_h2 = dim_h2
        self.dim_h1_dual = dim_h1_dual
        self.dim_balt = dim_balt
        self.dim_h3 = dim_h3
        self.map1_rank = map1_rank
        self.map2_rank = map2_rank
        self.map3_rank = map3_rank
        self.map1_injective = map1_injective
        self.exact_at_h1 = exact_at_h1
        self.exact_at_balt = exact_at_balt
        self.defects = defects

    @property
    def ok(self) -> bool:
        return (
            self.map1_injective
            and self.exact_at_h1
            and self.exact_at_balt
            and not self.defects
        )

    def to_json(self) -> dict:
        return {
            "dims": {
                "H2_trivial": self.dim_h2,
                "H1_dual": self.dim_h1_dual,
                "B_alt": self.dim_balt,
                "H3_trivial": self.dim_h3,
            },
            "ranks": [self.map1_rank, self.map2_rank, self.map3_rank],
            "map1_injective": self.map1_injective,
            "exact_at_H1_dual": self.exact_at_h1,
            "exact_at_B_alt": self.exact_at_balt,
            "defects": [str(d) for d in self.defects],
            "ok": self.ok,
        }


def exact_sequence_check(algebra: AlgebraPresentation) -> ExactSequenceReport:
    """Verify the four-term sequence on a concrete algebra.

    Maps: a 2-class phi goes to x -> phi(x, .); a 1-class psi with dual
    coefficients goes to the form (x, y) -> psi(x)(y) + psi(y)(x); a form
    beta goes to the 3-class of (x, y, z) -> beta([x, y], z).  Any failure
    of these maps to land where they should is recorded as a defect
    instead of raising.
    """
    f = algebra.field
    triv = trivial_module(algebra)
    h2 = cohomology(algebra, triv, 2)
    h1d = cohomology(algebra, dual_module(algebra), 1)
    forms = cochain_space(algebra, triv, 2, "alternating")
    balt = alternating_invariant_forms(algebra)
    h3 = cohomology(algebra, triv, 3)
    defects = []

    # a 1-cochain with coefficients in L* keeps psi(e_i)(e_mu) in lane i * d + mu,
    # the lane in which a tensor 2-cochain with trivial coefficients keeps
    # T(e_i, e_mu); so map 1 is the symmetric -> tensor inclusion, and map 2 reads
    # a dual representative as that tensor cochain and restricts it to the
    # alternating pairs, T(e_i, e_j) + T(e_j, e_i)
    to_tensor = inclusion_matrix(algebra, triv, 2, "symmetric", "tensor").transpose()
    images1 = _images(f, [rep.bits for rep in h2.representatives], to_tensor, h1d.space)
    defects.extend("map1 image of a degree-2 class is not a cocycle"
                   for psi in images1 if not delta(psi).is_zero())
    map1, misses = _induced(f, h1d.class_coordinates, h1d.dim_H, images1)
    defects.extend("map1 image not recognized as a degree-1 class" for _ in misses)

    alt_to_tensor = inclusion_matrix(algebra, triv, 2, "alternating", "tensor")
    images2 = _images(f, [rep.bits for rep in h1d.representatives], alt_to_tensor, forms)
    map2, misses = _induced(f, balt.coordinates, balt.dim, (beta.coeffs for beta in images2))
    defects.extend("map2 image of a degree-1 class is not an invariant form" for _ in misses)

    # row (i, j, k) reads beta([e_i, e_j], e_k)
    reads = [_bracket_read(algebra, forms, *tpl) for tpl in h3.space.tuples]
    at_brackets = Matrix.from_packed(f, reads, forms.dim).transpose()
    images3 = _images(f, balt._packed_basis(), at_brackets, h3.space)
    defects.extend("map3 image of an invariant form is not a 3-cocycle"
                   for gamma in images3 if not delta(gamma).is_zero())
    map3, misses = _induced(f, h3.class_coordinates, h3.dim_H, images3)
    defects.extend("map3 image not recognized as a degree-3 class" for _ in misses)

    # an image is a kernel iff the ranks fill the middle and the composition is
    # zero; the maps are held transposed, so map1.mul(map2) is (map2 after map1)^T
    r1, r2, r3 = matrix_rank(map1), matrix_rank(map2), matrix_rank(map3)
    return ExactSequenceReport(
        dim_h2=h2.dim_H,
        dim_h1_dual=h1d.dim_H,
        dim_balt=balt.dim,
        dim_h3=h3.dim_H,
        map1_rank=r1,
        map2_rank=r2,
        map3_rank=r3,
        map1_injective=r1 == h2.dim_H,
        exact_at_h1=r1 + r2 == h1d.dim_H and map1.mul(map2).is_zero(),
        exact_at_balt=r2 + r3 == balt.dim and map2.mul(map3).is_zero(),
        defects=defects,
    )


# -- base change -----------------------------------------------------------------------


def base_change(
    algebra: AlgebraPresentation,
    module: ModulePresentation | None,
    degree: int,
) -> tuple[AlgebraPresentation, ModulePresentation | None]:
    """Reinterpret a presentation with prime-field constants over GF(2^degree)."""
    if module is not None and module.algebra != algebra:
        raise ValueError("module is over a different algebra")
    if any(bits > 1 for value in algebra.brackets.values() for bits in value.values()):
        raise ValueError("structure constants are not in the prime field; base change undefined")
    if module is not None:
        k = module.algebra.field.degree
        lanes = [[nonzeros(row, k) for row in rows] for rows in module.rho]
        if any(c > 1 for rows in lanes for row in rows for _, c in row):
            raise ValueError("module constants are not in the prime field; base change undefined")
    f2 = make_field(degree)
    a2 = AlgebraPresentation(f2, algebra.dim, algebra.basis_names, algebra.brackets)
    if module is None:
        return a2, None
    rho = [[_pack_lanes(row, module.dim, f2) for row in rows] for rows in lanes]
    return a2, ModulePresentation(a2, module.dim, rho)


# -- central extensions ------------------------------------------------------------------


def central_extension(algebra: AlgebraPresentation, phi: Cochain) -> AlgebraPresentation:
    """The one-dimensional central extension defined by a symmetric 2-cocycle.

    The new basis vector z is central and [x, y]_new = [x, y] + phi(x, y) z.
    Raises NotACocycleError naming a violated triple if d(phi) != 0.
    """
    space = phi.space
    if space.flavor != "symmetric" or space.degree != 2 or space.module.dim != 1:
        raise ValueError("central extensions need a symmetric 2-cochain with trivial coefficients")
    if space.algebra != algebra:
        raise ValueError("cocycle is over a different algebra")
    image = delta(phi)
    if not image.is_zero():
        (tpl, _), _ = image.items()[0]
        names = tuple(algebra.basis_names[t] for t in tpl)
        raise NotACocycleError(f"d(phi) is nonzero on the arguments {names}")
    d = algebra.dim
    z_name = "z"
    while z_name in algebra.basis_names:
        z_name += "z"
    brackets = {p: dict(v) for p, v in algebra.brackets.items()}
    for (pair, _), bits in phi.items():
        brackets.setdefault(pair, {})[d] = bits
    return AlgebraPresentation(
        algebra.field, d + 1, list(algebra.basis_names) + [z_name], brackets
    )
