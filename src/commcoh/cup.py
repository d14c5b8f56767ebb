"""Cup product on symmetric cochains with trivial coefficients.

The product of a degree-p and a degree-q cochain is the degree-(p+q)
cochain whose value on sorted basis arguments sums, over all ways to
pick p of the p+q positions, the product of the two factors on the two
subsequences.  There are no signs in characteristic 2, so this is both
associative and commutative on the nose, satisfies the Leibniz rule
with respect to the differential, and therefore descends to classes.

On dual basis cochains this reads e*_A cup e*_B = prod_t C(a_t + b_t, a_t)
e*_{A+B}, with a_t and b_t the multiplicities of index t in the multisets
A and B.  By Lucas's theorem C(a + b, a) is odd exactly when a & b = 0, so
a term survives exactly when no multiplicity of A shares a bit with that
of B.  `cup` tests this with one AND: it codes each multiset as an int
that holds a_t in bits [w t, w (t+1)), with w the bit length of the
target degree, which bounds every multiplicity, and keeps a pair of
nonzero lanes of the two packed factors when their codes AND to zero.

`ring_table` assembles the products of all class representatives up to
a degree bound into a multiplication table with stable labels.
"""

from __future__ import annotations

from itertools import compress

from .algebra import AlgebraPresentation, trivial_module
from .cochain import Cochain, check_degree, cochain_space
from .cohomology import CohomologyResult, cohomology
from .field import scalar_to_hex


def _check_trivial_scalar(phi: Cochain) -> None:
    space = phi.space
    if space.flavor != "symmetric":
        raise ValueError("cup products are defined on symmetric cochains")
    if space.module.dim != 1 or space.module.acting:
        raise ValueError("cup products need trivial one-dimensional coefficients")


def cup(phi: Cochain, psi: Cochain) -> Cochain:
    """The cup product of two symmetric cochains with trivial coefficients."""
    _check_trivial_scalar(phi)
    _check_trivial_scalar(psi)
    sa, sb = phi.space, psi.space
    if sa.algebra != sb.algebra or sa.module != sb.module:
        raise ValueError("cup factors live over different algebras or modules")
    f = sa.algebra.field
    k = f.degree
    target = cochain_space(sa.algebra, sa.module, sa.degree + sb.degree, "symmetric")
    w = target.degree.bit_length()

    def coded(c: Cochain) -> list[tuple[tuple[int, ...], int, int]]:
        """(tuple, multiplicity code, coefficient) of each nonzero cell, read by `Cochain.items`."""
        return [(tpl, sum(1 << (w * t) for t in tpl), x) for (tpl, _), x in c.items()]

    right = coded(psi)
    bits = 0
    for left, code, x in coded(phi):
        for tpl, other, y in right:
            if not code & other:
                bits ^= f.mul(x, y) << (k * target.read(left + tpl))
    return Cochain(target, bits)


class RingTable:
    """Multiplication table of cohomology classes up to a degree bound.

    Classes in degree n are labeled h{n}_{i} in the order of the
    representative basis.  `products` maps an unordered label pair to
    the coordinates of the product, stored sparsely as label -> bits, and
    keys the pair in the order of the labels' (degree, index).
    """

    __slots__ = ("algebra", "max_degree", "results", "labels", "products", "defects", "_where")

    def __init__(
        self,
        algebra: AlgebraPresentation,
        max_degree: int,
        results: list[CohomologyResult],
        labels: list[list[str]],
        products: dict[tuple[str, str], dict[str, int]],
        defects: list[str],
    ):
        self.algebra = algebra
        self.max_degree = max_degree
        self.results = results
        self.labels = labels
        self.products = products
        self.defects = defects
        self._where = {lab: (n, i) for n, row in enumerate(labels) for i, lab in enumerate(row)}

    def dims(self) -> list[int]:
        return [r.dim_H for r in self.results]

    def product(self, left: str, right: str) -> dict[str, int]:
        """Coordinates of left * right; KeyError naming an unknown label or a degree off the table."""
        where = self._where
        for label in (left, right):
            if label not in where:
                raise KeyError(f"unknown class label {label!r}")
        key = (left, right) if where[left] <= where[right] else (right, left)
        if key not in self.products:
            degree = where[left][0] + where[right][0]
            raise KeyError(
                f"{left}*{right} lies in degree {degree} > max_degree {self.max_degree}"
            )
        return self.products[key]

    def to_json(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "dims": self.dims(),
            "labels": self.labels,
            "products": [
                {
                    "left": a,
                    "right": b,
                    "value": {
                        lab: scalar_to_hex(bits) for lab, bits in sorted(val.items())
                    },
                }
                for (a, b), val in sorted(self.products.items())
            ],
            "defects": list(self.defects),
        }


def ring_table(algebra: AlgebraPresentation, max_degree: int) -> RingTable:
    """Products of all symmetric class representatives in total degree <= max_degree."""
    check_degree(max_degree)
    triv = trivial_module(algebra)
    results = [cohomology(algebra, triv, n) for n in range(max_degree + 1)]
    labels = [
        [f"h{n}_{i}" for i in range(results[n].dim_H)] for n in range(max_degree + 1)
    ]
    products: dict[tuple[str, str], dict[str, int]] = {}
    defects: list[str] = []
    for na in range(max_degree + 1):
        for nb in range(na, max_degree + 1 - na):
            for ia, la in enumerate(labels[na]):
                for ib, lb in enumerate(labels[nb]):
                    if na == nb and ib < ia:
                        continue
                    prod = cup(results[na].representatives[ia], results[nb].representatives[ib])
                    coords = results[na + nb].class_coordinates(prod)
                    if coords is None:
                        defects.append(f"{la}*{lb} is not a cocycle")
                        coords = [0] * results[na + nb].dim_H
                    products[(la, lb)] = dict(compress(zip(labels[na + nb], coords), coords))
    return RingTable(algebra, max_degree, results, labels, products, defects)
