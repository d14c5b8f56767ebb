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
`cup` runs over pairs of nonzero lanes of the two packed factors and
keeps those whose multiplicities share no bit.

`ring_table` assembles the products of all class representatives up to
a degree bound into a multiplication table with stable labels.
"""

from __future__ import annotations

from collections import Counter

from .algebra import AlgebraPresentation, trivial_module
from .cochain import Cochain, cochain_space
from .cohomology import CohomologyResult, cohomology
from .field import scalar_to_hex


def _check_trivial_scalar(phi: Cochain) -> None:
    space = phi.space
    if space.flavor != "symmetric":
        raise ValueError("cup products are defined on symmetric cochains")
    if space.module.dim != 1 or space.module.packed_action()[0]:
        raise ValueError("cup products need trivial one-dimensional coefficients")


def cup(phi: Cochain, psi: Cochain) -> Cochain:
    """The cup product of two symmetric cochains with trivial coefficients."""
    _check_trivial_scalar(phi)
    _check_trivial_scalar(psi)
    sa, sb = phi.space, psi.space
    if sa.algebra != sb.algebra or sa.module != sb.module:
        raise ValueError("cup factors live over different algebras or modules")
    f = sa.algebra.field
    target = cochain_space(sa.algebra, sa.module, sa.degree + sb.degree, "symmetric")
    right = [(tpl, Counter(tpl), y) for (tpl, _), y in psi.items()]
    bits = 0
    for (left, _), x in phi.items():
        mult = Counter(left)
        for tpl, other, y in right:
            if all(a & other[t] == 0 for t, a in mult.items()):
                bits ^= f.mul(x, y) << (f.degree * target.read(left + tpl))
    return Cochain(target, bits)


def _position(label: str) -> tuple[int, int]:
    """(degree, index) of the label h{degree}_{index}: the order of a product key."""
    degree, _, index = label[1:].partition("_")
    return int(degree), int(index)


class RingTable:
    """Multiplication table of cohomology classes up to a degree bound.

    Classes in degree n are labeled h{n}_{i} in the order of the
    representative basis.  `products` maps an unordered label pair to
    the coordinates of the product, stored sparsely as label -> bits.
    """

    __slots__ = ("algebra", "max_degree", "results", "labels", "products", "defects")

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

    def dims(self) -> list[int]:
        return [r.dim_H for r in self.results]

    def product(self, left: str, right: str) -> dict[str, int]:
        """Coordinates of left * right; KeyError naming an unknown label or a degree off the table."""
        for label in (left, right):
            if not any(label in row for row in self.labels):
                raise KeyError(f"unknown class label {label!r}")
        key = (left, right) if _position(left) <= _position(right) else (right, left)
        if key not in self.products:
            degree = _position(left)[0] + _position(right)[0]
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
    triv = trivial_module(algebra)
    results = [cohomology(algebra, triv, n) for n in range(max_degree + 1)]
    labels = [
        [f"h{n}_{i}" for i in range(results[n].dim_H)] for n in range(max_degree + 1)
    ]
    by_label = {}
    for n, row in enumerate(labels):
        for i, lab in enumerate(row):
            by_label[lab] = results[n].representatives[i]
    products: dict[tuple[str, str], dict[str, int]] = {}
    defects: list[str] = []
    for na in range(max_degree + 1):
        for nb in range(na, max_degree + 1 - na):
            for ia, la in enumerate(labels[na]):
                for ib, lb in enumerate(labels[nb]):
                    if na == nb and ib < ia:
                        continue
                    prod = cup(by_label[la], by_label[lb])
                    coords = results[na + nb].class_coordinates(prod)
                    if coords is None:
                        defects.append(f"{la}*{lb} is not a cocycle")
                        coords = [0] * results[na + nb].dim_H
                    products[(la, lb)] = {
                        lab: bits
                        for lab, bits in zip(labels[na + nb], coords)
                        if bits
                    }
    return RingTable(algebra, max_degree, results, labels, products, defects)
