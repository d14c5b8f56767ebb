"""Arithmetic in the finite fields GF(2^k), k <= 16.

Field elements are polynomials over GF(2) encoded as integer bitmasks:
bit i holds the coefficient of x^i.  Arithmetic is exact; multiplication
reduces modulo a fixed irreducible polynomial of degree k, itself encoded
as a bitmask (so GF(4) with modulus x^2+x+1 is ``FiniteField(2, 0b111)``).

The field operations (`add`, `mul`, `inv`, ...) work directly on these
integer bit representations; every layer above passes elements as plain
ints and validates them with `check_bits` / `check_vector` where they enter.
"""

from __future__ import annotations

MAX_DEGREE = 16


class FieldError(ValueError):
    """Invalid field construction or use."""


def _is_int(value) -> bool:
    """An int that is not a bool: the one type of a dimension, an index or a field degree."""
    return isinstance(value, int) and not isinstance(value, bool)


def poly_degree(m: int) -> int:
    """Degree of a GF(2) polynomial bitmask (-1 for the zero polynomial)."""
    return m.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial division of a by b (b != 0)."""
    db = poly_degree(b)
    while True:
        da = poly_degree(a)
        if da < db:
            return a
        a ^= b << (da - db)


def find_factor(m: int) -> int | None:
    """A nontrivial GF(2)-polynomial factor of m, or None if m is irreducible.

    Trial division against every polynomial of degree 1..deg(m)//2.
    """
    k = poly_degree(m)
    if k < 1:
        return None
    for q in range(2, 1 << (k // 2 + 1)):
        if poly_mod(m, q) == 0:
            return q
    return None


def default_modulus(degree: int) -> int:
    """The irreducible polynomial of the given degree with smallest bitmask."""
    for m in range(1 << degree, 1 << (degree + 1)):
        if find_factor(m) is None:
            return m
    raise FieldError(f"no irreducible polynomial of degree {degree}")  # unreachable


def binom_mod2(a: int, b: int) -> int:
    """C(a, b) mod 2 for a, b >= 0, via the bit-subset test (b > a gives 0)."""
    if a < 0 or b < 0:
        raise ValueError(f"binom_mod2 needs nonnegative arguments, got ({a}, {b})")
    if b > a:
        return 0
    return 1 if (a & b) == b else 0


class FiniteField:
    """GF(2^degree) with a fixed irreducible modulus polynomial."""

    __slots__ = ("degree", "modulus", "order")

    def __init__(self, degree: int, modulus: int | None = None):
        if not (_is_int(degree) and 1 <= degree <= MAX_DEGREE):
            raise FieldError(f"field degree must be an int in 1..{MAX_DEGREE}, got {degree!r}")
        if not (modulus is None or _is_int(modulus)):
            raise FieldError(f"field modulus must be an int, got {modulus!r}")
        if modulus is None:
            modulus = default_modulus(degree)
        else:
            if poly_degree(modulus) != degree:
                raise FieldError(
                    f"modulus {modulus:#b} has degree {poly_degree(modulus)}, expected {degree}"
                )
            factor = find_factor(modulus)
            if factor is not None:
                raise FieldError(
                    f"modulus {modulus:#b} is reducible: divisible by {factor:#b}"
                )
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree

    # -- low-level ops on bit representations ------------------------------

    def check_bits(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise FieldError(f"{a} is not an element bitmask of {self}")
        return a

    def check_vector(self, vec, n: int) -> None:
        """ValueError unless vec has n entries; FieldError unless each is an element bitmask."""
        if len(vec) != n:
            raise ValueError(f"a vector of {len(vec)} entries where {n} are expected")
        if vec and not (0 <= min(vec) and max(vec) < self.order):
            for a in vec:
                self.check_bits(a)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a & b
        res = 0
        mod = self.modulus
        top = self.order
        while b:
            if b & 1:
                res ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return res

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        res = 1
        while e:
            if e & 1:
                res = self.mul(res, a)
            a = self.mul(a, a)
            e >>= 1
        return res

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if a == 1:
            return 1
        return self.pow(a, self.order - 2)

    def elements(self) -> range:
        return range(self.order)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"characteristic": 2, "degree": self.degree, "modulus": self.modulus}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteField":
        if data.get("characteristic", 2) != 2:
            raise FieldError(f"only characteristic 2 is supported, got {data}")
        return cls(data["degree"], data.get("modulus"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"FiniteField(2^{self.degree}, modulus={self.modulus:#b})"


def make_field(degree: int, modulus: int | None = None) -> FiniteField:
    """Construct GF(2^degree); without a modulus the smallest-bitmask irreducible is used."""
    return FiniteField(degree, modulus)


GF2 = make_field(1)


def scalar_to_hex(bits: int) -> str:
    """Lowercase hex serialization of a field element bit representation."""
    return format(bits, "x")


def scalar_from_hex(text: str, field: FiniteField) -> int:
    """Parse a hex serialization, hex digits only, validating membership in the field."""
    if not (isinstance(text, str) and text) or text.strip("0123456789abcdefABCDEF"):
        raise ValueError(f"{text!r} is not a hex numeral")
    return field.check_bits(int(text, 16))
