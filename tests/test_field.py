import math

import pytest
from hypothesis import given, strategies as st

from commcoh.field import (
    GF2,
    FieldError,
    FiniteField,
    default_modulus,
    find_factor,
    make_field,
    poly_degree,
    poly_mod,
    scalar_from_hex,
    scalar_to_hex,
)
from oracles import binom_mod2


# ------------------------------------------------------------------
# polynomial helpers and modulus selection
# ------------------------------------------------------------------

# lowest-bitmask irreducible polynomial for each degree, checked by hand
# against the usual tables (degree 8 is the x^8+x^4+x^3+x+1 polynomial)
KNOWN_MODULI = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


def test_default_moduli_match_table():
    for k, m in KNOWN_MODULI.items():
        assert default_modulus(k) == m


def test_default_moduli_are_irreducible():
    for k in range(1, 11):
        m = default_modulus(k)
        assert poly_degree(m) == k
        assert find_factor(m) is None


def test_find_factor_on_reducible():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    assert find_factor(0b101) == 0b11
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    f = find_factor(0b10101)
    assert f is not None and poly_mod(0b10101, f) == 0


def test_poly_mod_degree_drop():
    for a in range(1, 256):
        for m in (0b111, 0b1011):
            r = poly_mod(a, m)
            assert poly_degree(r) < poly_degree(m)


# ------------------------------------------------------------------
# field arithmetic
# ------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_field_axioms_exhaustive(k):
    f = make_field(k)
    els = list(f.elements())
    assert len(els) == 2**k
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, a) == 0  # characteristic 2
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_inverses(k):
    f = make_field(k)
    for a in range(1, f.order):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_gf4_generator_square():
    # in GF(4) with modulus x^2+x+1 the class of x satisfies x^2 = x + 1
    f = make_field(2)
    x = 0b10
    assert f.mul(x, x) == 0b11
    assert f.pow(x, 3) == 1


def test_frobenius_is_additive():
    for k in (2, 3, 4, 6):
        f = make_field(k)
        for a in f.elements():
            for b in (1, 3, 5, f.order - 1):
                lhs = f.pow(f.add(a, b), 2)
                rhs = f.add(f.pow(a, 2), f.pow(b, 2))
                assert lhs == rhs


def test_multiplicative_order_divides_group_order():
    f = make_field(4)
    for a in range(1, f.order):
        assert f.pow(a, f.order - 1) == 1


def test_check_bits_rejects_out_of_range():
    f = make_field(3)
    with pytest.raises(FieldError):
        f.check_bits(8)
    with pytest.raises(FieldError):
        f.check_bits(-1)


def test_bools_and_floats_are_not_field_elements():
    # True and 1.0 compare equal to 1, so a range test alone lets them through
    f = make_field(3)
    for bad in (True, False, 1.5, 1.0):
        with pytest.raises(FieldError):
            f.check_bits(bad)
        for vec in ([bad], [0, bad, 7], [bad, 1, 0]):
            with pytest.raises(FieldError, match="not an element bitmask"):
                f.check_vector(vec, len(vec))
    f.check_vector([0, 1, 7], 3)
    assert f.check_bits(7) == 7


def test_degree_cap():
    with pytest.raises(FieldError):
        make_field(17)
    with pytest.raises(FieldError):
        make_field(0)


def test_degree_and_modulus_must_be_ints():
    # a bool is not an int here: GF(2^True) was once built and reported as degree true
    for degree in (True, 2.0, "2", None):
        with pytest.raises(FieldError, match="field degree must be an int"):
            FiniteField(degree)
    for modulus in (True, 7.0, "7"):
        with pytest.raises(FieldError, match="field modulus must be an int"):
            FiniteField(2, modulus)
    with pytest.raises(FieldError, match="field degree"):
        FiniteField.from_json({"characteristic": 2, "degree": True, "modulus": 2})
    assert FiniteField(2, 0b111) == make_field(2)


def test_field_equality_is_content_based():
    assert make_field(3) == make_field(3)
    assert make_field(3) != make_field(4)
    assert GF2 == make_field(1)
    assert len({make_field(2), make_field(2), make_field(3)}) == 2


def test_field_json_roundtrip():
    for k in (1, 2, 5):
        f = make_field(k)
        assert FiniteField.from_json(f.to_json()) == f


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf16_associativity_random(a, b, c):
    f = make_field(4)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@given(st.integers(1, 255))
def test_gf256_inverse_roundtrip(a):
    f = make_field(8)
    assert f.mul(a, f.inv(a)) == 1


# ------------------------------------------------------------------
# Lucas bit test for binomials mod 2
# ------------------------------------------------------------------


def test_binom_mod2_against_math_comb():
    for a in range(64):
        for b in range(a + 1):
            assert binom_mod2(a, b) == math.comb(a, b) % 2
        # out-of-range upper index gives zero
        assert binom_mod2(a, a + 1) == 0


def test_binom_mod2_rejects_negative():
    with pytest.raises(ValueError):
        binom_mod2(-1, 0)
    with pytest.raises(ValueError):
        binom_mod2(3, -2)


def test_binom_central_even():
    # C(2m, m) is even for every m >= 1; this drives vanishing squares later
    for m in range(1, 40):
        assert binom_mod2(2 * m, m) == 0


# ------------------------------------------------------------------
# hex serialization
# ------------------------------------------------------------------


def test_scalar_hex_roundtrip():
    f = make_field(4)
    for bits in f.elements():
        text = scalar_to_hex(bits)
        assert text == format(bits, "x")
        assert scalar_from_hex(text, f) == bits


def test_scalar_from_hex_validates():
    with pytest.raises(FieldError):
        scalar_from_hex("ff", make_field(2))


def test_scalar_from_hex_takes_hex_digits_only():
    f = make_field(8)
    texts = ("0", "00", "a", "A", "fF", "1b")
    assert [scalar_from_hex(t, f) for t in texts] == [0, 0, 10, 10, 255, 27]
    # Python's other integer spellings, which int(text, 16) accepts
    for text in (" 1", "1 ", "0x1", "1_0", "+1", "-1", "", "\uff11", 1, None):
        with pytest.raises(ValueError, match="is not a hex numeral"):
            scalar_from_hex(text, f)
