import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from commcoh.field import make_field
from commcoh.algebra import (
    AlgebraPresentation,
    abelian,
    adjoint_module,
    dim2,
    heisenberg,
    trivial_module,
)
from commcoh.cochain import cochain_space, delta
from commcoh.cohomology import cohomology
from commcoh import linalg
from commcoh.cup import cup, ring_table
from oracles import binom_mod2

GF2 = make_field(1)


def chi(algebra, p, q):
    # dual of a^p b^q in the symmetric space over the two-dimensional algebra
    sp = cochain_space(algebra, trivial_module(algebra), p + q)
    return sp.basis_cochain(sp.index(tuple([0] * p + [1] * q)))


# ------------------------------------------------------------------
# the closed multiplication formula on the two-dimensional algebra
# ------------------------------------------------------------------


def test_dim2_cup_closed_formula():
    a = dim2()
    for p in range(4):
        for q in range(4 - p):
            for r in range(3):
                for s in range(3 - r):
                    prod = cup(chi(a, p, q), chi(a, r, s))
                    coeff = binom_mod2(p + r, p) * binom_mod2(q + s, q)
                    want = {}
                    if coeff:
                        want[(tuple([0] * (p + r) + [1] * (q + s)), 0)] = coeff
                    assert dict(prod.items()) == want, (p, q, r, s)


def test_dim2_generators():
    # chi_{p,q} factors as chi_{p,0} cup chi_{0,q}, and chi_{p,0} is the
    # product of the chi_{2^k,0} over the binary digits of p
    a = dim2()
    for p in range(1, 5):
        for q in range(1, 4):
            assert cup(chi(a, p, 0), chi(a, 0, q)) == chi(a, p, q)
    for p in (3, 5, 6):
        acc = None
        for k in range(p.bit_length()):
            if (p >> k) & 1:
                factor = chi(a, 1 << k, 0)
                acc = factor if acc is None else cup(acc, factor)
        assert acc == chi(a, p, 0)


def test_central_binomial_squares_vanish():
    # chi_{p,q} cup chi_{p,q} carries C(2p,p) C(2q,q), which is even unless
    # p = q = 0, so every positive-degree square is zero here
    a = dim2()
    for p in range(3):
        for q in range(3):
            if p == q == 0:
                continue
            assert cup(chi(a, p, q), chi(a, p, q)).is_zero()


# ------------------------------------------------------------------
# the position-split definition, kept as the oracle of cup
# ------------------------------------------------------------------


def naive_cup(phi, psi):
    """The cup product straight from its definition: the value on sorted
    arguments sums, over every choice of p of the p+q positions, phi on the
    chosen subsequence times psi on the rest."""
    sa, sb = phi.space, psi.space
    f = sa.algebra.field
    p, q = sa.degree, sb.degree
    target = cochain_space(sa.algebra, sa.module, p + q)
    coeffs = [0] * target.dim
    for idx, tpl in enumerate(target.tuples):
        acc = 0
        for pos in itertools.combinations(range(p + q), p):
            chosen = set(pos)
            left = tuple(tpl[i] for i in pos)
            right = tuple(tpl[i] for i in range(p + q) if i not in chosen)
            acc = f.add(acc, f.mul(phi.value(left), psi.value(right)))
        coeffs[idx] = acc
    return target.cochain(coeffs)


def square_example(fld):
    # [x, x] = y: a symmetric bracket that is not a Lie bracket
    return AlgebraPresentation(fld, 3, ["x", "y", "w"], {(0, 0): {1: 1}})


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 3]),
    st.sampled_from([lambda fld: heisenberg(2, fld), square_example]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
def test_cup_matches_position_split_definition(k, build, p, q, density, seed):
    fld = make_field(k)
    a = build(fld)
    rng = random.Random(seed)

    def draw(n):
        sp = cochain_space(a, trivial_module(a), n)
        return sp.cochain(
            [rng.randrange(1, fld.order) if rng.random() < density else 0 for _ in range(sp.dim)]
        )

    phi, psi = draw(p), draw(q)
    assert cup(phi, psi) == naive_cup(phi, psi)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_cup_codes_multiplicities_at_the_width_boundaries(n, k):
    # cup codes a multiplicity in n.bit_length() bits, which grows past 3 and past 7;
    # the basis pairs of every split of n on a 2-dimensional algebra reach multiplicities
    # that would overflow into the next index's bits of a code only as wide as the other
    # factor's degree needs
    fld = make_field(k)
    a = abelian(2, fld)
    triv = trivial_module(a)
    top = fld.order - 1  # over GF(4) its square is another element, so f.mul is read
    for p in range(n + 1):
        left, right = cochain_space(a, triv, p), cochain_space(a, triv, n - p)
        for x in range(left.dim):
            for y in range(right.dim):
                phi, psi = left.basis_cochain(x).scale(top), right.basis_cochain(y).scale(top)
                assert cup(phi, psi) == naive_cup(phi, psi), (p, left.unindex(x), right.unindex(y))


# ------------------------------------------------------------------
# ring axioms on random cochains
# ------------------------------------------------------------------


def random_cochain(sp, rng):
    return sp.cochain([rng.randrange(2) for _ in range(sp.dim)])


def test_cup_bilinear_unit_commutative_associative():
    rng = random.Random(57)
    for a in (dim2(), heisenberg(1)):
        k = trivial_module(a)
        one = cochain_space(a, k, 0).basis_cochain(0)
        spaces = [cochain_space(a, k, n) for n in range(3)]
        for _ in range(6):
            f = random_cochain(spaces[rng.randrange(1, 3)], rng)
            g = random_cochain(spaces[rng.randrange(1, 3)], rng)
            h = random_cochain(spaces[1], rng)
            assert cup(one, f) == f
            assert cup(f, one) == f
            assert cup(f, g) == cup(g, f)
            assert cup(cup(f, g), h) == cup(f, cup(g, h))
            g2 = random_cochain(spaces[g.space.degree], rng)
            assert cup(f, g + g2) == cup(f, g) + cup(f, g2)


def test_cup_leibniz_rule():
    # d(f cup g) = df cup g + f cup dg, checked on cochains that are not
    # cocycles so both terms contribute
    rng = random.Random(58)
    for a in (dim2(), heisenberg(1)):
        k = trivial_module(a)
        for p in (1, 2):
            for q in (1, 2):
                for _ in range(4):
                    f = random_cochain(cochain_space(a, k, p), rng)
                    g = random_cochain(cochain_space(a, k, q), rng)
                    lhs = delta(cup(f, g))
                    rhs = cup(delta(f), g) + cup(f, delta(g))
                    assert lhs == rhs, (p, q)


def test_cup_descends_to_cohomology():
    a = heisenberg(1)
    k = trivial_module(a)
    for p in (1, 2):
        for q in (1, 2):
            rp = cohomology(a, k, p)
            rq = cohomology(a, k, q)
            target = cohomology(a, k, p + q)
            for f in rp.representatives:
                for g in rq.representatives:
                    prod = cup(f, g)
                    assert delta(prod).is_zero()
                    assert target.class_coordinates(prod) is not None
            # coboundary times cocycle lands in coboundaries
            for bvec in rp.coboundaries.basis:
                b = rp.space.cochain(list(bvec))
                for g in rq.representatives:
                    coords = target.class_coordinates(cup(b, g))
                    assert coords == [0] * target.dim_H


# ------------------------------------------------------------------
# the assembled ring table
# ------------------------------------------------------------------


def test_dim2_ring_table():
    table = ring_table(dim2(), 4)
    assert table.dims() == [1, 1, 2, 2, 3]
    assert table.defects == []
    assert table.labels[0] == ["h0_0"]
    # h0_0 is the unit
    for n in range(1, 4):
        for i in range(len(table.labels[n])):
            assert table.product("h0_0", f"h{n}_{i}") == {f"h{n}_{i}": 1}
    # the degree-1 generator squares to zero
    assert table.product("h1_0", "h1_0") == {}


def test_heisenberg_ring_table_consistency():
    table = ring_table(heisenberg(1), 4)
    assert table.dims() == [1, 2, 4, 6, 9]
    assert table.defects == []
    # products are symmetric in the stored key order
    for (left, right), val in table.products.items():
        assert table.product(left, right) == val
        assert table.product(right, left) == val


def test_product_orders_labels_by_degree_and_index():
    # degree 1 has eleven classes, so as strings "h1_10" sorts before "h1_2"
    table = ring_table(abelian(11), 2)
    assert table.dims() == [1, 11, 66]
    assert table.product("h1_2", "h1_10") == table.product("h1_10", "h1_2") != {}
    for (left, right), val in table.products.items():
        assert table.product(left, right) == val
        assert table.product(right, left) == val


def test_product_names_an_unknown_label_or_a_degree_off_the_table():
    table = ring_table(heisenberg(3), 3)
    with pytest.raises(KeyError, match="unknown class label 'h9_0'"):
        table.product("h1_0", "h9_0")
    with pytest.raises(KeyError, match=r"degree 4 > max_degree 3"):
        table.product("h2_2", "h2_10")


def test_ring_table_eliminates_once_per_degree_over_gf4(monkeypatch):
    # class_coordinates keeps its solver's elimination on the matrix, over every field
    calls = []
    rref = linalg._rref

    def counted(*args):
        calls.append(args[1:])
        return rref(*args)

    monkeypatch.setattr(linalg, "_rref", counted)
    table = ring_table(heisenberg(1, make_field(2)), 4)
    assert table.dims() == [1, 2, 4, 6, 9]
    assert table.defects == []
    assert 0 < len(calls) <= 20


def test_ring_table_transposes_only_for_images(monkeypatch):
    # solve tags the rows it is given, and class_coordinates hands it the rows of
    # [representatives; B], so the one transpose left is the column space of d_{n-1}
    callers = []
    transpose = linalg.Matrix.transpose

    def recorded(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return transpose(self)

    monkeypatch.setattr(linalg.Matrix, "transpose", recorded)
    table = ring_table(heisenberg(1, make_field(2)), 4)
    assert table.dims() == [1, 2, 4, 6, 9]
    assert callers and set(callers) == {"image_basis"}


def test_ring_table_to_json_shape():
    blob = ring_table(dim2(), 2).to_json()
    assert blob["dims"] == [1, 1, 2]
    assert set(blob) >= {"dims", "labels", "products"}


def test_cup_rejects_wrong_inputs():
    a = dim2()
    adj = adjoint_module(a)
    sp = cochain_space(a, adj, 1)
    with pytest.raises(ValueError):
        cup(sp.basis_cochain(0), sp.basis_cochain(0))
    k = trivial_module(a)
    alt = cochain_space(a, k, 2, "alternating")
    with pytest.raises(ValueError):
        cup(alt.basis_cochain(0), alt.basis_cochain(0))
