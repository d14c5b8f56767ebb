import contextvars
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from commcoh.field import FieldError, make_field
from commcoh.algebra import (
    AlgebraPresentation,
    abelian,
    adjoint_module,
    dim2,
    dual_module,
    heisenberg,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from commcoh.cochain import (
    FLAVORS,
    Cochain,
    CochainSpace,
    DegreeCapError,
    cochain_space,
    contract,
    degree_cap_override,
    delta,
    differential_matrix,
    evaluate,
    flavor_dim,
    include_cochain,
    inclusion_matrix,
    lie_derivative,
    _differential_matrix_cached,
    _source_image_cached,
)
from commcoh.linalg import SizeCapError, entry_cap_override, nonzeros

GF2 = make_field(1)


def square_example():
    return AlgebraPresentation(GF2, 3, ["x", "y", "w"], {(0, 0): {1: 1}})


# ------------------------------------------------------------------
# dimensions and indexing
# ------------------------------------------------------------------


def test_flavor_dims():
    for d in range(1, 6):
        for n in range(5):
            for m in (1, 2, 3):
                assert flavor_dim(d, n, m, "symmetric") == math.comb(d + n - 1, n) * m
                assert flavor_dim(d, n, m, "alternating") == math.comb(d, n) * m
                assert flavor_dim(d, n, m, "tensor") == d**n * m


def test_degree_zero_spaces():
    a = heisenberg(1)
    m = adjoint_module(a)
    for flavor in ("symmetric", "alternating", "tensor"):
        sp = cochain_space(a, m, 0, flavor)
        assert sp.dim == 3
        assert sp.tuples == ((),)


def test_space_tuples_are_lex_sorted():
    a = zassenhaus_e(2)
    m = trivial_module(a)
    sp = cochain_space(a, m, 3)
    assert list(sp.tuples) == sorted(sp.tuples)
    for i, tpl in enumerate(sp.tuples):
        assert sp.tuple_index(tpl) == i
        assert sp.unindex(i) == (tpl, 0)


def test_labels():
    a = dim2()
    sp = cochain_space(a, trivial_module(a), 2)
    assert sp.labels() == ["(a,a)", "(a,b)", "(b,b)"]
    sp2 = cochain_space(a, adjoint_module(a), 1)
    assert sp2.labels() == ["(a)|0", "(a)|1", "(b)|0", "(b)|1"]
    sp0 = cochain_space(a, trivial_module(a), 0)
    assert sp0.labels() == ["()"]


def test_from_items_roundtrip():
    a = heisenberg(1)
    m = adjoint_module(a)
    sp = cochain_space(a, m, 2)
    items = {((0, 1), 2): 1, ((1, 1), 0): 1}
    phi = sp.from_items(items)
    assert dict(phi.items()) == items
    assert phi.value((0, 1), 2) == 1
    assert phi.value((0, 1), 1) == 0
    assert phi.value_vector((1, 1)) == [1, 0, 0]


def test_cochain_rejects_coefficients_outside_the_field():
    a = heisenberg(1)
    sp = cochain_space(a, trivial_module(a), 1)
    with pytest.raises(FieldError):
        sp.cochain([5, 0, 0])
    with pytest.raises(FieldError):
        sp.cochain([0, -1, 0])
    with pytest.raises(FieldError):
        sp.cochain([1, 0, 1]).scale(2)
    # a bool or a float is no field element, though True == 1.0 == 1
    for bad in ([1.0, 0, 0], [True, 0, 0], [0, 0, False]):
        with pytest.raises(FieldError):
            sp.cochain(bad)
    with pytest.raises(FieldError):
        sp.cochain([1, 0, 1]).scale(True)
    assert sp.cochain([1, 0, 1]).coeffs == (1, 0, 1)


def test_cochain_constructor_rejects_coefficients_outside_the_field():
    a = heisenberg(1, make_field(2))
    sp = cochain_space(a, trivial_module(a), 1)
    with pytest.raises(FieldError):
        sp.cochain((9, 0, 0))
    with pytest.raises(FieldError):
        sp.from_items({((0,), 0): 4})
    assert sp.cochain((3, 0, 2)).coeffs == (3, 0, 2)


def test_cochain_is_built_from_its_packed_row():
    for f in (GF2, make_field(2)):
        a = heisenberg(1, f)
        sp = cochain_space(a, trivial_module(a), 1)
        top = 1 << (f.degree * sp.dim)  # the lowest bit of lane dim
        assert Cochain(sp, top - 1).coeffs == (f.order - 1,) * 3
        assert Cochain(sp, 0) == sp.zero()
        for bad in (-1, top, top | 1, True, False, (1, 0, 0)):
            with pytest.raises(ValueError, match="not a packed row"):
                Cochain(sp, bad)
        for coeffs in ([1, 0], [1, 0, 0, 0], ()):
            with pytest.raises(ValueError, match=f"{len(coeffs)} entries where 3 are expected"):
                sp.cochain(coeffs)


def string_scan(bits, k):
    """(lane, value) of each nonzero k-bit lane of a packed row, lanes ascending,
    by one scan of its binary string: an independent oracle for linalg's `nonzeros`."""
    digits = format(bits, "b")[::-1]  # digits[b] is bit b
    out = []
    b = digits.find("1")
    while b >= 0:
        j = b // k
        out.append((j, int(digits[k * j : k * j + k][::-1], 2)))
        b = digits.find("1", k * j + k)
    return out


@pytest.mark.parametrize("degree", [1, 2, 3, 8])
def test_nonzero_lanes_agree_with_a_binary_string_scan(degree):
    f = make_field(degree)
    a = heisenberg(1, f)
    space = cochain_space(a, adjoint_module(a), 3, "tensor")  # 81 lanes
    k, n = f.degree, space.dim
    rng = random.Random(degree)

    def random_row(density):
        return sum(rng.randrange(1, f.order) << (k * j) for j in range(n) if rng.random() < density)

    top = rng.randrange(1, f.order) << (k * (n - 1))
    rows = [0, top, 1 << (k * n - 1), random_row(0.05), random_row(0.9), (1 << k * n) - 1]
    rows += [random_row(rng.random()) for _ in range(20)]
    for bits in rows:
        want = string_scan(bits, k)
        assert nonzeros(bits, k) == want
        phi = Cochain(space, bits)
        assert phi.items() == [(space.unindex(j), c) for j, c in want]
        assert repr(phi).endswith(f", {len(want)} nonzero)")
    assert string_scan(top, k) == [(n - 1, top >> (k * (n - 1)))]


@pytest.mark.parametrize("degree", [1, 2])
def test_dense_arguments_of_the_cochain_operators_are_checked(degree):
    # read as far as it goes, or with a non-element multiplied in, a malformed
    # vector would give a wrong answer silently, so it must raise
    f = make_field(degree)
    a = heisenberg(1, f)
    bad = f.order + 1
    phi = cochain_space(a, trivial_module(a), 1).basis_cochain(1)
    psi = cochain_space(a, trivial_module(a), 2).basis_cochain(0)
    for wrong in ([0, 1], [0, 1, 0, 1], [1]):
        message = f"{len(wrong)} entries where 3 are expected"
        with pytest.raises(ValueError, match=message):
            evaluate(phi, [wrong])
        with pytest.raises(ValueError, match=message):
            contract(wrong, psi)
        with pytest.raises(ValueError, match=message):
            lie_derivative(wrong, psi)
    for vec in ([0, bad, 0], [bad, 0, 0], [0, 0, -1]):
        with pytest.raises(FieldError):
            evaluate(phi, [vec])
        with pytest.raises(FieldError):
            contract(vec, psi)
        with pytest.raises(FieldError):
            lie_derivative(vec, psi)
    assert evaluate(phi, [[0, 1, 0]]) == [1]
    assert contract([1, 0, 0], psi).coeffs == (1, 0, 0)


@st.composite
def packed_and_dense(draw):
    """(space, a, b, c): a cochain space over GF(2), GF(4) or GF(8) with trivial or
    adjoint coefficients, two coefficient lists biased to 0, and a scalar."""
    f = make_field(draw(st.integers(1, 3)))
    algebra = draw(st.sampled_from([heisenberg(1, f), dim2(f)]))
    module = draw(st.sampled_from([trivial_module, adjoint_module]))(algebra)
    space = cochain_space(algebra, module, draw(st.integers(0, 3)), draw(st.sampled_from(FLAVORS)))
    entry = st.one_of(st.just(0), st.integers(0, f.order - 1))
    coeffs = st.lists(entry, min_size=space.dim, max_size=space.dim)
    return space, draw(coeffs), draw(coeffs), draw(st.integers(0, f.order - 1))


@settings(max_examples=150, deadline=None)
@given(packed_and_dense())
def test_packed_cochain_agrees_with_its_coefficients(case):
    space, a, b, c = case
    f, m = space.algebra.field, space.module.dim
    phi, psi = space.cochain(a), space.cochain(b)
    assert phi.coeffs == tuple(a)
    assert (phi + psi).coeffs == tuple(f.add(x, y) for x, y in zip(a, b))
    assert phi.scale(c).coeffs == tuple(f.mul(c, x) for x in a)
    assert phi.is_zero() == (not any(a))
    assert phi.items() == [(space.unindex(j), x) for j, x in enumerate(a) if x]
    for args in itertools.product(range(space.algebra.dim), repeat=space.degree):
        rank = space.read(args)
        want = [0] * m if rank is None else a[rank * m : rank * m + m]
        assert phi.value_vector(args) == want
        assert [phi.value(args, mu) for mu in range(m)] == want
    assert space.from_items(dict(phi.items())) == phi == space.cochain(phi.coeffs)


def test_degree_cap():
    a = dim2()
    m = trivial_module(a)
    with degree_cap_override(3):
        cochain_space(a, m, 3)
        with pytest.raises(DegreeCapError):
            cochain_space(a, m, 4)
    cochain_space(a, m, 4)


def test_degree_cap_is_per_context():
    a = dim2()
    m = trivial_module(a)
    with degree_cap_override(20):
        cochain_space(a, m, 9)
        # a fresh context, such as a new thread's, starts from the default cap
        with pytest.raises(DegreeCapError):
            contextvars.Context().run(cochain_space, a, m, 9)


def test_space_tuples_respect_the_entry_cap():
    a = dim2()
    space = CochainSpace(a, trivial_module(a), 5, "symmetric")  # dimension 6
    with entry_cap_override(5):
        with pytest.raises(SizeCapError, match="6 x 1"):
            space.tuples
    assert len(space.tuples) == 6


def test_tensor_ranks_are_base_d_numerals():
    a = zassenhaus_e(2)
    sp = cochain_space(a, adjoint_module(a), 3, "tensor")
    for rank, tpl in enumerate(itertools.product(range(3), repeat=3)):
        assert sp.tuple_index(tpl) == rank
        assert sp.unindex(sp.index(tpl, 2)) == (tpl, 2)
    for bad in [(0, 1), (0, 1, 2, 0), (0, 3, 1), (0, -1, 1)]:
        with pytest.raises(KeyError):
            sp.index(bad)
    assert sp._index is None and sp._tuples is None
    # listed on request, a tensor space's tuples are not kept
    assert sp.tuples == tuple(itertools.product(range(3), repeat=3))
    assert sp._tuples is None


def test_from_items_checks_the_entry_cap_before_it_allocates():
    a = heisenberg(1)
    space = CochainSpace(a, trivial_module(a), 5, "tensor")  # dimension 243
    with entry_cap_override(100):
        with pytest.raises(SizeCapError, match="243 x 1"):
            space.from_items({((0,) * 5, 0): 1})
    assert space.from_items({((2,) * 5, 0): 1}).coeffs[-1] == 1
    assert space._index is None and space._tuples is None


def test_zero_and_basis_cochain_check_the_entry_cap_and_the_index():
    a = heisenberg(1)
    space = CochainSpace(a, trivial_module(a), 5, "tensor")  # dimension 243
    with entry_cap_override(100):
        with pytest.raises(SizeCapError, match="243 x 1"):
            space.zero()
        with pytest.raises(SizeCapError, match="243 x 1"):
            space.basis_cochain(0)
    for bad in (-1, 243):
        with pytest.raises(ValueError, match="not in range"):
            space.basis_cochain(bad)
    assert space.zero().is_zero()
    assert space.basis_cochain(242).items() == [(((2,) * 5, 0), 1)]
    assert space.basis_cochain(0).items() == [(((0,) * 5, 0), 1)]


def test_a_module_index_outside_the_module_is_not_read_or_written():
    a = heisenberg(1)
    sp = cochain_space(a, adjoint_module(a), 2)  # module dimension 3
    phi = sp.from_items({((0, 2), 0): 1, ((0, 1), 2): 1})
    for mu in (3, -1):
        with pytest.raises(KeyError):
            phi.value((0, 1), mu)
        with pytest.raises(KeyError):
            sp.index((0, 1), mu)
        with pytest.raises(KeyError):
            sp.from_items({((0, 1), mu): 1})
    assert [phi.value((0, 1), mu) for mu in range(3)] == [0, 0, 1]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_every_flavor_reads_by_its_rule(flavor):
    rng = random.Random(41)
    for a in (heisenberg(1), square_example(), zassenhaus_e(2)):
        d = a.dim
        sp = cochain_space(a, adjoint_module(a), 3, flavor)
        phi = sp.cochain([rng.randrange(2) for _ in range(sp.dim)])
        for rank, args in enumerate(itertools.product(range(d), repeat=3)):
            key = tuple(sorted(args))
            got = phi.value_vector(args)
            if flavor == "tensor":
                # in order: the rank of itertools.product, not of the sorted tuple
                assert sp.read(args) == rank
                assert got == list(phi.coeffs[rank * d : rank * d + d])
            elif flavor == "alternating" and len(set(args)) < 3:
                assert sp.read(args) is None and got == [0] * d
            else:
                # a permuted tuple reads as the sorted one
                assert sp.read(args) == sp.tuple_index(key)
                assert got == phi.value_vector(key)
                assert [phi.value(args, mu) for mu in range(d)] == got


@pytest.mark.parametrize("flavor", FLAVORS)
def test_every_flavor_refuses_arguments_off_the_basis(flavor):
    a = heisenberg(1)
    sp = cochain_space(a, trivial_module(a), 2, flavor)
    phi = sp.zero()
    for bad in [(0,), (0, 1, 2), (0, 3), (3, 0), (-1, 1), (3, 3), (5, 5), (-1, -1)]:
        with pytest.raises(KeyError):
            sp.read(bad)
        with pytest.raises(KeyError):
            phi.value(bad)
        with pytest.raises(KeyError):
            phi.value_vector(bad)



# ------------------------------------------------------------------
# an independent row-side differential, used as the oracle
# ------------------------------------------------------------------


def naive_delta_eval(phi, args, flavor):
    """Evaluate d(phi) on explicit arguments straight from the defining sum.

    For the symmetric and alternating flavors the bracket [x_p, x_q] goes in
    front and both originals drop out; for the tensor flavor it replaces
    position p and position q drops out.  The module term applies x_p to the
    cochain with position p removed, in every flavor.
    """
    space = phi.space
    a = space.algebra
    mod = space.module
    f = a.field
    k = len(args)
    out = [0] * mod.dim
    for p in range(k):
        rest = args[:p] + args[p + 1 :]
        acted = mod.act(args[p], evaluate(phi, rest))
        out = [f.add(u, v) for u, v in zip(out, acted)]
    for p in range(k):
        for q in range(p + 1, k):
            br = a.bracket(args[p], args[q])
            if flavor == "tensor":
                new_args = list(args)
                new_args[p] = br
                del new_args[q]
            else:
                new_args = [br] + [args[r] for r in range(k) if r != p and r != q]
            val = evaluate(phi, new_args)
            out = [f.add(u, v) for u, v in zip(out, val)]
    return out


@pytest.mark.parametrize("flavor", ["symmetric", "alternating", "tensor"])
def test_delta_matches_naive_formula(flavor):
    rng = random.Random(31)
    cases = [
        (heisenberg(1), trivial_module),
        (heisenberg(1), adjoint_module),
        (square_example(), adjoint_module),
        (zassenhaus_e(2), dual_module),
        # a Lie algebra over GF(4) with structure constants 1, 2 and 3
        (zassenhaus_f(2), adjoint_module),
    ]
    for algebra, make_mod in cases:
        # a square [x, x] reaches an alternating d(phi) only through repeated
        # arguments, so off Lie algebras that flavor is checked on distinct basis vectors
        distinct = flavor == "alternating" and not algebra.is_lie()
        mod = make_mod(algebra)
        d = algebra.dim
        q = algebra.field.order
        for n in range(0, 3):
            sp = cochain_space(algebra, mod, n, flavor)
            for _ in range(4):
                phi = sp.cochain([rng.randrange(q) for _ in range(sp.dim)])
                dphi = delta(phi)
                for _ in range(6):
                    if distinct:
                        args = [[int(t == i) for t in range(d)] for i in rng.sample(range(d), n + 1)]
                    else:
                        args = [[rng.randrange(q) for _ in range(d)] for _ in range(n + 1)]
                    assert evaluate(dphi, args) == naive_delta_eval(phi, args, flavor)


@pytest.mark.parametrize("flavor", ["symmetric", "alternating", "tensor"])
def test_differential_matrix_matches_naive_formula(flavor):
    """Each assembled matrix against the defining sum, over GF(2), GF(4) and GF(8)."""
    rng = random.Random(38)
    cases = [
        (heisenberg(1), trivial_module),
        (heisenberg(1), adjoint_module),
        (square_example(), adjoint_module),
        (zassenhaus_e(2), dual_module),
        (zassenhaus_f(2), adjoint_module),
    ]
    if flavor == "tensor":
        # dimension 7 over GF(8): the target ranks are base-7 numerals of up to 3 digits
        cases.append((zassenhaus_f(3), adjoint_module))
    for algebra, make_mod in cases:
        distinct = flavor == "alternating" and not algebra.is_lie()
        mod = make_mod(algebra)
        d = algebra.dim
        q = algebra.field.order
        for n in range(0, 3):
            sp = cochain_space(algebra, mod, n, flavor)
            up = cochain_space(algebra, mod, n + 1, flavor)
            mat = differential_matrix(algebra, mod, n, flavor)
            for _ in range(3):
                phi = sp.cochain([rng.randrange(q) for _ in range(sp.dim)])
                dphi = up.cochain(mat.mul_vec(list(phi.coeffs)))
                for _ in range(4):
                    if distinct:
                        args = [[int(t == i) for t in range(d)] for i in rng.sample(range(d), n + 1)]
                    else:
                        args = [[rng.randrange(q) for _ in range(d)] for _ in range(n + 1)]
                    assert evaluate(dphi, args) == naive_delta_eval(phi, args, flavor)


def test_differential_matrix_does_not_fill_the_source_image_cache():
    # a presentation no other test uses, so no matrix of it is cached yet
    a = AlgebraPresentation(make_field(2), 3, ["p0", "p1", "p2"], {(1, 2): {0: 3}})
    before = _source_image_cached.cache_info()
    for flavor in FLAVORS:
        for n in range(3):
            differential_matrix(a, adjoint_module(a), n, flavor)
    assert _source_image_cached.cache_info() == before


def test_delta_agrees_with_matrix():
    """delta against the matrix over GF(2), GF(4) and GF(8), trivial and adjoint."""
    rng = random.Random(32)
    # (algebra, module, tensor degrees): zassenhaus_f(3) has structure constants in GF(8)
    cases = [
        (heisenberg(1), adjoint_module, 5),
        (zassenhaus_f(2), trivial_module, 5),
        (zassenhaus_f(2), adjoint_module, 4),
        (heisenberg(1, make_field(3)), adjoint_module, 3),
        (zassenhaus_f(3), trivial_module, 3),
        (zassenhaus_f(3), adjoint_module, 3),
    ]
    for a, make_mod, tensor_degrees in cases:
        m = make_mod(a)
        for flavor in FLAVORS:
            # heisenberg(1)'s tensor d_4 (2187 x 729) is four shifts deep and over the default cap
            for n in range(tensor_degrees if flavor == "tensor" else 3):
                sp = cochain_space(a, m, n, flavor)
                with entry_cap_override(2_000_000):
                    mat = differential_matrix(a, m, n, flavor)
                for _ in range(5):
                    phi = sp.cochain([rng.randrange(a.field.order) for _ in range(sp.dim)])
                    assert list(delta(phi).coeffs) == mat.mul_vec(list(phi.coeffs))


def test_tensor_differentials_match_naive_formula_where_shifts_nest():
    """Tensor d_3 and d_4, each row built from the row below it, against the defining sum."""
    rng = random.Random(39)
    cases = [
        (heisenberg(1), adjoint_module),
        (square_example(), adjoint_module),
        (zassenhaus_e(2), dual_module),
        (zassenhaus_f(2), adjoint_module),
    ]
    for algebra, make_mod in cases:
        mod = make_mod(algebra)
        d = algebra.dim
        q = algebra.field.order
        for n in (3, 4):
            sp = cochain_space(algebra, mod, n, "tensor")
            up = cochain_space(algebra, mod, n + 1, "tensor")
            with entry_cap_override(2_000_000):
                mat = differential_matrix(algebra, mod, n, "tensor")
            for _ in range(2):
                phi = sp.cochain([rng.randrange(q) for _ in range(sp.dim)])
                dphi = up.cochain(mat.mul_vec(list(phi.coeffs)))
                assert delta(phi) == dphi
                for _ in range(3):
                    args = [[rng.randrange(q) for _ in range(d)] for _ in range(n + 1)]
                    assert evaluate(dphi, args) == naive_delta_eval(phi, args, "tensor")


def test_tensor_matrix_built_cold_equals_the_one_built_upward():
    cases = [
        (heisenberg(1), adjoint_module),
        (square_example(), adjoint_module),
        (zassenhaus_f(2), adjoint_module),
    ]
    with entry_cap_override(2_000_000):
        for algebra, make_mod in cases:
            mod = make_mod(algebra)
            _differential_matrix_cached.cache_clear()
            cold = differential_matrix(algebra, mod, 4, "tensor")
            _differential_matrix_cached.cache_clear()
            for n in range(4):
                differential_matrix(algebra, mod, n, "tensor")
            assert differential_matrix(algebra, mod, 4, "tensor") == cold


def test_tensor_matrix_of_a_high_degree_does_not_recurse():
    a = abelian(1)
    _differential_matrix_cached.cache_clear()
    with degree_cap_override(2000):
        mat = differential_matrix(a, trivial_module(a), 1500, "tensor")
    assert (mat.nrows, mat.ncols, mat.is_zero()) == (1, 1, True)


def test_tensor_matrices_list_no_tuples(monkeypatch):
    listed = CochainSpace.tuples

    def guarded(self):
        if self.flavor == "tensor":
            raise AssertionError("tensor space listed")
        return listed.fget(self)

    a = heisenberg(1)
    m = adjoint_module(a)
    with monkeypatch.context() as patch, entry_cap_override(2_000_000):
        patch.setattr(CochainSpace, "tuples", property(guarded))
        _differential_matrix_cached.cache_clear()
        shapes = [differential_matrix(a, m, n, "tensor").nrows for n in range(6)]
        # nor does the sparse path: ranking, reading and applying d
        sp = cochain_space(a, m, 3, "tensor")
        phi = sp.from_items({((0, 1, 2), 1): 1, ((2, 2, 0), 0): 1})
        assert sp.index((2, 2, 0), 0) == 24 * 3
        assert phi.value((0, 1, 2), 1) == 1 and phi.value((2, 2, 1), 0) == 0
        d_3 = differential_matrix(a, m, 3, "tensor")
        assert list(delta(phi).coeffs) == d_3.mul_vec(list(phi.coeffs))
        # nor do the upward inclusions into the tensor flavor, matrix or cochain
        for src in ("symmetric", "alternating"):
            inc = inclusion_matrix(a, m, 3, src, "tensor")
            psi = cochain_space(a, m, 3, src).from_items({((0, 1, 2), 1): 1, ((0, 1, 2), 2): 1})
            assert (inc.nrows, inc.ncols) == (sp.dim, psi.space.dim)
            assert list(include_cochain(psi, "tensor").coeffs) == inc.mul_vec(list(psi.coeffs))
        assert include_cochain(psi, "tensor").value((2, 0, 1), 1) == 1
    assert shapes == [3 ** (n + 2) for n in range(6)]
    assert sp._tuples is None


def test_tensor_delta_of_a_high_degree_basis_cochain():
    # on heisenberg(1), [b, c] = a is the only bracket, so d of the cochain dual
    # to (a, ..., a) in degree 11 is 1 on the tuples of ten a's and one (b, c)
    # or (c, b) pair: 2 * C(12, 2) of them, found without listing 3^12 tuples
    a = heisenberg(1)
    with degree_cap_override(12):
        sp = cochain_space(a, trivial_module(a), 11, "tensor")
        items = delta(sp.basis_cochain(sp.index((0,) * 11))).items()
    assert len(items) == 2 * math.comb(12, 2)
    assert all(sorted(tpl) == [0] * 10 + [1, 2] and bits == 1 for (tpl, _), bits in items)


# ------------------------------------------------------------------
# frozen differentials on the two worked examples
# ------------------------------------------------------------------


def chi_dim2(p, q):
    a = dim2()
    sp = cochain_space(a, trivial_module(a), p + q)
    return sp.basis_cochain(sp.index(tuple([0] * p + [1] * q)))


def test_dim2_differential_closed_form():
    # d(chi_pq) = p(q+1) chi_(p, q+1): the only bracket is [a,b] = a
    for p in range(5):
        for q in range(5 - p):
            got = delta(chi_dim2(p, q))
            coeff = (p * (q + 1)) % 2
            want = chi_dim2(p, q + 1).scale(coeff)
            assert got == want, (p, q)


def heis_chi(alpha, beta, gamma):
    a = heisenberg(1)
    sp = cochain_space(a, trivial_module(a), alpha + beta + gamma)
    tpl = tuple([0] * alpha + [1] * beta + [2] * gamma)
    return sp.basis_cochain(sp.index(tpl))


def test_heisenberg_differential_closed_form():
    # d(chi_(alpha; beta; gamma)) = (beta+1)(gamma+1) chi_(alpha-1; beta+1; gamma+1)
    for alpha in range(4):
        for beta in range(3):
            for gamma in range(3):
                if alpha + beta + gamma > 4:
                    continue
                got = delta(heis_chi(alpha, beta, gamma))
                if alpha == 0:
                    assert got.is_zero(), (alpha, beta, gamma)
                else:
                    coeff = ((beta + 1) * (gamma + 1)) % 2
                    want = heis_chi(alpha - 1, beta + 1, gamma + 1).scale(coeff)
                    assert got == want, (alpha, beta, gamma)


def test_dim2_differential_matrices_degree_one_two():
    a = dim2()
    m = trivial_module(a)
    d1 = differential_matrix(a, m, 1)
    # columns (a), (b); rows (a,a), (a,b), (b,b); d chi_10 = chi_11
    assert d1.rows() == [[0, 0], [1, 0], [0, 0]]
    d2 = differential_matrix(a, m, 2)
    # the three degree-2 columns carry weights 2*1, 1*2, 0*3, all even
    assert d2.is_zero()


# ------------------------------------------------------------------
# the complex property
# ------------------------------------------------------------------


@pytest.mark.parametrize("flavor", ["symmetric", "alternating", "tensor"])
def test_delta_squared_zero_small(flavor):
    cases = [
        (dim2(), trivial_module),
        (dim2(), adjoint_module),
        (heisenberg(1), trivial_module),
        (heisenberg(1), dual_module),
        (square_example(), trivial_module),
        (square_example(), adjoint_module),
        (zassenhaus_e(2), trivial_module),
        (zassenhaus_e(2), adjoint_module),
    ]
    for algebra, make_mod in cases:
        if flavor == "alternating" and not algebra.is_lie():
            continue
        mod = make_mod(algebra)
        for n in range(4):
            d1 = differential_matrix(algebra, mod, n, flavor)
            d2 = differential_matrix(algebra, mod, n + 1, flavor)
            assert d2.mul(d1).is_zero(), (algebra.basis_names, flavor, n)


def test_delta_squared_zero_over_extension_field():
    f4 = make_field(2)
    a = dim2(f4)
    m = adjoint_module(a)
    for n in range(3):
        d1 = differential_matrix(a, m, n)
        d2 = differential_matrix(a, m, n + 1)
        assert d2.mul(d1).is_zero()


# ------------------------------------------------------------------
# contraction and the derivative along an element
# ------------------------------------------------------------------


def random_cochain(rng, sp):
    return sp.cochain([rng.randrange(2) for _ in range(sp.dim)])


def test_contract_evaluates_with_fixed_first_slot():
    rng = random.Random(33)
    a = heisenberg(1)
    m = adjoint_module(a)
    for n in (1, 2, 3):
        sp = cochain_space(a, m, n)
        for _ in range(5):
            phi = random_cochain(rng, sp)
            x = [rng.randrange(2) for _ in range(3)]
            ix = contract(x, phi)
            for _ in range(4):
                rest = [[rng.randrange(2) for _ in range(3)] for _ in range(n - 1)]
                assert evaluate(ix, rest) == evaluate(phi, [x] + rest)


def test_cartan_homotopy_identity():
    # i_x d + d i_x = theta_x on degree >= 1
    rng = random.Random(34)
    for algebra in (heisenberg(1), square_example()):
        m = adjoint_module(algebra)
        d = algebra.dim
        for n in (1, 2):
            sp = cochain_space(algebra, m, n)
            for _ in range(6):
                phi = random_cochain(rng, sp)
                x = [rng.randrange(2) for _ in range(d)]
                lhs = contract(x, delta(phi)) + delta(contract(x, phi))
                assert lhs == lie_derivative(x, phi)


def test_lie_derivative_commutes_with_delta():
    rng = random.Random(35)
    for algebra in (heisenberg(1), square_example()):
        m = trivial_module(algebra)
        d = algebra.dim
        for n in (1, 2):
            sp = cochain_space(algebra, m, n)
            for _ in range(6):
                phi = random_cochain(rng, sp)
                x = [rng.randrange(2) for _ in range(d)]
                assert delta(lie_derivative(x, phi)) == lie_derivative(x, delta(phi))


def test_contract_bracket_identity():
    # theta_x i_y + i_y theta_x = i_([x,y])
    rng = random.Random(36)
    algebra = heisenberg(1)
    m = adjoint_module(algebra)
    for n in (1, 2, 3):
        sp = cochain_space(algebra, m, n)
        for _ in range(6):
            phi = random_cochain(rng, sp)
            x = [rng.randrange(2) for _ in range(3)]
            y = [rng.randrange(2) for _ in range(3)]
            lhs = contract(y, lie_derivative(x, phi)) + lie_derivative(x, contract(y, phi))
            assert lhs == contract(algebra.bracket(x, y), phi)


def test_contract_requires_symmetric_positive_degree():
    a = dim2()
    m = trivial_module(a)
    phi0 = cochain_space(a, m, 0).zero()
    with pytest.raises(ValueError):
        contract([1, 0], phi0)
    phi_t = cochain_space(a, m, 2, "tensor").zero()
    with pytest.raises(ValueError):
        contract([1, 0], phi_t)
    with pytest.raises(ValueError):
        lie_derivative([1, 0], phi_t)


# ------------------------------------------------------------------
# flavor inclusions are chain maps
# ------------------------------------------------------------------


def test_inclusions_commute_with_delta():
    a = heisenberg(1)
    for mod in (trivial_module(a), adjoint_module(a)):
        for n in range(3):
            alt_to_sym_n = inclusion_matrix(a, mod, n, "alternating", "symmetric")
            alt_to_sym_n1 = inclusion_matrix(a, mod, n + 1, "alternating", "symmetric")
            d_alt = differential_matrix(a, mod, n, "alternating")
            d_sym = differential_matrix(a, mod, n, "symmetric")
            assert alt_to_sym_n1.mul(d_alt) == d_sym.mul(alt_to_sym_n)


def test_sym_to_tensor_commutes_with_delta_non_lie():
    a = square_example()
    mod = adjoint_module(a)
    for n in range(3):
        inc_n = inclusion_matrix(a, mod, n, "symmetric", "tensor")
        inc_n1 = inclusion_matrix(a, mod, n + 1, "symmetric", "tensor")
        d_sym = differential_matrix(a, mod, n, "symmetric")
        d_ten = differential_matrix(a, mod, n, "tensor")
        assert inc_n1.mul(d_sym) == d_ten.mul(inc_n)


def test_alternating_to_tensor_is_one_chain_map_equal_to_the_composite():
    for a in (heisenberg(1), heisenberg(1, make_field(2))):
        for mod in (trivial_module(a), adjoint_module(a)):
            inc = [inclusion_matrix(a, mod, n, "alternating", "tensor") for n in range(4)]
            for n in range(4):
                sym_to_ten = inclusion_matrix(a, mod, n, "symmetric", "tensor")
                alt_to_sym = inclusion_matrix(a, mod, n, "alternating", "symmetric")
                assert inc[n] == sym_to_ten.mul(alt_to_sym)
            for n in range(3):
                d_alt = differential_matrix(a, mod, n, "alternating")
                d_ten = differential_matrix(a, mod, n, "tensor")
                assert inc[n + 1].mul(d_alt) == d_ten.mul(inc[n])


def test_include_cochain_rejects_unknown_and_downward_flavors():
    a = heisenberg(1)
    k = trivial_module(a)
    for src, dst in [("tensor", "tensor"), ("tensor", "symmetric"), ("symmetric", "leibniz")]:
        with pytest.raises(ValueError):
            inclusion_matrix(a, k, 2, src, dst)
    sym = cochain_space(a, k, 2).basis_cochain(1)
    assert include_cochain(sym, "symmetric") is sym
    with pytest.raises(ValueError, match="unknown flavor"):
        include_cochain(sym, "leibniz")
    with pytest.raises(ValueError, match="no inclusion"):
        include_cochain(sym, "alternating")
    ten = include_cochain(sym, "tensor")
    for flavor in ("symmetric", "alternating"):
        with pytest.raises(ValueError, match="no inclusion"):
            include_cochain(ten, flavor)


def test_include_cochain_preserves_values():
    rng = random.Random(37)
    a = heisenberg(1)
    mod = adjoint_module(a)
    sp = cochain_space(a, mod, 2)
    for _ in range(6):
        phi = random_cochain(rng, sp)
        phi_t = include_cochain(phi, "tensor")
        assert phi_t.space.flavor == "tensor"
        for _ in range(6):
            args = [[rng.randrange(2) for _ in range(3)] for _ in range(2)]
            assert evaluate(phi_t, args) == evaluate(phi, args)


def test_alternating_inclusion_hits_squarefree_part():
    a = dim2()
    mod = trivial_module(a)
    alt = cochain_space(a, mod, 2, "alternating")
    phi = alt.basis_cochain(0)  # the form dual to (a, b)
    sym = include_cochain(phi, "symmetric")
    assert sym.value((0, 1)) == 1
    assert sym.value((0, 0)) == 0 and sym.value((1, 1)) == 0
