import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from commcoh import cochain, linalg, structure
from commcoh.field import make_field
from commcoh.algebra import (
    AlgebraPresentation,
    abelian,
    adjoint_module,
    dim2,
    dual_module,
    heisenberg,
    module_from_actions,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from commcoh.cochain import cochain_space, delta
from commcoh.linalg import (
    Matrix,
    Subspace,
    entry_cap_override,
    image_basis,
    kernel_basis,
    quotient_basis,
)
from commcoh.cohomology import (
    CohomologyResult,
    ComplexError,
    NotACocycleError,
    coboundary_witness,
    cohomology,
)
from commcoh.structure import (
    alternating_invariant_forms,
    base_change,
    central_extension,
    comparison_comm_to_leibniz,
    comparison_lie_to_comm,
    exact_sequence_check,
)
from oracles import (
    naive_abelianization_dual_dim,
    naive_ad_matrix,
    naive_derivation_space,
    naive_invariants_subspace,
    naive_zassenhaus_relation_space,
    shift_first_map1_coordinate,
    zassenhaus_printed_basis_report,
    zassenhaus_printed_cocycles,
)

GF2 = make_field(1)


def square_example():
    return AlgebraPresentation(GF2, 3, ["x", "y", "w"], {(0, 0): {1: 1}})


# ------------------------------------------------------------------
# dimension tables for the worked examples
# ------------------------------------------------------------------


def test_dim2_cohomology_dims():
    a = dim2()
    k = trivial_module(a)
    for n in range(7):
        assert cohomology(a, k, n).dim_H == n // 2 + 1, n


def test_dim2_even_p_classes_form_basis():
    # the duals of a^p b^q with p even are cocycles and their classes span
    a = dim2()
    k = trivial_module(a)
    for n in range(6):
        res = cohomology(a, k, n)
        sp = res.space
        coords = []
        for p in range(0, n + 1, 2):
            chi = sp.basis_cochain(sp.index(tuple([0] * p + [1] * (n - p))))
            assert delta(chi).is_zero()
            c = res.class_coordinates(chi)
            assert c is not None
            coords.append(c)
        assert len(coords) == res.dim_H
        from commcoh.linalg import Matrix, rank

        mat = Matrix.from_rows(GF2, [[c[i] for c in coords] for i in range(res.dim_H)], len(coords))
        assert rank(mat) == res.dim_H


HEIS1_DIMS = [1, 2, 4, 6]
HEIS2_DIMS = [1, 4, 9, 20]


def test_heisenberg_cohomology_dims():
    for ell, table in ((1, HEIS1_DIMS), (2, HEIS2_DIMS)):
        a = heisenberg(ell)
        k = trivial_module(a)
        for n, want in enumerate(table):
            assert cohomology(a, k, n).dim_H == want, (ell, n)


def test_one_dimensional_algebra_alternating_pattern():
    # over the one-dimensional algebra the degree-n differential is (n+1) T,
    # so it alternates between T and 0; kernels and cokernels of T show up
    a = abelian(1)
    nilp = module_from_actions(a, [[[0, 1], [0, 0]]], 2)
    for n in range(5):
        assert cohomology(a, nilp, n).dim_H == 1, n
    invertible = module_from_actions(a, [[[1]]], 1)
    for n in range(5):
        assert cohomology(a, invertible, n).dim_H == 0, n
    triv = trivial_module(a)
    for n in range(5):
        assert cohomology(a, triv, n).dim_H == 1, n


ZASSENHAUS_DEGREE2 = {
    # n: (dim Z^2, dim B^2, dim H^2) over the e-basis commutant
    2: (5, 3, 2),
    3: (10, 7, 3),
}


def test_zassenhaus_degree_two():
    for n, (z, b, h) in ZASSENHAUS_DEGREE2.items():
        a = zassenhaus_e(n)
        k = trivial_module(a)
        res = cohomology(a, k, 2)
        assert (res.dim_Z, res.dim_B, res.dim_H) == (z, b, h)
        assert res.dim_Z == 2**n + n - 1
        assert res.dim_B == 2**n - 1
        assert res.dim_H == n
        # the ordinary alternating cohomology vanishes in degree 2
        assert cohomology(a, k, 2, "alternating").dim_H == 0


def test_zassenhaus_printed_candidates():
    # the first documented candidate is a cocycle, the later ones fail the
    # cocycle test here, so the documented family does not span; keep the
    # computed record rather than the claim
    for n in (2, 3):
        report = zassenhaus_printed_basis_report(n)
        assert report["dimH2"] == n
        assert report["cocycle_flags"][0] is True
        assert report["cocycle_flags"][1:] == [False] * (n - 1)
        assert report["span_rank"] == 1
        assert report["spans"] is False


def test_zassenhaus_printed_candidate_failure_witness():
    # the k=1 candidate fails on (e_{-1}, e_0, e_1)
    cand = zassenhaus_printed_cocycles(2)[1]
    image = delta(cand)
    assert not image.is_zero()
    assert image.value((0, 1, 2)) == 1


def test_zassenhaus_relation_space():
    for n in (2, 3):
        assert naive_zassenhaus_relation_space(n).dim == n


def test_zassenhaus_f_matches_e_dimensions():
    # the f-basis presentation over GF(2^n) has the same degree-2 numbers
    for n in (2,):
        af = zassenhaus_f(n)
        res = cohomology(af, trivial_module(af), 2)
        assert res.dim_H == n


# ------------------------------------------------------------------
# low-degree interpretations as independent cross-checks
# ------------------------------------------------------------------


def all_test_algebras():
    return [dim2(), heisenberg(1), heisenberg(2), zassenhaus_e(2), square_example()]


def test_degree_zero_is_invariants():
    for a in all_test_algebras():
        for mk in (trivial_module, adjoint_module, dual_module):
            m = mk(a)
            assert cohomology(a, m, 0).dim_H == naive_invariants_subspace(a, m).dim


def test_degree_one_trivial_is_abelianization_dual():
    for a in all_test_algebras():
        k = trivial_module(a)
        assert cohomology(a, k, 1).dim_H == naive_abelianization_dual_dim(a)


def test_degree_one_adjoint_is_outer_derivations():
    for a in all_test_algebras():
        m = adjoint_module(a)
        ders, inner = naive_derivation_space(a)
        assert cohomology(a, m, 1).dim_H == ders.dim - inner.dim


# ------------------------------------------------------------------
# Poincare duality, a basis-free oracle for the top degrees
# ------------------------------------------------------------------


def dual_twisted_by_trace(module):
    """M* (x) chi, where chi is x -> tr ad x: x acts by rho(x)^T + tr(ad x) I."""
    a, f, m = module.algebra, module.algebra.field, module.dim
    actions = []
    for i, mat in enumerate(module.actions):
        trace = 0
        for j, row in enumerate(naive_ad_matrix(a, i)):
            trace = f.add(trace, row[j])
        actions.append(
            [[f.add(mat[nu][mu], trace if mu == nu else 0) for nu in range(m)] for mu in range(m)]
        )
    return module_from_actions(a, actions, m)


POINCARE_CASES = {
    # dim H^p(L; M) for p = 0 .. dim L, alternating flavor
    "heisenberg1-trivial": (heisenberg(1), trivial_module, [1, 2, 2, 1]),
    "heisenberg1-adjoint": (heisenberg(1), adjoint_module, [1, 4, 5, 2]),
    "heisenberg1-gf4-adjoint": (heisenberg(1, make_field(2)), adjoint_module, [1, 4, 5, 2]),
    "heisenberg2-adjoint": (heisenberg(2), adjoint_module, [1, 11, 20, 21, 15, 4]),
    "zassenhaus_e3-trivial": (zassenhaus_e(3), trivial_module, [1, 0, 0, 5, 5, 0, 0, 1]),
    "zassenhaus_e3-adjoint": (zassenhaus_e(3), adjoint_module, [0, 3, 7, 4, 4, 7, 3, 0]),
    "abelian3-trivial": (abelian(3), trivial_module, [1, 3, 3, 1]),
    # [a, b] = a, so tr ad b = 1: without the twist by chi the dims are no palindrome
    "dim2-trivial": (dim2(), trivial_module, [1, 1, 0]),
}


@pytest.mark.parametrize("case", POINCARE_CASES)
def test_poincare_duality_with_the_trace_twist(case):
    # dim H^p(L; M) = dim H^{d-p}(L; M* (x) chi) for a Lie algebra of dimension d
    # (Fuks, "Cohomology of Infinite-Dimensional Lie Algebras", 1986); the
    # pairing into the top exterior power uses no division, so it holds in
    # characteristic 2
    a, make_module, want = POINCARE_CASES[case]
    module = make_module(a)

    def dims(m):
        return [cohomology(a, m, p, "alternating").dim_H for p in range(a.dim + 1)]

    assert dims(module) == want
    assert dims(dual_twisted_by_trace(module)) == want[::-1]


# ------------------------------------------------------------------
# Kunneth, a basis-free oracle for direct sums
# ------------------------------------------------------------------


def direct_sum(a, b):
    """L1 + L2 with [L1, L2] = 0: b's basis follows a's, each index shifted by a.dim."""
    d = a.dim
    brackets = dict(a.brackets)
    for (i, j), value in b.brackets.items():
        brackets[(i + d, j + d)] = {s + d: bits for s, bits in value.items()}
    names = [f"{n}'" for n in a.basis_names] + [f"{n}''" for n in b.basis_names]
    return AlgebraPresentation(a.field, d + b.dim, names, brackets)


def trivial_dims(a, flavor, top=3):
    return [cohomology(a, trivial_module(a), n, flavor).dim_H for n in range(top + 1)]


def kunneth_product(x, y):
    return [sum(x[i] * y[n - i] for i in range(n + 1)) for n in range(len(x))]


KUNNETH_CASES = {
    # dim H^n of L1 + L2 with trivial coefficients, n = 0 .. 3
    "heisenberg1+dim2": (heisenberg(1), dim2(), {"symmetric": [1, 3, 8, 16],
                                                  "alternating": [1, 3, 4, 3]}),
    "dim2+dim2": (dim2(), dim2(), {"symmetric": [1, 2, 5, 8], "alternating": [1, 2, 1, 0]}),
    "zassenhaus_e2+dim2": (zassenhaus_e(2), dim2(), {"symmetric": [1, 1, 4, 4],
                                                      "alternating": [1, 1, 0, 1]}),
    # [x, x] = y is no Lie algebra, so only the symmetric complex applies
    "square+dim2": (AlgebraPresentation(GF2, 2, ["x", "y"], {(0, 0): {1: 1}}), dim2(),
                    {"symmetric": [1, 2, 3, 4]}),
}


@pytest.mark.parametrize("case", KUNNETH_CASES)
def test_kunneth_for_direct_sums(case):
    # dim H^n(L1 + L2) = sum_i dim H^i(L1) dim H^{n-i}(L2) with trivial
    # coefficients in the symmetric and alternating flavors (Fuks, 1986, as above)
    a, b, want = KUNNETH_CASES[case]
    total = direct_sum(a, b)
    for flavor, dims in want.items():
        assert trivial_dims(total, flavor) == dims, flavor
        assert kunneth_product(trivial_dims(a, flavor), trivial_dims(b, flavor)) == dims, flavor


def test_the_tensor_flavor_breaks_kunneth():
    # the tensor complex of a direct sum has more classes than the product predicts
    a, b = heisenberg(1), dim2()
    assert trivial_dims(direct_sum(a, b), "tensor") == [1, 3, 11, 39]
    assert kunneth_product(trivial_dims(a, "tensor"), trivial_dims(b, "tensor")) == [1, 3, 9, 24]


def test_cocycles_are_cocycles_and_coboundaries_vanish():
    for a in (heisenberg(1), square_example()):
        m = adjoint_module(a)
        for n in (1, 2):
            res = cohomology(a, m, n)
            for rep in res.representatives:
                assert delta(rep).is_zero()
            for v in res.coboundaries.basis:
                assert res.class_coordinates(res.space.cochain(v)) == [0] * res.dim_H
            for i, rep in enumerate(res.representatives):
                coords = res.class_coordinates(rep)
                assert coords == [1 if j == i else 0 for j in range(res.dim_H)]


def test_representatives_are_never_unpacked(monkeypatch):
    # representatives are the packed quotient rows, and classifying one solves on packed rows
    widths = []
    unpack = linalg._unpack_row
    for module in (linalg, cochain):
        monkeypatch.setattr(module, "_unpack_row", lambda *args: widths.append(args[1]) or unpack(*args))
    a = heisenberg(1)
    with entry_cap_override(20_000_000):
        res = cohomology(a, trivial_module(a), 7, "tensor")
        reps = res.representatives
        assert res.representatives is reps
        assert len(reps) == res.dim_H == 408
        assert [rep.bits for rep in reps] == quotient_basis(res.cocycles, res.coboundaries.pivots)
        assert res.class_coordinates(reps[5] + reps[7]) is not None
    # only the solution's tags are unpacked, never a representative
    assert widths == [res.dim_H + res.dim_B]


def test_class_coordinates_rejects_a_cochain_of_another_space():
    a = dim2()
    res = cohomology(a, trivial_module(a), 1)
    other = cochain_space(a, trivial_module(a), 1, "tensor")  # the same dimension, 2
    with pytest.raises(ValueError, match="not in this result's cochain space"):
        res.class_coordinates(other.basis_cochain(0))


def forced(res):
    """Z, B and the packed representatives of res's space, built at once: Z by
    `kernel_basis`, B by `image_basis` (a transpose and a lowest-lane RREF), each
    row of B checked to leave no residual against Z, and the representatives
    the rows of Z off `image_basis`'s pivots."""
    sp = res.space
    z = kernel_basis(cochain.differential_matrix(sp.algebra, sp.module, sp.degree, sp.flavor))
    if sp.degree == 0:
        b = Subspace(sp.algebra.field, sp.dim, {})
    else:
        b = image_basis(cochain.differential_matrix(sp.algebra, sp.module, sp.degree - 1, sp.flavor))
    assert not any(any(z.reduce(v)) for v in b.basis)  # B <= Z
    return z, b, quotient_basis(z, b.pivots)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [dim2(), heisenberg(1), heisenberg(1, make_field(2)), square_example(), abelian(2),
         zassenhaus_e(2), zassenhaus_f(2)]
    ),
    st.sampled_from([trivial_module, adjoint_module, dual_module]),
    st.sampled_from(["symmetric", "alternating", "tensor"]),
    st.integers(0, 3),
)
def test_dims_from_ranks_equal_the_dims_of_the_built_subspaces(algebra, make_module, flavor, n):
    if flavor == "alternating" and not algebra.is_lie():
        return
    res = cohomology(algebra, make_module(algebra), n, flavor)
    z, b, reps = forced(res)
    assert (z.dim, b.dim, z.dim - b.dim) == (res.dim_Z, res.dim_B, res.dim_H)
    # built on first read, and checked against the ranks
    assert res.cocycles == z and res.coboundaries == b
    assert [r.bits for r in res.representatives] == reps


def test_each_differential_is_ranked_once_over_a_cohomology_loop(monkeypatch):
    # ranked: the eliminations of `rank`, the `_echelon` calls that no `_rref` makes
    ranked, rrefs, inside = [], [], []
    echelon, rref = linalg._echelon, linalg._rref

    def counting_echelon(*args, **kw):
        if not inside:
            ranked.append(id(args[0]))
        return echelon(*args, **kw)

    def counting_rref(*args, **kw):
        rrefs.append(list(args[0]))
        inside.append(True)
        try:
            return rref(*args, **kw)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(linalg, "_rref", counting_rref)
    cochain._differential_matrix_cached.cache_clear()
    a = zassenhaus_f(2)
    m = adjoint_module(a)
    results = [cohomology(a, m, n) for n in range(5)]
    assert [res.dim_H for res in results] == [0, 2, 2, 6, 6]
    ds = [cochain.differential_matrix(a, m, n) for n in range(5)]
    assert sorted(ranked) == sorted(id(d.packed_rows()) for d in ds)
    assert rrefs == []  # no kernel, image or quotient on the dimensions path
    # the representatives take B's pivots from the ranks' eliminations: each
    # degree adds the RREF of its own d_n's independent rows for Z, and no
    # image or transpose
    assert [len(res.representatives) for res in results] == [0, 2, 2, 6, 6]
    assert sorted(ranked) == sorted(id(d.packed_rows()) for d in ds)
    assert rrefs == [[d.packed_rows()[i] for i in linalg.independent_rows(d)] for d in ds]


def test_a_built_subspace_that_disagrees_with_the_ranks_is_a_complex_error(monkeypatch):
    module = importlib.import_module("commcoh.cohomology")
    a = heisenberg(1)
    m = adjoint_module(a)
    with monkeypatch.context() as patch:
        patch.setattr(module, "kernel_basis", lambda d: Subspace(GF2, d.ncols, {}))
        res = cohomology(a, m, 2)
        with pytest.raises(ComplexError, match="the built Z has dimension 0"):
            res.representatives
    # a row profile of d_1 that names a lane off Z's pivots in place of one of B's pivots
    res = cohomology(a, m, 2)
    real = module.independent_rows(cochain.differential_matrix(a, m, 1))
    off = next(j for j in range(res.space.dim) if j not in res.cocycles.pivots)
    assert len(real) == res.dim_B > 0
    monkeypatch.setattr(module, "independent_rows", lambda d: real[1:] + [off])
    with pytest.raises(ComplexError, match="a pivot of B is not a pivot of Z"):
        res.representatives
    assert not isinstance(ComplexError("x"), ValueError)


def test_the_square_zero_check_catches_a_corrupted_differential():
    check = importlib.import_module("commcoh.cohomology")._check_square_zero
    a = heisenberg(1)
    m = adjoint_module(a)
    d1, d2 = (cochain.differential_matrix(a, m, n) for n in (1, 2))
    check(d2, d1, 2)
    # d_1 plus a unit entry in each of its first rows
    rows = [r ^ (1 << i if i < d1.ncols else 0) for i, r in enumerate(d1.packed_rows())]
    bad = Matrix.from_packed(GF2, rows, d1.ncols)
    assert linalg.rank(d2.mul(bad)) >= 2  # the full product, the deterministic oracle
    with pytest.raises(ComplexError, match="d_2 d_1 != 0"):
        check(d2, bad, 2)


def test_class_coordinates_rejects_non_cocycle():
    a = dim2()
    k = trivial_module(a)
    res = cohomology(a, k, 1)
    sp = res.space
    non_cocycle = sp.basis_cochain(sp.index((0,)))  # d chi_10 = chi_11 != 0
    assert not delta(non_cocycle).is_zero()
    assert res.class_coordinates(non_cocycle) is None


def test_coboundary_witness():
    rng = random.Random(42)
    a = heisenberg(1)
    m = adjoint_module(a)
    sp = cochain_space(a, m, 1)
    for _ in range(10):
        psi = sp.cochain([rng.randrange(2) for _ in range(sp.dim)])
        phi = delta(psi)
        w = coboundary_witness(phi)
        assert w is not None
        assert delta(w) == phi
    res = cohomology(a, m, 2)
    for rep in res.representatives:
        assert coboundary_witness(rep) is None


# ------------------------------------------------------------------
# comparison maps
# ------------------------------------------------------------------

HEIS1_COMPARISON = {
    # degree: (alt dim, sym dim, rank alt->sym, tensor dim, rank sym->tensor)
    0: (1, 1, 1, 1, 1),
    1: (2, 2, 2, 2, 2),
    2: (2, 4, 2, 5, 4),
    3: (1, 6, 0, 12, 6),
}


def test_heisenberg_comparison_table():
    a = heisenberg(1)
    k = trivial_module(a)
    for n, (alt, sym, r1, ten, r2) in HEIS1_COMPARISON.items():
        c1 = comparison_lie_to_comm(a, k, n)
        assert (c1.source.dim_H, c1.target.dim_H, c1.rank) == (alt, sym, r1)
        assert not c1.chain_defects
        c2 = comparison_comm_to_leibniz(a, k, n)
        assert (c2.source.dim_H, c2.target.dim_H, c2.rank) == (sym, ten, r2)
        assert c2.is_injective
        assert not c2.chain_defects


def test_comparison_on_non_lie_still_injects_into_tensor():
    a = square_example()
    m = trivial_module(a)
    for n in range(3):
        c = comparison_comm_to_leibniz(a, m, n)
        assert not c.chain_defects
        assert c.is_injective


def test_lie_comparison_requires_lie():
    with pytest.raises(ValueError):
        comparison_lie_to_comm(square_example(), trivial_module(square_example()), 2)


# ------------------------------------------------------------------
# invariant forms and the four-term sequence
# ------------------------------------------------------------------

BALT_DIMS = {"dim2": 0, "heis1": 1, "heis2": 6, "ze2": 0}


def test_invariant_form_dims():
    assert alternating_invariant_forms(dim2()).dim == BALT_DIMS["dim2"]
    assert alternating_invariant_forms(heisenberg(1)).dim == BALT_DIMS["heis1"]
    assert alternating_invariant_forms(heisenberg(2)).dim == BALT_DIMS["heis2"]
    assert alternating_invariant_forms(zassenhaus_e(2)).dim == BALT_DIMS["ze2"]


def test_empty_systems_give_the_whole_space():
    # no equation at all: every vector solves it
    assert alternating_invariant_forms(abelian(3)).dim == 3
    assert alternating_invariant_forms(abelian(1)).dim == 0


def naive_invariant_forms(algebra):
    """The invariant alternating forms on coordinates indexed by the pairs i < j,
    each equation entered pair by pair, without the cochain layer."""
    f = algebra.field
    d = algebra.dim
    pairs = list(itertools.combinations(range(d), 2))
    pairs_index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row = [0] * len(pairs)
                # beta([e_i, e_j], e_k) + beta([e_k, e_i], e_j) = 0
                for s, bits in algebra.bracket_basis(i, j).items():
                    if s != k:
                        idx = pairs_index[(s, k) if s < k else (k, s)]
                        row[idx] = f.add(row[idx], bits)
                for s, bits in algebra.bracket_basis(k, i).items():
                    if s != j:
                        idx = pairs_index[(s, j) if s < j else (j, s)]
                        row[idx] = f.add(row[idx], bits)
                if any(row):
                    rows.append(row)
    return kernel_basis(Matrix.from_rows(f, rows, len(pairs)))


def monomial_basis_change(algebra, seed):
    """The algebra in the basis e'_a = c_a e_p(a), for a seeded permutation p and
    seeded nonzero scalars c."""
    rng = random.Random(seed)
    f = algebra.field
    d = algebra.dim
    perm = rng.sample(range(d), d)
    scale = [rng.randrange(1, f.order) for _ in range(d)]
    new_index = {p: a for a, p in enumerate(perm)}
    brackets = {}
    for a in range(d):
        for b in range(a, d):
            # [e'_a, e'_b] = c_a c_b [e_p(a), e_p(b)], and e_s = e'_t / c_t for t with p(t) = s
            outer = f.mul(scale[a], scale[b])
            value = {}
            for s, bits in algebra.bracket_basis(perm[a], perm[b]).items():
                t = new_index[s]
                value[t] = f.mul(f.mul(outer, bits), f.inv(scale[t]))
            brackets[(a, b)] = value
    names = [algebra.basis_names[p] for p in perm]
    return AlgebraPresentation(f, d, names, brackets)


def test_invariant_forms_match_the_pair_indexed_construction():
    heis2_gf4, _ = base_change(heisenberg(2), None, 2)
    changed = [monomial_basis_change(zassenhaus_f(3), 0), monomial_basis_change(heis2_gf4, 1)]
    for a in all_test_algebras() + [zassenhaus_f(2), zassenhaus_f(3)] + changed:
        assert alternating_invariant_forms(a) == naive_invariant_forms(a), a.basis_names
    # a basis change leaves the dimension alone
    assert [alternating_invariant_forms(a).dim for a in changed] == [0, BALT_DIMS["heis2"]]


def test_heisenberg_invariant_form_is_the_pairing():
    # the unique form pairs b with c and kills the center
    a = heisenberg(1)
    forms = alternating_invariant_forms(a)
    assert forms.dim == 1
    beta = cochain_space(a, trivial_module(a), 2, "alternating").cochain(forms.basis[0])
    assert beta.value((1, 2)) == beta.value((2, 1)) == 1  # beta(b, c)
    assert beta.value((0, 1)) == 0 and beta.value((0, 2)) == 0
    assert beta.value((1, 1)) == 0  # alternating


def test_exact_sequence_on_examples():
    for a in all_test_algebras():
        report = exact_sequence_check(a)
        assert report.defects == [], a.basis_names
        assert report.map1_injective
        assert report.exact_at_h1
        assert report.exact_at_balt
        assert report.ok


def test_unrecognized_images_are_defects_with_zero_columns(monkeypatch):
    # a class_coordinates that recognizes nothing: every image misses
    monkeypatch.setattr(CohomologyResult, "class_coordinates", lambda self, vec: None)
    rep = exact_sequence_check(heisenberg(1))
    assert rep.defects == ["map1 image not recognized as a degree-1 class"] * 4 + [
        "map3 image not recognized as a degree-3 class"
    ]
    assert (rep.map1_rank, rep.map3_rank) == (0, 0)
    assert not rep.ok
    a = heisenberg(1)
    c = comparison_comm_to_leibniz(a, trivial_module(a), 2)
    assert c.source.dim_H == 4
    assert c.chain_defects == c.source.representatives
    assert c.rank == 0 and c.kernel_dim == 4


def test_exact_sequence_frozen_numbers():
    rep = exact_sequence_check(heisenberg(1))
    assert (rep.dim_h2, rep.dim_h1_dual, rep.dim_balt, rep.dim_h3) == (4, 5, 1, 6)
    assert (rep.map1_rank, rep.map2_rank, rep.map3_rank) == (4, 1, 0)
    rep = exact_sequence_check(square_example())
    assert (rep.dim_h2, rep.dim_h1_dual, rep.dim_balt, rep.dim_h3) == (2, 4, 2, 2)
    assert (rep.map1_rank, rep.map2_rank, rep.map3_rank) == (2, 2, 0)


def test_exactness_needs_a_zero_composition_besides_the_ranks(monkeypatch):
    # on heisenberg:1 map1's images are classes 0, 1, 2 and 4 of H1(L, L*), and map2
    # is nonzero on class 3 alone; adding class 3 to map1's first image keeps every
    # rank, so r1 + r2 = dim H1(L, L*) still, but map2 after map1 is no longer zero
    shift_first_map1_coordinate(monkeypatch, 3)
    rep = exact_sequence_check(heisenberg(1))
    assert (rep.map1_rank, rep.map2_rank, rep.map3_rank) == (4, 1, 0)
    assert rep.map1_rank + rep.map2_rank == rep.dim_h1_dual
    assert rep.defects == [] and rep.map1_injective and rep.exact_at_balt
    assert not rep.exact_at_h1 and not rep.ok


def sequence_images_by_entry(a):
    """The images of the three maps of the four-term sequence, entry by entry.

    phi goes to psi with psi(e_i)(e_mu) = phi(e_i, e_mu); psi goes to the form
    (x, y) -> psi(x)(y) + psi(y)(x); beta goes to (x, y, z) -> beta([x, y], z).
    """
    f, d = a.field, a.dim
    triv, dual = trivial_module(a), dual_module(a)
    forms = cochain_space(a, triv, 2, "alternating")
    space1d, space3 = cochain_space(a, dual, 1), cochain_space(a, triv, 3)
    images1 = [
        tuple(rep.value((i, mu)) for i in range(d) for mu in range(d))
        for rep in cohomology(a, triv, 2).representatives
    ]
    assert all(len(image) == space1d.dim for image in images1)
    images2 = [
        tuple(f.add(rep.value((i,), j), rep.value((j,), i)) for i, j in forms.tuples)
        for rep in cohomology(a, dual, 1).representatives
    ]
    images3 = []
    for bvec in alternating_invariant_forms(a).basis:
        beta = forms.cochain(bvec)
        image = []
        for i, j, k in space3.tuples:
            acc = 0
            for s, bits in a.bracket_basis(i, j).items():
                acc = f.add(acc, f.mul(bits, beta.value((s, k))))
            image.append(acc)
        images3.append(tuple(image))
    return images1, images2, images3


def test_sequence_maps_match_the_entry_by_entry_formulas(monkeypatch):
    # each map's images, as exact_sequence_check hands them to _induced
    seen = []
    induced = structure._induced

    def spy(f, coordinates, dim, images):
        images = list(images)
        seen.append([tuple(im.coeffs) if isinstance(im, cochain.Cochain) else tuple(im)
                     for im in images])
        return induced(f, coordinates, dim, images)

    monkeypatch.setattr(structure, "_induced", spy)
    algebras = [heisenberg(1), heisenberg(2), square_example(), zassenhaus_e(3),
                zassenhaus_f(2), zassenhaus_f(3)]
    counts = []
    for a in algebras:
        seen.clear()
        report = exact_sequence_check(a)
        assert report.ok, a.basis_names
        want = sequence_images_by_entry(a)
        assert seen == list(want), a.basis_names
        counts.append([len(images) for images in want])
    # every map has images on some algebra, so no comparison above is empty throughout
    assert all(any(row[n] for row in counts) for n in range(3)), counts


# ------------------------------------------------------------------
# base change
# ------------------------------------------------------------------


def test_base_change_preserves_dimensions():
    for a in (dim2(), heisenberg(1), square_example()):
        m = adjoint_module(a)
        for k in (2, 3):
            a2, m2 = base_change(a, m, k)
            assert a2.field.order == 2**k
            for n in range(3):
                small = cohomology(a, m, n)
                big = cohomology(a2, m2, n)
                assert (small.dim_Z, small.dim_B, small.dim_H) == (
                    big.dim_Z,
                    big.dim_B,
                    big.dim_H,
                ), (a.basis_names, k, n)


def test_base_change_rejects_extension_constants():
    a = zassenhaus_f(2)  # structure constants live in GF(4)
    with pytest.raises(ValueError):
        base_change(a, None, 3)


def test_base_change_moves_the_packed_rows_to_the_wider_lanes():
    # the rows of the adjoint and dual modules over GF(2) become those of GF(2^k)
    for a in (heisenberg(1), square_example(), zassenhaus_e(3)):
        for build in (adjoint_module, dual_module, trivial_module):
            for k in (2, 3):
                a2, m2 = base_change(a, build(a), k)
                assert m2 == build(a2) and m2.actions == build(a).actions
    # a module constant outside the prime field is refused like a structure constant
    line = abelian(1, make_field(2))
    with pytest.raises(ValueError, match="module constants are not in the prime field"):
        base_change(line, module_from_actions(line, [[[2, 1], [0, 2]]], 2), 3)


# ------------------------------------------------------------------
# central extensions
# ------------------------------------------------------------------


def test_heisenberg_is_an_extension_of_the_abelian_plane():
    a = abelian(2)
    k = trivial_module(a)
    sp = cochain_space(a, k, 2)
    phi = sp.basis_cochain(sp.index((0, 1)))
    ext = central_extension(a, phi)
    assert ext.dim == 3
    assert ext.brackets == {(0, 1): {2: 1}}
    assert ext.jacobi_violations() == []
    assert coboundary_witness(phi) is None  # H^2 class is nonzero


def test_extension_by_square_cocycle_is_not_lie():
    a = abelian(1)
    k = trivial_module(a)
    sp = cochain_space(a, k, 2)
    phi = sp.basis_cochain(sp.index((0, 0)))
    ext = central_extension(a, phi)
    assert ext.brackets == {(0, 0): {1: 1}}
    assert not ext.is_lie()
    assert ext.jacobi_violations() == []


def test_split_extension_has_witness():
    a = heisenberg(1)
    k = trivial_module(a)
    sp1 = cochain_space(a, k, 1)
    rng = random.Random(43)
    for _ in range(8):
        omega = sp1.cochain([rng.randrange(2) for _ in range(sp1.dim)])
        phi = delta(omega)
        w = coboundary_witness(phi)
        assert w is not None and delta(w) == phi


def test_central_extension_rejects_non_cocycle():
    # every degree-2 basis dual of dim2 happens to be a cocycle, so hunt on
    # the heisenberg algebra where Z^2 is a proper subspace
    a = heisenberg(1)
    k = trivial_module(a)
    sp2 = cochain_space(a, k, 2)
    non = next(
        c for c in (sp2.basis_cochain(i) for i in range(sp2.dim)) if not delta(c).is_zero()
    )
    with pytest.raises(NotACocycleError) as exc:
        central_extension(a, non)
    assert "(" in str(exc.value)  # names the violated arguments


def test_extension_representative_values_show_up_in_brackets():
    a = zassenhaus_e(2)
    k = trivial_module(a)
    res = cohomology(a, k, 2)
    rep = res.representatives[0]
    ext = central_extension(a, rep)
    d = a.dim
    for i in range(d):
        for j in range(i, d):
            bits = rep.value((i, j))
            assert ext.bracket_basis(i, j).get(d, 0) == bits
