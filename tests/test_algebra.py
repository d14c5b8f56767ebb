import json
import random
import re

import pytest

from commcoh.field import FieldError, make_field
from commcoh.algebra import (
    AlgebraPresentation,
    AxiomError,
    ModulePresentation,
    PresentationError,
    abelian,
    adjoint_module,
    dim2,
    dual_module,
    heisenberg,
    import_algebra,
    import_module,
    module_from_actions,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from commcoh.cochain import cochain_space
from commcoh.cohomology import cohomology
from commcoh.linalg import Matrix, SizeCapError, _pack_row, entry_cap_override
from oracles import naive_ad_matrix, naive_derivation_space, naive_zassenhaus_e_brackets

GF2 = make_field(1)


def square_example():
    """Three-dimensional commutative algebra with x*x = y, everything else zero.

    Not a Lie algebra (the square of x is nonzero) but Jacobi holds, which is
    exactly the situation the symmetric complex exists for.
    """
    return AlgebraPresentation(GF2, 3, ["x", "y", "w"], {(0, 0): {1: 1}})


# ------------------------------------------------------------------
# builders and axioms
# ------------------------------------------------------------------


def test_builders_satisfy_jacobi():
    cases = [
        abelian(4),
        dim2(),
        heisenberg(1),
        heisenberg(2),
        heisenberg(3),
        zassenhaus_e(2),
        zassenhaus_e(3),
        zassenhaus_f(2),
        zassenhaus_f(3),
        square_example(),
    ]
    for a in cases:
        assert a.jacobi_violations() == []


def test_is_lie_flags():
    assert dim2().is_lie()
    assert heisenberg(2).is_lie()
    assert zassenhaus_e(3).is_lie()
    assert abelian(2).is_lie()
    assert not square_example().is_lie()


def test_jacobi_violation_detected():
    # with [u,u] = v and [u,v] = u the cyclic sum on (u,u,u) is 3[v,u] = u
    bad = AlgebraPresentation(GF2, 2, ["u", "v"], {(0, 0): {1: 1}, (0, 1): {0: 1}})
    viol = bad.jacobi_violations()
    assert viol
    assert viol[0][:3] == (0, 0, 0)
    assert not bad.is_lie()
    viol.clear()  # each call returns its own list, so the presentation keeps its violations
    assert bad.jacobi_violations()[0][:3] == (0, 0, 0)


def test_char2_special_lie_algebra():
    # [u,v] = w, [u,w] = v satisfies Jacobi over GF(2) even though it would
    # not in characteristic zero; the checker must accept it
    a = AlgebraPresentation(GF2, 3, ["u", "v", "w"], {(0, 1): {2: 1}, (0, 2): {1: 1}})
    assert a.jacobi_violations() == []
    assert a.is_lie()


def test_bracket_bilinear_and_symmetric():
    rng = random.Random(5)
    for a in (dim2(), heisenberg(2), zassenhaus_e(2), square_example()):
        d = a.dim
        for _ in range(20):
            x = [rng.randrange(2) for _ in range(d)]
            y = [rng.randrange(2) for _ in range(d)]
            z = [rng.randrange(2) for _ in range(d)]
            assert a.bracket(x, y) == a.bracket(y, x)
            yz = [a.field.add(p, q) for p, q in zip(y, z)]
            left = a.bracket(x, yz)
            right = [a.field.add(p, q) for p, q in zip(a.bracket(x, y), a.bracket(x, z))]
            assert left == right


def test_square_of_general_element():
    # over GF(2) the square [v,v] of v = sum v_i e_i is sum v_i [e_i,e_i],
    # since the cross terms pair up and cancel
    a = square_example()
    assert a.bracket([1, 0, 0], [1, 0, 0]) == [0, 1, 0]
    assert a.bracket([1, 1, 1], [1, 1, 1]) == [0, 1, 0]
    assert dim2().bracket([1, 1], [1, 1]) == [0, 0]


def test_dim2_structure():
    a = dim2()
    assert a.basis_names == ("a", "b")
    assert a.bracket_basis(0, 1) == {0: 1}
    assert a.bracket_basis(1, 0) == {0: 1}
    assert a.bracket_basis(0, 0) == {}
    assert naive_ad_matrix(a, 1) == [[1, 0], [0, 0]]
    assert adjoint_module(a).actions[1] == ((1, 0), (0, 0))


def test_heisenberg_structure():
    a = heisenberg(2)
    assert a.basis_names == ("a", "b1", "b2", "c1", "c2")
    assert a.brackets == {(1, 3): {0: 1}, (2, 4): {0: 1}}


ZE2_BRACKETS = {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {2: 1}}


def test_zassenhaus_e_structure():
    a = zassenhaus_e(2)
    assert a.basis_names == ("e-1", "e0", "e1")
    assert a.brackets == ZE2_BRACKETS
    # ad(e_{-1}) shifts the whole basis down by one in every size
    b = zassenhaus_e(3)
    for j in range(1, b.dim):
        assert b.bracket_basis(0, j) == {j - 1: 1}
    # no diagonal entries anywhere: central binomials are even
    assert all(i != j for (i, j) in b.brackets)


@pytest.mark.parametrize("n", range(2, 10))
def test_zassenhaus_e_submasks_match_the_walk_over_every_pair(n):
    # the builder enumerates submasks; the walk reads C(i+j+2, i+1) on every pair i <= j
    pairs = [(p, dict(value)) for p, value in zassenhaus_e(n).brackets.items()]
    assert pairs == list(naive_zassenhaus_e_brackets(n).items())


def test_zassenhaus_f_structure():
    a = zassenhaus_f(2)
    assert a.field.degree == 2
    assert a.basis_names == ("f1", "f2", "f3")
    # [f_alpha, f_beta] = (alpha xor beta) f_(alpha xor beta)
    assert a.brackets == {(0, 1): {2: 3}, (0, 2): {1: 2}, (1, 2): {0: 1}}
    assert zassenhaus_f(3).jacobi_violations() == []


# ------------------------------------------------------------------
# squares
# ------------------------------------------------------------------


def test_square_ideal():
    assert heisenberg(1).square_ideal().dim == 0
    sq = square_example().square_ideal()
    assert sq.dim == 1
    assert sq.contains([0, 1, 0])


@pytest.mark.parametrize("degree", [1, 2])
def test_bracket_and_action_check_their_vectors(degree):
    # read as far as it goes, or with a non-element multiplied in, a malformed
    # vector would give a wrong answer silently, so it must raise
    f = make_field(degree)
    a = heisenberg(1, f)
    ad, triv = adjoint_module(a), trivial_module(a)
    bad = f.order + 1
    for x, y in (([0, 1, 0, 1], [0, 0, 1, 1]), ([0, 1], [0, 0, 1]), ([0, 1, 0], [0, 0])):
        with pytest.raises(ValueError, match="entries where 3 are expected"):
            a.bracket(x, y)
        with pytest.raises(ValueError, match="entries where 3 are expected"):
            ad.act(x, y)
    with pytest.raises(ValueError, match="3 entries where 1 are expected"):
        triv.act([0, 1, 0], [0, 0, 1])
    for x, y in (([0, bad, 0], [0, 0, 1]), ([0, 1, 0], [0, 0, -1])):
        with pytest.raises(FieldError):
            a.bracket(x, y)
        with pytest.raises(FieldError):
            ad.act(x, y)
    assert a.bracket([0, 1, 0], [0, 0, 1]) == ad.act([0, 1, 0], [0, 0, 1]) == [1, 0, 0]
    assert triv.act([0, 1, 0], [1]) == [0]


def test_bools_are_not_field_elements_where_the_algebra_layer_reads_them():
    # each of these read True as 1: an identity module, [a, b] = a, a bracket value of 1
    with pytest.raises(FieldError):
        module_from_actions(abelian(1), [[[True, False], [False, True]]], 2)
    with pytest.raises(FieldError):
        dim2().bracket([True, False], [False, True])
    with pytest.raises(FieldError):
        AlgebraPresentation(make_field(1), 2, ["x", "y"], {(0, 0): {1: True}})
    assert module_from_actions(abelian(1), [[[1, 0], [0, 1]]], 2).rho == ((1, 2),)
    assert dim2().bracket([1, 0], [0, 1]) == [1, 0]


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------


def test_algebra_json_roundtrip(tmp_path):
    for a in (dim2(), heisenberg(2), zassenhaus_f(2), square_example()):
        data = a.to_json()
        assert import_algebra(data) == a
        p = tmp_path / "alg.json"
        p.write_text(json.dumps(data))
        assert import_algebra(str(p)) == a


def test_import_rejects_duplicate_pairs():
    data = dim2().to_json()
    data["brackets"].append({"i": 1, "j": 0, "value": {"0": "1"}})
    with pytest.raises(PresentationError):
        import_algebra(data)


def test_import_rejects_jacobi_failure():
    data = {
        "field": {"characteristic": 2, "degree": 1, "modulus": 2},
        "dim": 2,
        "basis": ["u", "v"],
        "brackets": [
            {"i": 0, "j": 0, "value": {"1": "1"}},
            {"i": 0, "j": 1, "value": {"0": "1"}},
        ],
    }
    with pytest.raises(AxiomError) as exc:
        import_algebra(data)
    assert exc.value.violations


def test_presentation_validation():
    with pytest.raises(PresentationError):
        AlgebraPresentation(GF2, 2, ["a", "a"], {})
    with pytest.raises(PresentationError):
        AlgebraPresentation(GF2, 2, ["a", "b"], {(0, 5): {0: 1}})
    with pytest.raises(PresentationError):
        AlgebraPresentation(GF2, 2, ["a"], {})
    for dim in ("2", 2.0, True):
        with pytest.raises(PresentationError, match="dimension must be an int"):
            AlgebraPresentation(GF2, dim, ["a", "b"], {})
    for names in ("ab", [1, 2], ("a", None), {"a", "b"}):
        with pytest.raises(PresentationError, match="basis names must be a list of strings"):
            AlgebraPresentation(GF2, 2, names, {})


def test_dimensions_and_indices_must_be_ints():
    # a float, a string or a bool is refused where it enters, not coerced or read later
    for pair in ((0.5, 1), ("0", 1), (True, 1), (0, 1.0)):
        with pytest.raises(PresentationError, match="bracket pair"):
            AlgebraPresentation(GF2, 2, ["a", "b"], {pair: {0: 1}})
    for target in (0.5, "0", True):
        with pytest.raises(PresentationError, match="bracket target index"):
            AlgebraPresentation(GF2, 2, ["a", "b"], {(0, 1): {target: 1}})
    for dim in (True, 1.0, "1"):
        with pytest.raises(PresentationError, match="module dimension must be an int"):
            ModulePresentation(dim2(), dim, [[0], [0]])
    for dim in (1.9, "1", True):
        with pytest.raises(PresentationError):
            import_module(dim2(), {"dim": dim, "actions": [[["0"]], [["0"]]]})
    for i in (0.7, "0", True):
        data = dim2().to_json()
        data["brackets"][0]["i"] = i
        with pytest.raises(PresentationError):
            import_algebra(data)


def test_import_takes_canonical_numerals_only():
    # a target key or a hex value in one of Python's other integer spellings
    a = AlgebraPresentation(GF2, 11, [f"x{t}" for t in range(11)], {(0, 1): {10: 1}})
    assert import_algebra(a.to_json()) == a
    for value in ({"1_0": "1"}, {" 10": "1"}, {"+10": "1"}, {"10": " 1"}, {"10": "0x1"}):
        data = a.to_json()
        data["brackets"][0]["value"] = value
        with pytest.raises(PresentationError, match="malformed bracket entry"):
            import_algebra(data)
    for entry in (" 0", "0x0", "0_0"):
        with pytest.raises(PresentationError, match="malformed module file"):
            import_module(dim2(), {"dim": 1, "actions": [[[entry]], [["0"]]]})
    data = a.to_json()
    data["field"]["degree"] = True
    with pytest.raises(FieldError, match="field degree must be an int"):
        import_algebra(data)


def test_basis_names_hold_no_label_delimiter():
    for bad in ("a,b", "(a", "a)", "a|0"):
        with pytest.raises(PresentationError, match=re.escape(repr(bad))):
            AlgebraPresentation(GF2, 2, [bad, "c"], {})
    assert AlgebraPresentation(GF2, 2, ["e-1", "x_0"], {}).basis_names == ("e-1", "x_0")


def test_presentations_are_read_only():
    a = dim2()
    m = adjoint_module(a)
    with pytest.raises(TypeError):
        a.brackets[(0, 0)] = {1: 1}
    with pytest.raises(TypeError):
        a.brackets[(0, 1)][0] = 0
    with pytest.raises(AttributeError):
        a.brackets.clear()
    with pytest.raises(TypeError):
        m.actions[0][0] = (0, 0)


def test_cached_cohomology_cannot_go_stale():
    # the cochain caches key on the presentation, so it must not change after hashing
    a = dim2()
    assert cohomology(a, trivial_module(a), 1).dim_H == 1
    with pytest.raises(AttributeError):
        a.brackets.clear()
    assert a == dim2() and cohomology(a, trivial_module(a), 1).dim_H == 1
    assert cohomology(abelian(2), trivial_module(abelian(2)), 1).dim_H == 2


def test_content_equality_and_hash():
    assert dim2() == dim2()
    assert hash(heisenberg(2)) == hash(heisenberg(2))
    assert dim2() != abelian(2)
    seen = {dim2(): "first"}
    assert seen[dim2()] == "first"


def test_a_presentation_hashes_its_content_key_once(tmp_path):
    # each presentation keeps the hash of its content key; separately built equal ones
    # are equal, hash alike and share the cached cochain space
    path = tmp_path / "heisenberg2.json"
    path.write_text(json.dumps(heisenberg(2).to_json()))
    algebras = [
        lambda: abelian(3), dim2, lambda: heisenberg(2), lambda: zassenhaus_e(3),
        lambda: zassenhaus_f(3), lambda: import_algebra(path),
    ]
    modules = [
        lambda build=build, make=make: build(make())
        for build in (trivial_module, adjoint_module, dual_module)
        for make in (dim2, lambda: zassenhaus_f(3), lambda: import_algebra(path))
    ]

    def space(x):
        if isinstance(x, ModulePresentation):
            return cochain_space(x.algebra, x, 2)
        return cochain_space(x, trivial_module(x), 2)

    for make in algebras + modules:
        x, y = make(), make()
        key_hash = hash(x._content_key())
        assert hash(x) == key_hash
        first = space(x)
        assert hash(x) == key_hash == hash(x._content_key())
        assert y is not x and y == x and hash(y) == hash(x)
        assert space(y) is first


# ------------------------------------------------------------------
# modules
# ------------------------------------------------------------------


def test_standard_modules_satisfy_axiom():
    for a in (dim2(), heisenberg(2), zassenhaus_e(2), square_example()):
        for m in (trivial_module(a), adjoint_module(a), dual_module(a)):
            assert m.axiom_violations() == []


def test_squares_act_trivially():
    # rho([x,x]) = rho(x)rho(x) + rho(x)rho(x) = 0, so the square ideal must
    # act as zero in any module; check it on the adjoint of the square example
    a = square_example()
    m = adjoint_module(a)
    y = a.square_ideal().basis[0]
    for vec in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        assert m.act(list(y), vec) == [0, 0, 0]


def test_adjoint_matches_bracket():
    a = heisenberg(1)
    m = adjoint_module(a)
    rng = random.Random(7)
    for _ in range(20):
        x = [rng.randrange(2) for _ in range(3)]
        v = [rng.randrange(2) for _ in range(3)]
        assert m.act(x, v) == a.bracket(x, v)


def test_dual_module_pairing():
    # <x . phi, v> = <phi, x . v>: the dual action matrix is the transpose
    a = zassenhaus_e(2)
    adj = adjoint_module(a)
    dual = dual_module(a)
    f = a.field
    for i in range(a.dim):
        for mu in range(a.dim):
            for nu in range(a.dim):
                assert dual.actions[i][mu][nu] == adj.actions[i][nu][mu]


def test_module_from_actions_rejects_bad_action():
    a = dim2()
    # a one-dimensional module where a acts as 1: rho([a,b]) = rho(a) = 1 but
    # rho(a)rho(b) + rho(b)rho(a) = 0 when b acts as 0
    with pytest.raises(AxiomError):
        module_from_actions(a, [[[1]], [[0]]], 1)


def test_act_is_the_sum_of_the_scaled_action_matrices():
    # rho(x) v = sum_t x_t rho(e_t) v over GF(4), with coefficients other than 1
    a = zassenhaus_f(2)
    m = adjoint_module(a)
    f = a.field
    rng = random.Random(11)
    for _ in range(20):
        x = [rng.randrange(f.order) for _ in range(a.dim)]
        v = [rng.randrange(f.order) for _ in range(m.dim)]
        column = Matrix.from_rows(f, [[e] for e in v], 1)
        want = [0] * m.dim
        for t, c in enumerate(x):
            image = Matrix.from_rows(f, m.actions[t], m.dim).mul(column).rows()
            want = [f.add(w, f.mul(c, r[0])) for w, r in zip(want, image)]
        assert m.act(x, v) == want


def test_missing_files_raise_file_not_found(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError):
        import_algebra(str(missing))
    with pytest.raises(FileNotFoundError):
        import_module(dim2(), str(missing))


def test_module_json_roundtrip():
    a = heisenberg(1)
    m = adjoint_module(a)
    data = m.to_json()
    assert import_module(a, data) == m


def module_inputs(fld, tmp_path):
    """(name, algebra, the action rows a module is built from, the module) for the
    trivial, adjoint and dual modules and a module file over `fld`."""
    a = heisenberg(1, fld) if fld.degree == 1 else zassenhaus_f(fld.degree)
    d = a.dim
    ad = [naive_ad_matrix(a, i) for i in range(d)]
    dual = [[[ad[i][nu][mu] for nu in range(d)] for mu in range(d)] for i in range(d)]
    # any one matrix is a module of the one-dimensional abelian algebra
    line = abelian(1, fld)
    rows = [[[fld.order - 1, 1], [0, fld.order - 1]]]
    path = tmp_path / f"module{fld.degree}.json"
    path.write_text(json.dumps(module_from_actions(line, rows, 2).to_json()))
    return [
        ("trivial", a, [[[0]] for _ in range(d)], trivial_module(a)),
        ("adjoint", a, ad, adjoint_module(a)),
        ("dual", a, dual, dual_module(a)),
        ("file", line, rows, import_module(line, str(path))),
    ]


@pytest.mark.parametrize("degree", [1, 2])
def test_the_actions_view_returns_the_input_rows(degree, tmp_path):
    fld = make_field(degree)
    for name, a, rows, m in module_inputs(fld, tmp_path):
        want = tuple(tuple(tuple(r) for r in mat) for mat in rows)
        assert m.actions == want, name
        assert m.rho == tuple(tuple(_pack_row(r, fld, m.dim) for r in mat) for mat in rows)
        assert m.acting == tuple(t for t, mat in enumerate(rows) if any(map(any, mat)))
    if degree == 2:  # an entry other than 0 and 1 survives the packing
        assert module_inputs(fld, tmp_path)[-1][3].actions == (((3, 1), (0, 3)),)


def test_a_module_built_from_lists_equals_one_built_from_tuples():
    a = heisenberg(1)
    lists = [[_pack_row(r, a.field, a.dim) for r in naive_ad_matrix(a, i)] for i in range(a.dim)]
    tuples = tuple(map(tuple, lists))
    from_lists = ModulePresentation(a, a.dim, lists)
    from_tuples = ModulePresentation(a, a.dim, tuples)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists == adjoint_module(a) and from_lists != dual_module(a)
    assert {from_lists: "first"}[from_tuples] == "first"


def test_a_negative_module_dimension_is_refused():
    a = abelian(0)  # no action matrices, so nothing but the dimension can be wrong
    with pytest.raises(PresentationError, match="negative module dimension"):
        ModulePresentation(a, -1, [])
    with pytest.raises(PresentationError, match="negative module dimension"):
        import_module(a, {"dim": -1, "actions": []})
    assert ModulePresentation(a, 0, []).dim == 0


REJECTED_RHO = {
    "bool row": [[True, 0], [0, 0]],
    "negative row": [[-1, 0], [0, 0]],
    "float row": [[1.0, 0], [0, 0]],
    "bit at lane dim": [[1 << 2, 0], [0, 0]],
    "dense row": [[[1, 0], 0], [0, 0]],
    "wrong row count": [[0], [0, 0]],
    "wrong matrix count": [[0, 0]],
}


@pytest.mark.parametrize("name", REJECTED_RHO)
def test_the_constructor_refuses_what_is_not_packed_rows(name):
    # over GF(2) a module of dimension 2 has rows below 2^2, and dim2 acts by 2 matrices
    with pytest.raises(PresentationError):
        ModulePresentation(dim2(), 2, REJECTED_RHO[name])


def test_the_constructor_keeps_every_row_within_its_lanes():
    assert ModulePresentation(dim2(), 2, [[3, 0], [0, 1]]).rho == ((3, 0), (0, 1))
    gf4 = dim2(make_field(2))  # 2-bit lanes: a row of 2 lanes is below 2^4
    assert ModulePresentation(gf4, 2, [[15, 0], [0, 0]]).actions[0] == ((3, 3), (0, 0))
    with pytest.raises(PresentationError, match="not a packed row of 2 lanes"):
        ModulePresentation(gf4, 2, [[16, 0], [0, 0]])


def test_import_module_reads_matrices_and_rows_as_arrays_only():
    # a row given as one string was once read a character at a time: "10" as [1, 0]
    a = abelian(2)
    for actions in (
        [["10", "01"], ["00", "00"]],
        ["1001", "0000"],
        "ab",
        {"0": [["1", "0"], ["0", "1"]]},
        [[["1", "0"], "01"], [["0", "0"], ["0", "0"]]],
    ):
        with pytest.raises(PresentationError, match="malformed module file"):
            import_module(a, {"dim": 2, "actions": actions})
    with pytest.raises(PresentationError, match="malformed module file"):
        import_module(abelian(1, make_field(4)), {"dim": 2, "actions": [["ab", "00"]]})
    arrays = [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]]
    m = import_module(a, {"dim": 2, "actions": arrays})
    assert m.actions == (((1, 0), (0, 1)), ((0, 0), (0, 0)))


def test_a_module_above_the_entry_cap_still_constructs():
    # the rows are read off the stored brackets and go through no matrix constructor, so
    # no cap applies, and neither does one to the vectors of `act`
    a = heisenberg(2)
    with entry_cap_override(a.dim - 1):
        m = adjoint_module(a)
        assert m.actions == tuple(tuple(map(tuple, naive_ad_matrix(a, i))) for i in range(a.dim))
        assert m.acting == (1, 2, 3, 4)
        assert m == adjoint_module(a)
        assert m.act([0, 1, 0, 0, 0], [0, 0, 0, 1, 0]) == [1, 0, 0, 0, 0]


def test_builders_check_the_entry_cap_before_they_build():
    # a runaway size fails at once, before the d^2 pairs of its bracket table
    for build in (
        lambda: abelian(10**12),
        lambda: heisenberg(10**12),
        lambda: zassenhaus_e(40),
        lambda: zassenhaus_f(40),
    ):
        with pytest.raises(SizeCapError, match="exceeds the cap 1000000"):
            build()
    # every builder below has dimension 7, so a 7 x 7 table is refused under a cap of 48
    builders = (
        lambda: abelian(7), lambda: heisenberg(3), lambda: zassenhaus_e(3), lambda: zassenhaus_f(3)
    )
    with entry_cap_override(48):
        for build in builders:
            with pytest.raises(SizeCapError, match="7 x 7 = 49 entries exceeds the cap 48"):
                build()
    with entry_cap_override(49):
        assert [build().dim for build in builders] == [7] * 4


def test_zassenhaus_builders_bound_n_before_they_compute_2_to_the_n():
    # 2^n for n = 10^11 would take about 12 GB, and every n past the cap's bit length
    # has a (2^n - 1)^2 table past the cap, so it is refused without computing 2^n
    n = 100_000_000_000
    for build in (zassenhaus_e, zassenhaus_f):
        with pytest.raises(SizeCapError) as err:
            build(n)
        assert str(err.value) == f"(2^{n} - 1) x (2^{n} - 1) entries exceeds the cap 1000000"
        # n = 20, the bit length of the default cap, is checked by its d x d table
        with pytest.raises(SizeCapError, match=r"^1048575 x 1048575 = \d+ entries exceeds"):
            build(20)
        with entry_cap_override(3 ** 2):
            with pytest.raises(SizeCapError, match=r"^\(2\^5 - 1\)"):
                build(5)
            assert build(2).dim == 3


def test_trivial_module_shape():
    m = trivial_module(zassenhaus_e(2))
    assert m.dim == 1
    assert all(mat == ((0,),) for mat in m.actions)


# ------------------------------------------------------------------
# derivations: the oracle behind the H^1 adjoint check of test_cohomology
# ------------------------------------------------------------------

DERIVATION_DIMS = {
    # (derivation space, inner derivations), checked by hand
    "dim2": (2, 2),
    "heisenberg1": (6, 2),
    "abelian3": (9, 0),
}


def test_derivation_dims():
    ders, inner = naive_derivation_space(dim2())
    assert (ders.dim, inner.dim) == DERIVATION_DIMS["dim2"]
    ders, inner = naive_derivation_space(heisenberg(1))
    assert (ders.dim, inner.dim) == DERIVATION_DIMS["heisenberg1"]
    ders, inner = naive_derivation_space(abelian(3))
    assert (ders.dim, inner.dim) == DERIVATION_DIMS["abelian3"]


def test_inner_contained_in_derivations():
    for a in (dim2(), heisenberg(2), zassenhaus_e(2), square_example()):
        ders, inner = naive_derivation_space(a)
        assert all(ders.contains(v) for v in inner.basis)


def test_derivations_satisfy_leibniz():
    a = heisenberg(1)
    ders, _ = naive_derivation_space(a)
    f = a.field
    d = a.dim
    for flat in ders.basis:
        mat = [list(flat[r * d : (r + 1) * d]) for r in range(d)]

        def apply(v):
            return [
                f.add(0, sum_bits)
                for sum_bits in (
                    _dot(f, mat[r], v) for r in range(d)
                )
            ]

        for i in range(d):
            for j in range(d):
                ei, ej = ([int(t == s) for t in range(d)] for s in (i, j))
                lhs = apply(a.bracket(ei, ej))
                rhs = [
                    f.add(p, q)
                    for p, q in zip(a.bracket(apply(ei), ej), a.bracket(ei, apply(ej)))
                ]
                assert lhs == rhs


def _dot(f, row, vec):
    acc = 0
    for a, b in zip(row, vec):
        acc = f.add(acc, f.mul(a, b))
    return acc
