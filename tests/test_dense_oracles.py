"""The packed algebra layer against the dense oracles in `oracles`.

The library computes the bracket, the square ideal and the module axiom
check on lane-packed rows with one packed bracket, the Jacobi check over
the stored brackets only, and the adjoint and dual modules' rows straight
from the stored brackets; each must agree with its dense `naive_*` twin,
which accumulates field elements entry by entry.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from commcoh.algebra import (
    AlgebraPresentation,
    ModulePresentation,
    PresentationError,
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
from commcoh.cochain import Cochain
from commcoh.cohomology import cohomology
from commcoh.field import make_field, scale_packed
from commcoh.linalg import Subspace, _pack_row
from commcoh.structure import central_extension
from oracles import (
    naive_ad_matrix,
    naive_axiom_violations,
    naive_bracket,
    naive_jacobi_violations,
    naive_square_ideal,
    naive_zassenhaus_relation_space,
)


# ------------------------------------------------------------------
# packed against dense
# ------------------------------------------------------------------


def square(f):
    """[x, x] = y: Jacobi holds, not an ordinary Lie algebra."""
    return AlgebraPresentation(f, 3, ["x", "y", "w"], {(0, 0): {1: 1}})


def broken(f):
    """[u, u] = v and [u, v] = u: Jacobi fails and the square ideal is not central."""
    return AlgebraPresentation(f, 2, ["u", "v"], {(0, 0): {1: 1}, (0, 1): {0: 1}})


BUILDERS = {
    "dim2": dim2,
    **{f"abelian{n}": (lambda f, n=n: abelian(n, f)) for n in range(4)},
    **{f"heisenberg{n}": (lambda f, n=n: heisenberg(n, f)) for n in (1, 2)},
    **{f"zassenhaus_e{n}": (lambda f, n=n: zassenhaus_e(n, f)) for n in (2, 3)},
    "square": square,
    "broken": broken,
}
CASES = [(name, k) for name in BUILDERS for k in (1, 2, 3)] + [
    ("zassenhaus_f2", 2),
    ("zassenhaus_f3", 3),
]


def build(name, k):
    if name.startswith("zassenhaus_f"):
        return zassenhaus_f(int(name[-1]))
    return BUILDERS[name](make_field(k))


def random_vector(rng, f, d):
    return [rng.randrange(f.order) if rng.random() < 0.5 else 0 for _ in range(d)]


def random_extension(rng, a):
    """The central extension of a by a random symmetric 2-cocycle with trivial coefficients."""
    f = a.field
    res = cohomology(a, trivial_module(a), 2)
    bits = 0
    for row in res.cocycles._packed_basis():
        bits ^= scale_packed(row, rng.randrange(f.order), f)
    return central_extension(a, Cochain(res.space, bits))


def outcome(fn, *args):
    """What fn returns, or the type and text of the PresentationError it raises."""
    try:
        return fn(*args)
    except PresentationError as exc:
        return ("PresentationError", str(exc))


@pytest.mark.parametrize("name,k", CASES)
@given(seed=st.integers(0, 2**32 - 1), extend=st.booleans())
@settings(max_examples=6, deadline=None)
def test_packed_structure_matches_dense_oracles(name, k, seed, extend):
    rng = random.Random(seed)
    a = build(name, k)
    if extend and name != "broken":
        a = random_extension(rng, a)
    f, d = a.field, a.dim

    assert outcome(a.square_ideal) == outcome(naive_square_ideal, a)

    x, y = random_vector(rng, f, d), random_vector(rng, f, d)
    assert a.bracket(x, y) == naive_bracket(a, x, y)

    m = rng.randrange(1, 4)
    actions = [[random_vector(rng, f, m) for _ in range(m)] for _ in range(d)]
    # not a module in general: built from packed rows, it skips the axiom check
    random_module = ModulePresentation(a, m, [[_pack_row(r, f, m) for r in mat] for mat in actions])
    for module in (trivial_module(a), adjoint_module(a), dual_module(a), random_module):
        assert module.axiom_violations() == naive_axiom_violations(module)


ADJOINT_CASES = {
    "dim2": dim2,
    "square": lambda: square(make_field(1)),
    **{f"heisenberg{n}": (lambda n=n: heisenberg(n)) for n in (1, 2, 3)},
    **{f"zassenhaus_e{n}": (lambda n=n: zassenhaus_e(n)) for n in range(2, 7)},
    **{f"zassenhaus_f{n}": (lambda n=n: zassenhaus_f(n)) for n in (2, 3, 4)},
    **{
        f"extension_{base}_k{k}": (
            lambda base=base, k=k: random_extension(random.Random(k), BUILDERS[base](make_field(k)))
        )
        for base in ("heisenberg1", "zassenhaus_e3", "square")
        for k in (1, 2, 3)
    },
}


@pytest.mark.parametrize("name", ADJOINT_CASES)
def test_adjoint_and_dual_rows_match_the_dense_ad_matrices(name):
    # the rows read off the stored brackets are the dense ad(e_t), and its transpose, packed;
    # the dense door `module_from_actions` builds the same modules, hashes included
    a = ADJOINT_CASES[name]()
    f, d = a.field, a.dim
    ad = [naive_ad_matrix(a, t) for t in range(d)]
    transposed = [[list(col) for col in zip(*mat)] for mat in ad]
    adjoint, dual = adjoint_module(a), dual_module(a)
    assert adjoint.rho == tuple(tuple(_pack_row(r, f, d) for r in mat) for mat in ad)
    assert dual.rho == tuple(tuple(_pack_row(r, f, d) for r in mat) for mat in transposed)
    assert adjoint.acting == dual.acting == tuple(t for t in range(d) if any(map(any, ad[t])))
    for built, dense in ((adjoint, ad), (dual, transposed)):
        from_dense = module_from_actions(a, dense, d)
        assert from_dense == built and hash(from_dense) == hash(built)


def random_table(rng, f, d):
    """A commutative table on d basis elements: each pair i <= j and each target drawn
    with probability 1/2, each coefficient uniform, so most tables violate Jacobi."""
    brackets = {
        (i, j): {s: rng.randrange(f.order) for s in range(d) if rng.random() < 0.5}
        for i in range(d)
        for j in range(i, d)
        if rng.random() < 0.5
    }
    return AlgebraPresentation(f, d, [f"x{i}" for i in range(d)], brackets)


def test_jacobi_over_stored_brackets_matches_the_dense_walk():
    # the triples, their order and the jacobiator tuples all agree
    rng = random.Random(31)
    violating = 0
    for k in (1, 2, 3):
        f = make_field(k)
        for d in range(1, 5):
            for _ in range(60):
                a = random_table(rng, f, d)
                want = naive_jacobi_violations(a)
                assert a.jacobi_violations() == want, a.brackets
                violating += bool(want)
    assert violating > 720 // 2
    builders = [dim2(), abelian(3)] + [heisenberg(n) for n in (1, 2, 3)]
    builders += [zassenhaus_e(n) for n in range(2, 7)] + [zassenhaus_f(n) for n in (2, 3, 4)]
    for a in builders:
        assert a.jacobi_violations() == naive_jacobi_violations(a) == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zassenhaus_relation_space_matches_dense_oracle(n):
    # with mu_a = a lam_a the relations say mu is additive, so the solutions are
    # lam_a = a^(2^k - 1) for the n Frobenius powers a -> a^(2^k), k < n
    f = make_field(n)
    closed_form = [[f.pow(a, (1 << k) - 1) for a in range(1, f.order)] for k in range(n)]
    assert naive_zassenhaus_relation_space(n) == Subspace.from_vectors(f, closed_form, f.order - 1)
