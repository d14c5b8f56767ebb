"""Dense reference versions of the algebra and structure layers.

The library computes square ideals, quotients, subalgebras, module axioms,
derivations, invariants and the Zassenhaus relation space on lane-packed
rows with one packed bracket.  The `naive_*` functions below are the earlier
dense implementations, kept as oracles the way `naive_rref` is kept for the
elimination engine: each accumulates field elements entry by entry with
`f.add`, and brackets go through `naive_bracket`, a dense loop over the
structure constants that shares no code with `packed_bracket`.
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
    derivation_space,
    dim2,
    dual_module,
    heisenberg,
    span_subalgebra,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from commcoh.cochain import Cochain
from commcoh.cohomology import cohomology
from commcoh.field import make_field
from commcoh.linalg import Matrix, Subspace, kernel_basis, scale_packed
from commcoh.structure import (
    abelianization_dual_dim,
    central_extension,
    invariants_subspace,
    zassenhaus_relation_space,
)


# ------------------------------------------------------------------
# the dense oracles
# ------------------------------------------------------------------


def naive_bracket(a, x, y):
    """[x, y] by a dense loop over the structure constants, pairs i <= j."""
    f = a.field
    out = [0] * a.dim
    for (i, j), value in a.brackets.items():
        if i == j:
            c = f.mul(x[i], y[i])
        else:
            c = f.add(f.mul(x[i], y[j]), f.mul(x[j], y[i]))
        if c:
            for s, bits in value.items():
                out[s] = f.add(out[s], f.mul(c, bits))
    return out


def naive_square_ideal(a):
    vecs = []
    for i in range(a.dim):
        diag = a.bracket_basis(i, i)
        if diag:
            v = [0] * a.dim
            for s, bits in diag.items():
                v[s] = bits
            vecs.append(v)
    sub = Subspace.from_vectors(a.field, vecs, a.dim)
    for v in sub.basis:
        for j in range(a.dim):
            if any(naive_bracket(a, list(v), a.basis_vector(j))):
                raise PresentationError(
                    f"square ideal is not central at basis index {j}; Jacobi must fail"
                )
    return sub


def naive_quotient_by(a, ideal):
    if ideal.ambient_dim != a.dim or ideal.field != a.field:
        raise PresentationError("ideal does not live in this algebra")
    for v in ideal.basis:
        for j in range(a.dim):
            img = naive_bracket(a, list(v), a.basis_vector(j))
            if not ideal.contains(img):
                raise PresentationError(
                    f"subspace is not an ideal: [{v}, e_{j}] = {tuple(img)} escapes it"
                )
    pivot_set = set(ideal.pivots)
    free = [c for c in range(a.dim) if c not in pivot_set]
    r = len(free)
    proj = Matrix.from_rows(
        a.field,
        [[ideal.reduce(a.basis_vector(j))[c] for j in range(a.dim)] for c in free],
        a.dim,
    )
    names = [a.basis_names[c] for c in free]
    new_brackets = {}
    for x in range(r):
        for y in range(x, r):
            img = naive_bracket(a, a.basis_vector(free[x]), a.basis_vector(free[y]))
            residual = ideal.reduce(img)
            entry = {t: residual[c] for t, c in enumerate(free) if residual[c]}
            if entry:
                new_brackets[(x, y)] = entry
    return AlgebraPresentation(a.field, r, names, new_brackets), proj


def naive_span_subalgebra(a, generators):
    vecs = [list(v) for v in generators]
    span = Subspace.from_vectors(a.field, vecs, a.dim)
    while True:
        new = []
        basis = [list(v) for v in span.basis]
        for x in range(len(basis)):
            for y in range(x, len(basis)):
                img = naive_bracket(a, basis[x], basis[y])
                if not span.contains(img):
                    new.append(img)
        if not new:
            break
        span = Subspace.from_vectors(a.field, basis + new, a.dim)
    basis = [list(v) for v in span.basis]
    r = len(basis)
    brackets = {}
    for x in range(r):
        for y in range(x, r):
            coords = span.coordinates(naive_bracket(a, basis[x], basis[y]))
            assert coords is not None
            entry = {t: c for t, c in enumerate(coords) if c}
            if entry:
                brackets[(x, y)] = entry
    return AlgebraPresentation(a.field, r, [f"g{i}" for i in range(r)], brackets), span


def naive_axiom_violations(module):
    f = module.algebra.field
    d = module.algebra.dim
    m = module.dim
    mats = [Matrix.from_rows(f, rows, m) for rows in module.actions]
    violations = []
    for i in range(d):
        for j in range(i, d):
            lhs = [[0] * m for _ in range(m)]
            for s, bits in module.algebra.bracket_basis(i, j).items():
                for mu in range(m):
                    row = module.actions[s][mu]
                    for nu in range(m):
                        if row[nu]:
                            lhs[mu][nu] = f.add(lhs[mu][nu], f.mul(bits, row[nu]))
            rhs = mats[i].mul(mats[j]).add(mats[j].mul(mats[i])).rows()
            defect = [
                (mu, nu, lhs[mu][nu], rhs[mu][nu])
                for mu in range(m)
                for nu in range(m)
                if lhs[mu][nu] != rhs[mu][nu]
            ]
            if defect:
                violations.append((i, j, tuple(defect)))
    return violations


def naive_derivation_space(a):
    f = a.field
    d = a.dim
    rows = []
    for i in range(d):
        for j in range(i, d):
            bb = a.bracket_basis(i, j)
            for t in range(d):
                row = [0] * (d * d)
                for s, bits in bb.items():
                    row[t * d + s] = f.add(row[t * d + s], bits)
                for u in range(d):
                    c = a.bracket_basis(u, j).get(t, 0)
                    if c:
                        row[u * d + i] = f.add(row[u * d + i], c)
                    c2 = a.bracket_basis(i, u).get(t, 0)
                    if c2:
                        row[u * d + j] = f.add(row[u * d + j], c2)
                if any(row):
                    rows.append(row)
    ders = kernel_basis(Matrix.from_rows(f, rows, d * d))
    inner_vecs = []
    for i in range(d):
        ad = a.ad_matrix(i)
        inner_vecs.append([ad[u][v] for u in range(d) for v in range(d)])
    return ders, Subspace.from_vectors(f, inner_vecs, d * d)


def naive_invariants_subspace(a, module):
    rows = []
    for i in range(a.dim):
        rows.extend(module.actions[i])
    return kernel_basis(Matrix.from_rows(a.field, rows, module.dim))


def naive_abelianization_dual_dim(a):
    vecs = []
    for value in a.brackets.values():
        v = [0] * a.dim
        for s, bits in value.items():
            v[s] = bits
        vecs.append(v)
    return a.dim - Subspace.from_vectors(a.field, vecs, a.dim).dim


def naive_zassenhaus_relation_space(n):
    f = make_field(n)
    alphas = list(range(1, f.order))
    index = {a: i for i, a in enumerate(alphas)}
    rows = []
    for x in range(len(alphas)):
        for y in range(x + 1, len(alphas)):
            a, b = alphas[x], alphas[y]
            c = a ^ b
            row = [0] * len(alphas)
            row[index[a]] = f.add(row[index[a]], a)
            row[index[b]] = f.add(row[index[b]], b)
            row[index[c]] = f.add(row[index[c]], c)
            rows.append(row)
    return kernel_basis(Matrix.from_rows(f, rows, len(alphas)))


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
    assert abelianization_dual_dim(a) == naive_abelianization_dual_dim(a)
    assert derivation_space(a) == naive_derivation_space(a)

    x, y = random_vector(rng, f, d), random_vector(rng, f, d)
    assert a.bracket(x, y) == naive_bracket(a, x, y)

    # quotients by ideals (the square ideal where it is one, [L, L]) and by a
    # random subspace, which is mostly not an ideal and must fail with the same text
    brackets = [[value.get(s, 0) for s in range(d)] for value in a.brackets.values()]
    derived = Subspace.from_vectors(f, brackets, d)
    ideals = [derived, Subspace.from_vectors(f, [random_vector(rng, f, d)], d)]
    if name != "broken":
        ideals.append(a.square_ideal())
    for ideal in ideals:
        assert outcome(a.quotient_by, ideal) == outcome(naive_quotient_by, a, ideal)

    generators = [random_vector(rng, f, d) for _ in range(rng.randrange(3))]
    assert span_subalgebra(a, generators) == naive_span_subalgebra(a, generators)

    m = rng.randrange(1, 4)
    actions = [[random_vector(rng, f, m) for _ in range(m)] for _ in range(d)]
    random_module = ModulePresentation(a, m, actions)
    for module in (trivial_module(a), adjoint_module(a), dual_module(a), random_module):
        assert module.axiom_violations() == naive_axiom_violations(module)
        assert invariants_subspace(a, module) == naive_invariants_subspace(a, module)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zassenhaus_relation_space_matches_dense_oracle(n):
    assert zassenhaus_relation_space(n) == naive_zassenhaus_relation_space(n)
