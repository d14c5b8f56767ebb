"""Acceptance gate: one test per shipped guarantee, one line of output each.

Run with -v to get a pass/fail line per criterion, or -s to also see the
summary prints.  Everything here is exact arithmetic; no tolerances.
"""

import random

from commcoh.field import make_field
from commcoh.algebra import (
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
from commcoh.cochain import (
    cochain_space,
    contract,
    delta,
    differential_matrix,
    lie_derivative,
)
from commcoh.cohomology import cohomology
from commcoh.structure import (
    comparison_comm_to_leibniz,
    comparison_lie_to_comm,
    base_change,
    exact_sequence_check,
)
from commcoh.cup import cup
from commcoh.linalg import Matrix, Subspace, entry_cap_override, kernel_basis, rank
from commcoh.morse import (
    BasedComplex,
    Matching,
    MorseError,
    greedy_matching,
    heisenberg_matching,
    morse_complex,
    validate_matching,
)
from oracles import (
    binom_mod2,
    heisenberg_unmatched_cells,
    naive_zassenhaus_relation_space,
    triple_to_tuple,
    zassenhaus_printed_basis_report,
)

GF2 = make_field(1)

BUILDERS = {
    "abelian:1": abelian(1),
    "abelian:2": abelian(2),
    "abelian:3": abelian(3),
    "abelian:4": abelian(4),
    "dim2": dim2(),
    "heisenberg:1": heisenberg(1),
    "heisenberg:2": heisenberg(2),
    "zassenhaus-e:2": zassenhaus_e(2),
    "zassenhaus-e:3": zassenhaus_e(3),
}

MODULES = (trivial_module, adjoint_module, dual_module)


def report(k, text):
    print(f"ACCEPTANCE {k:02d}: PASS  {text}")


def test_criterion_01_differential_squares_to_zero():
    # matrix route for the two flavors whose spaces stay small
    with entry_cap_override(100_000_000):
        for name, a in BUILDERS.items():
            for mk in MODULES:
                m = mk(a)
                for flavor in ("symmetric", "alternating"):
                    prev = differential_matrix(a, m, 0, flavor)
                    for n in range(6):
                        nxt = differential_matrix(a, m, n + 1, flavor)
                        assert nxt.mul(prev).is_zero(), (name, flavor, n)
                        prev = nxt
    # sparse route for the tensor flavor, whose matrices blow up past d = 4;
    # degree-7 targets reach 7^7 * 7 lanes, over the default entry cap
    rng = random.Random(20260818)
    with entry_cap_override(10_000_000):
        for name, a in BUILDERS.items():
            d = a.dim
            for mk in MODULES:
                m = mk(a)
                for _ in range(12):
                    n = rng.randrange(0, 6)
                    items = {}
                    for _ in range(5):
                        tpl = tuple(rng.randrange(d) for _ in range(n))
                        items[(tpl, rng.randrange(m.dim))] = 1
                    space = cochain_space(a, m, n, "tensor")
                    assert delta(delta(space.from_items(items))).is_zero(), (name, n)
    report(1, "d(d(phi)) = 0 in all three flavors, 9 algebras x 3 modules, degrees 0..5")


def test_criterion_02_cartan_identities():
    checked = 0
    for a in (dim2(), heisenberg(1)):
        d = a.dim
        basis = [[1 if t == s else 0 for t in range(d)] for s in range(d)]
        for mk in (trivial_module, adjoint_module):
            m = mk(a)
            for n in range(4):
                sp = cochain_space(a, m, n)
                for idx in range(sp.dim):
                    phi = sp.basis_cochain(idx)
                    for x in basis:
                        assert lie_derivative(x, delta(phi)) == delta(lie_derivative(x, phi))
                        if n >= 1:
                            homotopy = delta(contract(x, phi)) + contract(x, delta(phi))
                            assert homotopy == lie_derivative(x, phi)
                            for y in basis:
                                xy = a.bracket(x, y)
                                mixed = lie_derivative(x, contract(y, phi)) + contract(
                                    y, lie_derivative(x, phi)
                                )
                                assert mixed == contract(xy, phi)
                        checked += 1
    report(2, f"Cartan identities on {checked} basis cochain/vector combinations")


def chi(a, p, q):
    sp = cochain_space(a, trivial_module(a), p + q)
    return sp.basis_cochain(sp.index(tuple([0] * p + [1] * q)))


def test_criterion_03_two_dimensional_algebra():
    a = dim2()
    k = trivial_module(a)
    for n in range(7):
        sp = cochain_space(a, k, n)
        tgt = cochain_space(a, k, n + 1)
        for p in range(n + 1):
            q = n - p
            want = tgt.zero()
            if (p * (q + 1)) % 2:
                want = chi(a, p, q + 1)
            assert delta(chi(a, p, q)) == want, (p, q)
        assert cohomology(a, k, n).dim_H == n // 2 + 1
    for p in range(4):
        for q in range(4 - p):
            for r in range(7 - p - q):
                for s in range(7 - p - q - r):
                    coeff = binom_mod2(p + r, p) * binom_mod2(q + s, q)
                    want = chi(a, p + r, q + s).scale(coeff)
                    assert cup(chi(a, p, q), chi(a, r, s)) == want
    # every basis class chi_{p,q} with p even factors through the generators
    # chi_{2^k,0} (k >= 1) and chi_{0,q}
    for n in range(7):
        for p in range(0, n + 1, 2):
            q = n - p
            power_product = chi(a, 0, 0)
            for k in range(p.bit_length()):
                if (p >> k) & 1:
                    power_product = cup(power_product, chi(a, 1 << k, 0))
            assert power_product == chi(a, p, 0)
            assert cup(chi(a, p, 0), chi(a, 0, q)) == chi(a, p, q)
    report(3, "dim2: differential formula, H dims, cup formula, ring generators, degrees <= 6")


def test_criterion_04_one_dimensional_algebra():
    a = abelian(1)
    cases = (
        ([[0, 0], [0, 0]], 2),
        ([[1, 0], [0, 1]], 2),
        ([[0, 1], [0, 0]], 2),
    )
    for T, mdim in cases:
        m = module_from_actions(a, [T], mdim)
        tmat = Matrix.from_rows(GF2, T, mdim)
        ker = mdim - rank(tmat)
        coker = mdim - rank(tmat)
        for n in range(6):
            want = ker if n % 2 == 0 else coker
            assert cohomology(a, m, n).dim_H == want, (T, n)
            assert cohomology(a, m, n, "tensor").dim_H == want, (T, n)
    report(4, "1-dim algebra: H alternates ker/coker of the action, tensor flavor agrees, degrees <= 5")


def test_criterion_05_heisenberg_collapse():
    tables = {1: [1, 2, 4, 6], 2: [1, 4, 9, 20]}
    for ell, table in tables.items():
        a = heisenberg(ell)
        k = trivial_module(a)
        brute = [cohomology(a, k, n).dim_H for n in range(4)]
        assert brute == table
        cx, matching = heisenberg_matching(ell, 4)
        validate_matching(cx, matching)
        red = morse_complex(cx, matching)
        assert red.reduced.dims()[:4] == table
        for mat in red.reduced.matrices[:3]:
            assert mat.is_zero()
        assert red.reduced.cohomology_dims() == cx.cohomology_dims()
        for n in range(4):
            fam0, fam1 = heisenberg_unmatched_cells(ell, n)
            assert len(fam0) + len(fam1) == table[n]
            sp = cochain_space(a, k, n)
            cells = {
                sp.label(sp.tuple_index(triple_to_tuple(ell, *t))) for t in fam0 + fam1
            }
            assert set(red.reduced.labels[n]) == cells
    report(5, "heisenberg l=1,2: matching valid, critical cells match closed form and brute dims, n <= 3")


def heis1_family_classes(n):
    a = heisenberg(1)
    k = trivial_module(a)
    fam0, fam1 = heisenberg_unmatched_cells(1, n)
    sp = cochain_space(a, k, n)
    res = cohomology(a, k, n)
    duals = lambda fam: [
        sp.basis_cochain(sp.tuple_index(triple_to_tuple(1, *t))) for t in fam
    ]
    return res, duals(fam0), duals(fam1)


def test_criterion_06_heisenberg_ring_splitting():
    f = GF2
    products = 0
    for p in range(4):
        for q in range(p, 4 - p):
            if p + q == 0:
                continue
            _, f0p, f1p = heis1_family_classes(p)
            _, f0q, f1q = heis1_family_classes(q)
            res, f0t, f1t = heis1_family_classes(p + q)
            span0 = Subspace.from_vectors(
                f, [res.class_coordinates(c) for c in f0t], res.dim_H
            )
            span1 = Subspace.from_vectors(
                f, [res.class_coordinates(c) for c in f1t], res.dim_H
            )
            checks = (
                (f0p, f0q, span0),
                (f0p, f1q, span1),
                (f1p, f0q, span1),
                (f1p, f1q, span1),
            )
            for lefts, rights, target in checks:
                for x in lefts:
                    for y in rights:
                        prod = cup(x, y)
                        assert delta(prod).is_zero()
                        assert target.contains(res.class_coordinates(prod))
                        products += 1
    report(6, f"heisenberg l=1 ring splits: {products} products stay in the right family span")


def test_criterion_07_zassenhaus_degree_two():
    for n in (2, 3, 4):
        a = zassenhaus_e(n)
        k = trivial_module(a)
        res = cohomology(a, k, 2)
        assert res.dim_Z == 2**n + n - 1
        assert res.dim_H == n
        assert cohomology(a, k, 2, "alternating").dim_H == 0
    reports = {n: zassenhaus_printed_basis_report(n) for n in (2, 3)}
    for n, rec in reports.items():
        assert set(rec) >= {"dimH2", "candidates", "cocycle_flags", "span_rank", "spans"}
        assert rec["dimH2"] == n
        print(f"  printed degree-2 family for n={n}: "
              f"cocycle flags {rec['cocycle_flags']}, spans computed H2: {rec['spans']}")
    report(7, "zassenhaus e-basis: dim Z2 = 2^n+n-1, dim H2 = n (n=2,3,4), alternating H2 = 0; "
              "printed family recorded above")


def test_criterion_08_zassenhaus_f_basis():
    af = zassenhaus_f(2)
    assert af.field.order == 4
    assert af.jacobi_violations() == []
    assert cohomology(af, trivial_module(af), 2).dim_H == 2
    for n in (2, 3):
        assert naive_zassenhaus_relation_space(n).dim == n
    report(8, "zassenhaus f-basis over GF(4): axioms hold, dim H2 = 2, relation space dim = n")


def test_criterion_09_exact_sequence():
    for name in ("dim2", "heisenberg:1", "zassenhaus-e:2"):
        rep = exact_sequence_check(BUILDERS[name])
        assert rep.defects == [], name
        assert rep.map1_injective, name
        assert rep.exact_at_h1 and rep.exact_at_balt, name
        assert rep.ok, name
    report(9, "four-term sequence exact on dim2, heisenberg:1, zassenhaus-e:2")


def test_criterion_10_comparison_maps():
    everything = dict(BUILDERS)
    everything["zassenhaus-f:2"] = zassenhaus_f(2)
    for name, a in everything.items():
        k = trivial_module(a)
        for n in (0, 1):
            assert comparison_lie_to_comm(a, k, n).is_isomorphism, (name, n)
            assert comparison_comm_to_leibniz(a, k, n).is_isomorphism, (name, n)
        c1 = comparison_lie_to_comm(a, k, 2)
        c2 = comparison_comm_to_leibniz(a, k, 2)
        assert c1.kernel_dim == 0 and c2.kernel_dim == 0, name
        assert not (c1.chain_defects or c2.chain_defects), name
    report(10, "comparison maps: iso in degrees 0,1 and injective in degree 2 on all builders")


def test_criterion_11_base_change():
    for name in ("dim2", "heisenberg:1", "zassenhaus-e:2"):
        a = BUILDERS[name]
        k = trivial_module(a)
        a4, k4 = base_change(a, k, 2)
        for n in range(4):
            small = cohomology(a, k, n)
            big = cohomology(a4, k4, n)
            assert (small.dim_Z, small.dim_B, small.dim_H) == (
                big.dim_Z,
                big.dim_B,
                big.dim_H,
            ), (name, n)
    report(11, "cohomology dims unchanged from GF(2) to GF(4) on three builders, degrees <= 3")


def random_cochain(sp, rng):
    if sp.dim <= 60:
        return sp.cochain([rng.randrange(2) for _ in range(sp.dim)])
    coeffs = [0] * sp.dim
    for _ in range(8):
        coeffs[rng.randrange(sp.dim)] = 1
    return sp.cochain(coeffs)


def test_criterion_12_cup_axioms():
    for seed, (name, a) in enumerate(BUILDERS.items()):
        k = trivial_module(a)
        one = cochain_space(a, k, 0).basis_cochain(0)
        rng = random.Random(7000 + seed)
        for event in range(200):
            p = rng.randrange(1, 5)
            q = rng.randrange(1, 6 - p)
            f = random_cochain(cochain_space(a, k, p), rng)
            g = random_cochain(cochain_space(a, k, q), rng)
            assert cup(f, g) == cup(g, f)
            assert cup(one, f) == f
            if event % 4 == 0:
                assert delta(cup(f, g)) == cup(delta(f), g) + cup(f, delta(g))
            if event % 4 == 1 and p + q < 5:
                r = rng.randrange(1, 6 - p - q)
                h = random_cochain(cochain_space(a, k, r), rng)
                assert cup(cup(f, g), h) == cup(f, cup(g, h))
            if event % 4 == 2:
                res = cohomology(a, k, p)
                if res.representatives:
                    z = res.representatives[rng.randrange(len(res.representatives))]
                    assert delta(cup(z, g)).is_zero() or not delta(g).is_zero()
                    # cocycle cup coboundary is the coboundary of cocycle cup cochain
                    assert cup(z, delta(g)) == delta(cup(z, g))
    report(12, "cup product: unit, commutative, associative, Leibniz, closure; 200 draws x 9 builders")


def random_based_complex(field, rng, dims):
    m0, m1, m2 = dims
    d0 = Matrix.from_rows(
        field,
        [[rng.choice(field.elements()) for _ in range(m0)] for _ in range(m1)],
        m0,
    )
    left = kernel_basis(d0.transpose()).basis
    rows = []
    for _ in range(m2):
        row = [0] * m1
        for vec in left:
            c = rng.choice(field.elements())
            if c:
                row = [field.add(r, field.mul(c, v)) for r, v in zip(row, vec)]
        rows.append(row)
    d1 = Matrix.from_rows(field, rows, m1)
    labels = [[f"c{n}_{i}" for i in range(m)] for n, m in enumerate(dims)]
    return BasedComplex(field, [d0, d1], labels)


def test_criterion_13_morse_reduction():
    for order, field in ((2, GF2), (4, make_field(2))):
        rng = random.Random(order)
        for trial in range(50):
            dims = [rng.randrange(1, 7) for _ in range(3)]
            cx = random_based_complex(field, rng, dims)
            matching = greedy_matching(cx)
            validate_matching(cx, matching)
            red = morse_complex(cx, matching)
            assert red.reduced.cohomology_dims() == cx.cohomology_dims(), (order, trial)
    # each validation condition rejects a constructed violation
    mat = Matrix.from_rows(GF2, [[1, 1], [1, 1]], 2)
    square = BasedComplex(GF2, [mat], [["x1", "x2"], ["y1", "y2"]])
    for bad, snippet in (
        (Matching([(5, 0, 0)]), "outside"),
        (Matching([(0, 9, 0)]), "nonexistent"),
        (Matching([(0, 0, 0), (0, 0, 1)]), "two pairs"),
        (Matching([(0, 0, 0), (0, 1, 1)]), "cyclic"),
    ):
        try:
            validate_matching(square, bad)
        except MorseError as exc:
            assert snippet in str(exc)
        else:
            raise AssertionError(f"matching {bad.pairs} should have been rejected")
    zero_mat = Matrix.from_rows(GF2, [[0]], 1)
    loose = BasedComplex(GF2, [zero_mat], [["s"], ["t"]])
    try:
        validate_matching(loose, Matching([(0, 0, 0)]))
    except MorseError as exc:
        assert "zero incidence" in str(exc)
    else:
        raise AssertionError("zero-incidence pair should have been rejected")
    report(13, "morse: 100 random reductions preserve cohomology; all five rejection paths fire")
