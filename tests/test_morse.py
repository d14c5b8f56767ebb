import random
import re

import pytest

from commcoh import morse
from commcoh.field import make_field
from commcoh.algebra import (
    adjoint_module,
    dim2,
    heisenberg,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from commcoh.cochain import cochain_space
from commcoh.cohomology import cohomology
from commcoh.linalg import Matrix, _pack_row, entry_cap_override, kernel_basis, rank, solve
from commcoh.morse import (
    BasedComplex,
    Matching,
    MorseError,
    complex_from_cochains,
    greedy_matching,
    heisenberg_matching,
    heisenberg_unmatched_cells,
    morse_complex,
    triple_to_tuple,
    tuple_to_triple,
    validate_matching,
)

GF2 = make_field(1)


# ------------------------------------------------------------------
# hand-built matchings on the worked examples
# ------------------------------------------------------------------


def dim2_matching(top):
    # pair the dual of a^p b^q with the dual of a^p b^{q+1} when p is odd and
    # q is even; exactly the even-p cells survive
    a = dim2()
    k = trivial_module(a)
    cx = complex_from_cochains(a, k, "symmetric", top)
    spaces = [cochain_space(a, k, n) for n in range(top + 1)]
    pairs = []
    for n in range(top):
        for i, tpl in enumerate(spaces[n].tuples):
            p = sum(1 for t in tpl if t == 0)
            q = n - p
            if p % 2 == 1 and q % 2 == 0:
                head = tuple(sorted(tpl + (1,)))
                pairs.append((n, i, spaces[n + 1].tuple_index(head)))
    return cx, Matching(pairs)


def test_dim2_matching_reduces_to_cohomology():
    top = 6
    cx, matching = dim2_matching(top)
    red = morse_complex(cx, matching)
    assert red.reduced.dims() == [n // 2 + 1 for n in range(top + 1)]
    for mat in red.reduced.matrices:
        assert mat.is_zero()
    assert red.reduced.cohomology_dims() == [n // 2 + 1 for n in range(top)]
    assert red.reduced.cohomology_dims() == cx.cohomology_dims()


def test_dim2_matching_label_roundtrip():
    cx, matching = dim2_matching(3)
    rebuilt = Matching.from_labels(cx, matching.label_pairs(cx))
    assert rebuilt.pairs == matching.pairs
    blob = matching.to_json(cx)
    assert {"degree": 1, "tail": "(a)", "head": "(a,b)"} in blob


HEIS_TABLES = {1: [1, 2, 4, 6, 9], 2: [1, 4, 9, 20]}


def test_heisenberg_matching_collapses():
    for ell, table in HEIS_TABLES.items():
        top = len(table)
        cx, matching = heisenberg_matching(ell, top)
        red = morse_complex(cx, matching)
        # below the truncation degree the critical cells compute cohomology
        # with zero differential; the top degree is polluted by cut-off pairs
        assert red.reduced.dims()[:top] == table
        for mat in red.reduced.matrices[: top - 1]:
            assert mat.is_zero()
        assert red.reduced.cohomology_dims() == cx.cohomology_dims()
        a = heisenberg(ell)
        k = trivial_module(a)
        for n, want in enumerate(table):
            assert cohomology(a, k, n).dim_H == want


def test_heisenberg_closed_form_cells():
    for ell, table in HEIS_TABLES.items():
        top = len(table)
        cx, matching = heisenberg_matching(ell, top)
        red = morse_complex(cx, matching)
        a = heisenberg(ell)
        k = trivial_module(a)
        for n in range(top):
            fam0, fam1 = heisenberg_unmatched_cells(ell, n)
            triples = fam0 + fam1
            assert len(set(triples)) == len(triples)
            assert len(triples) == table[n]
            sp = cochain_space(a, k, n)
            want = {sp.label(sp.tuple_index(triple_to_tuple(ell, *t))) for t in triples}
            assert set(red.reduced.labels[n]) == want


def test_heisenberg_closed_form_cells_in_higher_degrees():
    # below the top degree of each complex, where no pair is cut off
    with entry_cap_override(10**8):
        for ell, top in ((3, 8), (4, 7), (5, 6)):
            cx, matching = heisenberg_matching(ell, top)
            labels = morse_complex(cx, matching).reduced.labels
            a = heisenberg(ell)
            for n in range(top):
                sp = cochain_space(a, trivial_module(a), n)
                fam0, fam1 = heisenberg_unmatched_cells(ell, n)
                want = [sp.label(sp.tuple_index(triple_to_tuple(ell, *t))) for t in fam0 + fam1]
                assert sorted(labels[n]) == sorted(want), (ell, n)


def compositions(total, parts):
    """The tuples of `parts` nonnegative ints with this total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for tail in compositions(total - first, parts - 1):
            yield (first,) + tail


def unmatched_cells_from_compositions(ell, degree):
    """The closed-form families, over every (alpha, beta, gamma) of the degree from compositions."""

    def max_both(beta, gamma, parity):
        return max((k for k in range(ell) if beta[k] % 2 == gamma[k] % 2 == parity), default=-1)

    family0, family1 = [], []
    for alpha in range(degree + 1):
        rest = degree - alpha
        for beta_total in range(rest + 1):
            for beta in compositions(beta_total, ell):
                for gamma in compositions(rest - beta_total, ell):
                    even_k, odd_k = max_both(beta, gamma, 0), max_both(beta, gamma, 1)
                    if even_k == odd_k == -1:
                        family1.append((alpha, beta, gamma))
                    elif alpha == 0 and even_k > odd_k:
                        family0.append((alpha, beta, gamma))
    return family0, family1


def test_heisenberg_families_match_the_composition_enumeration():
    for ell in (1, 2, 3, 4):
        for n in range(7):
            fam0, fam1 = heisenberg_unmatched_cells(ell, n)
            old0, old1 = unmatched_cells_from_compositions(ell, n)
            assert len(fam0) == len(old0) and len(fam1) == len(old1), (ell, n)
            assert (set(fam0), set(fam1)) == (set(old0), set(old1)), (ell, n)


def test_triple_tuple_roundtrip():
    for ell in (1, 2, 3):
        for alpha in range(3):
            for beta in ((0,) * ell, (1,) + (0,) * (ell - 1), (2,) * ell):
                gamma = tuple(reversed(beta))
                tpl = triple_to_tuple(ell, alpha, beta, gamma)
                assert tuple_to_triple(ell, tpl) == (alpha, beta, gamma)


# ------------------------------------------------------------------
# validation
# ------------------------------------------------------------------


def test_matching_rejects_zero_incidence():
    cx, _ = dim2_matching(2)
    # d kills the dual of b, so pairing it with the dual of b^2 is illegal
    bad = Matching([(1, 1, 2)])
    with pytest.raises(MorseError, match="zero incidence"):
        validate_matching(cx, bad)


def test_matching_rejects_reused_cell():
    mat = Matrix.from_rows(GF2, [[1, 1], [1, 1]], 2)
    cx = BasedComplex(GF2, [mat], [["x1", "x2"], ["y1", "y2"]])
    doubled = Matching([(0, 0, 0), (0, 0, 1)])
    with pytest.raises(MorseError, match="two pairs"):
        validate_matching(cx, doubled)


def test_matching_pairs_must_be_ints():
    # a float, a string or a bool was once coerced with int(): 0.9 read as 0, True as 1
    for pair in ((0, 0.9, True), ("0", "1", "0"), (True, 0, 1), (0, 1), (0, 1, 2, 3)):
        with pytest.raises(MorseError, match=re.escape(repr(pair))):
            Matching([(0, 0, 0), pair])
    assert Matching([(1, 2, 3), [0, 1, 1], (1, 2, 3)]).pairs == [(0, 1, 1), (1, 2, 3)]


def test_matching_rejects_bad_degree_and_index():
    cx, _ = dim2_matching(2)
    with pytest.raises(MorseError, match="outside"):
        validate_matching(cx, Matching([(5, 0, 0)]))
    with pytest.raises(MorseError, match="nonexistent"):
        validate_matching(cx, Matching([(0, 99, 0)]))


def test_matching_rejects_cycle_and_names_it():
    mat = Matrix.from_rows(GF2, [[1, 1], [1, 1]], 2)
    cx = BasedComplex(GF2, [mat], [["x1", "x2"], ["y1", "y2"]])
    cyclic = Matching.from_labels(cx, [("x1", "y1"), ("x2", "y2")])
    with pytest.raises(MorseError, match="cyclic") as exc:
        validate_matching(cx, cyclic)
    assert "x1" in str(exc.value) and "x2" in str(exc.value)
    # dropping one pair leaves a usable matching
    ok = Matching.from_labels(cx, [("x1", "y1")])
    red = morse_complex(cx, ok)
    assert red.reduced.dims() == [1, 1]


def test_cycle_message_names_exactly_the_cycle():
    # x1 hits y2, x2 hits y3 and x3 hits y1, a cycle once x_i is matched to
    # y_i; x4 hits y1 too, so it comes before x1 but lies on no cycle
    cols = {"x1": "y1 y2", "x2": "y2 y3", "x3": "y3 y1", "x4": "y4 y1"}
    ys = ["y1", "y2", "y3", "y4"]
    rows = [[int(y in hit.split()) for hit in cols.values()] for y in ys]
    cx = BasedComplex(GF2, [Matrix.from_rows(GF2, rows, 4)], [list(cols), ys])
    cyclic = Matching.from_labels(cx, [(x, "y" + x[1]) for x in cols])
    with pytest.raises(MorseError, match="cyclic in degree 0") as exc:
        validate_matching(cx, cyclic)
    named = set(str(exc.value).split(": ")[1].split(" -> "))
    assert named == {"x1", "x2", "x3"}
    # the greedy scan turns down the pair that would close the cycle
    assert greedy_matching(cx).label_pairs(cx) == [("x1", "y1"), ("x2", "y2"), ("x4", "y4")]


def test_long_zigzag_does_not_recurse():
    # d(a_i) = b_i + b_(i+1) with a_i matched to b_(i+1): the one critical
    # lower cell reaches b_0 through a zigzag of n - 1 steps, deeper than
    # the default recursion limit
    n = 2000
    with entry_cap_override(10**8):
        rows = [sum(1 << j for j in (i - 1, i) if 0 <= j < n) for i in range(n + 1)]
        mat = Matrix.from_packed(GF2, rows, n)
        cx = BasedComplex(GF2, [mat], [[f"a{i}" for i in range(n)], [f"b{i}" for i in range(n + 1)]])
        red = morse_complex(cx, Matching([(0, i, i + 1) for i in range(n - 1)]))
    assert red.reduced.labels == [[f"a{n - 1}"], ["b0", f"b{n}"]]
    assert red.reduced.matrices[0].rows() == [[1], [1]]


def test_from_labels_rejects_unknown_and_ambiguous():
    mat = Matrix.from_rows(GF2, [[1, 1], [1, 1]], 2)
    cx = BasedComplex(GF2, [mat], [["x1", "x2"], ["y1", "y2"]])
    with pytest.raises(MorseError, match="no adjacent"):
        Matching.from_labels(cx, [("zz", "ww")])
    d0 = Matrix.from_rows(GF2, [[1], [0]], 1)
    d1 = Matrix.from_rows(GF2, [[0, 1]], 2)
    tower = BasedComplex(GF2, [d0, d1], [["p"], ["p", "q"], ["q"]])
    with pytest.raises(MorseError, match="ambiguous"):
        Matching.from_labels(tower, [("p", "q")])


def test_based_complex_validation():
    mat = Matrix.from_rows(GF2, [[1]], 1)
    with pytest.raises(ValueError, match="one label list"):
        BasedComplex(GF2, [mat], [["a"]])
    with pytest.raises(ValueError, match="labels disagree"):
        BasedComplex(GF2, [mat], [["a", "b"], ["c"]])
    tall = Matrix.from_rows(GF2, [[1], [1]], 1)
    with pytest.raises(ValueError, match="not distinct"):
        BasedComplex(GF2, [tall], [["a"], ["b", "b"]])
    with pytest.raises(ValueError, match="not a complex"):
        BasedComplex(GF2, [mat, mat], [["a"], ["b"], ["c"]])


# ------------------------------------------------------------------
# greedy matching on random complexes
# ------------------------------------------------------------------


def random_complex(field, rng, dims):
    """A length-two complex with d1 d0 = 0 built from the left kernel of d0."""
    m0, m1, m2 = dims
    d0 = Matrix.from_rows(
        field, [[rng.choice(field.elements()) for _ in range(m0)] for _ in range(m1)], m0
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
    labels = [
        [f"c{n}_{i}" for i in range(m)] for n, m in enumerate(dims)
    ]
    return BasedComplex(field, [d0, d1], labels)


def naive_acyclic(cx, n, pairs_n):
    """Whether the degree's matched tails are acyclic, by peeling the whole degree.

    Tail x comes before tail a whenever x hits a's head; Kahn's peel removes
    every tail exactly when that relation has no cycle.
    """
    dmat = cx.matrices[n]
    partner = dict(pairs_n)
    tails = list(partner)
    succs = {x: [] for x in tails}
    indeg = {x: 0 for x in tails}
    for a in tails:
        head_row = dmat.row(partner[a])
        for x in tails:
            if x != a and head_row[x]:
                succs[x].append(a)
                indeg[a] += 1
    queue = [x for x in tails if indeg[x] == 0]
    peeled = 0
    while queue:
        x = queue.pop()
        peeled += 1
        for a in succs[x]:
            indeg[a] -= 1
            if indeg[a] == 0:
                queue.append(a)
    return peeled == len(tails)


def naive_greedy_matching(cx):
    """The greedy scan, rechecking the whole degree for every tentative pair."""
    pairs = []
    used = set()
    rejected = 0
    for n in range(cx.top_degree):
        dmat = cx.matrices[n]
        pairs_n = []
        for i in range(dmat.ncols):
            if (n, i) in used:
                continue
            for j in range(dmat.nrows):
                if (n + 1, j) in used or not dmat.entry(j, i):
                    continue
                if not naive_acyclic(cx, n, pairs_n + [(i, j)]):
                    rejected += 1
                    continue
                pairs_n.append((i, j))
                used.add((n, i))
                used.add((n + 1, j))
                pairs.append((n, i, j))
                break
    return pairs, rejected


def test_greedy_matching_matches_naive_scan():
    complexes = []
    for order, field in ((2, GF2), (4, make_field(2))):
        rng = random.Random(order * 100 + 11)
        for _ in range(20):
            complexes.append(random_complex(field, rng, [rng.randrange(1, 10) for _ in range(3)]))
    complexes.append(complex_from_cochains(dim2(), trivial_module(dim2()), "symmetric", 5))
    e2 = zassenhaus_e(2)
    complexes.append(complex_from_cochains(e2, adjoint_module(e2), "symmetric", 4))
    rejected = 0
    for cx in complexes:
        want, skipped = naive_greedy_matching(cx)
        assert greedy_matching(cx).pairs == want
        rejected += skipped
    # the inputs exercise the cycle check, not just the incidence scan
    assert rejected > 0


def test_greedy_matching_preserves_cohomology():
    for order, field in ((2, GF2), (4, make_field(2))):
        rng = random.Random(order * 100 + 7)
        for trial in range(12):
            dims = [rng.randrange(1, 7) for _ in range(3)]
            cx = random_complex(field, rng, dims)
            matching = greedy_matching(cx)
            validate_matching(cx, matching)
            red = morse_complex(cx, matching)
            assert red.reduced.cohomology_dims() == cx.cohomology_dims(), (order, trial)
            for a, b in zip(red.reduced.dims(), cx.dims()):
                assert a <= b


def test_greedy_matching_is_nontrivial_on_cochain_complexes():
    cx = complex_from_cochains(dim2(), trivial_module(dim2()), "symmetric", 4)
    matching = greedy_matching(cx)
    assert len(matching) > 0
    red = morse_complex(cx, matching)
    assert red.reduced.cohomology_dims() == cx.cohomology_dims()


def schur_complement(cx, matching, n, unmatched):
    """D[U', U] + D[U', T] D[H, T]^-1 D[H, U] for degree n, by block elimination.

    U and U' are the unmatched cells of degrees n and n + 1, T the matched
    tails of degree n and H their heads, so this is the reduced differential
    without any zigzag path (characteristic 2, so no signs).
    """
    f = cx.field
    d = cx.matrices[n]
    tails = [i for i, _ in matching.by_degree(n)]
    heads = [j for _, j in matching.by_degree(n)]
    low, up = unmatched[n], unmatched[n + 1]

    def block(rows, cols):
        return Matrix.from_rows(f, [[d.entry(r, c) for c in cols] for r in rows], len(cols))

    direct = block(up, low)
    if not tails:
        return direct
    square = block(heads, tails)
    inverse_cols = []
    for r in range(len(tails)):
        x = solve(square, _pack_row([int(r == c) for c in range(len(tails))], f, len(tails)))
        assert x is not None
        inverse_cols.append(x)
    inverse = Matrix.from_rows(f, inverse_cols, len(tails)).transpose()
    return direct.add(block(up, tails).mul(inverse).mul(block(heads, low)))


def test_reduced_differential_is_the_schur_complement():
    cases = []
    for k in (1, 2, 3):
        field = make_field(k)
        rng = random.Random(k * 1000 + 3)
        for _ in range(30):
            cx = random_complex(field, rng, [rng.randrange(1, 10) for _ in range(3)])
            cases.append((cx, greedy_matching(cx)))
    e2 = zassenhaus_e(2)
    f2 = zassenhaus_f(2)
    for cx in (
        complex_from_cochains(e2, adjoint_module(e2), "symmetric", 4),
        complex_from_cochains(f2, adjoint_module(f2), "symmetric", 3),
    ):
        cases.append((cx, greedy_matching(cx)))
    checked = chained = 0
    for cx, matching in cases:
        red = morse_complex(cx, matching)
        for n, mat in enumerate(red.reduced.matrices):
            assert mat == schur_complement(cx, matching, n, red.unmatched), (cx.labels, n)
            checked += 1
            chained += len(matching.by_degree(n)) > 1
    assert checked == 187
    # many degrees invert a matched block of two pairs or more
    assert chained > checked // 3


def test_matching_and_reduction_read_rows_without_transposing(monkeypatch):
    e2 = zassenhaus_e(2)
    cases = [complex_from_cochains(e2, adjoint_module(e2), "symmetric", 4)]
    rng = random.Random(47)
    for _ in range(10):
        cases.append(random_complex(make_field(2), rng, [rng.randrange(1, 10) for _ in range(3)]))
    want = [naive_greedy_matching(cx)[0] for cx in cases]

    def refuse(self):
        raise AssertionError("Matrix.transpose called")

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "transpose", refuse)
        reductions = [morse_complex(cx, greedy_matching(cx)) for cx in cases]
    for red, pairs in zip(reductions, want):
        assert red.matching.pairs == pairs
        for n, mat in enumerate(red.reduced.matrices):
            assert mat == schur_complement(red.original, red.matching, n, red.unmatched)


def test_cohomology_dims_ranks_each_matrix_once(monkeypatch):
    calls = []

    def counting_rank(mat):
        calls.append(mat)
        return rank(mat)

    monkeypatch.setattr(morse, "matrix_rank", counting_rank)
    a = dim2()
    k = trivial_module(a)
    cx = complex_from_cochains(a, k, "symmetric", 5)
    assert cx.cohomology_dims() == [cohomology(a, k, n).dim_H for n in range(5)]
    assert len(calls) == cx.top_degree


def test_reduction_to_json():
    cx, matching = dim2_matching(2)
    blob = morse_complex(cx, matching).to_json()
    assert blob["original_dims"] == [1, 2, 3]
    assert blob["reduced_dims"] == [1, 1, 2]
    assert blob["cohomology_dims"] == [1, 1]
    assert blob["matching_size"] == len(matching)
    assert all(set(entry) == {"degree", "tail", "head"} for entry in blob["matching"])
