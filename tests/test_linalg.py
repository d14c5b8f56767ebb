import contextvars
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from commcoh.algebra import dim2, trivial_module
from commcoh.cochain import cochain_space
from commcoh.field import FieldError, make_field
from commcoh.linalg import (
    ContainmentError,
    Matrix,
    SizeCapError,
    Subspace,
    _pack_lanes,
    _pack_row,
    _rref,
    _unpack_row,
    entry_cap_override,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
    scale_packed,
    solve,
)

GF2 = make_field(1)
GF4 = make_field(2)
GF8 = make_field(3)


def random_matrix(rng, f, nrows, ncols, density=0.5):
    rows = [
        [rng.choice(list(f.elements())) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return Matrix.from_rows(f, rows, ncols)


def random_binary_rows(rng, nrows, ncols):
    return [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]


# ------------------------------------------------------------------
# the lane-packed engine vs column-scan references
# ------------------------------------------------------------------


def naive_rref(rows, ncols, f):
    """Leftmost-pivot Gauss-Jordan elimination on entry lists, scanning columns."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv_inv = f.inv(rows[r][c])
        rows[r] = [f.mul(piv_inv, a) for a in rows[r]]
        piv = rows[r]
        for i in range(nrows):
            coeff = rows[i][c]
            if i != r and coeff:
                rows[i] = [f.add(a, f.mul(coeff, b)) for a, b in zip(rows[i], piv)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def dot(f, u, v):
    return reduce(f.add, map(f.mul, u, v), 0)


FIELDS = [make_field(k) for k in (1, 2, 3, 8, 16)]


def naive_solve(a, b):
    """The [A | I] solver: x zero on the free columns, or None.

    The RREF of [A | I] has rows (R_i | T_i) with T_i A = R_i and T invertible,
    so A x = b iff R x = T b.  A row with R_i = 0 is the condition T_i . b = 0;
    a row with pivot p < ncols gives x_p = T_i . b.
    """
    f, n = a.field, a.ncols
    tagged = [row + [int(i == j) for j in range(a.nrows)] for i, row in enumerate(a.rows())]
    echelon, pivots = naive_rref(tagged, n + a.nrows, f)
    x = [0] * n
    for row, p in zip(echelon, pivots):
        value = dot(f, row[n:], b)
        if p < n:
            x[p] = value
        elif value:
            return None
    return x


@st.composite
def field_systems(draw):
    """(field, rows, ncols, x, rhs): entries biased to 0, 1 and the top of the
    field, repeated columns and scaled sums of columns, then scaled sums of
    rows so ranks drop, and rhs a random right-hand side."""
    f = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.just(1), st.just(f.order - 1), st.integers(0, f.order - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=10))
    if ncols:
        index = st.integers(0, ncols - 1)
        combos = st.tuples(index, index, st.integers(0, f.order - 1))
        for i, j, c in draw(st.lists(combos, max_size=4)):
            for row in rows:
                row.append(f.add(row[i], f.mul(c, row[j])))
            ncols += 1
        order = draw(st.permutations(range(ncols)))
        rows = [[row[j] for j in order] for row in rows]
    if rows:
        index = st.integers(0, len(rows) - 1)
        combos = st.tuples(index, index, st.integers(1, f.order - 1))
        for i, j, c in draw(st.lists(combos, max_size=4)):
            rows.append([f.add(a, f.mul(c, b)) for a, b in zip(rows[i], rows[j])])
    x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return f, draw(st.permutations(rows)), ncols, x, rhs


@settings(max_examples=300, deadline=None)
@given(field_systems())
def test_engine_matches_naive_rref_over_every_field(system):
    f, rows, ncols, x, rhs = system
    a = Matrix.from_rows(f, rows, ncols)
    assert a.rows() == rows
    space = image_basis(a.transpose())
    ref_rows, ref_pivots = naive_rref(rows, ncols, f)
    assert [list(v) for v in space.basis] == ref_rows
    assert list(space.pivots) == ref_pivots
    assert rank(a) == len(ref_pivots)
    ker = kernel_basis(a)
    assert ker.dim == ncols - len(ref_pivots)
    for v in ker.basis:
        assert all(dot(f, row, v) == 0 for row in rows)
    b = [dot(f, row, x) for row in rows]
    assert a.mul_vec(x) == b
    sol = solve(a, _pack_row(b, f, a.nrows))
    assert sol is not None
    assert [dot(f, row, sol) for row in rows] == b
    assert sol == naive_solve(a, b)
    assert solve(a, _pack_row(rhs, f, a.nrows)) == naive_solve(a, rhs)


def naive_rref_packed(rows, ncols):
    """Leftmost-pivot Gauss-Jordan elimination, scanning columns: the reference engine."""
    rows = list(rows)
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        bit = 1 << c
        pr = None
        for i in range(r, nrows):
            if rows[i] & bit:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        for i in range(nrows):
            if i != r and rows[i] & bit:
                rows[i] ^= piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


@st.composite
def packed_matrices(draw):
    """(rows, ncols): dense, sparse and zero rows, plus sums of rows so ranks drop."""
    ncols = draw(st.integers(0, 200))
    row = st.one_of(
        st.just(0),
        st.integers(0, (1 << ncols) - 1),
        st.lists(st.integers(0, max(ncols - 1, 0)), max_size=4).map(
            lambda bits: sum({1 << j for j in bits}) if ncols else 0
        ),
    )
    rows = draw(st.lists(row, max_size=40))
    if rows:
        index = st.integers(0, len(rows) - 1)
        pairs = draw(st.lists(st.tuples(index, index), max_size=10))
        rows += [rows[i] ^ rows[j] for i, j in pairs]
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None)
@given(packed_matrices())
def test_rref_packed_matches_column_scan(matrix):
    rows, ncols = matrix
    before = list(rows)
    echelon = _rref(rows, ncols, GF2)  # over GF(2) the keys are the pivot columns
    assert (list(echelon.values()), list(echelon)) == naive_rref_packed(rows, ncols)
    assert rows == before


def test_packed_vs_generic_rank_and_kernel():
    """A 0/1 matrix has the same rank over GF(2) and GF(4), and row reduction
    never leaves the prime subfield, so one-bit and two-bit lanes must agree."""
    rng = random.Random(11)
    for trial in range(300):
        nrows = rng.randrange(1, 25)
        ncols = rng.randrange(1, 25)
        rows = random_binary_rows(rng, nrows, ncols)
        a2 = Matrix.from_rows(GF2, rows, ncols)
        a4 = Matrix.from_rows(GF4, rows, ncols)
        assert rank(a2) == rank(a4), trial
        k2 = kernel_basis(a2)
        k4 = kernel_basis(a4)
        assert k2.dim == k4.dim
        assert [tuple(v) for v in k2.basis] == [tuple(v) for v in k4.basis]
        assert ncols == rank(a2) + k2.dim  # rank plus nullity
        i2, i4 = image_basis(a2), image_basis(a4)
        assert (i2.basis, i2.pivots) == (i4.basis, i4.pivots)
        z2, z4 = (Subspace.from_vectors(f, rows, ncols) for f in (GF2, GF4))
        sub = rows[: rng.randrange(nrows + 1)]
        sub.append([x ^ y for x, y in zip(rows[0], rows[-1])])
        b2, b4 = (Subspace.from_vectors(f, sub, ncols) for f in (GF2, GF4))
        assert z2.contains_subspace(b2) and z4.contains_subspace(b4)
        assert [_unpack_row(r, ncols, GF2) for r in quotient_basis(z2, b2)] == [
            _unpack_row(r, ncols, GF4) for r in quotient_basis(z4, b4)
        ]
        assert k2.contains_subspace(z2) == k4.contains_subspace(z4)
        assert b2.contains_subspace(z2) == b4.contains_subspace(z4)
        v = [rng.randrange(2) for _ in range(ncols)]
        assert b2.reduce(v) == b4.reduce(v)
        assert k2.reduce(v) == k4.reduce(v)
        rhs = [rng.randrange(2) for _ in range(nrows)]
        assert solve(a2, _pack_row(rhs, GF2, nrows)) == solve(a4, _pack_row(rhs, GF4, nrows))


def test_packed_vs_generic_product():
    rng = random.Random(12)
    for _ in range(100):
        n, k, m = rng.randrange(1, 12), rng.randrange(1, 12), rng.randrange(1, 12)
        arows = random_binary_rows(rng, n, k)
        brows = random_binary_rows(rng, k, m)
        p2 = Matrix.from_rows(GF2, arows, k).mul(Matrix.from_rows(GF2, brows, m))
        p4 = Matrix.from_rows(GF4, arows, k).mul(Matrix.from_rows(GF4, brows, m))
        assert p2.rows() == p4.rows()


def test_mul_against_direct_sum():
    rng = random.Random(13)
    for f in (GF2, GF8):
        for _ in range(40):
            n, k, m = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(1, 8)
            a = random_matrix(rng, f, n, k)
            b = random_matrix(rng, f, k, m)
            prod = a.mul(b)
            for i in range(n):
                for j in range(m):
                    acc = 0
                    for t in range(k):
                        acc = f.add(acc, f.mul(a.entry(i, t), b.entry(t, j)))
                    assert prod.entry(i, j) == acc


def test_matrix_algebra_identities():
    rng = random.Random(14)
    for f in (GF2, GF4):
        a = random_matrix(rng, f, 9, 7)
        b = random_matrix(rng, f, 7, 5)
        assert a.mul(b).transpose() == b.transpose().mul(a.transpose())
        assert Matrix.identity(f, 9).mul(a) == a
        assert a.add(a).is_zero()
        vec = [rng.randrange(f.order) for _ in range(7)]
        product = a.mul(Matrix.from_rows(f, [[v] for v in vec], 1))
        assert a.mul_vec(vec) == [row[0] for row in product.rows()]


# ------------------------------------------------------------------
# kernel, image, solve
# ------------------------------------------------------------------


def test_kernel_vectors_are_in_kernel():
    rng = random.Random(15)
    for f in (GF2, GF4):
        for _ in range(60):
            a = random_matrix(rng, f, rng.randrange(1, 15), rng.randrange(1, 15))
            ker = kernel_basis(a)
            for v in ker.basis:
                assert all(x == 0 for x in a.mul_vec(list(v)))
            assert ker.dim == a.ncols - rank(a)


def test_image_members_are_solvable():
    rng = random.Random(16)
    for f in (GF2, GF8):
        for _ in range(40):
            a = random_matrix(rng, f, rng.randrange(1, 12), rng.randrange(1, 12))
            img = image_basis(a)
            assert img.dim == rank(a)
            for v in img.basis:
                assert solve(a, _pack_row(v, f, a.nrows)) is not None


def test_solve_roundtrip_and_inconsistency():
    rng = random.Random(17)
    for f in (GF2, GF4):
        for _ in range(80):
            nrows, ncols = rng.randrange(1, 14), rng.randrange(1, 14)
            a = random_matrix(rng, f, nrows, ncols)
            x = [rng.randrange(f.order) for _ in range(ncols)]
            b = a.mul_vec(x)
            sol = solve(a, _pack_row(b, f, nrows))
            assert sol is not None
            assert a.mul_vec(sol) == b
            img = image_basis(a)
            if img.dim < nrows:
                # perturb b out of the image: add any vector not contained in it
                for j in range(nrows):
                    probe = list(b)
                    probe[j] = f.add(probe[j], 1)
                    if not img.contains(probe):
                        assert solve(a, _pack_row(probe, f, nrows)) is None
                        break


# ------------------------------------------------------------------
# subspaces
# ------------------------------------------------------------------


def test_subspace_rref_is_canonical():
    rng = random.Random(19)
    for f in (GF2, GF4):
        for _ in range(40):
            dim = rng.randrange(1, 10)
            vecs = [[rng.randrange(f.order) for _ in range(dim)] for _ in range(6)]
            s1 = Subspace.from_vectors(f, vecs, dim)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            # also throw in sums of pairs; the span is unchanged
            shuffled.append([f.add(a, b) for a, b in zip(vecs[0], vecs[-1])])
            s2 = Subspace.from_vectors(f, shuffled, dim)
            assert s1 == s2
            assert s1.basis == s2.basis


def test_subspace_contains_and_coordinates():
    rng = random.Random(20)
    f = GF4
    vecs = [[rng.randrange(4) for _ in range(8)] for _ in range(4)]
    s = Subspace.from_vectors(f, vecs, 8)
    for _ in range(30):
        coeffs = [rng.randrange(4) for _ in range(s.dim)]
        v = [0] * 8
        for c, bvec in zip(coeffs, s.basis):
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, bvec)]
        assert s.contains(v)
        assert s.coordinates(v) == coeffs
    if s.dim < 8:
        outside = [1 if i == max(set(range(8)) - set(s.pivots)) else 0 for i in range(8)]
        assert not s.contains(outside)
        assert s.coordinates(outside) is None


def test_subspace_reduce_is_idempotent_and_kills_members():
    rng = random.Random(21)
    f = GF2
    vecs = [[rng.randrange(2) for _ in range(10)] for _ in range(5)]
    s = Subspace.from_vectors(f, vecs, 10)
    for v in vecs:
        assert all(x == 0 for x in s.reduce(v))
    w = [rng.randrange(2) for _ in range(10)]
    r = s.reduce(w)
    assert s.reduce(list(r)) == r
    assert s.contains([f.add(a, b) for a, b in zip(w, r)])


def test_quotient_basis_dimensions_and_containment():
    rng = random.Random(22)
    for f in (GF2, GF4):
        for _ in range(40):
            n = rng.randrange(2, 10)
            zvecs = [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
            z = Subspace.from_vectors(f, zvecs, n)
            if z.dim == 0:
                continue
            # random subspace of z
            bvecs = []
            for _ in range(rng.randrange(0, z.dim + 1)):
                v = [0] * n
                for u in z.basis:
                    c = rng.randrange(f.order)
                    v = [f.add(x, f.mul(c, y)) for x, y in zip(v, u)]
                bvecs.append(v)
            b = Subspace.from_vectors(f, bvecs, n)
            reps = [_unpack_row(r, n, f) for r in quotient_basis(z, b)]
            assert len(reps) == z.dim - b.dim
            # reps extend a basis of b to a basis of z
            together = Subspace.from_vectors(f, reps + [list(v) for v in b.basis], n)
            assert together == z


def test_quotient_basis_requires_containment():
    f = GF2
    z = Subspace.from_vectors(f, [[1, 0, 0], [0, 1, 0]], 3)
    b = Subspace.from_vectors(f, [[0, 0, 1]], 3)
    with pytest.raises(ContainmentError):
        quotient_basis(z, b)


def test_contains_subspace():
    f = GF2
    big = Subspace.from_vectors(f, [[1, 0, 0], [0, 1, 0]], 3)
    small = Subspace.from_vectors(f, [[1, 1, 0]], 3)
    other = Subspace.from_vectors(f, [[0, 0, 1]], 3)
    assert big.contains_subspace(small)
    assert not big.contains_subspace(other)


def test_entries_outside_the_field_are_rejected():
    # With k-bit lanes such an entry would spill into its neighbour.
    with pytest.raises(FieldError):
        Subspace.from_vectors(GF4, [[5, 1]], 2)
    a = dim2(GF4)
    with pytest.raises(FieldError):
        cochain_space(a, trivial_module(a), 1).cochain([7, 1])
    with pytest.raises(FieldError):
        Matrix.from_rows(GF2, [[0, 2]])
    with pytest.raises(FieldError):
        Subspace.from_vectors(GF8, [[1, 0]], 2).contains([-1, 0])


def test_a_dense_vector_of_the_wrong_length_is_rejected_where_it_enters():
    a = dim2(GF4)
    space = cochain_space(a, trivial_module(a), 2)  # dimension 3
    for f in (GF2, GF4):
        with pytest.raises(ValueError, match="2 entries where 3 are expected"):
            Matrix.from_rows(f, [[1, 0, 0], [1, 0]])
        with pytest.raises(ValueError, match="3 entries where 2 are expected"):
            Matrix.from_rows(f, [[1, 0, 0]], 2)
        with pytest.raises(ValueError, match="2 entries where 3 are expected"):
            Subspace.from_vectors(f, [[1, 0, 0], [1, 0]], 3)
        s = Subspace.from_vectors(f, [[1, 0, 0]], 3)
        for wrong in ([1, 0], [1, 0, 0, 0], []):
            message = f"{len(wrong)} entries where 3 are expected"
            for read in (s.reduce, s.contains, s.coordinates):
                with pytest.raises(ValueError, match=message):
                    read(wrong)
            with pytest.raises(ValueError, match=message):
                _pack_row(wrong, f, 3)
            with pytest.raises(ValueError, match=message):
                space.cochain(wrong)
        assert _pack_row([1, 0, 1], f, 3) == 1 | 1 << (2 * f.degree)
        assert s.coordinates([1, 0, 0]) == [1] and s.reduce([1, 1, 0]) == (0, 1, 0)


def test_solve_rejects_a_right_hand_side_wider_than_its_rows():
    for f in (GF2, GF4):
        a = Matrix.identity(f, 2)
        assert solve(a, _pack_row([1, 1], f, 2)) == [1, 1]
        with pytest.raises(ValueError, match="beyond its 2 rows"):
            solve(a, _pack_row([0, 0, 1], f, 3))
        with pytest.raises(ValueError, match="beyond its 2 rows"):
            solve(a, -1)


# ------------------------------------------------------------------
# size cap
# ------------------------------------------------------------------


def test_entry_cap_blocks_large_alloc():
    with entry_cap_override(100):
        with pytest.raises(SizeCapError):
            Matrix.zeros(GF2, 101, 1)
        Matrix.zeros(GF2, 10, 10)  # exactly at the cap is fine
    Matrix.zeros(GF2, 101, 1)  # restored afterwards


def test_entry_cap_is_per_context():
    with entry_cap_override(100):
        with pytest.raises(SizeCapError):
            Matrix.zeros(GF2, 101, 1)
        # a fresh context, such as a new thread's, starts from the default cap
        contextvars.Context().run(Matrix.zeros, GF2, 101, 1)
    with pytest.raises(ValueError, match="positive"):
        with entry_cap_override(0):
            pass


@settings(max_examples=60)
@given(st.integers(0, 2**30 - 1), st.integers(1, 6), st.integers(1, 6))
def test_solve_always_verifies(seed, nrows, ncols):
    rng = random.Random(seed)
    a = random_matrix(rng, GF2, nrows, ncols)
    b = [rng.randrange(2) for _ in range(nrows)]
    sol = solve(a, _pack_row(b, GF2, nrows))
    if sol is None:
        assert not image_basis(a).contains(b)
    else:
        assert a.mul_vec(sol) == b


def test_nonzeros_and_scale_packed_agree_with_entries():
    rng = random.Random(5)
    for k in (1, 2, 3, 8):
        f = make_field(k)
        for _ in range(10):
            ncols = rng.randrange(0, 40)
            rows = [
                [rng.choice(f.elements()) if rng.random() < 0.3 else 0 for _ in range(ncols)]
                for _ in range(3)
            ]
            a = Matrix.from_rows(f, rows, ncols)
            for i, row in enumerate(rows):
                assert a.nonzeros(i) == [(j, w) for j, w in enumerate(row) if w]
                c = rng.choice(f.elements())
                scaled = Matrix.from_packed(f, [scale_packed(a._packed[i], c, f)], ncols)
                assert scaled.row(0) == [f.mul(c, w) for w in row]


def test_transposing_a_transpose_gives_back_its_source():
    m = Matrix.from_rows(GF4, [[1, 2, 0], [0, 3, 1]])
    t = m.transpose()
    assert t.rows() == [[1, 0], [2, 3], [0, 1]]
    assert t.transpose() == m


@pytest.mark.parametrize("degree", [1, 2, 3, 8])
def test_pack_lanes_agrees_with_packing_the_dense_row(degree):
    f = make_field(degree)
    rng = random.Random(degree)
    for ncols in (1, 7, 8, 9, 100):
        for nonzeros in (0, 1, ncols // 3, ncols):
            lanes = rng.sample(range(ncols), nonzeros)
            if nonzeros:
                lanes[0] = ncols - 1  # the top lane
            pairs = {j: rng.randrange(1, f.order) for j in lanes}
            dense = [pairs.get(j, 0) for j in range(ncols)]
            assert _pack_lanes(pairs.items(), ncols, f) == _pack_row(dense, f, ncols)
    # values paired with the same lane add
    assert _pack_lanes([(2, 3), (2, 1), (0, 1)], 3, GF4) == _pack_row([1, 0, 2], GF4, 3)
