"""Dense and closed-form oracles that several test modules share.

The library computes the square ideal and the module axiom check on
lane-packed rows with one packed bracket.  The `naive_*` functions below are
dense implementations kept as oracles the way `naive_rref` is kept for the
elimination engine: each accumulates field elements entry by entry with
`f.add`, and brackets go through `naive_bracket`, a dense loop over the
structure constants that shares no code with `packed_bracket`.

The low-degree readings of cohomology live only here: invariants (H^0),
the dual of the abelianization (H^1 with trivial coefficients), derivations
(H^1 with adjoint coefficients, modulo the inner ones) and the Zassenhaus
relation space, against which the tests check `cohomology`.  So do the
documented degree-2 family of the Zassenhaus e-basis, the closed-form
critical cells of the Heisenberg collapse and its pairs built on the
exponent form a^alpha b^beta c^gamma, whose helpers share no code with
`morse.py`, and `binom_mod2`, the binomial coefficient mod 2 by Lucas's
theorem.  One fault injector lives here too: a wrong class coordinate in
the four-term sequence, which the library and CLI tests both use.
"""

from itertools import combinations_with_replacement

from commcoh import structure
from commcoh.algebra import PresentationError, heisenberg, trivial_module, zassenhaus_e
from commcoh.cochain import cochain_space, delta
from commcoh.cohomology import cohomology
from commcoh.field import make_field
from commcoh.linalg import Matrix, Subspace, kernel_basis


def binom_mod2(a, b):
    """C(a, b) mod 2 for a, b >= 0, via the bit-subset test (b > a gives 0)."""
    if a < 0 or b < 0:
        raise ValueError(f"binom_mod2 needs nonnegative arguments, got ({a}, {b})")
    if b > a:
        return 0
    return 1 if (a & b) == b else 0


# ------------------------------------------------------------------
# dense versions of the algebra layer
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


def naive_ad_matrix(a, i):
    """The dense matrix of x -> [e_i, x]: column j is [e_i, e_j].  The adjoint module's
    rho(e_i) must equal it packed, and the dual module's its transpose."""
    rows = [[0] * a.dim for _ in range(a.dim)]
    for j in range(a.dim):
        for s, bits in a.bracket_basis(i, j).items():
            rows[s][j] = bits
    return rows


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
            if any(naive_bracket(a, list(v), [int(t == j) for t in range(a.dim)])):
                raise PresentationError(
                    f"square ideal is not central at basis index {j}; Jacobi must fail"
                )
    return sub


def naive_jacobi_violations(a):
    """The jacobiator of every basis triple i <= j <= k, by the dense walk over all d^3 / 6
    triples: the triples where it is nonzero, ascending, each with it as a d-tuple."""
    f = a.field
    d = a.dim
    violations = []
    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                acc = [0] * d
                for x, y, z in ((i, j, k), (k, i, j), (j, k, i)):
                    for s, bits in a.bracket_basis(x, y).items():
                        for t, bits2 in a.bracket_basis(s, z).items():
                            acc[t] = f.add(acc[t], f.mul(bits, bits2))
                if any(acc):
                    violations.append((i, j, k, tuple(acc)))
    return violations


def naive_zassenhaus_e_brackets(n):
    """The brackets of `zassenhaus_e(n)` by the walk over every index pair i <= j: those
    whose target index i + j is in range and whose binomial C(i+j+2, i+1) is odd."""
    top = (1 << n) - 3
    indices = list(range(-1, top + 1))
    brackets = {}
    for a, i in enumerate(indices):
        for b in range(a, len(indices)):
            j = indices[b]
            t = i + j
            if -1 <= t <= top and binom_mod2(i + j + 2, i + 1):
                brackets[(a, b)] = {t + 1: 1}
    return brackets


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
            left, right = mats[i].mul(mats[j]).rows(), mats[j].mul(mats[i]).rows()
            rhs = [[f.add(a, b) for a, b in zip(*rows)] for rows in zip(left, right)]
            defect = [
                (mu, nu, lhs[mu][nu], rhs[mu][nu])
                for mu in range(m)
                for nu in range(m)
                if lhs[mu][nu] != rhs[mu][nu]
            ]
            if defect:
                violations.append((i, j, tuple(defect)))
    return violations


# ------------------------------------------------------------------
# low-degree readings of cohomology
# ------------------------------------------------------------------


def naive_derivation_space(a):
    """(All derivations, inner derivations ad_x) as subspaces of d x d matrices.

    A derivation satisfies D[x,y] = [Dx,y] + [x,Dy]; matrices are flattened
    row-major, unknown D[u][v] at index u*d + v.
    """
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
        ad = naive_ad_matrix(a, i)
        inner_vecs.append([ad[u][v] for u in range(d) for v in range(d)])
    return ders, Subspace.from_vectors(f, inner_vecs, d * d)


def naive_invariants_subspace(a, module):
    """The submodule {m : x.m = 0 for all x}, which degree-0 cohomology must equal."""
    rows = []
    for i in range(a.dim):
        rows.extend(module.actions[i])
    return kernel_basis(Matrix.from_rows(a.field, rows, module.dim))


def naive_abelianization_dual_dim(a):
    """dim L - dim [L, L]: the dimension degree-1 cohomology with trivial coefficients must have."""
    vecs = []
    for value in a.brackets.values():
        v = [0] * a.dim
        for s, bits in value.items():
            v[s] = bits
        vecs.append(v)
    return a.dim - Subspace.from_vectors(a.field, vecs, a.dim).dim


def naive_zassenhaus_relation_space(n):
    """Solutions over GF(2^n) of a lam_a + b lam_b + (a+b) lam_{a+b} = 0 for all a != b.

    Unknowns are indexed by the nonzero field elements in bitmask order.
    """
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
# the documented Zassenhaus degree-2 family
# ------------------------------------------------------------------


def zassenhaus_printed_cocycles(n):
    """The documented candidate degree-2 cocycle basis for the e-basis commutant.

    Candidate k is supported on the multisets {e_t, e_t} with t = 2^k - 2 and
    {e_{-1}, e_{2^{k+1} - 3}} (which coincide for k = 0).  Whether these are
    actually cocycles spanning degree-2 cohomology is checked by callers, not
    assumed.
    """
    algebra = zassenhaus_e(n)
    space = cochain_space(algebra, trivial_module(algebra), 2)
    out = []
    for k in range(n):
        t = (1 << k) - 2 + 1  # subscript 2^k - 2 sits at slot +1 since e_{-1} is slot 0
        support = {(t, t), (0, (1 << (k + 1)) - 3 + 1)}
        out.append(space.from_items({(tpl, 0): 1 for tpl in support}))
    return out


def zassenhaus_printed_basis_report(n):
    """Compare the documented degree-2 basis against the computed cohomology.

    A candidate that is not a cocycle has no class and adds nothing to the span.
    """
    algebra = zassenhaus_e(n)
    h2 = cohomology(algebra, trivial_module(algebra), 2)
    candidates = zassenhaus_printed_cocycles(n)
    cocycle_flags = [delta(c).is_zero() for c in candidates]
    classes = [coords for coords in map(h2.class_coordinates, candidates) if coords is not None]
    span_rank = Subspace.from_vectors(algebra.field, classes, h2.dim_H).dim
    return {
        "n": n,
        "dimH2": h2.dim_H,
        "candidates": len(candidates),
        "cocycle_flags": cocycle_flags,
        "span_rank": span_rank,
        "spans": span_rank == h2.dim_H and all(cocycle_flags),
    }


# ------------------------------------------------------------------
# the Heisenberg collapse on the exponent form a^alpha b^beta c^gamma
# ------------------------------------------------------------------


def triple_to_tuple(ell, alpha, beta, gamma):
    """Sorted index multiset of the cell a^alpha b^beta c^gamma of heisenberg(ell)."""
    return tuple(t for t, count in enumerate((alpha, *beta, *gamma)) for _ in range(count))


def tuple_to_triple(ell, tpl):
    """(alpha, beta, gamma): the multiplicities of a, of each b_k and of each c_k in tpl."""
    counts = [tpl.count(t) for t in range(2 * ell + 1)]
    return counts[0], tuple(counts[1 : ell + 1]), tuple(counts[ell + 1 :])


def max_both(beta, gamma, parity):
    """Largest k with beta_k and gamma_k both of this parity (0 even, 1 odd), or -1 if none."""
    return max((k for k in range(len(beta)) if beta[k] % 2 == gamma[k] % 2 == parity), default=-1)


def naive_heisenberg_pairs(ell, top):
    """The pairs (degree, tail, head) of `heisenberg_matching(ell, top)` on triples.

    A cell with alpha > 0 is a tail when max_both of even parity exceeds that
    of odd parity; its head has one a fewer and one more b and c at that index.
    """
    algebra = heisenberg(ell)
    spaces = [cochain_space(algebra, trivial_module(algebra), n) for n in range(top + 1)]
    pairs = []
    for n in range(top):
        for i, tpl in enumerate(spaces[n].tuples):
            alpha, beta, gamma = tuple_to_triple(ell, tpl)
            k = max_both(beta, gamma, 0)
            if alpha == 0 or k <= max_both(beta, gamma, 1):
                continue
            head_beta = beta[:k] + (beta[k] + 1,) + beta[k + 1 :]
            head_gamma = gamma[:k] + (gamma[k] + 1,) + gamma[k + 1 :]
            head = triple_to_tuple(ell, alpha - 1, head_beta, head_gamma)
            pairs.append((n, i, spaces[n + 1].tuple_index(head)))
    return pairs


def heisenberg_unmatched_cells(ell, degree):
    """Closed-form critical cells of `heisenberg_matching` in one degree, as two families.

    The first family has alpha = 0 and the largest index at which beta and
    gamma are both even above the largest at which both are odd; the second
    has no index both even and none both odd, with any alpha.  Returned as
    (family0, family1) lists of triples, each in basis order: the sorted index
    multisets of the degree, classified.
    """
    family0, family1 = [], []
    for tpl in combinations_with_replacement(range(2 * ell + 1), degree):
        alpha, beta, gamma = cell = tuple_to_triple(ell, tpl)
        even_k, odd_k = max_both(beta, gamma, 0), max_both(beta, gamma, 1)
        if even_k == odd_k == -1:
            family1.append(cell)
        elif alpha == 0 and even_k > odd_k:
            family0.append(cell)
    return family0, family1


# ------------------------------------------------------------------
# a fault in one class coordinate of the four-term sequence
# ------------------------------------------------------------------


def shift_first_map1_coordinate(monkeypatch, lane):
    """Make the next `exact_sequence_check` flip one coordinate of map1's first image.

    The first map that `_induced` builds is map1; the patch undoes itself on
    that call, so maps 2 and 3 read their true coordinates.
    """
    induced = structure._induced

    def shifted(f, coordinates, dim, images):
        monkeypatch.setattr(structure, "_induced", induced)
        images = list(images)
        first = list(coordinates(images[0]))
        first[lane] ^= 1
        return induced(f, lambda im: first if im is images[0] else coordinates(im), dim, images)

    monkeypatch.setattr(structure, "_induced", shifted)
