"""Discrete Morse reduction for based complexes of vector spaces.

A based complex is a chain of matrices d_0, ..., d_{T-1} between labeled
coordinate spaces C^0, ..., C^T with d_{n+1} d_n = 0.  A matching pairs a
cell in degree n with a cell in degree n+1 along an invertible incidence
entry, no cell appearing twice.  When the matching is acyclic (reversing
the matched edges of the incidence graph creates no directed cycle), the
unmatched cells carry a reduced complex with the same cohomology in
degrees 0 through T-1, with differential given by summing weights over
zigzag paths.

Every function here reads d_n as it is stored, one row per upper cell, with
`Matrix.nonzeros`: never as dense rows, never transposed.
`validate_matching` checks acyclicity one degree at a time by ordering the
matched tails with `graphlib`, names the cells of a cycle when there is one,
and returns each degree's matching as one {head: tail} dict in that order.
`greedy_matching` collects the cells each lower cell hits in one pass over
the rows, scans the lower cells in index order, and keeps a pair unless it
closes a cycle through itself, which is the only cycle it can close.

`morse_complex` keeps the path sums into each upper cell as one packed row
over the unmatched lower cells, so the reduced d_n comes out row by row: a
direct incidence sets one lane, and a path through a matched tail adds a
multiple (`scale_packed`) of the row kept for that tail's head.

`heisenberg_matching` builds the explicit matching that collapses the
symmetric complex of a Heisenberg algebra with trivial coefficients to
zero differential, reading each cell as its space's sorted index tuple.
The tests keep the closed-form description of its critical cells and the
same pairs built on the exponent form a^alpha b^beta c^gamma, with helpers
of their own, and compare against both.
"""

from __future__ import annotations

from collections.abc import Callable
from graphlib import CycleError, TopologicalSorter

from .algebra import AlgebraPresentation, ModulePresentation, heisenberg, trivial_module
from .cochain import check_alternating, check_degree, cochain_space, differential_matrix
from .field import FiniteField, _is_int, scale_packed
from .linalg import Matrix, rank as matrix_rank


class MorseError(ValueError):
    """A matching failed validation, with the reason in the message."""


class BasedComplex:
    """Labeled coordinate spaces C^0..C^T and matrices d_n: C^n -> C^{n+1}.

    `labels` holds one list of distinct cell names per degree.  Or it is a
    function from a degree to that list, given with `dims`, the number of cells
    in each degree: it is called only when a label is first read, and its names
    are not checked, so it must give distinct ones.
    """

    __slots__ = ("field", "matrices", "_dims", "_labels")

    def __init__(
        self,
        field: FiniteField,
        matrices: list[Matrix],
        labels: list[list[str]] | Callable[[int], list[str]],
        dims: list[int] | None = None,
    ):
        if dims is None:
            labels = [list(row) for row in labels]
            dims = [len(row) for row in labels]
        if len(dims) != len(matrices) + 1:
            raise ValueError("need one label list per degree, one more than matrices")
        for n, mat in enumerate(matrices):
            if mat.ncols != dims[n] or mat.nrows != dims[n + 1]:
                raise ValueError(f"matrix {n} has shape {mat.nrows}x{mat.ncols}, labels disagree")
            if mat.field != field:
                raise ValueError("matrix field mismatch")
        if not callable(labels):
            for n, row in enumerate(labels):
                if len(set(row)) != len(row):
                    raise ValueError(f"labels in degree {n} are not distinct")
        for n in range(len(matrices) - 1):
            if not matrices[n + 1].mul(matrices[n]).is_zero():
                raise ValueError(f"d_{n + 1} d_{n} != 0; not a complex")
        self.field = field
        self.matrices = list(matrices)
        self._dims = list(dims)
        self._labels = labels

    @property
    def labels(self) -> list[list[str]]:
        if callable(self._labels):
            self._labels = [self._labels(n) for n in range(len(self._dims))]
        return self._labels

    @property
    def top_degree(self) -> int:
        return len(self._dims) - 1

    def dims(self) -> list[int]:
        return list(self._dims)

    def cohomology_dims(self) -> list[int]:
        """dim H^n for n = 0 .. top_degree - 1 (the top degree needs the next matrix)."""
        ranks = [0] + [matrix_rank(mat) for mat in self.matrices]
        return [self._dims[n] - ranks[n + 1] - ranks[n] for n in range(self.top_degree)]


def complex_from_cochains(
    algebra: AlgebraPresentation,
    module: ModulePresentation,
    flavor: str,
    top_degree: int,
) -> BasedComplex:
    """The cochain complex in degrees 0..top_degree as a based complex.

    Basis names hold no label delimiter, so each space's labels are distinct;
    they are made only when read.  ValueError for the alternating flavor off
    Lie algebras, at top degree 0 too (`check_alternating`).
    """
    check_degree(top_degree)
    check_alternating(algebra, flavor)
    matrices = [
        differential_matrix(algebra, module, n, flavor) for n in range(top_degree)
    ]
    spaces = [cochain_space(algebra, module, n, flavor) for n in range(top_degree + 1)]
    return BasedComplex(
        algebra.field, matrices, lambda n: spaces[n].labels(), [sp.dim for sp in spaces]
    )


class Matching:
    """Pairs (degree, tail index, head index) along nonzero incidence entries."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = [tuple(pair) for pair in pairs]
        for pair in pairs:
            if len(pair) != 3 or not all(map(_is_int, pair)):
                raise MorseError(f"pair {pair!r} is not three ints (degree, tail, head)")
        self.pairs = sorted(set(pairs))

    @classmethod
    def from_labels(cls, cx: BasedComplex, label_pairs) -> "Matching":
        """Resolve (tail label, head label) pairs against a complex's labels."""
        lookup = [{lab: i for i, lab in enumerate(row)} for row in cx.labels]
        pairs = []
        for tail, head in label_pairs:
            hits = [
                n
                for n in range(cx.top_degree)
                if tail in lookup[n] and head in lookup[n + 1]
            ]
            if not hits:
                raise MorseError(f"no adjacent degrees contain both {tail!r} and {head!r}")
            if len(hits) > 1:
                raise MorseError(f"pair ({tail!r}, {head!r}) is ambiguous across degrees")
            n = hits[0]
            pairs.append((n, lookup[n][tail], lookup[n + 1][head]))
        return cls(pairs)

    def label_pairs(self, cx: BasedComplex) -> list[tuple[str, str]]:
        return [(cx.labels[n][i], cx.labels[n + 1][j]) for n, i, j in self.pairs]

    def by_degree(self, n: int) -> list[tuple[int, int]]:
        return [(i, j) for m, i, j in self.pairs if m == n]

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self, cx: BasedComplex) -> list:
        return [
            {"degree": n, "tail": cx.labels[n][i], "head": cx.labels[n + 1][j]}
            for n, i, j in self.pairs
        ]


def validate_matching(cx: BasedComplex, matching: Matching) -> list[dict[int, int]]:
    """Raise MorseError unless the matching is incidence-valid, disjoint, acyclic.

    A directed cycle in the modified graph alternates strictly between two
    adjacent degrees, so it is enough to look for a cycle among each degree's
    matched tails, where tail x comes before tail a whenever x hits a's head.
    Returns one {head: tail} dict per degree, its heads in that order of tails.
    """
    dims = cx.dims()
    used: set[tuple[int, int]] = set()
    for n, i, j in matching.pairs:
        if not 0 <= n < cx.top_degree:
            raise MorseError(f"pair degree {n} outside 0..{cx.top_degree - 1}")
        if not (0 <= i < dims[n] and 0 <= j < dims[n + 1]):
            raise MorseError(f"pair ({n}, {i}, {j}) indexes nonexistent cells")
        if not cx.matrices[n].entry(j, i):
            raise MorseError(
                f"cells {cx.labels[n][i]} and {cx.labels[n + 1][j]} have zero incidence"
            )
        for cell in ((n, i), (n + 1, j)):
            if cell in used:
                raise MorseError(
                    f"cell {cx.labels[cell[0]][cell[1]]} appears in two pairs"
                )
            used.add(cell)
    heads = []
    for n in range(cx.top_degree):
        partner = dict(matching.by_degree(n))
        before = {
            a: [x for x, _ in cx.matrices[n].nonzeros(j) if x != a and x in partner]
            for a, j in partner.items()
        }
        try:
            heads.append({partner[a]: a for a in TopologicalSorter(before).static_order()})
        except CycleError as exc:
            names = " -> ".join(cx.labels[n][i] for i in exc.args[1])
            raise MorseError(f"matching is cyclic in degree {n}: {names}") from None
    return heads


class MorseReduction:
    """A complex, an acyclic matching on it, and the reduced complex on the unmatched cells."""

    __slots__ = ("original", "matching", "reduced", "unmatched")

    def __init__(
        self,
        original: BasedComplex,
        matching: Matching,
        reduced: BasedComplex,
        unmatched: list[list[int]],
    ):
        self.original = original
        self.matching = matching
        self.reduced = reduced
        self.unmatched = unmatched

    def to_json(self, cells: bool = True) -> dict:
        """The reduction's report; without `cells`, no matching and no label."""
        out = {
            "original_dims": self.original.dims(),
            "reduced_dims": self.reduced.dims(),
            "matching_size": len(self.matching),
        }
        if cells:
            out["matching"] = self.matching.to_json(self.original)
            out["unmatched_labels"] = self.reduced.labels
        out["cohomology_dims"] = self.reduced.cohomology_dims()
        return out


def morse_complex(cx: BasedComplex, matching: Matching) -> MorseReduction:
    """The reduced complex on unmatched cells, with path-sum differentials."""
    heads = validate_matching(cx, matching)
    f = cx.field
    k = f.degree
    unmatched: list[list[int]] = []
    for n, dim in enumerate(cx.dims()):
        taken = set(heads[n].values()) if n < cx.top_degree else set()
        if n > 0:
            taken.update(heads[n - 1])
        unmatched.append([i for i in range(dim) if i not in taken])

    reduced_mats = []
    below: dict[int, int] = {}  # cells of degree n matched as heads in degree n - 1
    for n in range(cx.top_degree):
        d = cx.matrices[n]
        pos = {x: p for p, x in enumerate(unmatched[n])}
        memo: dict[int, tuple[int, int]] = {}

        def flow(j: int, skip: int | None = None) -> int:
            """Weights of all zigzag paths from unmatched lower cells into upper
            cell j, packed with the weight from unmatched[n][p] in lane p.

            A path through a matched tail x comes down from x's head h, whose
            paths memo[x] already holds with 1 / d[h][x].
            """
            out = 0
            for x, w in d.nonzeros(j):
                p = pos.get(x)
                if p is not None:
                    out ^= w << (k * p)
                # no path reaches a head matched downward from this degree
                elif x != skip and x not in below:
                    row, back = memo[x]
                    out ^= scale_packed(row, f.mul(w, back), f)
            return out

        # every tail after the tails that hit its head, so nothing recurses
        for h, x in heads[n].items():
            memo[x] = flow(h, x), f.inv(d.entry(h, x))
        flows = [flow(j) for j in unmatched[n + 1]]
        reduced_mats.append(Matrix.from_packed(f, flows, len(unmatched[n])))
        below = heads[n]

    reduced = BasedComplex(
        f,
        reduced_mats,
        lambda n: [cx.labels[n][i] for i in unmatched[n]],
        [len(cells) for cells in unmatched],
    )
    return MorseReduction(cx, matching, reduced, unmatched)


def greedy_matching(cx: BasedComplex) -> Matching:
    """A maximal-by-inclusion acyclic matching found by greedy scanning.

    Each degree's matched tails stay acyclic, so a tentative pair (i, j)
    closes a cycle exactly when it passes through i: when a walk from i,
    over the tails whose heads it hits, reaches a tail that hits j.
    """
    pairs: list[tuple[int, int, int]] = []
    below: dict[int, int] = {}  # cells of degree n matched as heads in degree n - 1
    for n in range(cx.top_degree):
        d = cx.matrices[n]
        hit_by: list[list[int]] = [[] for _ in range(d.ncols)]  # the cells each cell hits
        for j in range(d.nrows):
            for x, _ in d.nonzeros(j):
                hit_by[x].append(j)
        heads: dict[int, int] = {}  # matched head -> its tail
        for i, hits_i in enumerate(hit_by):
            if i in below:
                continue
            for j in hits_i:
                if j not in heads and not _closes_cycle(hit_by, heads, i, j):
                    heads[j] = i
                    pairs.append((n, i, j))
                    break
        below = heads
    return Matching(pairs)


def _closes_cycle(hit_by, heads, i: int, j: int) -> bool:
    """Whether some tail reachable from i hits j."""
    seen = {i}
    stack = [hit_by[i]]
    while stack:
        for h in stack.pop():
            a = heads.get(h)
            if a is None or a in seen:
                continue
            if j in hit_by[a]:
                return True
            seen.add(a)
            stack.append(hit_by[a])
    return False


# -- the Heisenberg collapse ------------------------------------------------------------


def heisenberg_matching(ell: int, top_degree: int) -> tuple[BasedComplex, Matching]:
    """The collapsing matching on the symmetric complex with trivial coefficients.

    A cell is its space's sorted index tuple, in which index 0 is a, k is b_k
    and ell + k is c_k.  A cell that holds a is a tail when the largest k in
    1..ell at which k and ell + k both occur an even number of times exceeds
    the largest k at which both occur an odd number of times; its head trades
    one copy of a for one b_k and one c_k at that k.
    """
    algebra = heisenberg(ell)
    triv = trivial_module(algebra)
    cx = complex_from_cochains(algebra, triv, "symmetric", top_degree)
    spaces = [cochain_space(algebra, triv, n, "symmetric") for n in range(top_degree + 1)]
    pairs = []
    for n in range(top_degree):
        for i, tpl in enumerate(spaces[n].tuples):
            if tpl[:1] != (0,):
                continue
            # the largest k at which b_k and c_k both occur an even, an odd number of times
            last = [0, 0]
            for k in range(1, ell + 1):
                parity = tpl.count(k) % 2
                if tpl.count(ell + k) % 2 == parity:
                    last[parity] = k
            k = last[0]
            if k > last[1]:
                head = tuple(sorted(tpl[1:] + (k, ell + k)))
                pairs.append((n, i, spaces[n + 1].tuple_index(head)))
    return cx, Matching(pairs)
