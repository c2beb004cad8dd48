"""Minors and pseudominors of the concatenated matrices, and the natural
generator set of the bipartite determinantal ideal."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .poly import (
    QQ, DomainError, InputError, Polynomial, _char, mono_from, mono_mul, poly_var,
)
from .layout import validate_consistent


class MinorRef(namedtuple("MinorRef", "vertex rows cols")):
    """rows and cols strictly increasing, 1-based."""
    __slots__ = ()

    def __new__(cls, vertex, rows, cols):
        if len(rows) != len(cols) or not rows:
            raise InputError("minor needs equally many rows and columns, at least one")
        if list(rows) != sorted(set(rows)) or list(cols) != sorted(set(cols)):
            raise InputError("minor rows and columns must be strictly increasing")
        return tuple.__new__(cls, (vertex, rows, cols))

    @property
    def size(self):
        return len(self.rows)


class PseudoMinorRef(namedtuple("PseudoMinorRef", "vertex rows cols")):
    """rows and cols arbitrary sequences, repeats allowed."""
    __slots__ = ()

    def __new__(cls, vertex, rows, cols):
        if len(rows) != len(cols):
            raise InputError("pseudominor needs equally many rows and columns")
        return tuple.__new__(cls, (vertex, rows, cols))

    @property
    def trivial(self):
        return len(set(self.rows)) < len(self.rows) or len(set(self.cols)) < len(self.cols)


def enumerate_minors(layout, gamma, size):
    if size < 1 or not layout.has_matrix(gamma):
        return []
    nrows, ncols = layout.matrix_shape(gamma)
    if size > nrows or size > ncols:
        return []
    out = []
    for rows in combinations(range(1, nrows + 1), size):
        for cols in combinations(range(1, ncols + 1), size):
            out.append(MinorRef(gamma, rows, cols))
    return out


def det_poly_matrix(M):
    """Determinant of a square matrix of polynomials (DP over column masks).

    The DP starts from the first row rather than from a constant 1, so it
    works over any coefficient field.  Each signed product goes straight
    into the terms of its mask; fields combine as poly_mul and poly_add
    combine them, so two nonzero entries of different fields that meet
    raise DomainError."""
    n = len(M)
    if not n or any(len(row) != n for row in M):
        raise InputError("determinant needs a nonempty square matrix")
    prev = {1 << j: M[0][j] for j in range(n)}
    for i in range(1, n):
        nxt = {}
        for mask, sub in prev.items():
            for j, entry in enumerate(M[i]):
                bit = 1 << j
                if mask & bit:
                    continue
                p = _char(sub, entry)  # the field of the product
                key = mask | bit
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = Polynomial(char=p)
                if not (sub.terms and entry.terms):
                    continue  # a zero product leaves acc as it is
                acc.char = _char(acc, sub)  # the product is nonzero, of sub's field
                # Laplace sign: parity of already-chosen columns right of j
                neg = (mask >> (j + 1)).bit_count() & 1
                terms = acc.terms
                for sm, sc in sub.terms.items():
                    for em, ec in entry.terms.items():
                        m = mono_mul(sm, em)
                        c = terms.get(m, 0) + (-sc * ec if neg else sc * ec)
                        if p:
                            c %= p
                        if c:
                            terms[m] = c
                        else:
                            terms.pop(m, None)
        prev = nxt
    return prev[(1 << n) - 1]


def _submatrix(layout, ref):
    grid = layout.matrix(ref.vertex)
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    for p in ref.rows:
        if not 1 <= p <= nrows:
            raise InputError(f"row {p} out of bounds for vertex {ref.vertex}")
    for q in ref.cols:
        if not 1 <= q <= ncols:
            raise InputError(f"column {q} out of bounds for vertex {ref.vertex}")
    return [[grid[p - 1][q - 1] for q in ref.cols] for p in ref.rows]


def _det(layout, ref, field):
    """Determinant of ref's submatrix over field."""
    grid = [[poly_var(v, field) for v in row] for row in _submatrix(layout, ref)]
    return det_poly_matrix(grid)


def expand_minor(layout, ref, field=QQ):
    return _det(layout, ref, field)


def expand_pseudominor(layout, ref, field=QQ):
    if ref.trivial:
        return Polynomial()
    return _det(layout, ref, field)


def ensure_consistent(layout, ord):
    """Validate ord against layout once; the order keeps the layout it passed."""
    if ord.consistent_layout is layout:
        return
    bad = validate_consistent(ord, layout)
    if bad:
        gamma, a, b = bad[0]
        raise DomainError(f"order is not consistent with the layout: vertex {gamma} "
                          f"ranks entry {a} below entry {b}")
    ord.consistent_layout = layout


def minor_leading_term(layout, ref, ord):
    """The leading monomial of a minor, read off its diagonal without
    expanding it.  Under a consistent order the diagonal leads, with
    coefficient 1, and is the same for every consistent order."""
    ensure_consistent(layout, ord)
    grid = _submatrix(layout, ref)
    return mono_from((grid[i][i], 1) for i in range(len(grid)))


def minor_points(layout, ref):
    """The set of lattice points covered by the submatrix (dedup key)."""
    return frozenset(layout.point_of[v] for row in _submatrix(layout, ref) for v in row)


def natural_refs(layout):
    """The (u_gamma+1)-minors over all vertices, one per set of points."""
    seen = set()
    out = []
    for gamma in sorted(layout.matrices):
        for ref in enumerate_minors(layout, gamma, layout.minor_size(gamma)):
            key = minor_points(layout, ref)
            if key not in seen:
                seen.add(key)
                out.append(ref)
    return out


def natural_generators(layout, field=QQ):
    """natural_refs(layout), each with its polynomial."""
    return [(ref, expand_minor(layout, ref, field)) for ref in natural_refs(layout)]


def parse_minor_spec(text):
    """CLI form ``<vertex>:<r1>,<r2>,…;<c1>,<c2>,…`` (1-based)."""
    try:
        vtx, rest = text.split(":", 1)
        rows, cols = rest.split(";", 1)
        ref = MinorRef(int(vtx),
                       tuple(int(x) for x in rows.split(",")),
                       tuple(int(x) for x in cols.split(",")))
    except (ValueError, InputError) as exc:
        raise InputError(f"bad minor spec {text!r}: {exc}") from None
    return ref


def render_minor_spec(ref):
    """CLI form of a MinorRef or PseudoMinorRef."""
    return f"{ref.vertex}:{','.join(map(str, ref.rows))};{','.join(map(str, ref.cols))}"

