"""Tensors over exact scalars, their contractions and flattenings, and the
determinantal ideals they induce: double determinantal ideals from parallel
arrows, the flattening-rank equality test with witness tensors, and
independence ideals of statistical models."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product
from math import prod

from .poly import (
    QQ, InputError, OrderSpec, PreparedBasis, inverse, poly_var, require,
)
from .layout import build_layout, default_order, double_det_spec
from .minors import det_poly_matrix, natural_generators
from .groebner import buchberger_check, ideal_membership


# ---------------------------------------------------------------------------
# tensors

class Tensor(namedtuple("Tensor", "shape values")):
    """Dense tensor; values in row-major order, last index fastest.

    Entries can be any ring elements supporting + (rationals by default,
    polynomials for symbolic tensors)."""
    __slots__ = ()

    def __new__(cls, shape, values):
        shape = tuple(shape)
        if any(a < 1 for a in shape):
            raise InputError("tensor axes must be positive")
        total = prod(shape)
        if len(values) != total:
            raise InputError(f"expected {total} entries for shape {shape}, got {len(values)}")
        return tuple.__new__(cls, (shape, values))

    @property
    def arity(self):
        return len(self.shape)

    def offset(self, idx):
        if len(idx) != self.arity:
            raise InputError("index arity mismatch")
        off = 0
        for i, a in zip(idx, self.shape):
            if not 1 <= i <= a:
                raise InputError(f"index {idx} out of bounds for shape {self.shape}")
            off = off * a + (i - 1)
        return off

    def __getitem__(self, idx):
        return self.values[self.offset(idx)]


def _indices(shape):
    """Every index tuple of a shape, in row-major order."""
    return product(*(range(1, a + 1) for a in shape))


def _cells(X):
    """(index, entry) for every cell of X, in row-major order."""
    return zip(_indices(X.shape), X.values)


def tensor_from_function(shape, fn):
    shape = tuple(shape)
    return Tensor(shape, [fn(idx) for idx in _indices(shape)])


def _check_axes(X, axes):
    for j in axes:
        if not 1 <= j <= X.arity:
            raise InputError(f"axis {j} out of range for arity {X.arity}")


def contraction(X, J):
    """Sum out the axes in J; summing out every axis gives a scalar."""
    J = set(J)
    _check_axes(X, J)
    keep = [pos for pos in range(X.arity) if pos + 1 not in J]
    # a kept index is first met with every summed index at 1, so the sums
    # fill in the row-major order of the kept axes
    sums = {}
    for idx, v in _cells(X):
        key = tuple(idx[pos] for pos in keep)
        sums[key] = sums[key] + v if key in sums else v
    if not keep:
        return sums[()]
    return Tensor(tuple(X.shape[pos] for pos in keep), list(sums.values()))


def scan(X, j):
    """The a_j slices obtained by fixing axis j, in index order."""
    _check_axes(X, [j])
    slices = [[] for _ in range(X.shape[j - 1])]
    for idx, v in _cells(X):
        slices[idx[j - 1] - 1].append(v)
    return [Tensor(X.shape[:j - 1] + X.shape[j:], vals) for vals in slices]


def flatten(X, j):
    """Matrix with a_j rows; columns run over the remaining indices, later
    axes more significant."""
    _check_axes(X, [j])
    rows = [[] for _ in range(X.shape[j - 1])]
    for idx, v in sorted(_cells(X), key=lambda cell: cell[0][::-1]):
        rows[idx[j - 1] - 1].append(v)
    return rows


def parse_tensor(text):
    """Line 1: ``shape a1 a2 ... an`` alone; every token after it is an
    entry, in row-major order.  ``#`` starts a comment."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][0] != "shape":
        raise InputError("tensor file must start with a shape line")
    try:
        shape = [int(tok) for tok in lines[0][1:]]
    except ValueError:
        raise InputError("the shape line holds only integers") from None
    if not shape:
        raise InputError("empty shape")
    from fractions import Fraction  # loaded only by a run that makes one
    try:
        vals = [Fraction(tok) for ln in lines[1:] for tok in ln]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad tensor entry: {exc}") from None
    return Tensor(shape, vals)


def render_tensor(X):
    head = "shape " + " ".join(str(a) for a in X.shape)
    return head + "\n" + " ".join(str(v) for v in X.values) + "\n"


# ---------------------------------------------------------------------------
# exact linear algebra

def matrix_rank(M):
    """Rank over the rationals by exact Gaussian elimination; every pivot is
    divided by through poly.inverse, so int entries never become floats."""
    rows = [list(r) for r in M]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _poly_minors(M, size):
    """All size-minors of a matrix of polynomials, row-then-column lex order."""
    nrows, ncols = len(M), len(M[0]) if M else 0
    out = []
    if size > nrows or size > ncols:
        return out
    for rows in combinations(range(nrows), size):
        for cols in combinations(range(ncols), size):
            out.append(det_poly_matrix([[M[r][c] for c in cols] for r in rows]))
    return out


# ---------------------------------------------------------------------------
# double determinantal ideals

def double_det_generators(m, n, r, u, v, field=QQ):
    layout = build_layout(double_det_spec(m, n, r, u, v))
    return layout, natural_generators(layout, field)


def witness_tensor(m, n, r, u, v, w):
    """0/1 tensor whose first two flattening ranks stay within (u-1, v-1)
    while the third flattening rank exceeds w-1."""
    _triple_bounds(m, n, r, u, v, w)
    if (u - 1) * (v - 1) <= w - 1:
        raise InputError("no witness exists: (u-1)(v-1) <= w-1")

    from fractions import Fraction  # loaded only by a run that makes one

    def entry(idx):
        i, j, k = idx
        hit = (i <= u - 1 and j <= v - 1 and k == (i - 1) * (v - 1) + j)
        return Fraction(1 if hit else 0)

    T = tensor_from_function((m, n, r), entry)
    r1 = matrix_rank(flatten(T, 1))
    r2 = matrix_rank(flatten(T, 2))
    r3 = matrix_rank(flatten(T, 3))
    require(r1 <= u - 1 and r2 <= v - 1, "witness flattening ranks exceed (u-1, v-1)")
    require(r3 == min((u - 1) * (v - 1), r) > w - 1,
            "witness third flattening rank is not min((u-1)(v-1), r)")
    if (u - 1) * (v - 1) <= r:
        require((r1, r2) == (u - 1, v - 1), "witness flattening ranks are not (u-1, v-1)")
    return T


def _triple_bounds(m, n, r, u, v, w):
    if not (2 <= u <= min(m, r * n)):
        raise InputError(f"need 2 <= u <= min(m, rn); got u={u}")
    if not (2 <= v <= min(n, m * r)):
        raise InputError(f"need 2 <= v <= min(n, mr); got v={v}")
    if not (2 <= w <= min(r, m * n)):
        raise InputError(f"need 2 <= w <= min(r, mn); got w={w}")


def symbolic_tensor(shape, field=QQ):
    """Tensor of fresh variables, one per cell, in row-major id order."""
    shape = tuple(shape)
    return Tensor(shape, [poly_var(v, field) for v in range(prod(shape))])


def tensor_var_namer(shape):
    """The name p[i1,...,in] of each variable of symbolic_tensor(shape)."""
    return ["p[" + ",".join(map(str, idx)) + "]" for idx in _indices(shape)].__getitem__


def tensor_var_order(shape):
    return OrderSpec({v: v for v in range(prod(shape))})


TripleEqResult = namedtuple("TripleEqResult", "predicted verified evidence")


def triple_eq_check(m, n, r, u, v, w, field=QQ):
    """Does adding the w-minors of the third flattening change the ideal?

    Equality is predicted exactly when (u-1)(v-1) <= w-1.  A predicted
    equality is verified by reducing every extra generator to zero modulo
    the double determinantal generators (a verified Groebner basis); a
    predicted inequality is certified by a witness tensor whose flattening
    ranks separate the two varieties."""
    _triple_bounds(m, n, r, u, v, w)
    predicted = (u - 1) * (v - 1) <= w - 1
    if predicted:
        layout, gens = double_det_generators(m, n, r, u, v, field)
        ord = default_order(layout)
        basis = PreparedBasis([p for _, p in gens], ord)
        report = buchberger_check(basis, ord)
        X = tensor_from_function((m, n, r), lambda idx: poly_var(layout.var_of[idx], field))
        extra = _poly_minors(flatten(X, 3), w)
        reduced = 0
        for g in extra:
            if not report.is_groebner or not ideal_membership(g, basis, ord, report):
                return TripleEqResult(True, False,
                                      {"reduced": reduced, "total": len(extra)})
            reduced += 1
        return TripleEqResult(True, True, {"reduced": reduced, "total": len(extra)})
    T = witness_tensor(m, n, r, u, v, w)
    ranks = tuple(matrix_rank(flatten(T, j)) for j in (1, 2, 3))
    ok = ranks[0] <= u - 1 and ranks[1] <= v - 1 and ranks[2] > w - 1
    return TripleEqResult(False, ok, {"witness": T, "ranks": ranks})


# ---------------------------------------------------------------------------
# independence ideals

class IndepStatement(namedtuple("IndepStatement", "kind a b c states", defaults=(0, 0, 0))):
    """kind is marginal, saturated, conditional or hidden; axis b is used by
    marginal and conditional, the observed axis c by conditional, and the
    state count of the hidden variable by hidden."""
    __slots__ = ()

    def validate(self, arity):
        axes = {"marginal": (self.a, self.b), "conditional": (self.a, self.b, self.c),
                "saturated": (self.a,), "hidden": (self.a,)}[self.kind]
        if len(set(axes)) != len(axes):
            raise InputError("statement axes must be distinct")
        for x in axes:
            if not 1 <= x <= arity:
                raise InputError(f"axis {x} out of range for arity {arity}")
        if self.kind == "hidden" and self.states < 1:
            raise InputError("hidden state count must be positive")


def parse_statement(text):
    """``a_b`` marginal; ``a|rest`` saturated; ``a_b|c`` conditional;
    ``a|rest:s`` hidden with s states."""
    def number(field):
        if not (field.isascii() and field.isdigit()):
            raise ValueError(f"{field!r} is not a number")
        return int(field)

    def pair(field):
        parts = field.split("_")
        if len(parts) != 2:
            raise ValueError(f"{field!r} is not a pair a_b")
        return map(number, parts)

    try:
        if "|" in text:
            left, right = text.split("|", 1)
            if "_" in left:
                return IndepStatement("conditional", *pair(left), number(right))
            if ":" in right:
                rest, s = right.split(":", 1)
                if rest != "rest":
                    raise ValueError("expected 'rest'")
                return IndepStatement("hidden", number(left), states=number(s))
            if right != "rest":
                raise ValueError("expected 'rest'")
            return IndepStatement("saturated", number(left))
        if "_" in text:
            return IndepStatement("marginal", *pair(text))
        raise ValueError("unrecognized form")
    except ValueError as exc:
        raise InputError(f"bad statement {text!r}: {exc}") from None


def render_statement(st):
    if st.kind == "marginal":
        return f"{st.a}_{st.b}"
    if st.kind == "saturated":
        return f"{st.a}|rest"
    if st.kind == "conditional":
        return f"{st.a}_{st.b}|{st.c}"
    return f"{st.a}|rest:{st.states}"


def independence_ideal(shape, statements, field=QQ):
    """Generators of the ideal expressing the given independence statements
    on a joint table.  Each statement bounds the rank of a flattening:
    a_b asks for the 2-minors of the (a, b) marginal with rows indexed by a,
    and a_b|c for those of the same marginal within each slice of axis c;
    a|rest asks for the 2-minors, and a|rest:s for the (s+1)-minors, of the
    table flattened along axis a."""
    shape = tuple(shape)
    sym = symbolic_tensor(shape, field)
    found = []
    for st in statements:
        st.validate(len(shape))
        if st.kind in ("marginal", "conditional"):
            # a marginal statement is the conditional one over no axis (c = 0)
            axes = [x for x in range(1, len(shape) + 1) if x != st.c]
            drop = [pos for pos, x in enumerate(axes, start=1) if x not in (st.a, st.b)]
            for piece in scan(sym, st.c) if st.c else [sym]:
                marginal = contraction(piece, drop)
                found += _poly_minors(flatten(marginal, 1 if st.a < st.b else 2), 2)
        else:
            rank = st.states if st.kind == "hidden" else 1
            found += _poly_minors(flatten(sym, st.a), rank + 1)
    return _unique_up_to_sign(found)


def _unique_up_to_sign(polys):
    """The nonzero polys in first-seen order, dropping any equal to a kept
    one or to its negative.

    g and -g share one key: the term set of whichever of them has, at the
    least monomial, a positive coefficient over QQ, or over GF(p) the
    smaller of c and p - c.  Over GF(2), g is -g."""
    out = []
    seen = set()  # keys of the kept polys
    for g in polys:
        terms, p = g.terms, g.char
        if not terms:
            continue
        c = terms[min(terms)]
        if (p - c < c) if p else c < 0:
            key = frozenset((m, p - d if p else -d) for m, d in terms.items())
        else:
            key = frozenset(terms.items())
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out
