"""Tensors over exact scalars, their contractions and flattenings, and the
determinantal ideals they induce: double determinantal ideals from parallel
arrows, the flattening-rank equality test with witness tensors, and
independence ideals of statistical models."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import prod

from .poly import (
    QQ, DomainError, InputError, OrderSpec, PreparedBasis, poly_neg, poly_var,
    require,
)
from .layout import QuiverSpec, build_layout, default_order
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


def tensor_from_function(shape, fn):
    shape = tuple(shape)
    vals = [fn(idx) for idx in product(*(range(1, a + 1) for a in shape))]
    return Tensor(shape, vals)


def _check_axes(X, axes):
    for j in axes:
        if not 1 <= j <= X.arity:
            raise InputError(f"axis {j} out of range for arity {X.arity}")


def contraction(X, J):
    """Sum out the axes in J."""
    J = sorted(set(J))
    _check_axes(X, J)
    keep = [j for j in range(1, X.arity + 1) if j not in J]
    shape = tuple(X.shape[j - 1] for j in keep)

    def entry(idx):
        total = None
        for extra in product(*(range(1, X.shape[j - 1] + 1) for j in J)):
            full = [0] * X.arity
            for pos, j in enumerate(keep):
                full[j - 1] = idx[pos]
            for pos, j in enumerate(J):
                full[j - 1] = extra[pos]
            v = X[tuple(full)]
            total = v if total is None else total + v
        return total

    if not keep:
        # scalar: represent as a 1-entry arity-1 tensor is awkward; return value
        return entry(())
    return tensor_from_function(shape, entry)


def scan(X, j):
    """The a_j slices obtained by fixing axis j, in index order."""
    _check_axes(X, [j])
    shape = tuple(a for pos, a in enumerate(X.shape, start=1) if pos != j)
    out = []
    for fixed in range(1, X.shape[j - 1] + 1):
        def entry(idx, fixed=fixed):
            full = list(idx)
            full.insert(j - 1, fixed)
            return X[tuple(full)]
        out.append(tensor_from_function(shape, entry))
    return out


def _flatten_columns(X, j):
    """Remaining index tuples, later axes more significant."""
    rest = [pos for pos in range(1, X.arity + 1) if pos != j]
    cols = list(product(*(range(1, X.shape[pos - 1] + 1) for pos in rest)))
    cols.sort(key=lambda t: tuple(reversed(t)))
    return rest, cols


def flatten(X, j):
    """Matrix with a_j rows; columns run over the remaining indices."""
    _check_axes(X, [j])
    rest, cols = _flatten_columns(X, j)
    out = []
    for i in range(1, X.shape[j - 1] + 1):
        row = []
        for col in cols:
            full = [0] * X.arity
            full[j - 1] = i
            for pos, val in zip(rest, col):
                full[pos - 1] = val
            row.append(X[tuple(full)])
        out.append(row)
    return out


def parse_tensor(text):
    """Line 1: ``shape a1 a2 ... an``; then entries in row-major order."""
    lines = [ln.split("#", 1)[0] for ln in text.splitlines()]
    body = " ".join(lines).split()
    if not body or body[0] != "shape":
        raise InputError("tensor file must start with a shape line")
    shape = []
    pos = 1
    while pos < len(body):
        try:
            shape.append(int(body[pos]))
        except ValueError:
            break
        pos += 1
    # the entries may be integers too, so the shape is the shortest prefix
    # of the leading integers whose product is the count of tokens after it
    if not shape:
        raise InputError("empty shape")
    for n in range(1, len(shape) + 1):
        if len(body) - 1 - n == prod(shape[:n]):
            try:
                vals = [Fraction(tok) for tok in body[1 + n:]]
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad tensor entry: {exc}") from None
            return Tensor(tuple(shape[:n]), vals)
    raise InputError("entry count does not match any shape prefix")


def render_tensor(X):
    head = "shape " + " ".join(str(a) for a in X.shape)
    return head + "\n" + " ".join(str(v) for v in X.values) + "\n"


# ---------------------------------------------------------------------------
# exact linear algebra

def matrix_rank(M):
    """Rank over the rationals by fraction-exact Gaussian elimination."""
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
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / pv
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

def double_det_spec(m, n, r, u, v):
    """Two vertices joined by r parallel arrows; pages are m x n, the sink
    concatenation is m x rn (u-minors), the source stack rm x n (v-minors)."""
    if min(m, n, r) < 1 or min(u, v) < 1:
        raise InputError("dimensions and minor sizes must be positive")
    return QuiverSpec(2, tuple((1, 2) for _ in range(r)), (n, m), (v - 1, u - 1))


def double_det_generators(m, n, r, u, v, field=QQ):
    layout = build_layout(double_det_spec(m, n, r, u, v))
    return layout, natural_generators(layout, field)


def witness_tensor(m, n, r, u, v, w):
    """0/1 tensor whose first two flattening ranks stay within (u-1, v-1)
    while the third flattening rank exceeds w-1."""
    _triple_bounds(m, n, r, u, v, w)
    if (u - 1) * (v - 1) <= w - 1:
        raise InputError("no witness exists: (u-1)(v-1) <= w-1")

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
    counter = iter(range(prod(shape)))
    return tensor_from_function(shape, lambda idx: poly_var(next(counter), field))


def tensor_var_namer(shape):
    idx_of = list(product(*(range(1, a + 1) for a in shape)))
    return lambda v: "p[" + ",".join(map(str, idx_of[v])) + "]"


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
        if not report.is_groebner:  # pragma: no cover - theorem
            return TripleEqResult(True, False, {"reason": "basis check failed"})
        grid = [[poly_var(layout.var_of[(i, j, k)], field)
                 for j in range(1, n + 1) for i in range(1, m + 1)]
                for k in range(1, r + 1)]
        # columns of the third flattening: (i, j) with j more significant
        extra = _poly_minors(grid, w)
        reduced = 0
        for g in extra:
            if not ideal_membership(g, basis, ord, report):
                return TripleEqResult(True, False,
                                      {"reduced": reduced, "total": len(extra)})
            reduced += 1
        return TripleEqResult(True, True, {"reduced": reduced, "total": len(extra)})
    T = witness_tensor(m, n, r, u, v, w)
    ranks = (matrix_rank(flatten(T, 1)), matrix_rank(flatten(T, 2)),
             matrix_rank(flatten(T, 3)))
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


def _as_matrix(T):
    if T.arity != 2:
        raise DomainError("expected an arity-2 tensor")
    return [[T[(i, j)] for j in range(1, T.shape[1] + 1)]
            for i in range(1, T.shape[0] + 1)]


def independence_ideal(shape, statements, field=QQ):
    """Generators (2-minors, or (s+1)-minors for hidden variables) of the
    ideal expressing the given independence statements on a joint table."""
    shape = tuple(shape)
    sym = symbolic_tensor(shape, field)
    found = []
    for st in statements:
        st.validate(len(shape))
        if st.kind == "marginal":
            rest = [x for x in range(1, len(shape) + 1) if x not in (st.a, st.b)]
            M2 = contraction(sym, rest) if rest else sym
            grid = _as_matrix(M2)
            if st.a > st.b:
                grid = _transpose(grid)
            found += _poly_minors(grid, 2)
        elif st.kind == "saturated":
            found += _poly_minors(flatten(sym, st.a), 2)
        elif st.kind == "conditional":
            for piece in scan(sym, st.c):
                rest_axes = [x for x in range(1, len(shape) + 1) if x != st.c]
                a_pos = rest_axes.index(st.a) + 1
                b_pos = rest_axes.index(st.b) + 1
                drop = [x for x in range(1, piece.arity + 1) if x not in (a_pos, b_pos)]
                slab = contraction(piece, drop) if drop else piece
                grid = _as_matrix(slab)
                if a_pos > b_pos:
                    grid = _transpose(grid)
                found += _poly_minors(grid, 2)
        else:  # hidden
            found += _poly_minors(flatten(sym, st.a), st.states + 1)
    return _unique_up_to_sign(found)


def _unique_up_to_sign(polys):
    """The nonzero polys in first-seen order, dropping any equal to a kept
    one or to its negative."""
    out = []
    seen = set()  # term sets of the kept polys
    for g in polys:
        if g.is_zero():
            continue
        key = frozenset(g.terms.items())
        if key in seen or frozenset(poly_neg(g).terms.items()) in seen:
            continue
        seen.add(key)
        out.append(g)
    return out


def _transpose(M):
    return [list(col) for col in zip(*M)]
