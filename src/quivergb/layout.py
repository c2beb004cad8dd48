"""Quiver parsing and the variable lattice behind the concatenated matrices.

A bipartite quiver with d vertices and r arrows produces one page of fresh
variables per arrow; the page of arrow k (source s, target t) has shape
m_t x m_s.  Every sink vertex owns the horizontal concatenation of its
in-arrow pages, every source vertex the vertical stack of its out-arrow
pages, pages ordered by arrow index.
"""

from __future__ import annotations

from collections import namedtuple

from .poly import InputError, OrderSpec

# arrows: ordered (source, target) pairs, 1-based; m: dimension vector and
# u: rank bounds u_gamma, both of length d; order_file: a path or None
QuiverSpec = namedtuple("QuiverSpec", "d arrows m u order_file", defaults=(None,))


def parse_quiver(text):
    """Parse the line-oriented quiver config grammar."""
    d = None
    arrows = []
    m = u = None
    order_file = None
    seen = set()  # keywords other than arrow, which appear once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        try:
            if kw != "arrow":
                if kw in seen:
                    raise InputError(f"duplicate {kw} line")
                seen.add(kw)
            if kw == "vertices":
                (d,) = map(int, parts[1:])
                if d < 1:
                    raise InputError("vertex count must be positive")
            elif kw == "arrow":
                if d is None:
                    raise InputError("vertices must come first")
                s, t = map(int, parts[1:])
                if not (1 <= s <= d and 1 <= t <= d):
                    raise InputError("vertex index out of range")
                arrows.append((s, t))
            elif kw == "m":
                m = tuple(int(x) for x in parts[1:])
            elif kw == "rank":
                u = tuple(int(x) for x in parts[1:])
            elif kw == "order":
                (order_file,) = parts[1:]
            else:
                raise InputError(f"unknown keyword {kw!r}")
        except InputError as exc:  # before ValueError, its base class
            raise InputError(f"line {lineno}: {exc}") from None
        except ValueError as exc:  # a bad int, or too few or too many arguments
            raise InputError(f"line {lineno}: malformed: {raw.strip()!r}") from exc
    if d is None:
        raise InputError("missing vertices line")
    if m is None or len(m) != d:
        raise InputError(f"dimension vector m must have length {d}")
    if u is None or len(u) != d:
        raise InputError(f"rank vector must have length {d}")
    if any(x < 0 for x in m) or any(x < 0 for x in u):
        raise InputError("m and rank entries must be nonnegative")
    sources = {s for s, _ in arrows}
    targets = {t for _, t in arrows}
    both = sources & targets
    if both:
        raise InputError(f"vertex {min(both)} used as both source and sink")
    return QuiverSpec(d, tuple(arrows), m, u, order_file)


def double_det_spec(m, n, r, u, v):
    """Two vertices joined by r parallel arrows; pages are m x n, the sink
    concatenation is m x rn (u-minors), the source stack rm x n (v-minors)."""
    if min(m, n, r) < 1 or min(u, v) < 1:
        raise InputError("dimensions and minor sizes must be positive")
    return QuiverSpec(2, tuple((1, 2) for _ in range(r)), (n, m), (v - 1, u - 1))


def render_quiver(spec):
    lines = [f"vertices {spec.d}"]
    lines.extend(f"arrow {s} {t}" for s, t in spec.arrows)
    lines.append("m " + " ".join(str(x) for x in spec.m))
    lines.append("rank " + " ".join(str(x) for x in spec.u))
    if spec.order_file:
        lines.append(f"order {spec.order_file}")
    return "\n".join(lines) + "\n"


class Layout:
    """The variable lattice of a quiver and the vertex matrices over it.

    It holds no memo: minors.minor_leading_term reads each diagonal afresh
    and minors.expand_minor expands each determinant afresh."""

    def __init__(self, spec, pages, var_of, point_of, matrices, roles):
        self.spec = spec
        self.pages = pages          # per arrow (0-based): (nrows, ncols)
        self.var_of = var_of        # (i, j, k) 1-based lattice point -> VarId
        self.point_of = point_of    # VarId -> (i, j, k)
        self.matrices = matrices    # vertex -> list of rows of VarIds (may be absent)
        self.roles = roles          # vertex -> "sink" | "source"
        self.pos_in_matrix = {}     # (vertex, VarId) -> (p, q)

    @property
    def nvars(self):
        return len(self.point_of)

    def var_name(self, v):
        i, j, k = self.point_of[v]
        return f"x[{i},{j},{k}]"

    def has_matrix(self, gamma):
        return gamma in self.matrices

    def matrix(self, gamma):
        try:
            return self.matrices[gamma]
        except KeyError:
            raise InputError(f"vertex {gamma} has no incident arrows") from None

    def matrix_shape(self, gamma):
        grid = self.matrix(gamma)
        return len(grid), len(grid[0]) if grid else 0

    def minor_size(self, gamma):
        return self.spec.u[gamma - 1] + 1


def build_layout(spec):
    pages = []
    var_of = {}
    point_of = []
    for k, (s, t) in enumerate(spec.arrows, start=1):
        nrows, ncols = spec.m[t - 1], spec.m[s - 1]
        pages.append((nrows, ncols))
        for i in range(1, nrows + 1):
            for j in range(1, ncols + 1):
                var_of[(i, j, k)] = len(point_of)
                point_of.append((i, j, k))
    matrices = {}
    roles = {}
    for gamma in range(1, spec.d + 1):
        in_pages = [k for k, (_, t) in enumerate(spec.arrows, start=1) if t == gamma]
        out_pages = [k for k, (s, _) in enumerate(spec.arrows, start=1) if s == gamma]
        if in_pages:
            roles[gamma] = "sink"
            nrows = spec.m[gamma - 1]
            grid = [[] for _ in range(nrows)]
            for k in in_pages:
                _, ncols = pages[k - 1]
                for i in range(1, nrows + 1):
                    grid[i - 1].extend(var_of[(i, j, k)] for j in range(1, ncols + 1))
            matrices[gamma] = grid
        elif out_pages:
            roles[gamma] = "source"
            ncols = spec.m[gamma - 1]
            grid = []
            for k in out_pages:
                nrows, _ = pages[k - 1]
                for i in range(1, nrows + 1):
                    grid.append([var_of[(i, j, k)] for j in range(1, ncols + 1)])
            matrices[gamma] = grid
    layout = Layout(spec, pages, var_of, point_of, matrices, roles)
    for gamma, grid in matrices.items():
        for p, row in enumerate(grid, start=1):
            for q, v in enumerate(row, start=1):
                layout.pos_in_matrix[(gamma, v)] = (p, q)
    return layout


def entry_at(layout, gamma, p, q):
    grid = layout.matrix(gamma)
    if not (1 <= p <= len(grid)) or not grid or not (1 <= q <= len(grid[0])):
        raise InputError(f"entry ({p},{q}) out of bounds for vertex {gamma}")
    return grid[p - 1][q - 1]


def default_order(layout):
    """Page-major ranking, reading order within each page."""
    # point_of[v] = (i, j, k); sort by (k, i, j)
    order = sorted(range(layout.nvars),
                   key=lambda v: (layout.point_of[v][2], layout.point_of[v][0], layout.point_of[v][1]))
    return OrderSpec({v: r for r, v in enumerate(order)})


def parse_order_file(layout, text):
    """Ranking file: one line per variable, ``x[i,j,k] <rank>``, each name
    exactly as Layout.var_name writes it."""
    var_named = {layout.var_name(v): v for v in range(layout.nvars)}
    rank = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, r = line.split()
            v = var_named[name]
            r = int(r)
        except KeyError:
            raise InputError(f"order file line {lineno}: unknown variable {name!r}") from None
        except ValueError as exc:
            raise InputError(f"order file line {lineno}: malformed: {raw.strip()!r}") from exc
        if v in rank:
            raise InputError(f"order file line {lineno}: duplicate variable {name!r}")
        rank[v] = r
    if len(rank) != layout.nvars:
        raise InputError("order file must rank every lattice variable exactly once")
    return OrderSpec(rank)


def validate_consistent(ord, layout):
    """List the (vertex, position pair) places where ord breaks consistency.

    Consistency means every A_gamma decreases left-to-right along rows and
    top-to-bottom along columns.  Adjacent entries suffice by transitivity;
    a variable pair is reported once even if it appears in two matrices.
    """
    seen = set()
    bad = []
    for gamma, grid in sorted(layout.matrices.items()):
        nrows = len(grid)
        ncols = len(grid[0]) if grid else 0
        for p in range(nrows):
            for q in range(ncols):
                v = grid[p][q]
                if q + 1 < ncols:
                    w = grid[p][q + 1]
                    if ord.rank_of(v) > ord.rank_of(w) and (v, w) not in seen:
                        seen.add((v, w))
                        bad.append((gamma, (p + 1, q + 1), (p + 1, q + 2)))
                if p + 1 < nrows:
                    w = grid[p + 1][q]
                    if ord.rank_of(v) > ord.rank_of(w) and (v, w) not in seen:
                        seen.add((v, w))
                        bad.append((gamma, (p + 1, q + 1), (p + 2, q + 1)))
    return bad
