"""Constructive S-pair certificates for minor pairs.

Given two minors M, N over one layout, the lcm L of their leading monomials
is a product of distinct lattice variables.  Permuting row coordinates of
L's points within the leading support of M (by sigma) and column coordinates
within the leading support of N (by tau) yields the monomials L(sigma,tau);
signed sums of these over cosets collapse to cofactor-times-pseudominor
terms, and the resulting decomposition P(M,N) equals the S-polynomial.
Whether its terms stay below L is governed by combinatorial patterns
(violations, defects) among the leading-term positions, and chains of
intermediate minors with small-leading-term steps certify the Groebner
property pair by pair.

Coordinate convention: a pair on the same vertex matrix is analyzed in
whole-matrix coordinates (row, column of A_gamma) with a single incidence
class; a cross-vertex pair is analyzed in page-local coordinates with one
incidence class per page.
"""

from __future__ import annotations

import gc
import marshal
import os
from array import array
from collections import namedtuple
from functools import cache
from itertools import combinations, compress, count, permutations, repeat
from math import factorial
from types import MappingProxyType

from .poly import (
    QQ, DomainError, InputError, MonomialCodec, Overflow, Polynomial, mono_divides,
    mono_from, mono_vars, packed_s_polynomial, poly_add, poly_scale,
    poly_sub, render_monomial, require,
)
from .layout import default_order
from .minors import (
    MinorRef, PseudoMinorRef, ensure_consistent, expand_minor,
    expand_pseudominor, minor_leading_term, render_minor_spec,
)


# ---------------------------------------------------------------------------
# analysis

class SPairAnalysis(namedtuple("SPairAnalysis", "layout ord M N mode L points alpha beta "
                                                "page S_M S_N incidence_classes")):
    """mode is "matrix" (same vertex) or "pages" (cross vertex); L is the lcm
    monomial; points are lattice points, strictly decreasing variables;
    alpha, beta and page are 1-based coordinate arrays, entry 0 unused; S_M
    and S_N are 1-based index sets into points; incidence_classes are sorted
    index tuples."""
    __slots__ = ()

    @property
    def l(self):
        return len(self.points)

    @property
    def incidences(self):
        return frozenset(i for cls in self.incidence_classes for i in cls)


# The diagonal of a minor, its leading monomial under every consistent
# order: its variables' coordinates axis by axis, (rows, columns, pages) in
# the vertex matrix and (i, j, k) in the lattice, and each variable, in
# diagonal order (rank order), mapped to (row, column, 0) and to (i, j, k).
Diagonal = namedtuple("Diagonal", "cells points at_cell at_point")


def diagonal(layout, ref, ord):
    variables = sorted(mono_vars(minor_leading_term(layout, ref, ord)), key=ord.rank_of)
    points = list(map(layout.point_of.__getitem__, variables))
    return Diagonal((tuple(ref.rows), tuple(ref.cols), tuple(k for _, _, k in points)),
                    tuple(zip(*points)), dict(zip(variables, zip(ref.rows, ref.cols, repeat(0)))),
                    dict(zip(variables, points)))


def analyze(layout, M, N, ord):
    return _analysis(layout, ord, M, N, diagonal(layout, M, ord), diagonal(layout, N, ord))


def _analysis(layout, ord, M, N, dm, dn):
    """analyze(layout, M, N, ord), given the diagonals dm and dn of M and N."""
    if M.vertex == N.vertex:
        mode, in_m, in_n = "matrix", dm.at_cell, dn.at_cell
    else:
        # The cross-matrix machinery is oriented: sigma permutes row
        # coordinates inside the sink-side support, tau permutes column
        # coordinates inside the source-side support.  Normalize a reversed pair.
        if layout.roles[M.vertex] == "source" and layout.roles[N.vertex] == "sink":
            M, N, dm, dn = N, M, dn, dm
        mode, in_m, in_n = "pages", dm.at_point, dn.at_point
    at = {**in_m, **in_n}
    variables = sorted(at, key=ord.rank.__getitem__)
    alpha, beta, page = zip((0, 0, 0), *map(at.__getitem__, variables))
    S_M = frozenset(compress(count(1), map(in_m.__contains__, variables)))
    S_N = frozenset(compress(count(1), map(in_n.__contains__, variables)))
    inc = sorted(S_M & S_N)
    if mode == "matrix":
        classes = (tuple(inc),) if inc else ()
    else:
        by_page = {}
        for i in inc:
            by_page.setdefault(page[i], []).append(i)
        classes = tuple(tuple(v) for _, v in sorted(by_page.items()))
    return SPairAnalysis(layout, ord, M, N, mode, tuple(zip(sorted(at), repeat(1))),
                         tuple(map(layout.point_of.__getitem__, variables)),
                         alpha, beta, page, S_M, S_N, classes)


def _var_at(an, a, b, r):
    if an.mode == "matrix":
        grid = an.layout.matrix(an.M.vertex)
        if not (1 <= a <= len(grid) and 1 <= b <= len(grid[0])):
            raise InputError("permuted point leaves the matrix")
        return grid[a - 1][b - 1]
    try:
        return an.layout.var_of[(a, b, r)]
    except KeyError:
        raise InputError("permuted point leaves the variable lattice") from None


# ---------------------------------------------------------------------------
# permutations as dicts over a fixed index subset

def perms_of(S):
    base = sorted(S)
    return [dict(zip(base, img)) for img in permutations(base)]


def perm_apply(p, i):
    return p.get(i, i)


def perm_sign(p):
    keys = sorted(p)
    img = [p[k] for k in keys]
    sign = 1
    for a in range(len(img)):
        for b in range(a + 1, len(img)):
            if img[a] > img[b]:
                sign = -sign
    return sign


def perm_oneline(p, S):
    return tuple(perm_apply(p, i) for i in sorted(S))


def _check_member(p, S, what):
    dom = set(p)
    if not dom <= set(S) or set(p.values()) != dom:
        raise InputError(f"{what} is not a permutation of the required index set")


def coset_reps(an, side):
    """One representative per coset sigma * prod(Sym(I_j)); identity first."""
    S = an.S_M if side == "row" else an.S_N
    return tuple(p for _, p in _coset_reps(S, an.incidence_classes))


@cache
def _coset_reps(S, incidence_classes):
    """(sign, representative) per coset, identity first.  The cosets depend
    only on the support S and the incidence classes, so pairs with the same
    pattern share one enumeration.  Every caller gets the same permutations,
    so they are read-only views."""
    inc = frozenset(i for cls in incidence_classes for i in cls) & S
    fixed = sorted(S - inc)
    buckets = {}
    for p in perms_of(S):
        key = (tuple(p[i] for i in fixed),
               tuple(frozenset(p[i] for i in cls) for cls in incidence_classes))
        line = perm_oneline(p, S)
        cur = buckets.get(key)
        if cur is None or line < perm_oneline(cur, S):
            buckets[key] = p
    reps = sorted(buckets.values(), key=lambda p: perm_oneline(p, S))
    # identity has the minimal one-line form, so it is already first
    return tuple((perm_sign(p), MappingProxyType(p)) for p in reps)


def L_of(an, sigma, tau):
    _check_member(sigma, an.S_M, "sigma")
    _check_member(tau, an.S_N, "tau")
    pairs = []
    for i in range(1, an.l + 1):
        a = an.alpha[perm_apply(sigma, i)]
        b = an.beta[perm_apply(tau, i)]
        pairs.append((_var_at(an, a, b, an.page[i]), 1))
    return mono_from(pairs)


# ---------------------------------------------------------------------------
# pseudominor decompositions

# cofactor is a monomial, pm a PseudoMinorRef
DecompTerm = namedtuple("DecompTerm", "sign cofactor pm")
# row_terms and col_terms are tuples of DecompTerm
Decomposition = namedtuple("Decomposition", "M N row_terms col_terms")


def _require_orientation(an):
    if an.mode == "matrix":
        return
    sides = an.layout.roles[an.M.vertex], an.layout.roles[an.N.vertex]
    if sides[0] == sides[1]:
        raise DomainError("the two minors share no page: their leading monomials are coprime, "
                          "and Certifier.decomposition gives the coprime syzygy")
    if sides[0] == "source":
        raise DomainError("pseudominor decomposition is defined with the sink-side minor "
                          "first; swap the pair")


def p_row(an, sigma):
    """P_{sigma,.} as (sign, cofactor, pseudominor of N's matrix)."""
    _check_member(sigma, an.S_M, "sigma")
    _require_orientation(an)
    return (perm_sign(sigma), *_row_term(an, sigma))


def p_col(an, tau):
    """P_{.,tau} as (sign, cofactor, pseudominor of M's matrix)."""
    _check_member(tau, an.S_N, "tau")
    _require_orientation(an)
    return (perm_sign(tau), *_col_term(an, tau))


def _row_term(an, sigma):
    """The cofactor and pseudominor of P_{sigma,.}, for a sigma known to
    permute S_M of a pair in sink-first orientation."""
    alpha, beta, page, get = an.alpha, an.beta, an.page, sigma.get
    js = sorted(an.S_N)
    rows, vertex = tuple(map(alpha.__getitem__, map(get, js, js))), an.M.vertex
    if an.mode == "pages":
        # the rows of N's matrix, the source matrix, at those of the lattice
        vertex, var_of, pos = an.N.vertex, an.layout.var_of, an.layout.pos_in_matrix
        rows = tuple(pos[vertex, var_of[r, 1, page[j]]][0] for r, j in zip(rows, js))
    # the cofactor's points lie in distinct columns, so its variables are distinct
    cof = sorted(_var_at(an, alpha[get(k, k)], beta[k], page[k]) for k in an.S_M - an.S_N)
    return (tuple(zip(cof, repeat(1))),
            PseudoMinorRef(vertex, rows, tuple(map(beta.__getitem__, js))))


def _col_term(an, tau):
    """The cofactor and pseudominor of P_{.,tau}, for a tau known to permute
    S_N of a pair in sink-first orientation."""
    alpha, beta, page, get = an.alpha, an.beta, an.page, tau.get
    ks = sorted(an.S_M)
    cols, vertex = tuple(map(beta.__getitem__, map(get, ks, ks))), an.M.vertex
    if an.mode == "pages":
        # the columns of M's matrix, the sink matrix, at those of the lattice
        var_of, pos = an.layout.var_of, an.layout.pos_in_matrix
        cols = tuple(pos[vertex, var_of[1, c, page[i]]][1] for c, i in zip(cols, ks))
    # the cofactor's points lie in distinct rows, so its variables are distinct
    cof = sorted(_var_at(an, alpha[k], beta[get(k, k)], page[k]) for k in an.S_N - an.S_M)
    return tuple(zip(cof, repeat(1))), PseudoMinorRef(vertex, tuple(map(alpha.__getitem__, ks)),
                                                      cols)


def _coset_decomposition(an):
    """P(M, N) from the cosets; their representatives are generated here, so
    only the orientation is checked."""
    _require_orientation(an)
    return Decomposition(an.M, an.N, _coset_terms(an, an.S_M, _row_term),
                         _coset_terms(an, an.S_N, _col_term))


def _coset_terms(an, S, term):
    """The terms of the non-identity cosets of S whose pseudominors are not
    trivial."""
    out = []
    for sign, p in _coset_reps(S, an.incidence_classes)[1:]:
        cof, pm = term(an, p)
        if not pm.trivial:
            out.append(DecompTerm(sign, cof, pm))
    return tuple(out)


def p_decomposition(layout, M, N, ord, field=QQ):
    return Certifier(layout, ord, field).decomposition(M, N)


def expand_term(layout, term, field=QQ):
    p = expand_pseudominor(layout, term.pm, field)
    if p.is_zero():
        return p
    return poly_scale(p, (term.sign, term.cofactor))


def expand_decomposition(layout, d, field=QQ):
    acc = Polynomial()
    for t in d.row_terms:
        acc = poly_add(acc, expand_term(layout, t, field))
    for t in d.col_terms:
        acc = poly_sub(acc, expand_term(layout, t, field))
    return acc


# ---------------------------------------------------------------------------
# violations and defects

Violation = namedtuple("Violation", "i j k strict")


def _violates(an, i, j, k):
    """(p_i, p_j, p_k) with i from S_M, j from S_N, k an incidence."""
    if len({i, j, k}) < 3:
        return None
    if an.page[i] != an.page[j] or an.page[j] != an.page[k]:
        return None
    ai, aj, ak = an.alpha[i], an.alpha[j], an.alpha[k]
    bi, bj, bk = an.beta[i], an.beta[j], an.beta[k]
    if ai <= aj < ak and bj <= bi < bk:
        return Violation(i, j, k, strict=(ai < aj and bj < bi))
    return None


def find_violations(layout, M, N, ord):
    an = analyze(layout, M, N, ord)
    return violations_of(an)


def violations_of(an):
    out = []
    inc = sorted(an.incidences)
    for i in sorted(an.S_M):
        for j in sorted(an.S_N):
            for k in inc:
                v = _violates(an, i, j, k)
                if v:
                    out.append(v)
    return out


Defect = namedtuple("Defect", "kind j k r s t maximal")  # kind "I" | "II"


def _defect_chain_ok(an, j, k, r, s, t):
    a, b = an.alpha, an.beta
    return (a[j] <= a[k] < a[r] <= a[s] < a[t]
            and b[k] <= b[j] < b[s] <= b[r] < b[t])


def find_defects(layout, M, N, ord):
    if M.vertex != N.vertex:
        raise InputError("defects are a single-matrix notion; the pair crosses matrices")
    an = analyze(layout, M, N, ord)
    return defects_of(an)


def defects_of(an):
    only_m = sorted(an.S_M - an.S_N)
    only_n = sorted(an.S_N - an.S_M)
    inc = sorted(an.incidences)
    out = []
    for kind, first, second in (("I", only_m, only_n), ("II", only_n, only_m)):
        for j in first:
            for s in first:
                if s == j:
                    continue
                for k in second:
                    for r in second:
                        if r == k:
                            continue
                        for t in inc:
                            if not _defect_chain_ok(an, j, k, r, s, t):
                                continue
                            out.append(Defect(kind, j, k, r, s, t,
                                              _is_maximal_defect(an, kind, j, k, r, s, t)))
    return out


def _is_maximal_defect(an, kind, j, k, r, s, t):
    first = an.S_M if kind == "I" else an.S_N
    second = an.S_N if kind == "I" else an.S_M
    # (i) no violation triple with componentwise smaller (j', k') and same t
    for j2 in sorted(first):
        if j2 > j:
            continue
        for k2 in sorted(second):
            if k2 > k or (j2, k2) == (j, k):
                continue
            if _violates(an, j2, k2, t):
                return False
    # (ii) no tighter inner crossing with the same (j, k, t)
    first_only = first - second
    second_only = second - first
    for s2 in sorted(first_only):
        if not j < s2 <= s:
            continue
        for r2 in sorted(second_only):
            if not k < r2 <= r:
                continue
            if (s2, r2) != (s, r) and _defect_chain_ok(an, j, k, r2, s2, t):
                return False
    return True


def distance(layout, M, N, ord):
    return len(mono_vars(minor_leading_term(layout, M, ord))
               ^ mono_vars(minor_leading_term(layout, N, ord)))


# ---------------------------------------------------------------------------
# transplants

def _support_lists(an):
    """Positions m_1 > m_2 > ... (index lists into points, 1-based lists)."""
    m_list = [0] + sorted(an.S_M)
    n_list = [0] + sorted(an.S_N)
    return m_list, n_list


def _first_incidence_after(an, lst, pos):
    inc = an.incidences
    for i in range(pos + 1, len(lst)):
        if lst[i] in inc:
            return i
    return None


def _ref_from_points(layout, vertex, lattice_points):
    coords = []
    for pt in lattice_points:
        v = layout.var_of[pt]
        try:
            coords.append(layout.pos_in_matrix[(vertex, v)])
        except KeyError:
            raise DomainError("spliced point lies outside the target matrix") from None
    coords.sort()
    rows = tuple(p for p, _ in coords)
    cols_in_row_order = [q for _, q in coords]
    # NW-SE: sorting by row must also sort columns strictly
    require(len(set(rows)) == len(coords), "transplant produced a repeated row")
    require(all(a < b for a, b in zip(cols_in_row_order, cols_in_row_order[1:])),
            "transplant points are not NW-SE")
    return MinorRef(vertex, rows, tuple(sorted(cols_in_row_order)))


def transplant(layout, M, N, defect, ord):
    if not defect.maximal:
        raise InputError("transplant requires a maximal defect")
    if M.vertex != N.vertex:
        raise InputError("transplant is a single-matrix operation")
    if defect.kind == "II":
        flipped = Defect("I", defect.j, defect.k, defect.r, defect.s, defect.t, True)
        return transplant(layout, N, M, flipped, ord)
    an = analyze(layout, M, N, ord)
    m_list, n_list = _support_lists(an)
    u = len(m_list) - 1
    j = m_list.index(defect.j)
    s = m_list.index(defect.s)
    k = n_list.index(defect.k)
    r = n_list.index(defect.r)
    w1 = _first_incidence_after(an, m_list, j)
    w2 = _first_incidence_after(an, n_list, k)
    y1 = min(s, w1) - j
    y2 = min(r, w2) - k
    if y1 <= y2:
        chosen = (m_list[1:j] + n_list[k:k + y1] + m_list[j + y1:])
    else:
        chosen = (n_list[1:k] + m_list[j:j + y2] + n_list[k + y2:])
    require(len(chosen) == u, "transplant changed the minor size")
    pts = [an.points[i - 1] for i in chosen]
    P = _ref_from_points(layout, M.vertex, pts)
    lm_p = minor_leading_term(layout, P, ord)
    require(mono_divides(lm_p, an.L), "transplant leading term does not divide the lcm")
    require(P != M and P != N, "transplant returned an end of the pair")
    d_mp = distance(layout, M, P, ord)
    d_pn = distance(layout, P, N, ord)
    require(d_mp > 0 and d_pn > 0, "transplant does not lie strictly between the pair")
    require(d_mp + d_pn == distance(layout, M, N, ord),
            "transplant distances do not add up")
    return P


# ---------------------------------------------------------------------------
# chains

# refs: a list of MinorRef; steps: a list of Decomposition, one per consecutive pair
ChainCertificate = namedtuple("ChainCertificate", "refs steps")


def _mirror(d):
    return Decomposition(d.N, d.M, d.col_terms, d.row_terms)


def _pick_defect(layout, F, G, ord):
    """Maximal type-I defect of (F,G) with least support positions (j,k);
    falls back to type II (a type-I defect of the swapped pair)."""
    an = analyze(layout, F, G, ord)
    m_list, n_list = _support_lists(an)

    def sort_key(d):
        first = m_list if d.kind == "I" else n_list
        second = n_list if d.kind == "I" else m_list
        return (first.index(d.j), second.index(d.k))

    defects = [d for d in defects_of(an) if d.maximal]
    type1 = [d for d in defects if d.kind == "I"]
    pool = type1 if type1 else defects
    if not pool:
        raise DomainError("pair is defective but has no maximal defect")
    return min(pool, key=sort_key)


class Certifier:
    """Builds and verifies chain certificates for one run, over a fixed
    layout, order and field (0 for QQ, or the prime p for GF(p)).

    Chains of different pairs share many steps (F, G), and many more steps
    share a step class (see pattern).  For the life of the certifier it
    keeps, per step class, how its first step met decomposes and whether
    that decomposition verified, so each step class is decided once and
    verified once; build still returns each step's own decomposition.
    verify checks a certificate from scratch, every step of it in full, so
    its verdict never rests on an earlier one.

    Build and verify both work on monomials packed by the run's own
    MonomialCodec.  Each distinct ref is expanded once per run, into the
    one packed form that both read leading monomials from.  That memo is a
    codec cache: a widening empties it, and the interrupted work starts
    again and packs what it needs afresh.  The order is checked for
    consistency once, here, before any verdict.

    certify(M, N) walks the chain of (M, N) as build does, and reads its
    verdict off the step classes.  pair_classes numbers the pattern classes
    of every pair of a list of refs, so that a caller certifies one pair per
    class and gives its verdict to the rest of the class."""

    def __init__(self, layout, ord, field=QQ):
        ensure_consistent(layout, ord)
        self.layout = layout
        self.ord = ord
        self.field = field
        self.codec = MonomialCodec(ord)
        self._steps = {}      # step pattern -> (how it decomposes, verified), see _step
        # pairs share a pattern class only under the default order
        self._by_class = ord.rank == default_order(layout).rank
        self._diags = {}      # ref -> its Diagonal
        self._ranked = {}     # (xs, ys) -> xs + ys rank-compressed, see pattern
        self._pages = {}      # (xs, ys) of page axes -> that and the pages' arrows
        self._by_diagonal = {}  # (vertex, size) -> diagonal variables -> (rows, cols)
        # ref -> packed form, or None for 0; refs compare by value, so a
        # MinorRef and a PseudoMinorRef over the same cells share one entry
        self._dets = self.codec.cache()

    def _diag(self, ref):
        try:
            return self._diags[ref]
        except KeyError:
            d = self._diags[ref] = diagonal(self.layout, ref, self.ord)
            return d

    def _det(self, ref, expand):
        """expand(layout, ref, field) in its packed form, or None when it is 0."""
        try:
            return self._dets[ref]
        except KeyError:
            poly = expand(self.layout, ref, self.field)
            det = self._dets[ref] = self.codec.packed(poly) if poly.terms else None
            return det

    def _lead(self, t):
        """The packed leading monomial of a term, cofactor times the largest
        monomial of its pseudominor, or None for a zero pseudominor."""
        det = self._det(t.pm, expand_pseudominor)
        if det is None:
            return None
        m = self.codec.pack(t.cofactor) + det[1]
        if m & self.codec.guard:
            raise Overflow
        return m

    def decomposition(self, M, N):
        """P(M, N): empty for M = N, the coset decomposition for a pair that
        shares a page (sink-first, so a source/sink pair is mirrored), and
        the coprime syzygy for any other pair."""
        if M == N:
            return Decomposition(M, N, (), ())
        roles = self.layout.roles
        if M.vertex != N.vertex:
            if roles[M.vertex] == "source" and roles[N.vertex] == "sink":
                return _mirror(self.decomposition(N, M))
            if not (roles[M.vertex] == "sink" and roles[N.vertex] == "source"):
                return self.codec.run(self._coprime_syzygy, M, N)
        return _coset_decomposition(
            _analysis(self.layout, self.ord, M, N, self._diag(M), self._diag(N)))

    def _coprime_syzygy(self, M, N):
        """Pairs with no shared page have coprime leading monomials; the
        classical syzygy S = sum(tail(M))*N - sum(tail(N))*M serves as the
        decomposition, with the generators themselves as the pseudominors.
        Both tails are read off the packed forms, in descending order."""
        f, g = self._det(M, expand_minor), self._det(N, expand_minor)
        p, unpack = self.field, self.codec.unpack
        unit = f[2] * g[2]  # the inverses of both leading coefficients
        minus_one = p - 1 if p else -1  # 1 over GF(2), where every sign is +

        def tail(det, other):
            pm = PseudoMinorRef(other.vertex, other.rows, other.cols)
            terms = []
            for m, c in sorted(det[0], reverse=True)[1:]:
                s = c * unit % p if p else c * unit
                if s == 1:
                    sign = 1
                elif s == minus_one:
                    sign = -1
                else:  # pragma: no cover - minors have unit coefficients
                    raise DomainError("coprime decomposition needs unit coefficients")
                terms.append(DecompTerm(sign, unpack(m), pm))
            return tuple(terms)
        return Decomposition(M, N, tail(f, N), tail(g, M))

    def has_small_lts(self, d):
        """Whether every term of d leads below the lcm L of the leading
        monomials of d.M and d.N.  Chain building decides with this."""
        def below():
            top = self.codec.lcm(self._det(d.M, expand_minor)[1],
                                 self._det(d.N, expand_minor)[1])
            for t in d.row_terms + d.col_terms:
                m = self._lead(t)
                if m is not None and m >= top:
                    return False
            return True
        return self.codec.run(below)

    def _step(self, F, G):
        """(how the chain step (F, G) decomposes, whether that decomposition
        verifies), made once per step class (see pattern) from the first
        step of the class met: how is False for P(F,G), where its terms lead
        below the lcm, True for P(G,F) mirrored, where only its terms do,
        and None where neither's do."""
        key = self.pattern(F, G)
        try:
            return self._steps[key]
        except KeyError:
            pass
        mirrored, d = False, self.decomposition(F, G)
        if not self.has_small_lts(d):
            mirrored, d = True, _mirror(self.decomposition(G, F))
            if not self.has_small_lts(d):
                self._steps[key] = found = None, False
                return found
        found = self._steps[key] = mirrored, self.codec.run(self._step_holds, F, G, d)
        return found

    def _decomposed(self, F, G):
        """The decomposition of the accepted chain step (F, G)."""
        if self._step(F, G)[0]:
            return _mirror(self.decomposition(G, F))
        return self.decomposition(F, G)

    def _same_matrix_chain(self, F, G):
        """Refs from F to G; every adjacent pair is an accepted step."""
        if F == G:
            return (F,)
        if self._step(F, G)[0] is not None:
            return (F, G)
        layout, ord = self.layout, self.ord
        P = transplant(layout, F, G, _pick_defect(layout, F, G, ord), ord)
        return self._same_matrix_chain(F, P)[:-1] + self._same_matrix_chain(P, G)

    def pattern(self, M, N):
        """The pattern class of the pair (M, N), or (M, N) itself under any
        order but the default one: the two diagonals concatenated, each
        coordinate, (row, column, page) in the vertex matrix for a
        same-vertex pair and (i, j, k) for a cross-vertex pair, replaced by
        its position among its distinct values there, with the arrow of each
        of those pages.  Each axis's merge is worked out once per run.

        Two pairs of one class differ by a relabelling phi of each
        coordinate that keeps its order and each page's arrow.  Every ref,
        cofactor and pseudominor that build forms is made of rows and
        columns of points of L, the lcm of the two diagonals: transplants
        and bridges splice points of L, and coset terms permute their
        coordinates.  So phi carries each of them to the one build forms for
        the other pair, and since it keeps the order of rows and columns,
        determinants and S-polynomials map term by term with the same signs.
        The default order ranks by (k, i, j), so phi keeps every comparison
        of monomials too, and the two chains have one length and one
        verdict.

        A chain step (F, G) is itself a pair, keyed the same way, and the
        same argument applies to it alone: a relabelling of the step's
        coordinates that keeps the order of each and the arrows of its
        pages carries P(F, G), P(G, F) and the coprime syzygy term by term,
        signs included, onto those of the relabelled step.  It keeps
        whether their terms lead below the lcm, so the choice between them,
        and whether the chosen one expands to S(F, G), so its verdict."""
        if not self._by_class:
            return M, N
        m, n = self._diag(M), self._diag(N)
        x, y = (m.cells, n.cells) if M.vertex == N.vertex else (m.points, n.points)
        ranked = self._ranked
        try:
            return (M.vertex, N.vertex, ranked[x[0], y[0]], ranked[x[1], y[1]],
                    self._pages[x[2], y[2]])
        except KeyError:
            for xs, ys in zip(x, y):  # the page axis last, so distinct ends as the pages
                distinct = sorted(set(xs + ys))
                ranked[xs, ys] = tuple(map(distinct.index, xs + ys))
            arrows = self.layout.spec.arrows
            self._pages[x[2], y[2]] = (ranked[x[2], y[2]], tuple(arrows[k - 1] for k in distinct))
            return self.pattern(M, N)

    def certify(self, M, N):
        """(the length of the chain of (M, N), whether it verifies).  The
        chain is the one build walks, and it verifies when its end-point
        checks pass and every step class on it verified."""
        refs = self._chain(M, N)
        return len(refs), (self.codec.run(self._ends_hold, refs)
                           and all(self._step(F, G)[1] for F, G in zip(refs, refs[1:])))

    def pair_classes(self, refs):
        """The pattern class of every pair (i, j) of refs, i < j, in pair
        order: an array of class numbers, the classes numbered in the order
        first met, and the first pair of each class."""
        number, classes, firsts = {}, array("I"), []
        pattern = self.pattern
        for (i, M), (j, N) in combinations(enumerate(refs), 2):
            c = number.setdefault(pattern(M, N), len(firsts))
            if c == len(firsts):
                firsts.append((i, j))
            classes.append(c)
        return classes, firsts

    def build(self, M, N):
        """The chain certificate of the pair (M, N)."""
        refs = self._chain(M, N)
        return ChainCertificate(list(refs), list(map(self._decomposed, refs, refs[1:])))

    def _chain(self, M, N):
        """The refs of the chain of (M, N); every step is accepted."""
        if M.vertex == N.vertex:
            return self._same_matrix_chain(M, N)
        variables = self._diag(M).at_cell.keys() | self._diag(N).at_cell.keys()
        cand_m = self._minors_within(M.vertex, M.size, variables)
        cand_n = self._minors_within(N.vertex, N.size, variables)
        # the bridge M2 -> N2 of least distance |diag(M2) ^ diag(N2)|
        _, rows_m, cols_m, rows_n, cols_n = min(
            (len(vm ^ vn), rm, cm, rn, cn)
            for rm, cm, vm in cand_m for rn, cn, vn in cand_n)
        M2 = MinorRef(M.vertex, rows_m, cols_m)
        N2 = MinorRef(N.vertex, rows_n, cols_n)
        refs = self._same_matrix_chain(M, M2) + self._same_matrix_chain(N2, N)
        # the same-matrix chains accepted every other step; only the bridge crosses vertices
        if self._step(M2, N2)[0] is None:
            raise DomainError("no small-leading-term decomposition for a chain step")
        return refs

    def _minors_within(self, vertex, size, variables):
        """The size-minors of the vertex matrix whose diagonal uses only
        variables (the D^L sets), as (rows, cols, diagonal variables), read
        from an index of them all by diagonal, built on first use."""
        index = self._by_diagonal.get((vertex, size))
        if index is None:
            grid = self.layout.matrix(vertex)
            index = self._by_diagonal[vertex, size] = {
                frozenset(grid[p - 1][q - 1] for p, q in zip(rows, cols)): (rows, cols)
                for rows in combinations(range(1, len(grid) + 1), size)
                for cols in combinations(range(1, len(grid[0]) + 1), size)}
        pos = self.layout.pos_in_matrix
        out = []
        for sub in combinations([v for v in variables if (vertex, v) in pos], size):
            sub = frozenset(sub)
            if sub in index:
                out.append((*index[sub], sub))
        return out

    def verify(self, cert):
        """Whether cert proves that the S-polynomial of its end refs reduces
        to zero: its end-point checks pass and every step is verified."""
        refs = cert.refs
        if not refs:
            return False
        if len(refs) == 1:
            return not cert.steps
        if len(cert.steps) != len(refs) - 1:
            return False
        if not self.codec.run(self._ends_hold, refs):
            return False
        return all(self._verify_step(F, G, d) for F, G, d in zip(refs, refs[1:], cert.steps))

    def _ends_hold(self, refs):
        """Whether the leading monomial of every ref divides the lcm of those
        of the two end refs."""
        guard = self.codec.guard
        lms = [self._det(ref, expand_minor)[1] for ref in refs]
        top = self.codec.lcm(lms[0], lms[-1])
        return not any((top - lm) & guard for lm in lms)

    def _verify_step(self, F, G, d):
        return d.M == F and d.N == G and self.codec.run(self._step_holds, F, G, d)

    def _step_holds(self, F, G, d):
        """Whether d expands to S(F, G) and each of its terms leads below
        the lcm L of the leading monomials of F and G, every leading monomial
        being the largest monomial of a packed expansion, so the test of a
        term is ``cof + lm(pm) < L`` on ints.  A sum that outgrows a field
        raises Overflow before anything is compared."""
        guard, pack, p = self.codec.guard, self.codec.pack, self.field
        f, g = self._det(F, expand_minor), self._det(G, expand_minor)
        L = self.codec.lcm(f[1], g[1])
        # a minor of distinct variables is multilinear, so no exponent of
        # the S-polynomial exceeds 2 and no field of it can overflow
        target = packed_s_polynomial(f, g, L, p)
        acc, leads = {}, []
        for side, terms in ((1, d.row_terms), (-1, d.col_terms)):
            for t in terms:
                det = self._det(t.pm, expand_pseudominor)
                if det is None:
                    continue
                pm_terms, lm, _, span = det
                cof = pack(t.cofactor)
                if (cof + span) & guard:
                    raise Overflow
                leads.append(cof + lm)
                sign = side * t.sign
                for m, c in pm_terms:
                    m += cof
                    c = acc.get(m, 0) + sign * c
                    if p:
                        c %= p
                    if c:
                        acc[m] = c
                    else:
                        del acc[m]
        if acc != target:
            return False
        # every surviving pseudominor must be a natural generator in disguise
        size = self.layout.minor_size
        return (all(len(t.pm.rows) == size(t.pm.vertex) for t in d.row_terms + d.col_terms)
                and all(m < L for m in leads))


def build_chain(layout, M, N, ord, field=QQ):
    return Certifier(layout, ord, field).build(M, N)


def verify_chain(layout, cert, ord, field=QQ):
    return Certifier(layout, ord, field).verify(cert)


def check_noviolation_equivalence(layout, M, N, ord):
    """Brute-force check that strict violations characterize L(sigma,tau) > L
    and that L(sigma,tau) = L exactly on the diagonal incidence subgroup."""
    an = analyze(layout, M, N, ord)
    if factorial(len(an.S_M)) * factorial(len(an.S_N)) > factorial(8) ** 2:
        raise InputError("enumeration budget exceeded")
    strict_exists = any(v.strict for v in violations_of(an))
    key_l = ord.key(an.L)
    any_gt = False
    cond_a = True
    for sigma in perms_of(an.S_M):
        for tau in perms_of(an.S_N):
            m = L_of(an, sigma, tau)
            k = ord.key(m)
            if k > key_l:
                any_gt = True
            if (m == an.L) != _in_H(an, sigma, tau):
                cond_a = False
    return cond_a and (strict_exists == any_gt)


def _in_H(an, sigma, tau):
    for i in an.S_M - an.S_N:
        if perm_apply(sigma, i) != i:
            return False
    for i in an.S_N - an.S_M:
        if perm_apply(tau, i) != i:
            return False
    cls_of = {}
    for idx, cls in enumerate(an.incidence_classes):
        for i in cls:
            cls_of[i] = idx
    for i in an.incidences:
        si, ti = perm_apply(sigma, i), perm_apply(tau, i)
        if si != ti or cls_of.get(si) != cls_of.get(i):
            return False
    return True


# ---------------------------------------------------------------------------
# certifying pattern classes across CPUs

def pair_lines(pairs, classes, verdicts):
    """(line, verified) of each (i, j) of pairs, whose class numbers classes
    gives in the same order, up to the first pair whose class has no
    verdict; verdicts holds (chain length, verified) per class."""
    texts = [(f" chain {length} verified {'true' if ok else 'false'}", ok)
             for length, ok in verdicts]
    for (i, j), c in zip(pairs, classes):
        if c >= len(texts):
            return
        text, ok = texts[c]
        yield f"pair {i} {j}{text}", ok


# the errors a worker hands back to be raised again in the parent
_WORKER_ERRORS = {cls.__name__: cls for cls in (InputError, DomainError)}


def _cpus():
    """How many CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _chunk_bounds(n, cpus):
    """The bounds of the contiguous chunks map_chunks cuts range(n) into:
    about 8 per CPU, and never more than n, nor than the 1,024 whose 4-byte
    numbers fill one page."""
    k = min(n, 8 * cpus, 1024)
    return [n * c // max(k, 1) for c in range(k + 1)]


def map_chunks(fn, n):
    """([fn(i) for i in range(n)], None); or, where fn raises InputError or
    DomainError, the results below the lowest i at which it does and that
    error, as a serial run that stops there has them.

    range(n) is cut into contiguous chunks (_chunk_bounds), and every chunk
    number goes into one pipe, the queue, before anything forks: a page at
    most, so the write never blocks.  On one CPU, or with one chunk, this
    process takes every chunk off the queue itself.  Otherwise it forks one
    worker per CPU it may run on, never more than there are chunks, each
    inheriting everything fn has built so far, and takes no chunk itself,
    so that what it runs, and so what a profile of it counts, does not
    depend on how the chunks fall.  Each worker reads the next 4-byte chunk
    number off the queue and runs fn on that chunk, until the queue is
    empty or fn raises, so one that gets less CPU takes fewer chunks, and
    sends its results back over its own pipe with marshal, so they must be
    marshallable.  Chunks are handed out in order, so every chunk below one
    that failed was taken, and finished unless it failed lower.  Contiguous
    chunks keep neighbouring items, which share the most work, in one
    process.  Every worker is reaped before this returns or raises, and
    those still running when it raises are killed first; a worker that
    fails any other way raises RuntimeError here."""
    cpus = _cpus()
    bounds = _chunk_bounds(n, cpus)
    workers = min(cpus, len(bounds) - 1)
    if workers < 2:
        workers = 0
    else:
        # No collection walks what exists now from here on: the workers
        # leave its pages shared, and the last collection, at exit, is short.
        gc.freeze()
    queue, w = os.pipe()
    os.write(w, b"".join(c.to_bytes(4, "little") for c in range(len(bounds) - 1)))
    os.close(w)
    pipes, running = [], set()  # (pid, read end) per worker; pids not yet reaped
    try:
        for _ in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, bounds, queue, w)
            running.add(pid)
            os.close(w)
            pipes.append((pid, open(r, "rb")))
        done, error = ([], None) if workers else _take(fn, bounds, queue)
        for pid, pipe in pipes:
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            if status:
                raise RuntimeError(f"worker {pid} failed with wait status {status}")
            more, failed = marshal.loads(data)
            done += more
            if failed and (error is None or failed[0] < error[0]):
                error = failed[0], _WORKER_ERRORS[failed[1]](failed[2])
    finally:
        for pid in running:
            os.kill(pid, 9)  # SIGKILL on every POSIX system; importing signal costs start-up
        for pid in running:
            os.waitpid(pid, 0)
        for _, pipe in pipes:
            pipe.close()
        os.close(queue)
    results = [None] * n
    for lo, part in done:
        results[lo:lo + len(part)] = part
    return (results[:error[0]], error[1]) if error else (results, None)


def _take(fn, bounds, queue):
    """Run fn over each chunk whose number this process reads off the queue,
    until it is empty or fn raises InputError or DomainError: the (first
    index, results) of every chunk taken, and (index, error) or None."""
    done = []
    while chunk := os.read(queue, 4):
        c = int.from_bytes(chunk, "little")
        lo, results = bounds[c], []
        done.append((lo, results))
        try:
            for i in range(lo, bounds[c + 1]):
                results.append(fn(i))
        except (InputError, DomainError) as exc:
            return done, (lo + len(results), exc)
    return done, None


def _worker(fn, bounds, queue, fd):
    """The body of a forked worker of map_chunks: never returns."""
    code = 1
    try:
        done, error = _take(fn, bounds, queue)
        if error:
            error = error[0], type(error[1]).__name__, str(error[1])
        with open(fd, "wb") as pipe:
            pipe.write(marshal.dumps((done, error)))
        code = 0
    except Exception:
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# rendering

def render_decomposition(layout, d, ord):
    def side(terms):
        if not terms:
            return "(empty)"
        bits = []
        for t in terms:
            cof = render_monomial(t.cofactor, ord, layout.var_name)
            bits.append(f"[{'+' if t.sign > 0 else '-'} {cof or '1'} "
                        f"pm {render_minor_spec(t.pm)}]")
        return " ".join(bits)

    return f"rows: {side(d.row_terms)}\ncols: {side(d.col_terms)}"


def render_certificate(layout, cert, ord):
    lines = ["chain " + " ".join(render_minor_spec(r) for r in cert.refs)]
    for i, d in enumerate(cert.steps):
        body = render_decomposition(layout, d, ord).replace("\n", " ; ")
        lines.append(f"step {i}: {body}")
    return "\n".join(lines)
