"""Sparse multivariate polynomials over exact coefficients.

Monomials are sorted tuples of (variable id, exponent) pairs; variable ids
are plain nonnegative integers handed out by a layout or tensor space.
Orders are ranked lexicographic: an OrderSpec assigns each variable a rank,
rank 0 being the largest variable, and monomials compare by the exponent
vector read in rank order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


class InputError(ValueError):
    """Bad user-supplied input (files, indices, flags)."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


def require(ok, message):
    """Raise DomainError(message) unless ok: an invariant check that ``python -O`` keeps."""
    if not ok:
        raise DomainError(message)


# ---------------------------------------------------------------------------
# coefficient fields: a field is its characteristic, 0 for QQ or p for GF(p)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461  # least strong pseudoprime to all of them


def is_prime(n):
    """Miller-Rabin with the first 12 prime bases, exact below 3.18e23 (> 2**78)."""
    if n >= _MR_EXACT_BELOW:
        raise InputError(f"{n} is too large to test for primality")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    return not any(pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s))
                   for a in _MR_BASES)


def PrimeField(p):
    """The field GF(p), which is its characteristic: the int p, once it is
    checked to be prime."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return p


QQ = 0  # the rationals, by their characteristic


def inverse(c, p=QQ):
    """1/c for a nonzero coefficient of the field p, QQ (0) or a prime; the
    only place a coefficient is divided.

    Over GF(p) the inverse is the residue ``pow(c, -1, p)``.  Over QQ an int
    +-1 is its own inverse, any other int becomes a Fraction (never a float),
    and a Fraction inverts itself.  A zero raises ZeroDivisionError."""
    if p:
        if not c % p:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(c, -1, p)
    if isinstance(c, int):
        if c in (1, -1):
            return c
        from fractions import Fraction  # loaded only by a run that makes one
        return Fraction(1, c)
    return c ** -1


# ---------------------------------------------------------------------------
# monomials

def mono_from(pairs):
    """Build a monomial from (var, exp) pairs, merging repeats."""
    acc = {}
    for v, e in pairs:
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:  # every variable of a sorts before those of b
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mono_divides(a, b):
    """True iff a | b."""
    db = dict(b)
    return all(db.get(v, 0) >= e for v, e in a)


def mono_div(a, b):
    """a / b; raises DomainError when b does not divide a."""
    acc = dict(a)
    for v, e in b:
        r = acc.get(v, 0) - e
        if r < 0:
            raise DomainError("monomial division is not exact")
        if r:
            acc[v] = r
        else:
            acc.pop(v, None)
    return tuple(sorted(acc.items()))


def mono_lcm(a, b):
    acc = dict(a)
    for v, e in b:
        if acc.get(v, 0) < e:
            acc[v] = e
    return tuple(sorted(acc.items()))


def mono_vars(a):
    return frozenset(v for v, _ in a)


class OrderSpec:
    """Ranked lexicographic monomial order. rank 0 = largest variable."""

    def __init__(self, rank):
        self.rank = dict(rank)
        n = len(self.rank)
        if sorted(self.rank.values()) != list(range(n)):
            raise InputError("ranks must be a permutation of 0..n-1")
        self.nvars = n
        self.consistent_layout = None  # set by minors.ensure_consistent

    def rank_of(self, v):
        try:
            return self.rank[v]
        except KeyError:
            raise InputError(f"variable {v} is not ranked by this order") from None

    def key(self, mono):
        """Dense exponent vector in rank order; tuple comparison = lex order."""
        vec = [0] * self.nvars
        for v, e in mono:
            vec[self.rank_of(v)] = e
        return tuple(vec)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable-by-convention sparse polynomial: dict monomial -> coeff.

    ``char`` is the coefficient field, which is its characteristic: QQ (0),
    or the prime p for GF(p), whose coefficients are ints in 1..p-1.  The
    arithmetic below reduces mod p wherever it makes a coefficient."""

    __slots__ = ("terms", "char")

    def __init__(self, terms=None, char=QQ):
        self.terms = dict(terms) if terms else {}
        self.char = char

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms and (self.char == other.char or not self.terms)

    __hash__ = None

    def __add__(self, other):
        return poly_add(self, other)

    def __sub__(self, other):
        return poly_sub(self, other)

    def __neg__(self):
        return poly_neg(self)

    def __mul__(self, other):
        return poly_mul(self, other)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        return "Polynomial(" + " ".join(f"{c}*{m}" for m, c in self.terms.items()) + ")"


def _char(f, g):
    """The characteristic of a result made from f and g.  A zero polynomial
    combines with any field; two nonzero ones must share theirs."""
    if f.char == g.char or not g.terms:
        return f.char
    if not f.terms:
        return g.char
    raise DomainError("mixed prime fields")


def poly_from_terms(terms, field=QQ):
    """terms: iterable of (coeff, monomial); merges and drops zeros."""
    acc = {}
    for c, m in terms:
        if m in acc:
            c = acc[m] + c
        if field:
            c %= field
        if c:
            acc[m] = c
        else:
            acc.pop(m, None)
    return Polynomial(acc, field)


def poly_var(v, field=QQ):
    return Polynomial({((v, 1),): 1}, field)


def poly_add(f, g):
    p = _char(f, g)
    acc = dict(f.terms)
    for m, c in g.terms.items():
        if m in acc:
            s = acc[m] + c
            if p:
                s %= p
            if s:
                acc[m] = s
            else:
                del acc[m]
        else:
            acc[m] = c
    return Polynomial(acc, p)


def poly_neg(f):
    p = f.char
    return Polynomial({m: p - c if p else -c for m, c in f.terms.items()}, p)


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_scale(f, term):
    """Multiply by a single term (coeff, monomial)."""
    c, m = term
    p = f.char
    if p:
        c %= p
    if not c:
        return Polynomial(char=p)
    if p:
        return Polynomial({mono_mul(m, fm): c * fc % p for fm, fc in f.terms.items()}, p)
    return Polynomial({mono_mul(m, fm): c * fc for fm, fc in f.terms.items()})


def poly_mul(f, g):
    p = _char(f, g)
    if len(f.terms) > len(g.terms):
        f, g = g, f
    acc = {}
    for fm, fc in f.terms.items():
        for gm, gc in g.terms.items():
            m = mono_mul(fm, gm)
            c = fc * gc
            if m in acc:
                c = acc[m] + c
            if p:
                c %= p
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
    return Polynomial(acc, p)


def leading_term(f, ord):
    """(coeff, monomial) of the maximal term; DomainError on 0."""
    if not f.terms:
        raise DomainError("leading term of the zero polynomial")
    m = max(f.terms, key=ord.key)
    return f.terms[m], m


def sorted_terms(f, ord):
    """Terms as (coeff, monomial), strictly decreasing monomials.

    Each monomial is keyed sparsely, by its (-rank, exponent) pairs in rank
    order: two keys first differ where one monomial has the larger exponent
    or the other has none, so they compare as the dense OrderSpec.key does."""
    rank = ord.rank

    def key(m):
        try:
            return sorted([(-rank[v], e) for v, e in m], reverse=True)
        except KeyError as missing:
            ord.rank_of(missing.args[0])  # raises InputError naming the variable
            raise

    return [(f.terms[m], m) for m in sorted(f.terms, key=key, reverse=True)]


def s_polynomial(f, g, ord):
    """S(f, g) = (L/LT(f)) f - (L/LT(g)) g, with L the lcm of the leading monomials."""
    cf, mf = leading_term(f, ord)
    cg, mg = leading_term(g, ord)
    big = mono_lcm(mf, mg)
    left = poly_scale(f, (inverse(cf, f.char), mono_div(big, mf)))
    right = poly_scale(g, (inverse(cg, g.char), mono_div(big, mg)))
    return poly_sub(left, right)


class Overflow(Exception):
    """An exponent outgrew its packed field: the codec widens and the work restarts."""


class MonomialCodec:
    """Monomials and polynomials of one order packed into ints, and the one
    owner of the rule for when what was packed goes stale.

    A packed monomial (Monagan and Pearce, "Sparse polynomial division
    using a heap", J. Symb. Comput. 46, 2011) is an int with one
    ``width``-bit field per variable, rank 0 in the most significant field.
    No exponent sets the top bit of its field, so with ``guard`` the mask of
    those bits: packed ints compare in the order's lex order, multiplying
    monomials is ``+``, dividing is ``-``, and ``a | b`` exactly when
    ``(b - a) & guard == 0``.  Neither term of a sum of two packed
    monomials sets a guard bit, so the sum never carries out of a field: it
    sets a guard bit exactly when an exponent outgrew its field.
    ``below[f]`` masks the fields under field f.  A polynomial has one
    packed form, the tuple packed() returns.

    The width starts at 8.  Whoever finds an exponent that does not fit,
    whether packing it or making it by a product, raises Overflow inside
    run(), which doubles the width and starts the work again from scratch.
    Everything packed at the old width is stale then, so the codec empties
    every dict it handed out by cache().  Users keep what they pack in
    those dicts and pack it again when it is missing.
    """

    __slots__ = ("ord", "width", "guard", "below", "_vars", "_shift", "_caches")

    def __init__(self, ord):
        self.ord = ord
        n = ord.nvars
        self._vars = [None] * n  # the variable of each field, lowest field first
        for v, r in ord.rank.items():
            self._vars[n - 1 - r] = v
        self._caches = []
        self._set_width(8)

    def _set_width(self, width):
        top = self.ord.nvars - 1
        self.width = width
        self.guard = sum(1 << (width * f + width - 1) for f in range(top + 1))
        self.below = [(1 << (width * f)) - 1 for f in range(top + 1)]
        self._shift = {v: width * (top - r) for v, r in self.ord.rank.items()}  # low bit of v's field
        for cache in self._caches:
            cache.clear()

    def cache(self):
        """A new dict for what is packed by this codec; every widening empties it."""
        cache = {}
        self._caches.append(cache)
        return cache

    def run(self, step, *args):
        """step(*args), doubling the width and running it again from scratch
        while it raises Overflow.  Work is deterministic, so the result is
        what wider fields would have given at once."""
        while True:
            try:
                return step(*args)
            except Overflow:
                self._set_width(2 * self.width)

    def pack(self, mono):
        """The packed int of a monomial at the current width; Overflow when
        an exponent does not fit."""
        width, shift = self.width, self._shift
        packed = 0
        for v, e in mono:
            if e >> (width - 1):
                raise Overflow
            if v not in shift:
                self.ord.rank_of(v)  # raises InputError naming v
            packed += e << shift[v]
        return packed

    def unpack(self, packed):
        """The monomial of a packed int."""
        width, mask = self.width, (1 << self.width) - 1
        out = []
        for v in self._vars:
            if not packed:
                break
            if packed & mask:
                out.append((v, packed & mask))
            packed >>= width
        return tuple(sorted(out))

    def lcm(self, a, b):
        """Fieldwise max of two packed monomials."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # the guard bit of each field where a >= b
        take_a = ge - (ge >> (self.width - 1))  # those fields below their guard bit
        return b ^ ((a ^ b) & take_a)

    def packed(self, f):
        """The packed form of a nonzero polynomial f, (terms, lm, inv, span):
        its (packed monomial, coeff) terms, the largest of those monomials,
        the inverse of that one's coeff, and the fieldwise max of all of
        them.  Overflow when an exponent does not fit."""
        pack, lcm = self.pack, self.lcm
        terms = [(pack(m), c) for m, c in f.terms.items()]
        lm, lc = max(terms)
        span = 0
        for m, _ in terms:
            span = lcm(span, m)
        return terms, lm, inverse(lc, f.char), span


def packed_s_polynomial(f, g, big, p):
    """S(f, g) as {packed monomial: coeff}, with s_polynomial's arithmetic.

    f and g are packed forms (MonomialCodec.packed), big is the lcm of
    their leading monomials and p the characteristic.  Overflow is the
    caller's to rule out."""
    f_terms, f_lm, f_inv, _ = f
    g_terms, g_lm, g_inv, _ = g
    cof = big - f_lm
    if p:
        work = {cof + m: f_inv * c % p for m, c in f_terms}
    else:
        work = {cof + m: f_inv * c for m, c in f_terms}
    cof, inv = big - g_lm, -g_inv
    for m, c in g_terms:
        m += cof
        d = inv * c
        if m in work:
            s = work[m] + d
            if p:
                s %= p
            if s:
                work[m] = s
            else:
                del work[m]
        else:
            work[m] = d % p if p else d
    return work


class PreparedBasis:
    """The generators of a division, with what every division by them needs
    worked out once, and the division engine that uses it.

    Kept per generator: the polynomial, its leading monomial, and its packed
    form by the basis's MonomialCodec, whose ``lm`` is the packed leading
    monomial.  Every generator has the basis's characteristic ``char``, which
    its first generator sets.

    An anchor index files each generator under the top field of its leading
    monomial, ``bit_length() // width``, or under None when that is 1.
    Natural generators have squarefree diagonal leading monomials, so a term
    has few candidate divisors: those filed under one of its fields.  The
    packed forms and the anchor index live in codec caches, so a widening
    empties both and the next division packs every generator again.
    """

    __slots__ = ("polys", "ord", "char", "lms", "codec", "_packed", "_anchored")

    def __init__(self, G, ord):
        self.polys = []
        self.ord = ord
        self.char = 0
        self.lms = []  # the leading monomial of each generator
        self.codec = MonomialCodec(ord)
        self._packed = self.codec.cache()  # index -> packed form of the generator
        self._anchored = self.codec.cache()  # top field of lm, or None -> [(index, lm)], ascending
        for g in G:
            self.append(g)

    def append(self, g):
        """Add g at the next index.  No earlier index changes, so divisor()
        still returns the lowest eligible index."""
        if g.is_zero():
            raise DomainError("zero generator in division")
        if self.polys and g.char != self.char:
            raise DomainError("mixed prime fields")
        self.char = g.char
        self.polys.append(g)
        self.codec.run(self._pack)
        self.lms.append(self.codec.unpack(self._packed[len(self.polys) - 1][1]))

    def _pack(self):
        """Pack and file every generator not packed yet: all of them after a
        widening, else only new ones."""
        packed, anchored, width = self._packed, self._anchored, self.codec.width
        if not anchored:  # new, or emptied by a widening: one list per anchor
            anchored.update((f, []) for f in (None, *range(self.ord.nvars)))
        for idx in range(len(packed), len(self.polys)):
            form = self.codec.packed(self.polys[idx])
            lm = form[1]
            anchored[lm.bit_length() // width if lm else None].append((idx, lm))
            packed[idx] = form

    def divisor(self, m):
        """Lowest index whose leading monomial divides the packed monomial m, or None."""
        codec, anchored = self.codec, self._anchored
        guard, width, below = codec.guard, codec.width, codec.below
        const = anchored[None]  # a constant divides every monomial
        best = const[0][0] if const else None
        rest = m
        while rest:  # m's fields, from the top
            f = rest.bit_length() // width
            for idx, lm in anchored[f]:
                if best is not None and idx >= best:
                    break
                if not (m - lm) & guard:
                    best = idx
                    break
            rest &= below[f]
        return best

    def _s_polynomial(self, i, j):
        """S(G[i], G[j]) as {packed monomial: coeff}."""
        f, g = self._packed[i], self._packed[j]
        return packed_s_polynomial(f, g, self.codec.lcm(f[1], g[1]), self.char)

    def _divide(self, work):
        """Divide {packed monomial: coeff} by the basis, in place.

        Returns (work, used): work is now the remainder, and used lists the
        cofactors as (coeff, packed monomial, index).  The largest reducible
        term is cancelled first, by the lowest-index eligible generator."""
        guard, p = self.codec.guard, self.char
        if any(m & guard for m in work):
            raise Overflow
        packed, divisor = self._packed, self.divisor
        # Max-heap of monomials as negated packed ints.  A step cancels its
        # target and adds only smaller monomials, so each monomial is pushed
        # once and popped after every larger one is settled.
        heap = [-m for m in work]
        heapify(heap)
        queued = set(work)
        used = []
        while heap:
            m = -heappop(heap)
            c = work.get(m)
            if c is None:  # cancelled since it was queued
                continue
            idx = divisor(m)
            if idx is None:  # irreducible: it stays in the remainder
                continue
            g_terms, g_lm, g_inv, _ = packed[idx]
            cof_c = c * g_inv
            if p:
                cof_c %= p
            cof_m = m - g_lm
            used.append((cof_c, cof_m, idx))
            neg_c = -cof_c
            for gm, gc in g_terms:
                mm = cof_m + gm
                delta = neg_c * gc
                if mm in work:
                    s = work[mm] + delta
                    if p:
                        s %= p
                    if s:
                        work[mm] = s
                    else:
                        del work[mm]
                elif delta:
                    if mm & guard:  # an exponent outgrew its field
                        raise Overflow
                    work[mm] = delta % p if p else delta
                    if mm not in queued:
                        queued.add(mm)
                        heappush(heap, -mm)
        return work, used

    def _divide_poly(self, f):
        """_divide of the polynomial f at the codec's current width, for
        codec.run: the generators are packed again first if a widening
        emptied their packed forms."""
        self._pack()
        return self._divide(dict(self.codec.packed(f)[0]) if f.terms else {})

    def divide(self, f):
        """(remainder, used) of the polynomial f divided by the basis; see reduce()."""
        char = self.char if self.polys else f.char
        if f.terms and f.char != char:
            raise DomainError("mixed prime fields")
        work, used = self.codec.run(self._divide_poly, f)
        unpack = self.codec.unpack
        return (Polynomial({unpack(m): c for m, c in work.items()}, char),
                [((c, unpack(m)), idx) for c, m, idx in used])

    def s_pair_remainders(self, pairs, first=False):
        """The nonzero remainders of S(G[i], G[j]) divided by the basis, for
        (i, j) in the sequence pairs, as (position in pairs, remainder) in
        order; with first, only the first of them.

        Every S-polynomial is formed and divided packed, all under one
        codec.run, and only a nonzero remainder is unpacked."""
        found = self.codec.run(self._remainders, pairs, first)
        unpack = self.codec.unpack
        return [(k, Polynomial({unpack(m): c for m, c in work.items()}, self.char))
                for k, work in found]

    def _remainders(self, pairs, first):
        """s_pair_remainders at the codec's current width, the remainders packed."""
        self._pack()
        divide, s_polynomial = self._divide, self._s_polynomial
        found = []
        for k, (i, j) in enumerate(pairs):
            work, _ = divide(s_polynomial(i, j))
            if work:
                found.append((k, work))
                if first:
                    break
        return found


def prepared(G, ord):
    """G itself when it is a PreparedBasis for ord (the same ranking, by
    value), else G prepared for ord."""
    if isinstance(G, PreparedBasis):
        require(G.ord.rank == ord.rank, "basis was prepared under another order")
        return G
    return PreparedBasis(G, ord)


def reduce(f, G, ord):
    """Multivariate division of f by G, a list of polynomials or a PreparedBasis.

    Returns (remainder, used) with used a list of ((coeff, monomial), index)
    such that f == sum(cofactor * G[index]) + remainder and no remainder term
    is divisible by any LM(g).  Deterministic: the largest reducible term is
    cancelled first, by the lowest-index eligible generator.
    """
    return prepared(G, ord).divide(f)


def render_monomial(m, ord, namer):
    """Factors in rank order, a variable repeated by its exponent; "" for 1."""
    rank_of = ord.rank_of
    names = []
    for v, e in sorted(m, key=lambda p: rank_of(p[0])):
        names += [namer(v)] * e
    return "*".join(names)


def render(f, ord, namer):
    """Canonical text form: terms strictly decreasing, ``{+|-}{c*}x[i,j,k]*…``."""
    if f.is_zero():
        return "0"
    out = []
    for c, m in sorted_terms(f, ord):
        neg = c < 0  # a GF(p) residue never is
        mag = -c if neg else c
        out.append("-" if neg else "+")
        mono = render_monomial(m, ord, namer)
        if not mono:
            out.append(f"{mag}")
        elif mag == 1:
            out.append(mono)
        else:
            out.append(f"{mag}*{mono}")
    return "".join(out)
