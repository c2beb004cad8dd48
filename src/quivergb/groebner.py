"""Direct Groebner verification: S-pair checks, initial ideals, membership,
and a textbook completion oracle for cross-validation."""

from __future__ import annotations

from collections import namedtuple

from .poly import (
    DomainError, Polynomial, PreparedBasis, inverse, leading_term, poly_scale,
    prepared, reduce, render,
)


class CheckReport(namedtuple("CheckReport", "total_pairs skipped_coprime reduced_to_zero "
                                            "failures complete")):
    """failures holds (i, j, remainder) triples; complete is False when
    fail-fast stopped early."""
    __slots__ = ()

    @property
    def is_groebner(self):
        return not self.failures

    def render(self, ord=None, namer=None):
        """The summary and verdict lines, then one line per failure when
        given the order and variable namer that failure lines need."""
        lines = [
            f"pairs: {self.total_pairs}  coprime-skipped: {self.skipped_coprime}  "
            f"reduced-to-zero: {self.reduced_to_zero}  failures: {len(self.failures)}",
            "verdict: " + ("GROEBNER" if self.is_groebner else "NOT A GROEBNER BASIS"),
        ]
        if ord is not None and namer is not None:
            for i, j, rem in self.failures:
                lines.append(f"pair {i} {j} FAIL {render(rem, ord, namer)}")
        return "\n".join(lines)


def buchberger_check(G, ord, *, coprime_skip=True, fail_fast=False):
    """Decide whether G (a list or a PreparedBasis) is a Groebner basis by
    Buchberger's criterion.

    The report is always that of reducing every S-pair by G in pair-index
    order, skipping coprime pairs under coprime_skip and stopping at the
    first failure under fail_fast.  When coprime_skip is on and every
    leading monomial is squarefree, the pairs of _spanning_pairs are reduced
    first.  If each of them reduces to zero, G is a Groebner basis, so every
    S-pair would reduce to zero as well, and the report needs no more.
    Otherwise the other S-pairs are reduced one after another, and with the
    remainders the proof found they give the failures; under fail_fast none
    after the proof's failing pair is reduced, as none of them can be first."""
    basis = prepared(G, ord)
    masks = [_mask(lm) for lm in basis.lms]
    n = len(masks)
    total = n * (n - 1) // 2
    pairs = [(i, j) for i, a in enumerate(masks) for j in range(i + 1, n)
             if not coprime_skip or a & masks[j]]
    rems = {}  # pair -> its nonzero remainder, or None, once reduced
    if coprime_skip and is_squarefree(basis.lms):
        proof = _spanning_pairs(masks, pairs)
        found = basis.s_pair_remainders(proof, first=True)
        if not found:
            return CheckReport(total, total - len(pairs), len(pairs), [], True)
        k, rem = found[0]
        rems = dict.fromkeys(proof[:k])
        rems[proof[k]] = rem
        if fail_fast:  # no pair after the proof's failure can be the first
            pairs = pairs[:pairs.index(proof[k]) + 1]
    todo = [pair for pair in pairs if pair not in rems]
    for k, rem in basis.s_pair_remainders(todo, first=fail_fast):
        rems[todo[k]] = rem
    failures = [(*pair, rems[pair]) for pair in pairs if rems.get(pair) is not None]
    if fail_fast and failures:
        i, j, _ = failures[0]
        failures = failures[:1]
        k = pairs.index((i, j))  # the overlapping pairs before (i, j), all reduced to zero
        before = i * n - i * (i + 1) // 2 + j - i - 1  # pairs before (i, j)
        return CheckReport(total, before - k, k, failures, False)
    return CheckReport(total, total - len(pairs), len(pairs) - len(failures), failures, True)


def _mask(lm):
    """The variables of the monomial lm as a bit mask: two monomials are
    coprime when their masks share no bit."""
    return sum(1 << v for v, _ in lm)


def _spanning_pairs(masks, pairs):
    """The pairs to reduce among pairs, the overlapping pairs of generators
    whose leading monomials are squarefree and have the bit masks masks.

    This is Buchberger's chain criterion (Gebauer and Moeller, J. Symb.
    Comput. 6, 1988): G is a Groebner basis when the S-polynomials reduce to
    zero for a set of pairs whose S-syzygies span all of them.  Coprime
    pairs need no reducing (Buchberger's first criterion).  For an lcm L,
    join two generators whose leading monomials divide L when they are
    coprime or their lcm strictly divides L: by induction on L, the syzygy
    of such a pair, lifted to L, is spanned already.  The syzygy of an L-pair
    whose ends a path joins is the sum of those along the path, so only the
    L-pairs that join two components are kept, in pair-index order.  A
    monomial is a bit mask of its variables here."""
    by_lcm = {}  # L -> its overlapping pairs, in pair-index order
    for pair in pairs:
        i, j = pair
        L = masks[i] | masks[j]
        if L in by_lcm:
            by_lcm[L].append(pair)
        else:
            by_lcm[L] = [pair]
    with_lm = {}  # leading monomial -> the generators that have it
    for k, a in enumerate(masks):
        with_lm.setdefault(a, []).append(k)
    kept = []
    for L, lcm_pairs in by_lcm.items():
        ends = {k for pair in lcm_pairs for k in pair}
        if any(k not in ends for d in _divisors(L, with_lm) for k in with_lm[d]):
            continue  # a divisor in no L-pair joins every other: one component
        # The divisors of L are the ends; each two that are not an L-pair are joined.
        root = {k: k for k in ends}
        ends, joined = sorted(ends), set(lcm_pairs)
        for x, a in enumerate(ends):
            for b in ends[x + 1:]:
                if (a, b) not in joined:
                    _join(root, a, b)
        for pair in lcm_pairs:
            if _join(root, *pair):
                kept.append(pair)
    kept.sort()
    return kept


def _divisors(L, monos):
    """The monomials among monos (masks) that divide the mask L."""
    if 1 << L.bit_count() > len(monos):
        return [m for m in monos if m & L == m]
    out = []
    sub = L
    while True:  # every sub-mask of L, L itself first and 0 last
        if sub in monos:
            out.append(sub)
        if not sub:
            return out
        sub = (sub - 1) & L


def _join(root, a, b):
    """Join the components of a and b in the union-find forest root; False
    if they were one already."""
    while root[a] != a:
        a = root[a]
    while root[b] != b:
        b = root[b]
    root[a] = b
    return a != b


def initial_ideal_gens(G, ord):
    """The minimal generators of the ideal of the leading monomials of G (a
    list or a PreparedBasis), in the order they are first seen.

    The distinct leading monomials go into a basis of their own, lowest
    degree first, so every proper divisor of one sits at a lower index: a
    monomial is minimal when its lowest-index divisor there is itself."""
    lms = list(dict.fromkeys(prepared(G, ord).lms))
    by_degree = sorted(lms, key=lambda m: sum(e for _, e in m))
    index = PreparedBasis([Polynomial({m: 1}) for m in by_degree], ord)
    # the first cofactor in dividing m is by m's lowest-index divisor
    minimal = {m for k, m in enumerate(by_degree)
               if index.divide(Polynomial({m: 1}))[1][0][1] == k}
    return [m for m in lms if m in minimal]


def is_squarefree(monos):
    return all(e == 1 for m in monos for _, e in m)


def ideal_membership(f, G, ord, report=None):
    """True iff f reduces to zero; requires a passing CheckReport for G.

    G may be a PreparedBasis, so that many calls share one preparation."""
    if report is None:
        report = buchberger_check(G, ord)
    if not report.is_groebner:
        raise DomainError("generator set is not a verified Groebner basis")
    rem, _ = reduce(f, G, ord)
    return rem.is_zero()


def buchberger_complete(F, ord):
    """Textbook Buchberger with coprime-skip; deterministic insertion-order queue."""
    basis = PreparedBasis([], ord)
    for f in F:
        if f.is_zero():
            raise DomainError("zero polynomial in input")
        basis.append(_monic(f, ord))
    G, masks = basis.polys, [_mask(lm) for lm in basis.lms]
    queue = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    head = 0
    while head < len(queue):
        i, j = queue[head]
        head += 1
        if not masks[i] & masks[j]:
            continue
        found = basis.s_pair_remainders([(i, j)])
        if not found:
            continue
        basis.append(_monic(found[0][1], ord))
        masks.append(_mask(basis.lms[-1]))
        new = len(G) - 1
        queue.extend((k, new) for k in range(new))
    return G


def _monic(f, ord):
    c, _ = leading_term(f, ord)
    return poly_scale(f, (inverse(c, f.char), ()))
