"""Direct Groebner verification: S-pair checks, initial ideals, membership,
and a textbook completion oracle for cross-validation."""

from __future__ import annotations

from collections import namedtuple

from .poly import (
    DomainError, PreparedBasis, inverse, leading_term, mono_divides,
    mono_is_squarefree, poly_scale, prepared, reduce, render,
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
    """Reduce every S-pair of G (a list or a PreparedBasis) by G, in pair-index order."""
    basis = prepared(G, ord)
    lvars = basis.lvars
    n = len(lvars)
    total = n * (n - 1) // 2
    skipped = zero = 0
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            if coprime_skip and lvars[i].isdisjoint(lvars[j]):
                skipped += 1
                continue
            rem = basis.s_pair_remainder(i, j)
            if rem.is_zero():
                zero += 1
            else:
                failures.append((i, j, rem))
                if fail_fast:
                    return CheckReport(total, skipped, zero, failures, False)
    return CheckReport(total, skipped, zero, failures, True)


def initial_ideal_gens(G, ord):
    """Minimal (divisibility-reduced, deduplicated) set of leading monomials."""
    lms = []
    for g in G:
        _, m = leading_term(g, ord)
        if m not in lms:
            lms.append(m)
    out = []
    for m in lms:
        if any(other != m and mono_divides(other, m) for other in lms):
            continue
        out.append(m)
    return out


def is_squarefree(monos):
    return all(mono_is_squarefree(m) for m in monos)


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
    G, lvars = basis.polys, basis.lvars
    queue = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    head = 0
    while head < len(queue):
        i, j = queue[head]
        head += 1
        if lvars[i].isdisjoint(lvars[j]):
            continue
        rem = basis.s_pair_remainder(i, j)
        if rem.is_zero():
            continue
        basis.append(_monic(rem, ord))
        new = len(G) - 1
        queue.extend((k, new) for k in range(new))
    return G


def _monic(f, ord):
    c, _ = leading_term(f, ord)
    return poly_scale(f, (inverse(c, f.char), ()))
