import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from quivergb.groebner import (
    CheckReport, buchberger_check, buchberger_complete, ideal_membership,
    initial_ideal_gens, is_squarefree,
)
from quivergb.layout import default_order
from quivergb.minors import natural_generators
from quivergb.poly import (
    DomainError, OrderSpec, Polynomial, PreparedBasis, leading_term, mono_divides,
    mono_from, mono_vars, poly_mul, poly_sub, poly_var, reduce, render, s_polynomial,
)
from quivergb.tensors import double_det_generators

from conftest import FOUR_VERTEX, MIXED_SIZES, make_instance


def polys_of(layout):
    return [p for _, p in natural_generators(layout)]


class TestCheck:
    def test_single_page_passes(self, single_3x3):
        layout, ord = single_3x3
        report = buchberger_check(polys_of(layout), ord)
        assert report.is_groebner and report.total_pairs == 36

    def test_double_arrow_passes(self, double_2x2):
        layout, ord = double_2x2
        report = buchberger_check(polys_of(layout), ord)
        assert report.is_groebner and report.total_pairs == 45

    def test_coprime_skip_toggle(self, double_2x2):
        layout, ord = double_2x2
        G = polys_of(layout)
        a = buchberger_check(G, ord)
        b = buchberger_check(G, ord, coprime_skip=False)
        assert a.is_groebner and b.is_groebner
        assert a.skipped_coprime > 0 and b.skipped_coprime == 0
        assert b.reduced_to_zero == b.total_pairs

    def test_non_basis_detected(self):
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        x, y, z, w = (poly_var(v) for v in range(4))
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
        report = buchberger_check(G, ord)
        assert not report.is_groebner
        assert "NOT A GROEBNER" in report.render()

    def test_failure_lines_golden(self):
        # recorded with the sort-and-scan division that the prepared basis replaced
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        x, y, z, w = (poly_var(v) for v in range(4))
        namer = "xyzw".__getitem__
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
        assert buchberger_check(G, ord).render(ord, namer) == (
            "pairs: 1  coprime-skipped: 0  reduced-to-zero: 0  failures: 1\n"
            "verdict: NOT A GROEBNER BASIS\n"
            "pair 0 1 FAIL +y*w-z*z")
        G.append(poly_sub(poly_mul(y, w), z))
        assert buchberger_check(G, ord).render(ord, namer) == (
            "pairs: 3  coprime-skipped: 1  reduced-to-zero: 0  failures: 2\n"
            "verdict: NOT A GROEBNER BASIS\n"
            "pair 0 1 FAIL -z*z+z\n"
            "pair 0 2 FAIL -z*w+w")

    def test_prepared_basis_gives_the_same_report(self, double_2x2):
        layout, ord = double_2x2
        G = polys_of(layout)
        basis = PreparedBasis(G, ord)
        assert buchberger_check(basis, ord) == buchberger_check(G, ord)
        assert ideal_membership(poly_mul(G[0], G[1]), basis, ord)

    def test_fail_fast_stops(self):
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        x, y, z, w = (poly_var(v) for v in range(4))
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w),
             poly_sub(poly_mul(y, w), z)]
        report = buchberger_check(G, ord, fail_fast=True)
        assert not report.complete and len(report.failures) == 1
        assert report.total_pairs == 3
        full = buchberger_check(G, ord)
        assert full.complete and len(full.failures) == 2
        with pytest.raises(AttributeError):
            report.complete = True


def reference_check(G, ord, *, coprime_skip=True, fail_fast=False):
    """buchberger_check as the exhaustive loop: every S-pair, formed and
    divided unpacked, reduced by G in pair-index order."""
    basis = PreparedBasis(G, ord)
    lvars = [mono_vars(leading_term(g, ord)[1]) for g in G]
    n = len(G)
    skipped = zero = 0
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            if coprime_skip and lvars[i].isdisjoint(lvars[j]):
                skipped += 1
                continue
            rem, _ = reduce(s_polynomial(G[i], G[j], ord), basis, ord)
            if rem.is_zero():
                zero += 1
            else:
                failures.append((i, j, rem))
                if fail_fast:
                    return CheckReport(n * (n - 1) // 2, skipped, zero, failures, False)
    return CheckReport(n * (n - 1) // 2, skipped, zero, failures, True)


def assert_agrees_with_reference(G, ord, skips=(True, False)):
    """The same report with and without fail_fast, under each coprime_skip
    of skips (False, which reduces every pair, costs most)."""
    for coprime_skip in skips:
        for fail_fast in (False, True):
            flags = {"coprime_skip": coprime_skip, "fail_fast": fail_fast}
            assert buchberger_check(G, ord, **flags) == reference_check(G, ord, **flags), flags


def consistent_order(layout, rng):
    """A random linear extension of the order that ranks every matrix entry
    above its right and lower neighbours."""
    below = {v: set() for v in range(layout.nvars)}
    for grid in layout.matrices.values():
        for p, row in enumerate(grid):
            for q, v in enumerate(row):
                below[v].update(row[q + 1:q + 2])
                if p + 1 < len(grid):
                    below[v].add(grid[p + 1][q])
    above = {v: 0 for v in below}
    for ws in below.values():
        for w in ws:
            above[w] += 1
    ready = [v for v in sorted(above) if not above[v]]
    rank = {}
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        rank[v] = len(rank)
        for w in sorted(below[v]):
            above[w] -= 1
            if not above[w]:
                ready.append(w)
    return OrderSpec(rank)


def x_y_z_w():
    return OrderSpec({0: 0, 1: 1, 2: 2, 3: 3}), [poly_var(v) for v in range(4)]


class TestProofBySpanningPairs:
    """buchberger_check proves a basis from a spanning set of its S-pairs;
    its report is always the exhaustive loop's."""

    @pytest.mark.parametrize("dims", [(3, 3, 2, 2, 2), (3, 3, 3, 2, 2)])
    def test_rungs(self, dims):
        layout, gens = double_det_generators(*dims)
        assert_agrees_with_reference([p for _, p in gens], default_order(layout), skips=(True,))

    def test_four_vertex_quiver_under_several_orders(self):
        layout, _ = make_instance(FOUR_VERTEX)
        G = polys_of(layout)
        rng = random.Random(23)
        for _ in range(3):
            ord = consistent_order(layout, rng)
            assert buchberger_check(G, ord).is_groebner
            assert_agrees_with_reference(G, ord, skips=(True,))
        ranks = list(range(layout.nvars))
        for _ in range(3):  # arbitrary orders, under which the minors are mostly no basis
            rng.shuffle(ranks)
            assert_agrees_with_reference(G, OrderSpec(dict(enumerate(ranks))), skips=(True,))

    def test_mixed_minor_sizes(self):
        # a 2-minor and a 3-minor can share an lcm group with no L-pair
        # through one of its divisors, which then joins every other
        layout, ord = make_instance(MIXED_SIZES)
        G = polys_of(layout)
        assert_agrees_with_reference(G, ord, skips=(True,))
        rng = random.Random(25)
        for _ in range(2):
            assert_agrees_with_reference(G, consistent_order(layout, rng), skips=(True,))

    def test_non_bases(self):
        ord, (x, y, z, w) = x_y_z_w()
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
        assert_agrees_with_reference(G, ord)
        assert_agrees_with_reference(G + [poly_sub(poly_mul(y, w), z)], ord)
        # a leading monomial that is not squarefree
        assert_agrees_with_reference([poly_sub(poly_mul(x, x), y), poly_sub(poly_mul(x, y), z)], ord)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2, 2, 2, 2), (2, 3, 2, 2, 2), (3, 3, 2, 2, 2)]), st.data())
    def test_subsets_of_natural_generators(self, dims, data):
        layout, gens = double_det_generators(*dims)
        G = [p for _, p in gens]
        keep = data.draw(st.lists(st.integers(0, len(G) - 1), min_size=2, max_size=12,
                                  unique=True))
        assert_agrees_with_reference([G[k] for k in keep], default_order(layout))

    def test_fewer_divisions_than_overlapping_pairs(self, monkeypatch):
        layout, gens = double_det_generators(3, 3, 3, 2, 2)
        divide, calls = PreparedBasis._divide, []

        def counted(self, work):
            calls.append(1)
            return divide(self, work)
        monkeypatch.setattr(PreparedBasis, "_divide", counted)
        report = buchberger_check([p for _, p in gens], default_order(layout))
        assert report.is_groebner and report.reduced_to_zero == 2886
        assert len(calls) < 2886

    def test_non_basis_divides_each_overlapping_pair_once(self, monkeypatch):
        # the proof fails on these, and the exhaustive loop then reduces
        # only the pairs the proof did not
        layout, _ = make_instance(FOUR_VERTEX)
        G = polys_of(layout)
        divide, calls = PreparedBasis._divide, []

        def counted(self, work):
            calls.append(1)
            return divide(self, work)
        monkeypatch.setattr(PreparedBasis, "_divide", counted)
        rng, ranks = random.Random(23), list(range(layout.nvars))
        for _ in range(3):
            rng.shuffle(ranks)
            calls.clear()
            report = buchberger_check(G, OrderSpec(dict(enumerate(ranks))))
            assert report.failures and len(calls) == report.reduced_to_zero + len(report.failures)


def reference_initial_ideal_gens(G, ord):
    """initial_ideal_gens as the pairwise loop: the distinct leading
    monomials, in first-seen order, that no other one of them divides."""
    lms = []
    for g in G:
        _, m = leading_term(g, ord)
        if m not in lms:
            lms.append(m)
    return [m for m in lms if not any(other != m and mono_divides(other, m) for other in lms)]


@st.composite
def leading_monomial_problems(draw):
    """(G, ord): nonzero polynomials over 4 variables with exponents up to
    3, so that leading monomials repeat, are not squarefree and have mixed
    degrees, under a random ranking."""
    ranks = draw(st.permutations(range(4)))
    monos = st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=4).map(
        lambda exps: mono_from(exps.items()))
    polys = st.dictionaries(monos, st.integers(1, 3), min_size=1, max_size=3).map(Polynomial)
    return draw(st.lists(polys, max_size=12)), OrderSpec(dict(enumerate(ranks)))


class TestInitialIdeal:
    @settings(max_examples=200, deadline=None)
    @given(leading_monomial_problems(), st.booleans())
    def test_matches_the_pairwise_loop(self, problem, prepare):
        G, ord = problem
        assert (initial_ideal_gens(PreparedBasis(G, ord) if prepare else G, ord)
                == reference_initial_ideal_gens(G, ord))

    def test_squarefree_diagonals(self, double_2x2):
        layout, ord = double_2x2
        monos = initial_ideal_gens(polys_of(layout), ord)
        assert is_squarefree(monos)
        # two of the ten generators share the leading term x[1,1,1]x[2,2,2]
        assert len(monos) == 9

    def test_divisibility_minimal(self):
        ord = OrderSpec({0: 0, 1: 1})
        x, y = poly_var(0), poly_var(1)
        G = [poly_mul(x, y), poly_mul(poly_mul(x, y), y)]
        assert initial_ideal_gens(G, ord) == [mono_from([(0, 1), (1, 1)])]


class TestMembership:
    def test_product_of_generators(self, single_3x3):
        layout, ord = single_3x3
        G = polys_of(layout)
        assert ideal_membership(poly_mul(G[0], G[3]), G, ord)
        assert not ideal_membership(poly_var(0), G, ord)

    def test_requires_verified_basis(self):
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        x, y, z, w = (poly_var(v) for v in range(4))
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
        with pytest.raises(DomainError):
            ideal_membership(x, G, ord)


class TestCompletion:
    def test_completion_adds_nothing(self, double_2x2):
        layout, ord = double_2x2
        G = polys_of(layout)
        basis = buchberger_complete(G, ord)
        before = {leading_term(g, ord)[1] for g in G}
        after = {leading_term(g, ord)[1] for g in basis}
        assert before == after

    def test_completion_closes_a_gap(self):
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        x, y, z, w = (poly_var(v) for v in range(4))
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
        basis = buchberger_complete(G, ord)
        assert len(basis) > 2
        assert buchberger_check(basis, ord).is_groebner

    def test_completed_bases_match_recorded(self):
        # recorded while the completion still prepared a fresh basis per division
        layout, gens = double_det_generators(3, 3, 2, 2, 2)
        ord = default_order(layout)
        basis = buchberger_complete([p for _, p in gens], ord)
        text = "".join(render(g, ord, layout.var_name) + "\n" for g in basis)
        assert len(basis) == 72
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "8298ae4e3b735a0247d74823d498f951ff63a6aa622c0e337ba78d6f1e7fb1b0"
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        x, y, z, w = (poly_var(v) for v in range(4))
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
        assert [render(g, ord, "xyzw".__getitem__) for g in buchberger_complete(G, ord)] \
            == ["+x*y-z", "+x*z-w", "+y*w-z*z"]
        G.append(poly_sub(poly_mul(y, w), z))
        assert [render(g, ord, "xyzw".__getitem__) for g in buchberger_complete(G, ord)] \
            == ["+x*y-z", "+x*z-w", "+y*w-z", "+z*z-z", "+z*w-w", "+x*w-w*w"]
