import hashlib
from collections import Counter
from itertools import combinations

import pytest

from quivergb.minors import (
    MinorRef, PseudoMinorRef, enumerate_minors, expand_minor,
    minor_leading_term, natural_generators, natural_refs,
)
from quivergb.poly import (
    QQ, DomainError, InputError, OrderSpec, PrimeField, leading_term, mono_div,
    mono_from, mono_lcm, s_polynomial,
)
from quivergb import spair
from quivergb.layout import default_order
from quivergb.tensors import double_det_generators

from conftest import (
    FOUR_VERTEX, MIXED_RANKS, MIXED_SIZES, make_instance, reference_step_verdict, seeded_rank,
)


# the worked 3x3 example: M = rows(2,3) cols(1,3), N = rows(1,3) cols(2,3)
M3 = MinorRef(2, (2, 3), (1, 3))
N3 = MinorRef(2, (1, 3), (2, 3))


class TestAnalysis:
    def test_worked_example(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        assert an.points == ((1, 2, 1), (2, 1, 1), (3, 3, 1))
        assert (sorted(an.S_M), sorted(an.S_N)) == ([2, 3], [1, 3])
        assert an.incidence_classes == ((3,),)

    def test_equal_minors_all_incidences(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, M3, ord)
        assert an.S_M == an.S_N == an.incidences

    def test_disjoint_supports(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, MinorRef(2, (1, 2), (1, 2)),
                           MinorRef(2, (1, 2), (2, 3)), ord)
        assert not an.incidences and an.l == 4

    def test_cross_pair_normalized_sink_first(self, double_2x2):
        layout, ord = double_2x2
        sink = MinorRef(2, (1, 2), (1, 2))
        source = MinorRef(1, (1, 3), (1, 2))
        an = spair.analyze(layout, source, sink, ord)
        assert an.M == sink and an.N == source and an.mode == "pages"


class TestPermutationSums:
    def test_L_of_identity(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        ident = {i: i for i in an.S_M}
        assert spair.L_of(an, ident, {i: i for i in an.S_N}) == an.L

    def test_L_of_worked_values(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        swap_m = {2: 3, 3: 2}
        swap_n = {1: 3, 3: 1}
        got = spair.L_of(an, swap_m, swap_n)
        want = mono_from((layout.var_of[p], 1)
                         for p in [(1, 3, 1), (3, 1, 1), (2, 2, 1)])
        assert got == want

    def test_L_of_rejects_foreign_indices(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        with pytest.raises(InputError):
            spair.L_of(an, {1: 2, 2: 1}, {i: i for i in an.S_N})

    def test_coset_reps_identity_first(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        rows = spair.coset_reps(an, "row")
        assert rows[0] == {2: 2, 3: 3}
        assert len(rows) == 2
        # shared by every pair with this pattern, so read-only
        with pytest.raises(TypeError):
            rows[0][2] = 3

    def test_coset_count(self, double_3x3):
        from math import factorial
        layout, ord = double_3x3
        gens = [r for r, _ in natural_generators(layout)]
        for A, B in list(combinations(gens, 2))[:40]:
            an = spair.analyze(layout, A, B, ord)
            reps = spair.coset_reps(an, "row")
            h = 1
            for cls in an.incidence_classes:
                h *= factorial(len(cls))
            assert len(reps) == factorial(len(an.S_M)) // h


class TestDecomposition:
    def test_worked_example_terms(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        sign, cof, pm = spair.p_row(an, {2: 3, 3: 2})
        assert sign == -1
        assert cof == mono_from([(layout.var_of[(3, 1, 1)], 1)])
        assert pm == PseudoMinorRef(2, (1, 2), (2, 3))
        sign, cof, pm = spair.p_col(an, {1: 3, 3: 1})
        assert sign == -1
        assert cof == mono_from([(layout.var_of[(1, 3, 1)], 1)])
        assert pm == PseudoMinorRef(2, (2, 3), (1, 2))

    def test_pair_of_two_sinks_refused(self):
        # cosets are defined for a sink-side minor paired with a source-side
        # one; vertices 3 and 4 of the four-vertex quiver are both sinks, 1
        # and 2 both sources, and in neither order do two minors there share
        # a page, so the refusal names the coprime syzygy
        layout, ord = make_instance(FOUR_VERTEX)
        for u, w in ((3, 4), (4, 3), (1, 2), (2, 1)):
            M, N = MinorRef(u, (1, 2), (1, 2)), MinorRef(w, (1, 2), (1, 2))
            an = spair.analyze(layout, M, N, ord)
            for build in (lambda: spair.p_row(an, {}), lambda: spair.p_col(an, {}),
                          lambda: spair._coset_decomposition(an)):
                with pytest.raises(DomainError, match="share no page: their leading "
                                                      "monomials are coprime"):
                    build()
            d = spair.Certifier(layout, ord).decomposition(M, N)
            assert spair.expand_decomposition(layout, d) == s_polynomial(
                expand_minor(layout, M), expand_minor(layout, N), ord)

    def test_source_first_pair_asked_to_swap(self):
        # analyze puts a source/sink pair sink-first; an analysis left
        # source-first is refused with the way out
        layout, ord = make_instance(FOUR_VERTEX)
        an = spair.analyze(layout, MinorRef(3, (1, 2), (1, 2)), MinorRef(1, (1, 2), (1, 2)), ord)
        an = an._replace(M=an.N, N=an.M)
        with pytest.raises(DomainError, match="sink-side minor first; swap the pair"):
            spair.p_row(an, {})

    def test_identity_gives_cofactor_times_minor(self, single_3x3):
        layout, ord = single_3x3
        an = spair.analyze(layout, M3, N3, ord)
        sign, cof, pm = spair.p_col(an, {i: i for i in an.S_N})
        assert sign == 1
        got = spair.expand_term(layout, spair.DecompTerm(sign, cof, pm))
        lt_m = minor_leading_term(layout, M3, ord)
        from quivergb.poly import mono_div, poly_scale
        from fractions import Fraction
        want = poly_scale(expand_minor(layout, M3), (Fraction(1), mono_div(an.L, lt_m)))
        assert got == want

    def test_equals_s_polynomial_everywhere(self, double_3x3):
        layout, ord = double_3x3
        gens = natural_generators(layout)
        for (A, pa), (B, pb) in list(combinations(gens, 2))[:300]:
            d = spair.p_decomposition(layout, A, B, ord)
            assert spair.expand_decomposition(layout, d) == s_polynomial(pa, pb, ord)

    def test_records_are_immutable_values(self, single_3x3):
        layout, ord = single_3x3
        d = spair.p_decomposition(layout, M3, N3, ord)
        assert d == spair.p_decomposition(layout, M3, N3, ord)
        assert hash(d) == hash((M3, N3, d.row_terms, d.col_terms))
        t = d.row_terms[0]
        assert hash(t) == hash((t.sign, t.cofactor, t.pm))
        for record, field in ((d, "row_terms"), (t, "sign"), (t.pm, "rows")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_pseudominor_shares_the_packed_determinant(self, single_3x3):
        layout, ord = single_3x3
        run = spair.Certifier(layout, ord)
        det = run._det(M3, expand_minor)
        assert run._det(PseudoMinorRef(M3.vertex, M3.rows, M3.cols),
                        spair.expand_pseudominor) is det
        assert len(run._dets) == 1

    def test_small_lts_orientation(self, single_3x3):
        layout, ord = single_3x3
        run = spair.Certifier(layout, ord)
        d = spair.p_decomposition(layout, M3, N3, ord)
        assert run.has_small_lts(d)
        d_rev = spair.p_decomposition(layout, N3, M3, ord)
        assert not run.has_small_lts(d_rev)

    def test_empty_for_equal_minors(self, single_3x3):
        layout, ord = single_3x3
        d = spair.p_decomposition(layout, M3, M3, ord)
        assert d.row_terms == () == d.col_terms

    def test_no_term_carries_L(self, double_2x2):
        layout, ord = double_2x2
        gens = [r for r, _ in natural_generators(layout)]
        for A, B in combinations(gens, 2):
            an = spair.analyze(layout, A, B, ord)
            d = spair.p_decomposition(layout, A, B, ord)
            for t in d.row_terms + d.col_terms:
                p = spair.expand_term(layout, t)
                assert an.L not in p.terms


class TestViolations:
    def test_worked_example_sides(self, single_3x3):
        layout, ord = single_3x3
        assert spair.find_violations(layout, M3, N3, ord) == []
        viols = spair.find_violations(layout, N3, M3, ord)
        assert len(viols) == 1
        v = viols[0]
        an = spair.analyze(layout, N3, M3, ord)
        pts = [an.points[i - 1] for i in (v.i, v.j, v.k)]
        assert pts == [(1, 2, 1), (2, 1, 1), (3, 3, 1)]
        assert v.strict

    def test_size_one_minors_have_none(self):
        layout, ord = make_instance("vertices 2\narrow 1 2\nm 3 3\nrank 0 0\n")
        a, b = MinorRef(2, (1,), (2,)), MinorRef(2, (2,), (1,))
        assert spair.find_violations(layout, a, b, ord) == []

    def test_equivalence_both_orders(self, single_3x3):
        layout, ord = single_3x3
        assert spair.check_noviolation_equivalence(layout, M3, N3, ord)
        assert spair.check_noviolation_equivalence(layout, N3, M3, ord)

    def test_budget_guard(self):
        layout, ord = make_instance("vertices 2\narrow 1 2\nm 9 9\nrank 8 8\n")
        rows = tuple(range(1, 10))
        a = MinorRef(2, rows, rows)
        with pytest.raises(InputError, match="budget"):
            spair.check_noviolation_equivalence(layout, a, a, ord)


DEF_M = MinorRef(2, (1, 4, 5), (2, 3, 5))
DEF_N = MinorRef(2, (2, 3, 5), (1, 4, 5))


@pytest.fixture(scope="module")
def single_5x5():
    return make_instance("vertices 2\narrow 1 2\nm 5 5\nrank 2 2\n")


@pytest.fixture(scope="module")
def single_6x6():
    """One 6x6 page of 4-minors."""
    return make_instance("vertices 2\narrow 1 2\nm 6 6\nrank 3 3\n")


class TestDefectsAndTransplant:
    def test_worked_defect(self, single_5x5):
        layout, ord = single_5x5
        defects = spair.find_defects(layout, DEF_M, DEF_N, ord)
        assert len(defects) == 1
        d = defects[0]
        assert (d.kind, d.maximal) == ("I", True)
        an = spair.analyze(layout, DEF_M, DEF_N, ord)
        coords = [(an.alpha[i], an.beta[i]) for i in (d.j, d.k, d.r, d.s, d.t)]
        assert coords == [(1, 2), (2, 1), (3, 4), (4, 3), (5, 5)]

    def test_cross_matrix_refused(self, double_2x2):
        layout, ord = double_2x2
        with pytest.raises(InputError):
            spair.find_defects(layout, MinorRef(2, (1, 2), (1, 2)),
                               MinorRef(1, (1, 3), (1, 2)), ord)

    def test_small_pairs_have_no_defects(self, single_3x3):
        layout, ord = single_3x3
        for A, B in combinations([r for r, _ in natural_generators(layout)], 2):
            assert spair.find_defects(layout, A, B, ord) == []

    def test_combination_lemma(self, single_5x5):
        layout, ord = single_5x5
        minors = enumerate_minors(layout, 2, 3)
        import random
        rng = random.Random(7)
        for _ in range(120):
            A, B = rng.sample(minors, 2)
            defective = any(spair.find_defects(layout, A, B, ord))
            both = (bool(spair.find_violations(layout, A, B, ord))
                    and bool(spair.find_violations(layout, B, A, ord)))
            assert defective == both

    def test_transplant_worked_example(self, single_5x5):
        layout, ord = single_5x5
        d = spair.find_defects(layout, DEF_M, DEF_N, ord)[0]
        P = spair.transplant(layout, DEF_M, DEF_N, d, ord)
        assert P == MinorRef(2, (2, 4, 5), (1, 3, 5))
        assert spair.distance(layout, DEF_M, P, ord) == 2
        assert spair.distance(layout, P, DEF_N, ord) == 2

    def test_transplant_type_two_by_symmetry(self, single_5x5):
        layout, ord = single_5x5
        d = spair.find_defects(layout, DEF_N, DEF_M, ord)[0]
        assert d.kind == "II"
        P = spair.transplant(layout, DEF_N, DEF_M, d, ord)
        assert P == MinorRef(2, (2, 4, 5), (1, 3, 5))

    def test_non_nw_se_points_refused(self, single_3x3):
        layout, _ = single_3x3
        with pytest.raises(DomainError, match="NW-SE"):
            spair._ref_from_points(layout, 2, [(1, 2, 1), (2, 1, 1)])

    def test_non_maximal_refused(self, single_5x5):
        layout, ord = single_5x5
        d = spair.find_defects(layout, DEF_M, DEF_N, ord)[0]
        fake = spair.Defect(d.kind, d.j, d.k, d.r, d.s, d.t, maximal=False)
        with pytest.raises(InputError, match="maximal"):
            spair.transplant(layout, DEF_M, DEF_N, fake, ord)


class TestDistance:
    def test_worked_example(self, single_3x3):
        layout, ord = single_3x3
        assert spair.distance(layout, M3, N3, ord) == 2

    def test_identity_and_disjoint(self, single_3x3):
        layout, ord = single_3x3
        assert spair.distance(layout, M3, M3, ord) == 0
        a = MinorRef(2, (1, 2), (1, 2))
        b = MinorRef(2, (1, 2), (2, 3))
        assert spair.distance(layout, a, b, ord) == 4


class TestChains:
    def test_trivial_chain(self, single_3x3):
        layout, ord = single_3x3
        cert = spair.build_chain(layout, M3, M3, ord)
        assert cert.refs == [M3] and cert.steps == []
        assert spair.verify_chain(layout, cert, ord)

    def test_worked_example_direct(self, single_3x3):
        layout, ord = single_3x3
        cert = spair.build_chain(layout, M3, N3, ord)
        assert cert.refs == [M3, N3]
        assert spair.verify_chain(layout, cert, ord)

    def test_transplant_inserted(self):
        layout, ord = make_instance("vertices 2\narrow 1 2\nm 5 5\nrank 2 2\n")
        cert = spair.build_chain(layout, DEF_M, DEF_N, ord)
        assert cert.refs == [DEF_M, MinorRef(2, (2, 4, 5), (1, 3, 5)), DEF_N]
        assert spair.verify_chain(layout, cert, ord)

    def test_zero_distance_cross_pair(self, double_2x2):
        layout, ord = double_2x2
        A = MinorRef(2, (1, 2), (1, 4))
        B = MinorRef(1, (1, 4), (1, 2))
        assert minor_leading_term(layout, A, ord) == minor_leading_term(layout, B, ord)
        cert = spair.build_chain(layout, A, B, ord)
        assert cert.refs == [A, B]
        assert spair.verify_chain(layout, cert, ord)

    def test_all_pairs_small_instances(self, double_2x2):
        layout, ord = double_2x2
        gens = [r for r, _ in natural_generators(layout)]
        for A, B in combinations(gens, 2):
            cert = spair.build_chain(layout, A, B, ord)
            assert spair.verify_chain(layout, cert, ord)

    def test_forged_certificate_rejected(self, single_3x3):
        layout, ord = single_3x3
        cert = spair.build_chain(layout, M3, N3, ord)
        bad = spair.ChainCertificate(cert.refs, [forge(layout, cert.steps[0])])
        assert not spair.verify_chain(layout, bad, ord)

    def test_foreign_intermediate_rejected(self, single_3x3):
        layout, ord = single_3x3
        cert = spair.build_chain(layout, M3, N3, ord)
        stray = MinorRef(2, (1, 2), (1, 2))
        bad = spair.ChainCertificate([M3, stray, N3], cert.steps + cert.steps)
        assert not spair.verify_chain(layout, bad, ord)

    def test_render_certificate(self, single_3x3):
        layout, ord = single_3x3
        cert = spair.build_chain(layout, M3, N3, ord)
        text = spair.render_certificate(layout, cert, ord)
        assert text.startswith("chain 2:2,3;1,3 2:1,3;2,3")
        assert "step 0:" in text

    def test_render_transplant_certificate_golden(self, single_5x5):
        # pins the step bodies, which the certify summary lines do not show
        layout, ord = single_5x5
        cert = spair.build_chain(layout, DEF_M, DEF_N, ord)
        assert spair.render_certificate(layout, cert, ord) == (
            "chain 2:1,4,5;2,3,5 2:2,4,5;1,3,5 2:2,3,5;1,4,5\n"
            "step 0: rows: [- x[1,3,1] pm 2:2,4,5;1,2,5] [+ x[1,5,1] pm 2:2,4,5;1,2,3]"
            " ; cols: [- x[4,1,1] pm 2:1,2,5;2,3,5] [+ x[5,1,1] pm 2:1,2,4;2,3,5]\n"
            "step 1: rows: [- x[5,3,1] pm 2:2,3,4;1,4,5] [- x[2,3,1] pm 2:4,3,5;1,4,5]"
            " ; cols: [- x[3,5,1] pm 2:2,4,5;1,3,4] [- x[3,1,1] pm 2:2,4,5;4,3,5]")

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_four_minor_transplants(self, single_6x6, field):
        # Between them these pairs run both rejections of a non-maximal
        # defect, by a violation with smaller (j', k') and by a tighter inner
        # crossing, and the transplant splice that starts from N (y1 > y2).
        # No pair of 3-minors reaches all three.
        layout, ord = single_6x6
        refs = natural_refs(layout)
        chains = []
        for a, b in ((35, 149), (77, 219)):
            defects = spair.find_defects(layout, refs[a], refs[b], ord)
            assert [d.maximal for d in defects] == [True, False, False, False]
            cert = spair.build_chain(layout, refs[a], refs[b], ord, field)
            assert spair.verify_chain(layout, cert, ord, field)
            for (F, G), d in zip(steps_of(cert), cert.steps):
                assert reference_step_verdict(layout, F, G, d, ord, field)
            chains.append(spair.render_certificate(layout, cert, ord).splitlines()[0])
        assert chains == [
            "chain 1:1,2,3,6;1,2,5,6 1:1,4,5,6;1,4,5,6 1:1,4,5,6;3,4,5,6",
            "chain 1:1,2,5,6;1,2,3,6 1:1,4,5,6;1,4,5,6 1:3,4,5,6;1,4,5,6"]


def forge(layout, d):
    """d with every row cofactor replaced by x[1,1,1]^2."""
    big = mono_from([(layout.var_of[(1, 1, 1)], 2)])
    return spair.Decomposition(
        d.M, d.N, tuple(spair.DecompTerm(t.sign, big, t.pm) for t in d.row_terms),
        d.col_terms)


def steps_of(cert):
    """(F, G) of each step of cert."""
    return list(zip(cert.refs, cert.refs[1:]))


def pencil_instance(*shape):
    layout, _ = double_det_generators(*shape)
    return layout, default_order(layout)


class TestRunCertifier:
    """One Certifier for every pair of a run builds and verifies each
    distinct step once; its memos must never change a verdict or a chain."""

    def test_forgery_after_the_genuine_certificate_rejected(self, single_3x3):
        layout, ord = single_3x3
        run = spair.Certifier(layout, ord)
        cert = run.build(M3, N3)
        assert run.verify(cert)
        forged = spair.ChainCertificate(cert.refs, [forge(layout, cert.steps[0])])
        assert not run.verify(forged)
        assert run.verify(cert)

    def test_flipped_sign_between_genuine_verifications(self):
        # each verification stands alone: a step that verified before does
        # not vouch for an altered copy, nor a rejected copy against the
        # genuine step
        layout, ord = make_instance(FOUR_VERTEX)
        refs = natural_refs(layout)
        run = spair.Certifier(layout, ord)
        cert = next(c for A, B in combinations(refs, 2)
                    for c in [run.build(A, B)] if c.steps and c.steps[0].row_terms)
        d = cert.steps[0]
        first = d.row_terms[0]
        flipped = d._replace(row_terms=(first._replace(sign=-first.sign),) + d.row_terms[1:])
        assert run.verify(cert)
        assert not run.verify(spair.ChainCertificate(cert.refs, [flipped] + cert.steps[1:]))
        assert run.verify(cert)

    def test_inconsistent_order_refused_before_any_verdict(self, single_3x3):
        layout, ord = single_3x3
        cert = spair.build_chain(layout, M3, N3, ord)
        n = layout.nvars
        rev = OrderSpec({v: n - 1 - v for v in range(n)})
        with pytest.raises(DomainError, match="consistent"):
            spair.Certifier(layout, rev)
        with pytest.raises(DomainError, match="consistent"):
            spair.verify_chain(layout, cert, rev)

    def test_mutated_shared_step_fails_exactly_the_chains_using_it(self):
        layout, ord = pencil_instance(2, 2, 2, 2, 2)
        refs = [r for r, _ in natural_generators(layout)]
        run = spair.Certifier(layout, ord)
        certs = [run.build(A, B) for A, B in combinations(refs, 2)]
        assert all(run.verify(cert) for cert in certs)
        uses = Counter(s for cert in certs for s in steps_of(cert))
        decomposition = {s: d for cert in certs for s, d in zip(steps_of(cert), cert.steps)}
        shared = max((s for s, d in decomposition.items() if d.row_terms),
                     key=uses.__getitem__)
        d = decomposition[shared]
        first = d.row_terms[0]
        flipped = d._replace(row_terms=(first._replace(sign=-first.sign),) + d.row_terms[1:])
        mutated = [spair.ChainCertificate(cert.refs, [flipped if s == shared else step
                                                      for s, step in zip(steps_of(cert), cert.steps)])
                   for cert in certs]
        using = [i for i, cert in enumerate(certs) if shared in steps_of(cert)]
        assert len(using) == uses[shared] > 1
        # with the genuine step already verified, and in a fresh run
        for certifier in (run, spair.Certifier(layout, ord)):
            assert [i for i, cert in enumerate(mutated) if not certifier.verify(cert)] == using
        assert all(run.verify(cert) for cert in certs)

    @pytest.mark.parametrize("instance, field", [
        (lambda: pencil_instance(2, 2, 2, 2, 2), PrimeField(7)),
        (lambda: make_instance(FOUR_VERTEX), QQ),
    ], ids=["pencil-2x2-GF7", "four-vertex"])
    def test_run_certificates_match_one_shot(self, instance, field):
        layout, ord = instance()
        refs = [r for r, _ in natural_generators(layout, field)]
        run = spair.Certifier(layout, ord, field)
        for A, B in combinations(refs, 2):
            cert = run.build(A, B)
            assert run.verify(cert)
            one = spair.build_chain(layout, A, B, ord, field)
            assert (spair.render_certificate(layout, cert, ord)
                    == spair.render_certificate(layout, one, ord))

    def test_build_leading_monomials_match_the_expansion(self):
        # build reads each term's packed leading monomial off the one packed
        # expansion of its pseudominor; on every term either side of every
        # step it agrees with the unpacked product's
        layout, ord = pencil_instance(3, 3, 2, 2, 2)
        refs = [r for r, _ in natural_generators(layout)]
        run = spair.Certifier(layout, ord)
        steps = {s for A, B in combinations(refs, 2) for s in steps_of(run.build(A, B))}
        terms = [t for F, G in steps
                 for d in (spair.p_decomposition(layout, F, G, ord),
                           spair.p_decomposition(layout, G, F, ord))
                 for t in d.row_terms + d.col_terms]
        assert (len(steps), len(terms)) == (2000, 7186)
        for t in terms:
            m = run._lead(t)
            p = spair.expand_term(layout, t, QQ)
            assert ((m if m is None else run.codec.unpack(m))
                    == (None if p.is_zero() else leading_term(p, ord)[1]))


def step_mutants(layout, F, G, d, ord):
    """d and three altered copies: one term's sign flipped, two rows of one
    term's pseudominor swapped, and a cancelling pair of terms added that
    leads with the lcm L itself, so the expansion is unchanged and only the
    strict test ``< L`` can reject it."""
    out = {"genuine": d}
    terms = d.row_terms + d.col_terms
    if terms:
        side = "row_terms" if d.row_terms else "col_terms"
        t = getattr(d, side)[0]
        rest = getattr(d, side)[1:]
        out["sign"] = d._replace(**{side: (t._replace(sign=-t.sign),) + rest})
        rows = t.pm.rows
        swapped = t.pm._replace(rows=(rows[1], rows[0]) + rows[2:])
        out["rows"] = d._replace(**{side: (t._replace(pm=swapped),) + rest})
    lm_f = minor_leading_term(layout, F, ord)
    cofactor = mono_div(mono_lcm(lm_f, minor_leading_term(layout, G, ord)), lm_f)
    pair = tuple(spair.DecompTerm(s, cofactor, PseudoMinorRef(F.vertex, F.rows, F.cols))
                 for s in (1, -1))
    out["at-L"] = d._replace(row_terms=d.row_terms + pair)
    return out


class TestPackedVerification:
    """Verification works on packed monomials; its verdict must be the one
    worked out on unpacked polynomials, for genuine and altered steps."""

    @pytest.mark.parametrize("instance, field, nsteps", [
        (lambda: pencil_instance(3, 3, 2, 2, 2), QQ, 2000),
        (lambda: make_instance(FOUR_VERTEX), PrimeField(7), 4255),
    ], ids=["pencil-3x3-QQ", "four-vertex-GF7"])
    def test_packed_verdict_matches_the_reference(self, instance, field, nsteps):
        layout, ord = instance()
        refs = [r for r, _ in natural_generators(layout, field)]
        build = spair.Certifier(layout, ord, field)
        steps = {s: d for A, B in combinations(refs, 2)
                 for cert in [build.build(A, B)] for s, d in zip(steps_of(cert), cert.steps)}
        assert len(steps) == nsteps
        verify = spair.Certifier(layout, ord, field)  # one that built nothing
        verdicts = Counter()
        for (F, G), d in steps.items():
            for kind, step in step_mutants(layout, F, G, d, ord).items():
                want = reference_step_verdict(layout, F, G, step, ord, field)
                assert verify._verify_step(F, G, step) == want, (F, G, kind)
                assert build._verify_step(F, G, step) == want, (F, G, kind)
                # building reads the same leading monomials as verifying
                assert build.has_small_lts(step) == (kind != "at-L"), (F, G, kind)
                verdicts[kind, want] += 1
        assert verdicts["genuine", False] == verdicts["at-L", True] == 0
        assert verdicts["sign", True] == verdicts["rows", True] == 0
        assert verdicts["sign", False] == verdicts["rows", False] > 0
        assert build.codec.width == 8


class TestMemos:
    @pytest.mark.parametrize("instance, field, pairs, digest", [
        (lambda: pencil_instance(3, 3, 2, 2, 2), QQ, 2556,
         "679f2c2e8f1cf18d71ddcf4fbdee650587b5b1e564702d71a684be28ad00a1e4"),
        (lambda: pencil_instance(2, 2, 2, 2, 2), PrimeField(7), 45,
         "b912c36fe8ebc683d846104c15d7dab152e02363bd3ec68b186b26dc4e63fdb6"),
        # the only instance with coprime pairs, whose syzygies these cover
        (lambda: make_instance(FOUR_VERTEX), QQ, 5778,
         "32b044112d2a9857b571af98c352e8e6de9820647512368880d4094bcea3c3ac"),
        (lambda: make_instance(FOUR_VERTEX), PrimeField(2), 5778,
         "86f5e3631cf78b1326aff49108d6aec49e9a09a68721b736a16261d50620ae27"),
    ], ids=["pencil-3x3-QQ", "pencil-2x2-GF7", "four-vertex-QQ", "four-vertex-GF2"])
    def test_all_pair_certificates_match_recorded(self, instance, field, pairs, digest):
        # sha256 over render_certificate of every pair, recorded while every
        # determinant was still expanded afresh
        layout, ord = instance()
        refs = natural_refs(layout)
        wanted = list(combinations(refs, 2))
        assert len(wanted) == pairs
        # one pair at a time, and every pair through one run-level certifier
        run = spair.Certifier(layout, ord, field)
        for build, verify in ((lambda A, B: spair.build_chain(layout, A, B, ord, field),
                               lambda cert: spair.verify_chain(layout, cert, ord, field)),
                              (run.build, run.verify)):
            h = hashlib.sha256()
            for A, B in wanted:
                cert = build(A, B)
                assert verify(cert)
                h.update(spair.render_certificate(layout, cert, ord).encode() + b"\n")
            assert h.hexdigest() == digest


class TestIntegerIdentities:
    """A certificate is an identity over Z: every minor has leading
    coefficient +-1 and every pseudominor +-1 coefficients, so what is
    built and verified over QQ verifies modulo every prime."""

    @pytest.mark.parametrize("instance, pairs", [
        (lambda: make_instance(FOUR_VERTEX), 5778),
        (lambda: pencil_instance(3, 3, 2, 2, 2), 2556),
    ], ids=["four-vertex", "pencil-3x3"])
    def test_rational_certificates_verify_mod_p(self, instance, pairs):
        layout, ord = instance()
        run = spair.Certifier(layout, ord, QQ)
        certs = [run.build(A, B) for A, B in combinations(natural_refs(layout), 2)]
        assert len(certs) == pairs and all(map(run.verify, certs))
        for p in (2, 3, 7):
            mod_p = spair.Certifier(layout, ord, PrimeField(p))
            assert all(map(mod_p.verify, certs)), p


def relabelling(layout, ord, pair, image):
    """phi, the relabelling that carries the pair (M, N) onto image, as a map
    of variables: each coordinate of the points of the lcm, in rank order,
    goes to the same coordinate of image's points.  The coordinates are
    (row, column) in the vertex matrix for a same-vertex pair and (i, j, k)
    for a cross-vertex pair.  A cell whose coordinate is not one of the
    points' raises KeyError."""
    def points(M, N):
        support = {v for ref in (M, N) for v, _ in minor_leading_term(layout, ref, ord)}
        return sorted(support, key=ord.rank_of)
    vertex = pair[0].vertex
    if vertex == pair[1].vertex:
        grid = layout.matrix(vertex)

        def coords(v):
            return layout.pos_in_matrix[(vertex, v)]

        def var(c):
            return grid[c[0] - 1][c[1] - 1]
    else:
        coords, var = layout.point_of.__getitem__, layout.var_of.__getitem__
    maps = [dict(zip(a, b)) for a, b in zip(zip(*map(coords, points(*pair))),
                                            zip(*map(coords, points(*image))))]
    return lambda v: var(tuple(m[x] for m, x in zip(maps, coords(v))))


def relabel_certificate(layout, phi, cert):
    """cert with phi applied to every ref, cofactor and pseudominor.  A row
    or column of a vertex matrix goes where phi sends its cell in the ref's
    first column or first row."""
    def ref(r):
        grid = layout.matrix(r.vertex)

        def pos(p, q):
            return layout.pos_in_matrix[(r.vertex, phi(grid[p - 1][q - 1]))]
        return type(r)(r.vertex, tuple(pos(p, r.cols[0])[0] for p in r.rows),
                       tuple(pos(r.rows[0], q)[1] for q in r.cols))

    def terms(ts):
        return tuple(spair.DecompTerm(t.sign, mono_from((phi(v), e) for v, e in t.cofactor),
                                      ref(t.pm)) for t in ts)
    return spair.ChainCertificate(
        [ref(r) for r in cert.refs],
        [spair.Decomposition(ref(d.M), ref(d.N), terms(d.row_terms), terms(d.col_terms))
         for d in cert.steps])


class TestPatternClasses:
    """Certifier.certify builds and verifies one chain per pattern class;
    the classes are sound only if a relabelling carries each chain of a
    class to every other."""

    @pytest.mark.parametrize("instance, pairs, classes", [
        (lambda: pencil_instance(3, 3, 2, 2, 2), 2556, 790),
        (lambda: make_instance(MIXED_RANKS), 7381, 3323),
    ], ids=["pencil-3x3", "mixed-ranks"])
    def test_relabelled_representative_is_the_members_certificate(self, instance, pairs,
                                                                   classes):
        layout, ord = instance()
        run = spair.Certifier(layout, ord)
        wanted = list(combinations(natural_refs(layout), 2))
        first = {}  # pattern -> its first pair and that pair's certificate
        for pair in wanted:
            cert = run.build(*pair)
            rep, rep_cert = first.setdefault(run.pattern(*pair), (pair, cert))
            phi = relabelling(layout, ord, rep, pair)
            assert relabel_certificate(layout, phi, rep_cert) == cert, pair
        assert (len(wanted), len(first)) == (pairs, classes)


def reference_pattern(layout, ord, M, N):
    """The pattern key as the rank-sorted union of the two diagonals: for
    each point of diag(M) and diag(N), in rank order, whether it is on
    diag(M) and on diag(N), and its coordinates, (row, column, page) in the
    vertex matrix for a same-vertex pair and (i, j, k) for a cross-vertex
    pair, each replaced by its position among that coordinate's distinct
    values; then the arrow of each of those pages."""
    dm = dict(minor_leading_term(layout, M, ord))
    dn = dict(minor_leading_term(layout, N, ord))
    points = sorted(dm.keys() | dn.keys(), key=ord.rank.__getitem__)
    if M.vertex == N.vertex:
        def coords(v):
            return (*layout.pos_in_matrix[M.vertex, v], layout.point_of[v][2])
    else:
        coords = layout.point_of.__getitem__
    a, b, k = zip(*map(coords, points))
    A, B, K = sorted(set(a)), sorted(set(b)), sorted(set(k))
    return (M.vertex, N.vertex, tuple(map(dm.__contains__, points)),
            tuple(map(dn.__contains__, points)), tuple(map(A.index, a)),
            tuple(map(B.index, b)), tuple(map(K.index, k)),
            tuple(layout.spec.arrows[x - 1] for x in K))


class TestPatternKey:
    """Certifier.pattern keys a pair by its two diagonals' merged
    coordinates.  The reference key above is a function of it, so no class
    of the key spans two of the reference's; on each instance here the two
    give the same classes."""

    @pytest.mark.parametrize("text, classes", [
        ((3, 3, 2, 2, 2), 790),
        ((3, 3, 3, 2, 2), 3502),
        (MIXED_SIZES, 961),
        (MIXED_RANKS, 3323),
        (FOUR_VERTEX, 1297),
        ("vertices 2\narrow 1 2\nm 5 5\nrank 2 2\n", 924),
    ], ids=["pencil-3x3", "pencil-3x3x3", "mixed-sizes", "mixed-ranks", "four-vertex",
            "page-5x5"])
    def test_reference_key_is_a_function_of_the_key(self, text, classes):
        layout, ord = pencil_instance(*text) if isinstance(text, tuple) else make_instance(text)
        run = spair.Certifier(layout, ord)
        seen = {}  # key -> its reference key
        for M, N in combinations(natural_refs(layout), 2):
            want = reference_pattern(layout, ord, M, N)
            assert seen.setdefault(run.pattern(M, N), want) == want, (M, N)
        assert len(seen) == len(set(seen.values())) == classes


def reference_step(run, F, G):
    """(mirrored, decomposition) of the chain step (F, G), chosen for that
    step alone: P(F,G) where its terms lead below the lcm, else P(G,F)
    mirrored where its terms do, else (None, None)."""
    d = run.decomposition(F, G)
    if run.has_small_lts(d):
        return False, d
    d = spair._mirror(run.decomposition(G, F))
    return (True, d) if run.has_small_lts(d) else (None, None)


class TestStepClasses:
    """Certifier decides and verifies the first step it meets of each step
    class, keyed by pattern, and every other step of the class takes that
    decision and verdict; each must be the step's own."""

    @pytest.mark.parametrize("instance, steps, classes", [
        (lambda: pencil_instance(3, 3, 2, 2, 2), 2000, 302),
        (lambda: pencil_instance(3, 3, 3, 2, 2), 12751, 608),
        (lambda: make_instance(FOUR_VERTEX), 4255, 678),
        (lambda: make_instance(MIXED_RANKS), 5129, 1577),
        (lambda: make_instance("vertices 2\narrow 1 2\nm 5 5\nrank 2 2\n"), 4951, 925),
    ], ids=["pencil-3x3", "pencil-3x3x3", "four-vertex", "mixed-ranks", "page-5x5"])
    def test_every_step_met_has_its_own_decision_and_verdict(self, instance, steps, classes):
        layout, ord = instance()
        run = spair.Certifier(layout, ord)
        met, step = set(), run._step

        def recording(F, G):
            met.add((F, G))
            return step(F, G)
        run._step = recording
        for M, N in combinations(natural_refs(layout), 2):
            run._chain(M, N)
        reference = spair.Certifier(layout, ord)
        for F, G in met:
            mirrored, d = reference_step(reference, F, G)
            assert step(F, G) == (mirrored, d is not None and reference._verify_step(F, G, d))
            if d is not None:
                assert run._decomposed(F, G) == d, (F, G)
        assert (len(met), len(run._steps)) == (steps, classes)

    def test_a_failed_step_class_fails_every_chain_through_it(self, monkeypatch):
        layout, ord = pencil_instance(3, 3, 2, 2, 2)
        walk = spair.Certifier(layout, ord)
        chains = {}  # pair -> the step classes of its chain
        for M, N in combinations(natural_refs(layout), 2):
            refs = walk._chain(M, N)
            chains[M, N] = {walk.pattern(F, G) for F, G in zip(refs, refs[1:])}
        bad = Counter(key for keys in chains.values() for key in keys).most_common(1)[0][0]
        holds = spair.Certifier._step_holds

        def failing(self, F, G, d):
            return self.pattern(F, G) != bad and holds(self, F, G, d)
        monkeypatch.setattr(spair.Certifier, "_step_holds", failing)
        run = spair.Certifier(layout, ord)
        failed = {pair for pair in chains if not run.certify(*pair)[1]}
        assert failed == {pair for pair, keys in chains.items() if bad in keys}
        assert 1 < len(failed) < len(chains)

    @pytest.mark.parametrize("instance, seed", [
        (lambda: pencil_instance(3, 3, 2, 2, 2), None),
        (lambda: pencil_instance(3, 3, 2, 2, 2), 3),
        (lambda: make_instance(MIXED_RANKS), None),
    ], ids=["pencil-3x3", "pencil-3x3-seeded-order", "mixed-ranks"])
    def test_each_pair_certifies_as_its_own_chain(self, instance, seed):
        # the reference keys every pair and every step by itself, as any
        # order but the default one does, and verifies each built chain
        layout, ord = instance()
        if seed is not None:
            ord = OrderSpec(seeded_rank(layout, seed))
        run, reference = spair.Certifier(layout, ord), spair.Certifier(layout, ord)
        reference._by_class = False
        for M, N in combinations(natural_refs(layout), 2):
            cert = reference.build(M, N)
            assert run.certify(M, N) == (len(cert.refs), reference.verify(cert)), (M, N)
