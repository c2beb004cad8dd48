import functools
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations

from quivergb import groebner, spair
from quivergb.layout import default_order
from quivergb.minors import MinorRef, PseudoMinorRef, natural_generators
from quivergb.poly import (
    QQ, DomainError, InputError, MonomialCodec, OrderSpec, Polynomial,
    PreparedBasis, PrimeField, inverse, leading_term, mono_div, mono_divides,
    mono_from, mono_lcm, mono_mul, mono_vars, poly_add,
    poly_from_terms, poly_mul, poly_scale, poly_sub, poly_var, reduce,
    render, s_polynomial, sorted_terms,
)
from quivergb.tensors import double_det_generators

from conftest import reference_step_verdict


def m(*pairs):
    return mono_from(pairs)


ORD3 = OrderSpec({0: 0, 1: 1, 2: 2})


class TestMonomials:
    def test_mul_merges_exponents(self):
        assert mono_mul(m((0, 1)), m((0, 2), (1, 1))) == m((0, 3), (1, 1))

    def test_mul_of_disjoint_ranges_stays_sorted(self):
        a, b = m((0, 1), (2, 2)), m((3, 1))
        assert mono_mul(a, b) == mono_mul(b, a) == m((0, 1), (2, 2), (3, 1))
        assert mono_mul(m((1, 1)), m((0, 1), (2, 1))) == m((0, 1), (1, 1), (2, 1))

    def test_divides_and_div(self):
        a, b = m((0, 1)), m((0, 2), (1, 1))
        assert mono_divides(a, b) and not mono_divides(b, a)
        assert mono_div(b, a) == m((0, 1), (1, 1))
        with pytest.raises(DomainError):
            mono_div(a, b)

    def test_lcm_and_gcd(self):
        assert mono_lcm(m((0, 2)), m((0, 1), (1, 3))) == m((0, 2), (1, 3))
        lms = PreparedBasis([Polynomial({m((0, 1)): 1}), Polynomial({m((1, 1)): 1}),
                             Polynomial({m((0, 1)): 1})], ORD3).lms
        assert lms == [m((0, 1)), m((1, 1)), m((0, 1))]
        assert mono_vars(lms[0]).isdisjoint(mono_vars(lms[1]))
        assert not mono_vars(lms[0]).isdisjoint(mono_vars(lms[2]))

    def test_order_key_is_lex(self):
        # rank 0 is the largest variable
        assert ORD3.key(m((0, 1))) > ORD3.key(m((1, 5), (2, 5)))
        assert ORD3.key(m((1, 1))) > ORD3.key(m((2, 3)))

    def test_order_requires_permutation(self):
        with pytest.raises(InputError):
            OrderSpec({0: 0, 1: 2})


class TestFields:
    def test_prime_field_rejects_composite(self):
        with pytest.raises(InputError):
            PrimeField(9)

    def test_gf_inverse(self):
        assert inverse(3, 7) == 5 and type(inverse(3, 7)) is int
        assert all(c * inverse(c, 7) % 7 == 1 for c in range(1, 7))

    def test_gf_zero_inverse(self):
        for zero in (0, 5, -10):
            with pytest.raises(ZeroDivisionError):
                inverse(zero, 5)

    def test_mixed_characteristics_raise(self):
        f5, f7 = poly_var(0, PrimeField(5)), poly_var(1, PrimeField(7))
        # a zero polynomial combines with any field
        total = poly_sub(Polynomial(), f7) + f7 + f7
        assert total == f7 and total.char == 7
        with pytest.raises(DomainError, match="mixed prime fields"):
            poly_add(f7, f5)
        with pytest.raises(DomainError, match="mixed prime fields"):
            PreparedBasis([f7, f5], ORD3)
        with pytest.raises(DomainError, match="mixed prime fields"):
            reduce(f7, [f5], ORD3)


class TestArithmetic:
    def test_add_cancels(self):
        f = poly_from_terms([(Fraction(1), m((0, 1)))])
        g = poly_from_terms([(Fraction(-1), m((0, 1))), (Fraction(2), ())])
        assert poly_add(f, g) == poly_from_terms([(Fraction(2), ())])

    def test_mul(self):
        x, y = poly_var(0), poly_var(1)
        assert poly_mul(poly_add(x, y), poly_sub(x, y)) == \
            poly_sub(poly_mul(x, x), poly_mul(y, y))

    def test_leading_term_of_zero(self):
        with pytest.raises(DomainError):
            leading_term(Polynomial(), ORD3)

    def test_scale_by_zero(self):
        assert poly_scale(poly_var(0), (Fraction(0), ())).is_zero()


class TestDivision:
    def test_division_identity(self):
        x, y = poly_var(0), poly_var(1)
        f = poly_add(poly_mul(x, poly_mul(x, y)), poly_mul(y, y))
        G = [poly_sub(poly_mul(x, y), poly_var(2)), poly_sub(poly_mul(y, y), x)]
        rem, used = reduce(f, G, ORD3)
        acc = rem
        for (c, mo), idx in used:
            acc = poly_add(acc, poly_scale(G[idx], (c, mo)))
        assert acc == f
        lms = [leading_term(g, ORD3)[1] for g in G]
        assert all(not mono_divides(lm, mo) for mo in rem.terms for lm in lms)

    def test_lowest_index_divisor_wins(self):
        x, y, z, w = (poly_var(v) for v in range(4))
        ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
        # the same leading monomial x*y: index 0 always cancels it
        G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, y), w)]
        for f in (poly_mul(x, y), poly_mul(poly_mul(x, y), poly_mul(z, w))):
            _, used = reduce(f, G, ord)
            assert used[0][1] == 0
        # both divide x*y*z; index 0 (y*z) is indexed under y, index 1 (x)
        # under x, which the lookup reaches first
        G = [poly_sub(poly_mul(y, z), w), poly_sub(x, w)]
        _, used = reduce(poly_mul(x, poly_mul(y, z)), G, ord)
        assert used[0] == ((Fraction(1), m((0, 1))), 0)

    def test_constant_generator_divides_everything(self):
        x, y = poly_var(0), poly_var(1)
        f = poly_add(poly_mul(x, y), Polynomial({(): Fraction(5)}))
        rem, used = reduce(f, [poly_sub(x, y), Polynomial({(): Fraction(2)})], ORD3)
        # x*y by x - y; then y*y and 5 by the constant
        assert rem.is_zero()
        assert [idx for _, idx in used] == [0, 1, 1]
        basis = PreparedBasis([Polynomial({(): Fraction(3)}), x], ORD3)
        assert basis.divisor(basis.codec.pack(m((0, 1)))) == 0 and basis.divisor(basis.codec.pack(())) == 0

    def test_zero_generator_refused(self):
        G = [poly_var(0), Polynomial()]
        with pytest.raises(DomainError, match="zero generator in division"):
            reduce(poly_var(0), G, ORD3)
        with pytest.raises(DomainError, match="zero generator in division"):
            PreparedBasis(G, ORD3)

    def test_prepared_basis_bound_to_its_order(self):
        x, y = poly_var(0), poly_var(1)
        basis = PreparedBasis([poly_sub(x, y)], ORD3)
        assert reduce(x, basis, ORD3) == reduce(x, [poly_sub(x, y)], ORD3)
        with pytest.raises(DomainError):
            reduce(x, basis, OrderSpec({0: 2, 1: 1, 2: 0}))

    def test_prepared_basis_takes_an_equal_order(self):
        # the basis checks the ranking by value, not the OrderSpec object
        x, y, z = poly_var(0), poly_var(1), poly_var(2)
        G = [poly_sub(x, y), poly_sub(poly_mul(y, y), z)]
        f = poly_add(poly_mul(x, poly_mul(x, y)), z)
        rank = {0: 0, 1: 1, 2: 2}
        basis = PreparedBasis(G, OrderSpec(rank))
        assert reduce(f, basis, OrderSpec(dict(rank))) == reduce(f, G, ORD3)
        with pytest.raises(DomainError, match="another order"):
            reduce(f, basis, OrderSpec({0: 1, 1: 0, 2: 2}))

    def test_pencil_s_pairs_match_recorded_divisions(self):
        # sha256 over every S-pair of the (3,3,2,2,2) pencil of
        # repr((i, j, sorted remainder terms, used)), recorded with the
        # sort-and-scan division that the prepared basis replaced, when every
        # QQ coefficient was a Fraction; Fraction(c) hashes the same values
        # whether c is held as an int or a Fraction
        layout, gens = double_det_generators(3, 3, 2, 2, 2)
        ord = default_order(layout)
        G = [p for _, p in gens]
        basis = PreparedBasis(G, ord)
        digest = hashlib.sha256()
        steps = 0
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                rem, used = reduce(s_polynomial(G[i], G[j], ord), basis, ord)
                steps += len(used)
                terms = [(mono, Fraction(c)) for mono, c in sorted(rem.terms.items())]
                cofactors = [((Fraction(c), mono), idx) for (c, mono), idx in used]
                digest.update(repr((i, j, terms, cofactors)).encode())
        assert steps == 9027
        assert digest.hexdigest() == \
            "75d30ed9565c54f8b48c9d26902648139456814c567e940e7c7832bb5696245b"

    def test_s_polynomial_cancels_leads(self):
        x, y = poly_var(0), poly_var(1)
        f = poly_add(poly_mul(x, y), poly_var(2))
        g = poly_add(poly_mul(y, y), x)
        s = s_polynomial(f, g, ORD3)
        big = mono_lcm(m((0, 1), (1, 1)), m((1, 2)))
        _, lm = leading_term(s, ORD3)
        assert ORD3.key(lm) < ORD3.key(big)


NVARS = 4


@st.composite
def division_problems(draw):
    """(f, G, ord) with random ranks, QQ or GF(7), non-homogeneous
    polynomials and possibly constant generators."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    ranks = draw(st.permutations(range(NVARS)))
    monos = st.lists(st.tuples(st.integers(0, NVARS - 1), st.integers(0, 2)),
                     max_size=3).map(mono_from)
    coeffs = st.integers(-4, 4).map(lambda c: c % field if field else c)
    polys = st.lists(st.tuples(coeffs, monos),
                     max_size=5).map(lambda terms: poly_from_terms(terms, field))
    f = draw(polys)
    G = draw(st.lists(polys.filter(lambda g: not g.is_zero()), min_size=1, max_size=4))
    return f, G, OrderSpec(dict(enumerate(ranks)))


class TestDivisionProperties:
    @settings(max_examples=300, deadline=None)
    @given(division_problems())
    def test_reduce_is_a_division(self, problem):
        f, G, ord = problem
        rem, used = reduce(f, G, ord)
        acc = rem
        for (c, mo), idx in used:
            acc = poly_add(acc, poly_scale(G[idx], (c, mo)))
        assert acc == f
        lms = [leading_term(g, ord)[1] for g in G]
        basis = PreparedBasis(G, ord)
        assert basis.lms == lms
        assert not any(mono_divides(lm, mo) for mo in rem.terms for lm in lms)
        reduced = [ord.key(mono_mul(mo, lms[idx])) for (_, mo), idx in used]
        assert all(a > b for a, b in zip(reduced, reduced[1:]))
        coeffs = list(rem.terms.values()) + [c for (c, _), _ in used]
        assert not any(isinstance(c, float) for c in coeffs)
        p = G[0].char
        assert rem.char == p
        if p:  # GF(p): reduced residues, never 0
            assert all(type(c) is int and 1 <= c < p for c in coeffs)


def poly_of(*terms):
    """A polynomial in x, y, z (variables 0, 1, 2) from (coeff, {var: exp}) pairs."""
    return poly_from_terms((c, mono_from(e.items())) for c, e in terms)


def all_fractions(values):
    return all(type(c) is Fraction for c in values)


class TestExactCoefficients:
    """QQ coefficients are ints, and become Fractions only when divided by
    a non-unit; a float never reaches a polynomial."""

    def test_inverse(self):
        assert inverse(1) == 1 and type(inverse(1)) is int
        assert inverse(-1) == -1 and type(inverse(-1)) is int
        assert inverse(3) == Fraction(1, 3) and type(inverse(3)) is Fraction
        assert inverse(-2) == Fraction(-1, 2) and type(inverse(-2)) is Fraction
        assert inverse(Fraction(2, 3)) == Fraction(3, 2)
        assert inverse(3, 7) == 5 and type(inverse(3, 7)) is int
        for zero, p in ((0, 0), (Fraction(0), 0), (7, 7)):
            with pytest.raises(ZeroDivisionError):
                inverse(zero, p)

    def test_field_is_its_characteristic(self):
        assert QQ == 0 and type(PrimeField(7)) is int and PrimeField(7) == 7
        assert all(type(c) is int for c in poly_var(0).terms.values())

    def test_reduce_by_non_unit_leading_coefficients(self):
        # x = 1/2 (2x - y) + 1/2 y,  1/2 y = 1/6 (3y - z) + 1/6 z
        G = [poly_of((2, {0: 1}), (-1, {1: 1})), poly_of((3, {1: 1}), (-1, {2: 1}))]
        rem, used = reduce(poly_var(0), G, ORD3)
        assert rem == poly_of((Fraction(1, 6), {2: 1}))
        assert used == [((Fraction(1, 2), ()), 0), ((Fraction(1, 6), ()), 1)]
        assert all_fractions(list(rem.terms.values()) + [c for (c, _), _ in used])

    def test_s_polynomial_of_non_unit_leading_coefficients(self):
        # S(2x - y, 3x - z) = 1/2 (2x - y) - 1/3 (3x - z) = -1/2 y + 1/3 z
        f = poly_of((2, {0: 1}), (-1, {1: 1}))
        g = poly_of((3, {0: 1}), (-1, {2: 1}))
        S = s_polynomial(f, g, ORD3)
        assert S == poly_of((Fraction(-1, 2), {1: 1}), (Fraction(1, 3), {2: 1}))
        assert all_fractions(S.terms.values())

    def test_completion_of_non_unit_leading_coefficients(self):
        # monic: xy - 1/2 z and xz - 1/3 y; their S-polynomial
        # z(xy - 1/2 z) - y(xz - 1/3 y) = 1/3 y^2 - 1/2 z^2 is irreducible,
        # and y^2 - 3/2 z^2 closes the basis
        F = [poly_of((2, {0: 1, 1: 1}), (-1, {2: 1})),
             poly_of((3, {0: 1, 2: 1}), (-1, {1: 1}))]
        G = groebner.buchberger_complete(F, ORD3)
        assert G == [poly_of((1, {0: 1, 1: 1}), (Fraction(-1, 2), {2: 1})),
                     poly_of((1, {0: 1, 2: 1}), (Fraction(-1, 3), {1: 1})),
                     poly_of((1, {1: 2}), (Fraction(-3, 2), {2: 2}))]
        assert all(all_fractions(g.terms.values()) for g in G)

    def test_natural_generators_stay_integral(self, monkeypatch):
        # every polynomial built and every cofactor used while checking and
        # certifying (2,2,2,2,2) over QQ has int coefficients
        seen = []
        init = Polynomial.__init__

        def recording_init(self, terms=None, char=0):
            init(self, terms, char)
            seen.extend(self.terms.values())

        def recording_reduce(f, G, ord):
            rem, used = reduce(f, G, ord)
            seen.extend(c for (c, _), _ in used)
            return rem, used

        monkeypatch.setattr(Polynomial, "__init__", recording_init)
        monkeypatch.setattr(groebner, "reduce", recording_reduce)
        layout, gens = double_det_generators(2, 2, 2, 2, 2)
        ord = default_order(layout)
        report = groebner.buchberger_check([p for _, p in gens], ord, coprime_skip=False)
        assert report.is_groebner and report.reduced_to_zero == 45
        for A, B in combinations([r for r, _ in natural_generators(layout)], 2):
            assert spair.verify_chain(layout, spair.build_chain(layout, A, B, ord), ord)
        # verification expands packed: its expansions and their inverses too
        run = spair.Certifier(layout, ord)
        for A, B in combinations([r for r, _ in natural_generators(layout)], 2):
            assert run.verify(run.build(A, B))
        seen += [c for terms, _, inv, _ in run._dets.values() for c in [inv] + [c for _, c in terms]]
        assert seen and all(type(c) is int for c in seen)

    def test_packed_s_pairs_stay_integral(self):
        # the S-polynomials that buchberger_check forms packed, and every
        # cofactor of their divisions, over QQ for (2,2,2,2,2)
        layout, gens = double_det_generators(2, 2, 2, 2, 2)
        basis = PreparedBasis([p for _, p in gens], default_order(layout))
        for i, j in combinations(range(len(basis.polys)), 2):
            work = basis._s_polynomial(i, j)
            seen = list(work.values())
            rem, used = basis._divide(work)
            seen += [c for c, _, _ in used]
            assert not rem and seen and all(type(c) is int for c in seen)


class TestPackedDivision:
    """The division engine of PreparedBasis works on packed monomials and
    widens its fields when an exponent does not fit."""

    LEX_XY = OrderSpec({0: 0, 1: 1})  # x > y

    def test_widening_during_division(self):
        x = poly_var(0)
        basis = PreparedBasis([poly_of((1, {0: 1}), (-1, {1: 100}))], self.LEX_XY)
        assert basis.codec.width == 8
        # x**2 -> x*y**100 -> y**200, whose exponent outgrows an 8-bit field
        rem, used = reduce(poly_mul(x, x), basis, self.LEX_XY)
        assert basis.codec.width == 16
        assert rem == poly_of((1, {1: 200}))
        assert used == [((1, m((0, 1))), 0), ((1, m((1, 100))), 0)]
        assert reduce(poly_mul(x, x), list(basis.polys), self.LEX_XY) == (rem, used)
        assert basis.divisor(basis.codec.pack(m((0, 1), (1, 200)))) == 0
        assert basis.divisor(basis.codec.pack(m((1, 200)))) is None

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_widening_during_certificate_verification(self, single_3x3, field):
        # chain steps of the 3x3 worked example, M = 2:2,3;1,3 and N = 2:1,3;2,3,
        # with L = x[1,2,1]*x[2,1,1]*x[3,3,1] and y = x[3,3,1]
        layout, ord = single_3x3
        M, N = MinorRef(2, (2, 3), (1, 3)), MinorRef(2, (1, 3), (2, 3))
        d = spair.build_chain(layout, M, N, ord, field).steps[0]
        x12, y = layout.var_of[(1, 2, 1)], layout.var_of[(3, 3, 1)]
        below = PseudoMinorRef(2, (2, 3), (2, 3))  # leads x[2,2,1]*y, under L
        at_m = PseudoMinorRef(2, M.rows, M.cols)  # leads x[2,1,1]*y

        def with_pair(cofactor, pm):
            """d and a cancelling pair of terms, so it still expands to S(M, N)."""
            pair = tuple(spair.DecompTerm(s, m(*cofactor), pm) for s in (1, -1))
            return d._replace(row_terms=d.row_terms + pair)

        forged = d._replace(row_terms=tuple(
            t._replace(cofactor=m((y, 200))) for t in d.row_terms))
        steps = [
            (with_pair([(y, 200)], below), True),  # packs at 16 bits
            (with_pair([(x12, 1), (y, 200)], at_m), False),  # leads above L
            (forged, False),  # expands to something else
            (with_pair([(y, 127)], below), True),  # packs at 8, y**128 in the sum
        ]
        for step, want in steps:
            assert reference_step_verdict(layout, M, N, step, ord, field) == want
            run = spair.Certifier(layout, ord, field)
            assert run.codec.width == 8
            assert run._verify_step(M, N, step) == want
            assert run.codec.width == 16
            # the packed memos were packed again: the genuine step still holds
            assert run.verify(spair.ChainCertificate([M, N], [d]))
        # chain building's test of the leading terms widens the same way
        for (step, _), small in (steps[3], True), (steps[1], False):
            run = spair.Certifier(layout, ord, field)
            assert run.has_small_lts(step) == small and run.codec.width == 16

    def test_widening_at_pack_time(self):
        # an input term y**300, and a generator y**200 - 1 packed 16 bits wide
        f = poly_of((1, {1: 300}), (1, {0: 1}))
        rem, used = reduce(f, [poly_of((1, {0: 1}), (-1, {1: 2}))], self.LEX_XY)
        assert rem == poly_of((1, {1: 300}), (1, {1: 2}))
        assert used == [((1, ()), 0)]
        basis = PreparedBasis([poly_of((1, {1: 200}), (-1, {}))], self.LEX_XY)
        assert basis.codec.width == 16
        rem, used = reduce(poly_of((1, {1: 450})), basis, self.LEX_XY)
        assert rem == poly_of((1, {1: 50}))
        assert used == [((1, m((1, 250))), 0), ((1, m((1, 50))), 0)]

    def test_widening_while_forming_an_s_pair(self):
        # S(x*y**100 - y**110, y**120 - z) = x*z - y**130: y**20 * y**110 overflows
        G = [poly_of((1, {0: 1, 1: 100}), (-1, {1: 110})), poly_of((1, {1: 120}), (-1, {2: 1}))]
        basis = PreparedBasis(G, ORD3)
        assert basis.codec.width == 8
        [(_, rem)] = basis.s_pair_remainders([(0, 1)])
        assert basis.codec.width == 16
        assert rem == poly_of((1, {0: 1, 2: 1}), (-1, {1: 10, 2: 1}))
        assert rem == reduce(s_polynomial(G[0], G[1], ORD3), G, ORD3)[0]

    @settings(max_examples=200, deadline=None)
    @given(division_problems())
    def test_s_pair_remainder_is_the_remainder_of_s_polynomial(self, problem):
        _, G, ord = problem
        basis = PreparedBasis(G, ord)
        for i, j in combinations(range(len(G)), 2):
            S = s_polynomial(G[i], G[j], ord)
            packed = basis._s_polynomial(i, j)
            assert Polynomial({basis.codec.unpack(mo): c for mo, c in packed.items()}, S.char) == S
            rem = reduce(S, basis, ord)[0]
            assert basis.s_pair_remainders([(i, j)]) == ([] if rem.is_zero() else [(0, rem)])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([QQ, PrimeField(7)]), st.permutations(range(NVARS)),
           st.lists(st.tuples(st.integers(0, NVARS - 1), st.integers(0, 300)),
                    max_size=NVARS).map(mono_from),
           st.lists(st.tuples(st.integers(0, NVARS - 1), st.integers(0, 300)),
                    max_size=NVARS).map(mono_from))
    def test_codec(self, field, ranks, a, b):
        ord = OrderSpec(dict(enumerate(ranks)))
        ab = mono_mul(a, b)
        basis = PreparedBasis([Polynomial({mono: 1}, field) for mono in (a, b, ab)], ord)
        # the narrowest width of 8 * 2**k whose fields hold every exponent
        codec = basis.codec
        top = max((e for _, e in ab), default=0)
        assert top < 2 ** (codec.width - 1)
        assert codec.width == 8 or top >= 2 ** (codec.width // 2 - 1)
        pa, pb, pab = codec.pack(a), codec.pack(b), codec.pack(ab)
        assert codec.unpack(pa) == a and codec.unpack(pb) == b and codec.unpack(pab) == ab
        assert (pa < pb) == (ord.key(a) < ord.key(b)) and (pa == pb) == (a == b)
        assert pa + pb == pab
        assert ((pb - pa) & codec.guard == 0) == mono_divides(a, b)
        assert ((pa - pb) & codec.guard == 0) == mono_divides(b, a)
        assert codec.lcm(pa, pb) == codec.pack(mono_lcm(a, b))
        rem, used = reduce(Polynomial({ab: 2}, field), basis, ord)
        assert rem.is_zero() and used == [((2, b), 0)]
        # a fresh codec packs a polynomial as the tuple route does, widening
        # under run() for exponents of 128 and above
        f = poly_from_terms([(1, a), (2, b), (-1, ab)], field)
        fresh = MonomialCodec(ord)

        def both_routes():
            lc, lm = leading_term(f, ord)
            span = functools.reduce(mono_lcm, f.terms, ())
            tuple_route = ([(fresh.pack(mo), c) for mo, c in f.terms.items()],
                           fresh.pack(lm), inverse(lc, f.char), fresh.pack(span))
            return fresh.packed(f), tuple_route
        packed, tuple_route = fresh.run(both_routes)
        assert packed == tuple_route

    def test_widening_empties_every_cache(self):
        codec = MonomialCodec(self.LEX_XY)
        first, second = codec.cache(), codec.cache()
        first["x"], second["y"] = codec.pack(m((0, 1))), codec.pack(m((1, 1)))
        seen = []

        def step():
            seen.append((dict(first), dict(second)))
            return codec.pack(m((1, 200)))
        assert codec.unpack(codec.run(step)) == m((1, 200))
        assert codec.width == 16 and not first and not second
        assert seen == [({"x": 1 << 8}, {"y": 1}), ({}, {})]


class TestRender:
    def test_canonical_form(self):
        f = poly_from_terms([(Fraction(-2), m((1, 1))), (Fraction(1), m((0, 1)))])
        assert render(f, ORD3, lambda v: f"x{v}") == "+x0-2*x1"

    def test_zero(self):
        assert render(Polynomial(), ORD3, str) == "0"

    def test_terms_sorted_decreasing(self):
        f = poly_from_terms([(Fraction(1), m((2, 1))), (Fraction(1), m((0, 1)))])
        assert [mo for _, mo in sorted_terms(f, ORD3)] == [m((0, 1)), m((2, 1))]

    @settings(max_examples=300, deadline=None)
    @given(st.permutations(range(5)),
           st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5),
                    min_size=1, max_size=12),
           st.booleans())
    def test_sparse_key_sorts_as_the_dense_key(self, ranks, exps, constant):
        # variable 3v + 1 has rank ranks[v], so ids, ranks and positions differ
        ord = OrderSpec({3 * v + 1: r for v, r in enumerate(ranks)})
        terms = {mono_from((3 * v + 1, e) for v, e in enumerate(row)): 1 for row in exps}
        if constant:
            terms[()] = 1
        f = Polynomial(terms)
        assert [mo for _, mo in sorted_terms(f, ord)] == \
            sorted(f.terms, key=ord.key, reverse=True)

    @pytest.mark.parametrize("f", [
        poly_from_terms([(1, m((0, 1))), (-1, m((5, 2)))]),
        poly_var(5),
    ], ids=["beside-a-ranked-one", "alone"])
    def test_unranked_variable_is_bad_input(self, f):
        with pytest.raises(InputError, match="variable 5 is not ranked"):
            render(f, ORD3, str)
