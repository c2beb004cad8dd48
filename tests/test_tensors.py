from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from quivergb import tensors as T
from quivergb.poly import (
    QQ, InputError, Polynomial, PrimeField, mono_from, poly_from_terms, poly_mul,
    poly_neg, poly_sub, poly_var, render,
)


@pytest.fixture(scope="module")
def tensorex():
    """2x2x2 with entries 0..7 counted first-index-fastest."""
    return T.tensor_from_function(
        (2, 2, 2), lambda i: F((i[0] - 1) + 2 * (i[1] - 1) + 4 * (i[2] - 1)))


class TestTensorBasics:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            T.Tensor((2, 2), [F(0)] * 3)
        with pytest.raises(InputError):
            T.Tensor((0,), [])
        with pytest.raises(InputError):
            T.Tensor((2, 0), [])

    def test_records_are_immutable(self):
        X = T.Tensor([2, 1], [F(1), F(2)])
        assert X.shape == (2, 1) and X == T.Tensor((2, 1), [F(1), F(2)])
        st = T.IndepStatement("hidden", 1, states=3)
        assert hash(st) == hash(("hidden", 1, 0, 0, 3))
        for record, field in ((X, "shape"), (st, "states")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_indexing_row_major(self):
        X = T.Tensor((2, 3), [F(v) for v in range(6)])
        assert X[(2, 1)] == 3
        with pytest.raises(InputError):
            X[(3, 1)]

    def test_file_roundtrip(self, tensorex):
        again = T.parse_tensor(T.render_tensor(tensorex))
        assert again.shape == tensorex.shape and again.values == tensorex.values

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            T.parse_tensor("2 2\n1 2 3 4")
        with pytest.raises(InputError):
            T.parse_tensor("shape 2 2\n1 2 3")
        with pytest.raises(InputError):  # one entry too many is no 2x2x1 tensor
            T.parse_tensor("shape 2 2\n1 2 3 4 5")


class TestContractionScanFlatten:
    def test_contraction_goldens(self, tensorex):
        c = T.contraction(tensorex, [2])
        assert T.flatten(c, 1) == [[2, 10], [4, 12]]
        m = T.contraction(tensorex, [2, 3])
        assert m.values == [12, 16]
        assert T.contraction(tensorex, [1, 2, 3]) == 28

    def test_contraction_bad_axis(self, tensorex):
        with pytest.raises(InputError):
            T.contraction(tensorex, [4])

    def test_scan_goldens(self, tensorex):
        s3 = T.scan(tensorex, 3)
        assert [T.flatten(x, 1) for x in s3] == [[[0, 2], [1, 3]], [[4, 6], [5, 7]]]
        s1 = T.scan(tensorex, 1)
        assert [T.flatten(x, 1) for x in s1] == [[[0, 4], [2, 6]], [[1, 5], [3, 7]]]

    def test_contraction_is_sum_of_scan(self, tensorex):
        c = T.contraction(tensorex, [3])
        pieces = T.scan(tensorex, 3)
        for idx in product((1, 2), repeat=2):
            assert c[idx] == sum(p[idx] for p in pieces)

    def test_flatten_goldens(self, tensorex):
        assert T.flatten(tensorex, 1) == [[0, 2, 4, 6], [1, 3, 5, 7]]
        assert T.flatten(tensorex, 2) == [[0, 1, 4, 5], [2, 3, 6, 7]]
        assert T.flatten(tensorex, 3) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_flatten_arity_two_is_identity(self):
        X = T.Tensor((2, 2), [F(v) for v in range(4)])
        assert T.flatten(X, 1) == [[0, 1], [2, 3]]

    def test_flatten_preserves_entries(self, tensorex):
        flat = [e for row in T.flatten(tensorex, 2) for e in row]
        assert sorted(flat) == sorted(tensorex.values)


def _indices(shape):
    return product(*(range(1, a + 1) for a in shape))


@st.composite
def tensors_and_axes(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
    values = draw(st.lists(entry, min_size=prod(shape), max_size=prod(shape)))
    axes = st.integers(1, len(shape))
    return T.Tensor(shape, values), draw(st.lists(axes, max_size=len(shape))), draw(axes)


class TestWalkMatchesIndexedDefinitions:
    """contraction, scan and flatten against their definitions through X[idx]."""

    @staticmethod
    def contraction_by_index(X, J):
        keep = [pos for pos in range(X.arity) if pos + 1 not in J]

        def entry(kept):
            return sum(X[idx] for idx in _indices(X.shape)
                       if tuple(idx[pos] for pos in keep) == kept)

        if not keep:
            return entry(())
        shape = tuple(X.shape[pos] for pos in keep)
        return T.Tensor(shape, [entry(kept) for kept in _indices(shape)])

    @settings(max_examples=60, deadline=None)
    @given(tensors_and_axes())
    def test_walk(self, case):
        X, J, j = case
        every = list(range(1, X.arity + 1))
        for axes in (J, every, J + every[:1], every + every):
            assert T.contraction(X, axes) == self.contraction_by_index(X, set(axes))
        assert T.contraction(X, every) == sum(X.values)

        rest = X.shape[:j - 1] + X.shape[j:]
        assert T.scan(X, j) == [
            T.Tensor(rest, [X[idx[:j - 1] + (i,) + idx[j - 1:]] for idx in _indices(rest)])
            for i in range(1, X.shape[j - 1] + 1)]

        columns = sorted(_indices(rest), key=lambda idx: idx[::-1])
        assert T.flatten(X, j) == [
            [X[idx[:j - 1] + (i,) + idx[j - 1:]] for idx in columns]
            for i in range(1, X.shape[j - 1] + 1)]


class TestRank:
    def test_goldens(self):
        assert T.matrix_rank([[F(2), F(10)], [F(4), F(12)]]) == 2
        assert T.matrix_rank([[F(0)] * 3] * 2) == 0
        assert T.matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        # int entries of determinant -1, where 10**17 / (10**17 + 1) is 1.0 as a float
        assert T.matrix_rank([[10**17 + 1, 10**17], [10**17, 10**17 - 1]]) == 2

    def test_empty(self):
        assert T.matrix_rank([]) == 0


class TestDoubleDet:
    def test_counts(self):
        _, gens = T.double_det_generators(2, 2, 2, 2, 2)
        assert len(gens) == 10
        _, gens = T.double_det_generators(3, 4, 1, 2, 2)
        assert len(gens) == 3 * 6  # C(3,2) * C(4,2), single page dedup

    def test_oversized_empty(self):
        _, gens = T.double_det_generators(2, 2, 1, 3, 3)
        assert gens == []


class TestWitness:
    def test_golden_232(self):
        W = T.witness_tensor(2, 3, 2, 2, 3, 2)
        nz = [idx for idx in product((1, 2), (1, 2, 3), (1, 2)) if W[idx]]
        assert nz == [(1, 1, 1), (1, 2, 2)]
        ranks = tuple(T.matrix_rank(T.flatten(W, j)) for j in (1, 2, 3))
        assert ranks == (1, 2, 2)

    def test_golden_334(self):
        W = T.witness_tensor(3, 3, 4, 3, 3, 4)
        assert sum(1 for v in W.values if v) == 4
        assert T.matrix_rank(T.flatten(W, 3)) == 4

    def test_refused_when_equality_holds(self):
        with pytest.raises(InputError, match="no witness"):
            T.witness_tensor(2, 2, 2, 2, 2, 2)


class TestDeterminant:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_two_by_two(self, field):
        a, b, c, d = (poly_var(v, field) for v in range(4))
        assert T.det_poly_matrix([[a, b], [c, d]]) == \
            poly_sub(poly_mul(a, d), poly_mul(b, c))

    def test_empty_refused(self):
        with pytest.raises(InputError):
            T.det_poly_matrix([])


class TestTripleEq:
    def test_equality_case(self):
        res = T.triple_eq_check(2, 2, 2, 2, 2, 2)
        assert res.predicted and res.verified
        assert res.evidence == {"reduced": 6, "total": 6}

    def test_inequality_case(self):
        res = T.triple_eq_check(2, 3, 2, 2, 3, 2)
        assert not res.predicted and res.verified
        assert res.evidence["ranks"] == (1, 2, 2)

    def test_bounds_checked(self):
        with pytest.raises(InputError):
            T.triple_eq_check(2, 2, 2, 5, 2, 2)
        with pytest.raises(InputError):
            T.triple_eq_check(2, 2, 2, 2, 2, 3)


class TestIndependence:
    def test_two_by_two_marginal(self):
        gens = T.independence_ideal((2, 2), [T.parse_statement("1_2")])
        ord = T.tensor_var_order((2, 2))
        namer = T.tensor_var_namer((2, 2))
        assert [render(g, ord, namer) for g in gens] == \
            ["+p[1,1]*p[2,2]-p[1,2]*p[2,1]"]

    def test_marginal_contracts_third_axis(self):
        gens = T.independence_ideal((2, 2, 2), [T.parse_statement("1_2")])
        assert len(gens) == 1
        # the quadric in the marginals p_ij. = p_ij1 + p_ij2
        assert len(gens[0].terms) == 8

    def test_hidden_matches_double_det(self):
        shape = (2, 2, 2)
        gens = T.independence_ideal(
            shape, [T.parse_statement("1|rest:1"), T.parse_statement("2|rest:1")])
        layout, dd = T.double_det_generators(2, 2, 2, 2, 2)
        off = {pt: i for i, pt in
               enumerate(product(*(range(1, a + 1) for a in shape)))}

        def rename(p):
            return Polynomial(
                {tuple(sorted((off[layout.point_of[v]], e) for v, e in mo)): c
                 for mo, c in p.terms.items()})

        dd_renamed = [rename(p) for _, p in dd]
        assert len(gens) == len(dd_renamed) == 10
        for g in gens:
            assert any(g == h or g == poly_neg(h) for h in dd_renamed)

    def test_saturated_is_segre(self):
        gens = T.independence_ideal((2, 2, 2), [T.parse_statement("1|rest")])
        assert len(gens) == 6  # 2-minors of a 2x4 flattening

    def test_conditional_slices(self):
        gens = T.independence_ideal((2, 2, 2), [T.parse_statement("1_2|3")])
        assert len(gens) == 2  # one 2x2 determinant per state of axis 3

    def test_rows_follow_the_first_axis(self):
        # det(M^T) = det(M), so a_b and b_a give the same minors, but in the
        # row-then-column order of the marginal with rows indexed by a
        sym = T.symbolic_tensor((3, 2, 3))
        slices = [[[sym[(i, j, k)] for i in (1, 2, 3)] for k in (1, 2, 3)] for j in (1, 2)]
        by_slice = [g for M in slices for g in T._poly_minors(M, 2)]
        gens = T.independence_ideal((3, 2, 3), [T.parse_statement("3_1|2")])
        assert gens == by_slice
        marginal = [[a + b for a, b in zip(*rows)] for rows in zip(*slices)]
        gens = T.independence_ideal((3, 2, 3), [T.parse_statement("3_1")])
        assert gens == T._poly_minors(marginal, 2)
        assert gens != T.independence_ideal((3, 2, 3), [T.parse_statement("1_3")])

    def test_sign_duplicates_keep_the_first(self):
        x, y = poly_var(0), poly_var(1)
        g = poly_sub(x, y)
        h = poly_mul(x, y)
        assert T._unique_up_to_sign([g, h, poly_neg(g), g, poly_sub(x, x), poly_neg(h)]) \
            == [g, h]
        assert T._unique_up_to_sign([poly_neg(g), g]) == [poly_neg(g)]

    def test_statement_parsing(self):
        assert T.parse_statement("1_2") == T.IndepStatement("marginal", 1, 2)
        assert T.parse_statement("2|rest") == T.IndepStatement("saturated", 2)
        assert T.parse_statement("1_3|2") == T.IndepStatement("conditional", 1, 3, 2)
        assert T.parse_statement("1|rest:3") == T.IndepStatement("hidden", 1, states=3)
        for bad in ("x", "1|res", "1|rest:x"):
            with pytest.raises(InputError):
                T.parse_statement(bad)
        st = T.parse_statement("1_1")
        with pytest.raises(InputError):
            st.validate(3)

    def test_statement_render_roundtrip(self):
        for text in ("1_2", "2|rest", "1_3|2", "1|rest:3"):
            assert T.render_statement(T.parse_statement(text)) == text


def unique_up_to_sign_reference(polys):
    """_unique_up_to_sign by two term sets a poly, as it was first written:
    a nonzero poly is dropped when its term set, or its negative's, is a
    kept one's."""
    out = []
    seen = set()
    for g in polys:
        if g.is_zero():
            continue
        key = frozenset(g.terms.items())
        if key in seen or frozenset(poly_neg(g).terms.items()) in seen:
            continue
        seen.add(key)
        out.append(g)
    return out


@st.composite
def signed_poly_lists(draw):
    """Polys of one field drawn from a small pool, some negated, some zero."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
    coeff = st.integers(-8, 8) if field else st.fractions(-3, 3, max_denominator=2)
    term = st.tuples(coeff, st.lists(st.integers(0, 2), min_size=2, max_size=2))
    pool = [poly_from_terms([(c, mono_from(enumerate(e))) for c, e in terms], field)
            for terms in draw(st.lists(st.lists(term, max_size=4), min_size=1, max_size=4))]
    picks = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
    return [poly_neg(pool[i]) if neg else pool[i] for i, neg in draw(st.lists(picks, max_size=10))]


class TestUniqueUpToSign:
    @settings(max_examples=300, deadline=None)
    @given(signed_poly_lists())
    def test_matches_the_two_term_set_rule(self, polys):
        kept = T._unique_up_to_sign(polys)
        want = unique_up_to_sign_reference(polys)
        assert len(kept) == len(want) and all(a is b for a, b in zip(kept, want))

    def test_over_gf2_a_poly_is_its_negative(self):
        x, y = poly_var(0, PrimeField(2)), poly_var(1, PrimeField(2))
        g = poly_sub(x, y)
        assert T._unique_up_to_sign([g, poly_neg(g), poly_mul(x, y)]) == [g, poly_mul(x, y)]


class TestGeneralize:
    def test_arity4_flattenings_match_induced_quiver(self):
        shape = (2, 2, 2, 2)
        gens = T.independence_ideal(
            shape, [T.parse_statement("1|rest:1"), T.parse_statement("2|rest:1")])
        layout, dd = T.double_det_generators(2, 2, 4, 2, 2)
        # page (k-1) + 2*(l-1) + 1 holds cell (i,j,k,l)
        off = {pt: i for i, pt in
               enumerate(product(*(range(1, a + 1) for a in shape)))}

        def rename(p):
            out = {}
            for mo, c in p.terms.items():
                key = []
                for v, e in mo:
                    i, j, page = layout.point_of[v]
                    k = (page - 1) % 2 + 1
                    ll = (page - 1) // 2 + 1
                    key.append((off[(i, j, k, ll)], e))
                out[tuple(sorted(key))] = c
            return Polynomial(out)

        dd_renamed = [rename(p) for _, p in dd]
        assert len(gens) == len(dd_renamed)
        for g in gens:
            assert any(g == h or g == poly_neg(h) for h in dd_renamed)
