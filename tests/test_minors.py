from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from quivergb.layout import build_layout, default_order, parse_order_file, parse_quiver
from quivergb.minors import (
    MinorRef, PseudoMinorRef, det_poly_matrix, enumerate_minors, expand_minor,
    expand_pseudominor, minor_leading_term, minor_points, natural_generators,
    parse_minor_spec, render_minor_spec,
)
from quivergb.poly import (
    QQ, DomainError, InputError, OrderSpec, Polynomial, PrimeField,
    leading_term, poly_var, render,
)

from conftest import FOUR_VERTEX, make_instance

DOUBLE_2X2 = "vertices 2\narrow 1 2\narrow 1 2\nm 2 2\nrank 1 1\n"


def leibniz(grid):
    """The determinant as the signed sum over permutations, term by term."""
    n = len(grid)
    total = Polynomial()
    for perm in permutations(range(n)):
        term = grid[0][perm[0]]
        for i in range(1, n):
            term = term * grid[i][perm[i]]
        odd = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2)) & 1
        total = total - term if odd else total + term
    return total


square_ids = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 5), min_size=n, max_size=n), min_size=n, max_size=n))


class TestRefs:
    def test_minor_validation(self):
        with pytest.raises(InputError):
            MinorRef(1, (2, 1), (1, 2))
        with pytest.raises(InputError):
            MinorRef(1, (1, 2), (1,))

    def test_pseudominor_validation(self):
        with pytest.raises(InputError):
            PseudoMinorRef(1, (1, 1), (1,))

    def test_refs_are_immutable_values(self):
        for cls in (MinorRef, PseudoMinorRef):
            ref = cls(2, (1, 3), (2, 4))
            assert hash(ref) == hash((2, (1, 3), (2, 4)))
            assert ref == cls(2, (1, 3), (2, 4))
            with pytest.raises(AttributeError):
                ref.rows = (1, 2)

    def test_pseudominor_has_the_minors_leading_monomial(self):
        layout, ord = make_instance(DOUBLE_2X2)
        assert (minor_leading_term(layout, PseudoMinorRef(2, (1, 2), (1, 2)), ord)
                == minor_leading_term(layout, MinorRef(2, (1, 2), (1, 2)), ord))

    def test_pseudominor_trivial(self):
        assert PseudoMinorRef(1, (1, 1), (1, 2)).trivial
        assert not PseudoMinorRef(1, (2, 1), (1, 2)).trivial

    def test_spec_roundtrip(self):
        ref = MinorRef(2, (1, 3), (2, 4))
        assert parse_minor_spec(render_minor_spec(ref)) == ref
        with pytest.raises(InputError):
            parse_minor_spec("2:1,2")


class TestExpansion:
    def test_leibniz_signs(self, single_3x3):
        layout, ord = single_3x3
        full = expand_minor(layout, MinorRef(2, (1, 2, 3), (1, 2, 3)))
        text = render(full, ord, layout.var_name)
        assert text == ("+x[1,1,1]*x[2,2,1]*x[3,3,1]-x[1,1,1]*x[2,3,1]*x[3,2,1]"
                        "-x[1,2,1]*x[2,1,1]*x[3,3,1]+x[1,2,1]*x[2,3,1]*x[3,1,1]"
                        "+x[1,3,1]*x[2,1,1]*x[3,2,1]-x[1,3,1]*x[2,2,1]*x[3,1,1]")

    def test_trivial_pseudominor_is_zero(self, single_3x3):
        layout, _ = single_3x3
        assert expand_pseudominor(layout, PseudoMinorRef(2, (1, 1), (1, 2))).is_zero()

    def test_row_swap_negates(self, single_3x3):
        layout, _ = single_3x3
        a = expand_pseudominor(layout, PseudoMinorRef(2, (1, 2), (1, 2)))
        b = expand_pseudominor(layout, PseudoMinorRef(2, (2, 1), (1, 2)))
        assert a == -b

    @settings(max_examples=150, deadline=None)
    @given(square_ids, st.sampled_from([QQ, PrimeField(7)]))
    def test_det_poly_matrix_is_the_leibniz_sum(self, ids, field):
        # repeated variables make coefficients other than +-1, and zeros mod 7
        grid = [[poly_var(v, field) for v in row] for row in ids]
        assert det_poly_matrix(grid) == leibniz(grid)

    def test_out_of_bounds(self, single_3x3):
        layout, _ = single_3x3
        with pytest.raises(InputError):
            expand_minor(layout, MinorRef(2, (1, 4), (1, 2)))

    def test_memo_keys_on_the_field_characteristic(self):
        layout, _ = make_instance(DOUBLE_2X2)
        ref = MinorRef(2, (1, 2), (1, 2))
        qq = expand_minor(layout, ref)
        gf = expand_minor(layout, ref, PrimeField(7))
        # ints over QQ, residues mod 7 over GF(7)
        assert all(type(c) is int for c in qq.terms.values())
        assert gf.char == 7 and all(type(c) is int and 1 <= c <= 6 for c in gf.terms.values())


class TestDeterminantFields:
    """Entries combine as poly_mul and poly_add combine them: two nonzero
    entries of different fields that meet are refused, and a zero of any
    field combines with everything."""

    @pytest.mark.parametrize("first, other", [(QQ, 7), (5, 7)], ids=["QQ-GF7", "GF5-GF7"])
    @pytest.mark.parametrize("cells", [[(1, 0)], [(0, 1), (1, 0)]],
                             ids=["in-a-product", "in-a-sum"])
    def test_nonzero_entries_of_two_fields_are_refused(self, first, other, cells):
        # other's field at (1, 0) alone meets first's in the product of
        # (0, 1) and (1, 0); at both cells, each product keeps one field and
        # only their sum mixes them
        grid = [[poly_var(2 * i + j, first) for j in range(2)] for i in range(2)]
        for i, j in cells:
            grid[i][j] = poly_var(8 + 2 * i + j, PrimeField(other))
        with pytest.raises(DomainError, match="mixed prime fields"):
            det_poly_matrix(grid)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_a_zero_of_another_field_combines(self, where):
        grid = [[poly_var(2 * i + j) for j in range(2)] for i in range(2)]
        grid[where[0]][where[1]] = Polynomial(char=PrimeField(7))
        det = det_poly_matrix(grid)
        assert det == leibniz(grid) and not det.is_zero() and det.char == QQ


class TestLeadingTerm:
    def test_diagonal_fast_path(self, double_2x2):
        four = make_instance(FOUR_VERTEX)
        cases = [(double_2x2, enumerate_minors(double_2x2[0], 2, 2)),
                 (four, [ref for ref, _ in natural_generators(four[0])])]
        for (layout, ord), refs in cases:
            for field in (QQ, PrimeField(7)):
                for ref in refs:
                    fast = minor_leading_term(layout, ref, ord)
                    slow = leading_term(expand_minor(layout, ref, field), ord)
                    assert slow == (1, fast)

    def test_inconsistent_order_refused(self, double_2x2):
        layout, _ = double_2x2
        n = layout.nvars
        rev = parse_order_file(
            layout, "\n".join(f"{layout.var_name(v)} {n - 1 - v}" for v in range(n)))
        with pytest.raises(DomainError, match="consistent"):
            minor_leading_term(layout, MinorRef(2, (1, 2), (1, 2)), rev)

    def test_filled_memo_does_not_vouch_for_an_inconsistent_order(self):
        layout, ord = make_instance(DOUBLE_2X2)
        refs = enumerate_minors(layout, 2, 2)
        for ref in refs:
            minor_leading_term(layout, ref, ord)
        n = layout.nvars
        rev = OrderSpec({v: n - 1 - v for v in range(n)})
        for ref in refs:
            with pytest.raises(DomainError, match="consistent"):
                minor_leading_term(layout, ref, rev)

    def test_fresh_inconsistent_order_refused_after_a_dropped_one(self, double_2x2):
        # a validated order that is freed must not vouch for a new order,
        # even when the new one reuses its memory
        layout, _ = double_2x2
        n = layout.nvars
        ref = MinorRef(2, (1, 2), (1, 2))
        for _ in range(20):
            minor_leading_term(layout, ref, default_order(layout))
            rev = OrderSpec({v: n - 1 - v for v in range(n)})
            with pytest.raises(DomainError, match="consistent"):
                minor_leading_term(layout, ref, rev)
            del rev


class TestGenerators:
    def test_counts(self):
        # single page shared by both vertices: everything dedups
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 3 3\nrank 1 1\n"))
        assert len(natural_generators(layout)) == 9

    def test_double_arrow_dedup(self, double_2x2):
        layout, _ = double_2x2
        gens = natural_generators(layout)
        assert len(gens) == 10  # 6 + 6 - 2 shared single-page minors
        keys = [minor_points(layout, ref) for ref, _ in gens]
        assert len(set(keys)) == len(keys)

    def test_oversized_minor_set_empty(self):
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 2 2\n"))
        assert natural_generators(layout) == []

    def test_enumeration_is_lex(self, single_3x3):
        layout, _ = single_3x3
        refs = enumerate_minors(layout, 2, 2)
        assert refs[0] == MinorRef(2, (1, 2), (1, 2))
        assert refs[-1] == MinorRef(2, (2, 3), (2, 3))
        assert len(refs) == 9
