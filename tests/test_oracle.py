"""sympy.groebner as an independent oracle for the direct check.

The reduced lex Groebner basis that sympy computes from the natural
generators must have the same leading monomials as our minimal initial
ideal generators, since the natural generators already form a basis.  On
independence ideals, which need not be bases, the two routes must reach
the same verdict.  Skipped when sympy is not installed."""

import pytest

from quivergb.groebner import buchberger_check, initial_ideal_gens
from quivergb.layout import default_order
from quivergb.poly import OrderSpec, poly_mul, poly_sub, poly_var
from quivergb.tensors import (
    double_det_generators, independence_ideal, parse_statement, tensor_var_order,
)

sympy = pytest.importorskip("sympy")


def sympy_leading_exponents(G, ord):
    """Leading exponent vectors, in rank order, of sympy's reduced lex basis of G."""
    gens = sympy.symbols(f"x0:{ord.nvars}")  # x0 is the variable of rank 0
    polys = [sympy.Poly.from_dict({ord.key(m): sympy.Rational(c.numerator, c.denominator)
                                   for m, c in g.terms.items()}, *gens, domain="QQ")
             for g in G]
    basis = sympy.groebner(polys, *gens, order="lex")
    return {p.monoms(order="lex")[0] for p in basis.polys}


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("shape, count", [
    ((2, 2, 2, 2, 2), 9), ((2, 3, 2, 2, 2), 24), ((3, 3, 2, 2, 2), 63),
])
def test_initial_ideal_matches_sympy(shape, count):
    layout, gens = double_det_generators(*shape)
    ord = default_order(layout)
    G = [p for _, p in gens]
    ours = {ord.key(m) for m in initial_ideal_gens(G, ord)}
    assert len(ours) == count
    assert sympy_leading_exponents(G, ord) == ours
    assert buchberger_check(G, ord).is_groebner


def test_non_basis_initial_ideal_is_strictly_smaller():
    ord = OrderSpec({0: 0, 1: 1, 2: 2, 3: 3})
    x, y, z, w = (poly_var(v) for v in range(4))
    G = [poly_sub(poly_mul(x, y), z), poly_sub(poly_mul(x, z), w)]
    ours = [ord.key(m) for m in initial_ideal_gens(G, ord)]
    theirs = sympy_leading_exponents(G, ord)
    assert len(theirs) > len(G)
    assert all(any(divides(t, o) for t in theirs) for o in ours)
    assert any(not any(divides(o, t) for o in ours) for t in theirs)
    report = buchberger_check(G, ord)
    assert "NOT A GROEBNER BASIS" in report.render()


@pytest.mark.parametrize("shape, statements, groebner", [
    ((2, 2, 2), "1_2", True), ((2, 2, 2), "1_3|2", True), ((2, 2, 2), "1|rest", True),
    ((2, 2, 2), "1_2,1_3|2", False), ((2, 2, 2), "1_2,1_3", False),
    ((2, 2, 3), "1_2|3,1_3", False), ((3, 3), "1_2", True),
])
def test_indep_verdict_matches_sympy(shape, statements, groebner):
    # the direct check calls an independence ideal's generators a basis
    # exactly when sympy's initial ideal equals the one they generate
    G = independence_ideal(list(shape), [parse_statement(s) for s in statements.split(",")])
    ord = tensor_var_order(shape)
    ours = {ord.key(m) for m in initial_ideal_gens(G, ord)}
    assert (sympy_leading_exponents(G, ord) == ours) == groebner
    assert buchberger_check(G, ord).is_groebner == groebner
