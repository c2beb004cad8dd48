import random

import pytest

from quivergb import spair
from quivergb.layout import build_layout, default_order, parse_quiver
from quivergb.minors import expand_minor
from quivergb.poly import leading_term, mono_lcm, s_polynomial


FOUR_VERTEX = ("vertices 4\n" + "arrow 1 3\n" * 3 + "arrow 1 4\n" * 2 +
               "arrow 2 3\n" + "arrow 2 4\n" * 2 + "m 2 2 2 2\nrank 1 1 1 1\n")
# 2-minors at vertex 1 and 3-minors at vertex 2: 65 natural generators
MIXED_SIZES = "vertices 2\narrow 1 2\narrow 1 2\nm 3 3\nrank 1 2\n"
# 2-minors at vertices 1 and 3, 3-minors at vertices 2 and 4: 122 generators
MIXED_RANKS = ("vertices 4\n" + "arrow 1 3\n" * 2 + "arrow 1 4\narrow 2 3\narrow 2 4\n"
               "m 2 3 3 3\nrank 1 2 1 2\n")


def make_instance(text):
    spec = parse_quiver(text)
    layout = build_layout(spec)
    return layout, default_order(layout)


def seeded_rank(layout, seed):
    """The ranks of a random consistent order drawn from seed, other than
    the default one: each rank goes to a variable whose upper and left
    neighbours in every vertex matrix are ranked already."""
    above = {v: set() for v in range(layout.nvars)}
    for grid in layout.matrices.values():
        for p, row in enumerate(grid):
            for q, v in enumerate(row):
                above[v].update(([grid[p - 1][q]] if p else []) + ([row[q - 1]] if q else []))
    rng, rank = random.Random(seed), {}
    while len(rank) < layout.nvars:
        ready = sorted(v for v in above if v not in rank and above[v] <= rank.keys())
        rank[rng.choice(ready)] = len(rank)
    assert rank != default_order(layout).rank
    return rank


def reference_step_verdict(layout, F, G, d, ord, field):
    """Whether d certifies the chain step (F, G), worked out on unpacked
    polynomials: d expands to S(F, G), every pseudominor has the natural
    minor size, and every term leads strictly below the lcm of the leading
    monomials of F and G."""
    f, g = expand_minor(layout, F, field), expand_minor(layout, G, field)
    if (d.M, d.N) != (F, G) or spair.expand_decomposition(layout, d, field) != s_polynomial(f, g, ord):
        return False
    key_l = ord.key(mono_lcm(leading_term(f, ord)[1], leading_term(g, ord)[1]))
    for t in d.row_terms + d.col_terms:
        if len(t.pm.rows) != layout.minor_size(t.pm.vertex):
            return False
        p = spair.expand_term(layout, t, field)
        if not p.is_zero() and not ord.key(leading_term(p, ord)[1]) < key_l:
            return False
    return True


@pytest.fixture(scope="session")
def single_3x3():
    """One 3x3 page shared by a source and a sink; 2-minors."""
    return make_instance("vertices 2\narrow 1 2\nm 3 3\nrank 1 1\n")


@pytest.fixture(scope="session")
def double_2x2():
    """Two parallel arrows, 2x2 pages; the concatenation is 2x4."""
    return make_instance("vertices 2\narrow 1 2\narrow 1 2\nm 2 2\nrank 1 1\n")


@pytest.fixture(scope="session")
def double_3x3():
    return make_instance("vertices 2\narrow 1 2\narrow 1 2\nm 3 3\nrank 1 1\n")
