import re

import pytest

from quivergb.layout import (
    build_layout, default_order, entry_at, parse_order_file, parse_quiver,
    render_quiver, validate_consistent,
)
from quivergb.poly import InputError


GOOD = "vertices 3\narrow 1 3\narrow 2 3\nm 2 3 2\nrank 1 1 1\n"


class TestParsing:
    def test_roundtrip(self):
        spec = parse_quiver(GOOD)
        assert parse_quiver(render_quiver(spec)) == spec

    def test_comments_and_blanks(self):
        spec = parse_quiver("# header\nvertices 2\n\narrow 1 2  # the arrow\nm 2 2\nrank 1 1\n")
        assert spec.arrows == ((1, 2),)

    def test_rejects_non_bipartite(self):
        with pytest.raises(InputError, match="both source and sink"):
            parse_quiver("vertices 3\narrow 1 2\narrow 2 3\nm 1 1 1\nrank 0 0 0\n")

    def test_rejects_bad_lengths(self):
        with pytest.raises(InputError, match="length 2"):
            parse_quiver("vertices 2\narrow 1 2\nm 2\nrank 1 1\n")

    def test_line_numbers_in_errors(self):
        with pytest.raises(InputError, match="line 2: vertex index out of range"):
            parse_quiver("vertices 2\narrow 1 9\nm 2 2\nrank 1 1\n")

    @pytest.mark.parametrize("line", ["m 3 3", "rank 0 0", "order other.txt"])
    def test_rejects_duplicate_keyword(self, line):
        # arrow lines repeat; every other keyword appears once
        text = "vertices 2\narrow 1 2\narrow 1 2\nm 2 2\nrank 1 1\norder o.txt\n"
        with pytest.raises(InputError, match=f"line 7: duplicate {line.split()[0]} line"):
            parse_quiver(text + line + "\n")

    @pytest.mark.parametrize("line", ["vertices 2 7", "vertices", "arrow 1 2 9", "arrow 1",
                                      "order o.txt extra", "order"])
    def test_rejects_wrong_argument_count(self, line):
        # vertices and order take one argument, arrow takes two
        lines = ["vertices 2", "arrow 1 2", "m 2 2", "rank 1 1", "order o.txt"]
        lineno = next(n for n, known in enumerate(lines, start=1)
                      if known.split()[0] == line.split()[0])
        lines[lineno - 1] = line
        with pytest.raises(InputError, match=re.escape(f"line {lineno}: malformed: {line!r}")):
            parse_quiver("\n".join(lines) + "\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(InputError):
            parse_quiver("vertices 1\narrow 1 2\nm 2\nrank 1\n")


class TestLayout:
    def test_pages_and_shapes(self):
        layout = build_layout(parse_quiver(GOOD))
        assert layout.pages == [(2, 2), (2, 3)]
        assert layout.matrix_shape(3) == (2, 5)   # sink concatenation
        assert layout.matrix_shape(1) == (2, 2)
        assert layout.matrix_shape(2) == (2, 3)
        assert layout.roles == {1: "source", 2: "source", 3: "sink"}

    def test_concat_order_follows_arrow_index(self):
        layout = build_layout(parse_quiver(GOOD))
        row = layout.matrix(3)[0]
        assert [layout.point_of[v] for v in row] == \
            [(1, 1, 1), (1, 2, 1), (1, 1, 2), (1, 2, 2), (1, 3, 2)]

    def test_source_stack(self):
        layout = build_layout(parse_quiver(
            "vertices 2\narrow 1 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        col = [layout.matrix(1)[i][0] for i in range(4)]
        assert [layout.point_of[v] for v in col] == \
            [(1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2)]

    def test_entry_at_bounds(self):
        layout = build_layout(parse_quiver(GOOD))
        assert layout.point_of[entry_at(layout, 3, 2, 5)] == (2, 3, 2)
        with pytest.raises(InputError):
            entry_at(layout, 3, 3, 1)

    def test_isolated_vertex_has_no_matrix(self):
        layout = build_layout(parse_quiver("vertices 3\narrow 1 2\nm 2 2 2\nrank 1 1 1\n"))
        assert not layout.has_matrix(3)
        with pytest.raises(InputError):
            layout.matrix(3)


class TestOrders:
    def test_default_order_is_consistent(self):
        layout = build_layout(parse_quiver(GOOD))
        assert validate_consistent(default_order(layout), layout) == []

    def test_default_order_page_major(self):
        layout = build_layout(parse_quiver(GOOD))
        ord = default_order(layout)
        assert ord.rank_of(layout.var_of[(2, 2, 1)]) < ord.rank_of(layout.var_of[(1, 1, 2)])

    def test_order_file_roundtrip(self):
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        text = "\n".join(f"{layout.var_name(v)} {r}"
                         for r, v in enumerate(range(layout.nvars)))
        ord = parse_order_file(layout, text)
        assert ord.rank_of(0) == 0

    def test_order_file_must_cover_all(self):
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        with pytest.raises(InputError, match="every lattice variable"):
            parse_order_file(layout, "x[1,1,1] 0\n")

    @pytest.mark.parametrize("name", ["zz[1,1,1]", "x[1,2,1]junk", "x[01,1,1]", "x[1,1,2]",
                                      "x[1,1]"])
    def test_order_file_refuses_unknown_names(self, name):
        # a name must be one Layout.var_name writes, character for character
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        names = [name] + [layout.var_name(v) for v in range(1, layout.nvars)]
        text = "".join(f"{n} {r}\n" for r, n in enumerate(names))
        with pytest.raises(InputError, match=re.escape(f"line 1: unknown variable {name!r}")):
            parse_order_file(layout, text)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_order_file_refuses_a_repeated_variable(self, rank):
        # every variable ranked once, then x[1,1,1] again: with rank 0 the
        # ranks would still be a permutation
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        text = "".join(f"{layout.var_name(v)} {v}\n" for v in range(layout.nvars))
        with pytest.raises(InputError, match=re.escape(
                f"order file line {layout.nvars + 1}: duplicate variable 'x[1,1,1]'")):
            parse_order_file(layout, text + f"x[1,1,1] {rank}\n")

    def test_order_file_refuses_a_malformed_rank(self):
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        with pytest.raises(InputError, match="line 1: malformed"):
            parse_order_file(layout, "x[1,1,1] first\n")

    def test_inconsistent_order_reported_once_per_pair(self):
        layout = build_layout(parse_quiver("vertices 2\narrow 1 2\nm 2 2\nrank 1 1\n"))
        n = layout.nvars
        reversed_ord = parse_order_file(
            layout, "\n".join(f"{layout.var_name(v)} {n - 1 - v}" for v in range(n)))
        bad = validate_consistent(reversed_ord, layout)
        # 2x2 page in two matrices: 4 adjacent pairs, each reported once
        assert len(bad) == 4
