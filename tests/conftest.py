import pytest

from quivergb.layout import build_layout, default_order, parse_quiver


FOUR_VERTEX = ("vertices 4\n" + "arrow 1 3\n" * 3 + "arrow 1 4\n" * 2 +
               "arrow 2 3\n" + "arrow 2 4\n" * 2 + "m 2 2 2 2\nrank 1 1 1 1\n")


def make_instance(text):
    spec = parse_quiver(text)
    layout = build_layout(spec)
    return layout, default_order(layout)


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
