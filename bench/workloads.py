"""The benchmark's workloads and the answers every invocation must give.

Verdict lines and generator and pair counts come from theory (the counting
formulas below), not from the code under test.  The stdout digests were
recorded from the CLI at the commit that introduced the benchmark; the CLI's
contract is byte-identical output, so any change to them is a failure.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from math import comb


class BenchmarkDefect(RuntimeError):
    """The benchmark itself is wrong (not the program under test)."""


@dataclass(frozen=True)
class Quiver:
    arrows: tuple  # (source, target) pairs, 1-based
    m: tuple       # dimension vector
    rank: tuple    # rank bounds; each vertex contributes (rank+1)-minors

    def text(self, order_file=None):
        lines = [f"vertices {len(self.m)}"]
        lines += [f"arrow {s} {t}" for s, t in self.arrows]
        lines.append("m " + " ".join(map(str, self.m)))
        lines.append("rank " + " ".join(map(str, self.rank)))
        if order_file:
            lines.append(f"order {order_file}")
        return "\n".join(lines) + "\n"


def pencil(m, n, r, u, v):
    """The quiver behind ``double --m m --n n --r r --u u --v v``."""
    return Quiver(((1, 2),) * r, (n, m), (v - 1, u - 1))


def natural_generator_count(q):
    """Distinct (rank+1)-minors over all vertex matrices.

    Minors of different matrices cover different point sets, except a minor
    lying inside one page: it is a minor of both the page's source and sink
    matrix when their minor sizes agree, and is counted once.
    """
    size = [r + 1 for r in q.rank]
    total = 0
    for g in range(1, len(q.m) + 1):
        k = size[g - 1]
        sink_cols = sum(q.m[s - 1] for s, t in q.arrows if t == g)
        source_rows = sum(q.m[t - 1] for s, t in q.arrows if s == g)
        if sink_cols:
            total += comb(q.m[g - 1], k) * comb(sink_cols, k)
        elif source_rows:
            total += comb(source_rows, k) * comb(q.m[g - 1], k)
    for s, t in q.arrows:
        if size[s - 1] == size[t - 1]:
            k = size[s - 1]
            total -= comb(q.m[t - 1], k) * comb(q.m[s - 1], k)
    return total


# ---------------------------------------------------------------------------
# expected outputs: each returns a list of problems found in the stdout lines

_PAIRS_LINE = re.compile(
    r"pairs: (\d+)  coprime-skipped: (\d+)  reduced-to-zero: (\d+)  failures: 0$")


def expect_check(q):
    """Buchberger check of a Groebner basis (a theorem for every quiver)."""
    pairs = comb(natural_generator_count(q), 2)

    def problems(lines):
        if len(lines) != 2:
            return [f"expected 2 lines, got {len(lines)}"]
        found = _PAIRS_LINE.match(lines[0])
        if not found:
            return [f"bad pairs line {lines[0]!r}"]
        total, skipped, zero = map(int, found.groups())
        out = []
        if total != pairs:
            out.append(f"pairs {total}, theory says {pairs}")
        if skipped + zero != total:
            out.append(f"skipped {skipped} + reduced {zero} != pairs {total}")
        if lines[1] != "verdict: GROEBNER":
            out.append(f"bad verdict line {lines[1]!r}")
        return out
    return problems


def expect_certify(q):
    """A certificate for every pair, listed in pair-index order."""
    gens = natural_generator_count(q)
    pairs = [(i, j) for i in range(gens) for j in range(i + 1, gens)]

    def problems(lines):
        if len(lines) != len(pairs) + 1:
            return [f"expected {len(pairs) + 1} lines, got {len(lines)}"]
        out = []
        for (i, j), line in zip(pairs, lines):
            if not re.fullmatch(rf"pair {i} {j} chain \d+ verified true", line):
                out.append(f"bad pair line {line!r}")
                break
        if lines[-1] != f"certified: {len(pairs)}/{len(pairs)}":
            out.append(f"bad summary line {lines[-1]!r}")
        return out
    return problems


def indep_generator_count(shape, statements):
    """2-minors of each statement's matrices; for the statements used here
    the minors are distinct nonzero polynomials, so none is deduplicated."""
    total = 1
    for a in shape:
        total *= a
    count = 0
    for kind, axes in statements:
        if kind == "marginal":
            a, b = axes
            count += comb(shape[a - 1], 2) * comb(shape[b - 1], 2)
        elif kind == "saturated":
            (a,) = axes
            count += comb(shape[a - 1], 2) * comb(total // shape[a - 1], 2)
        else:  # conditional a_b|c
            a, b, c = axes
            count += shape[c - 1] * comb(shape[a - 1], 2) * comb(shape[b - 1], 2)
    return count


def expect_indep(count):
    def problems(lines):
        if len(lines) != count + 1:
            return [f"expected {count + 1} lines, got {len(lines)}"]
        if lines[-1] != f"generators {count}":
            return [f"bad summary line {lines[-1]!r}"]
        return []
    return problems


def triple_eq_lines(m, n, r, u, v, w):
    """Equality holds exactly when (u-1)(v-1) <= w-1.  The equal case reduces
    every w-minor of the r x mn third flattening; the witness tensor has
    flattening ranks u-1, v-1 and min((u-1)(v-1), r)."""
    if (u - 1) * (v - 1) <= w - 1:
        extra = comb(r, w) * comb(m * n, w)
        return ["predicted equal", f"reduced {extra}/{extra}", "verified true"]
    ranks = (u - 1, v - 1, min((u - 1) * (v - 1), r))
    return ["predicted different", "witness ranks " + " ".join(map(str, ranks)),
            "verified true"]


def expect_lines(expected):
    def problems(lines):
        return [] if lines == expected else [f"expected {expected!r}, got {lines!r}"]
    return problems


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Invocation:
    argv: tuple      # "{quiver}" stands for the generated quiver file
    expect: object   # stdout lines -> list of problems
    digest: str      # sha256 of stdout


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    # Set-up steps the setup child times (see child.py): what each verb
    # builds before its main loop.
    setup: tuple
    # Written to a quiver file, with an order file drawn from the seed.
    quiver: Quiver | None = None


def failures(inv, code, stdout):
    """Every way one invocation's result differs from the expected answer."""
    out = [] if code == 0 else [f"exit code {code}"]
    try:
        lines = stdout.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return out + ["stdout is not UTF-8"]
    out += inv.expect(lines)
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != inv.digest:
        out.append(f"stdout digest {digest[:16]}... differs from the recorded one")
    return out


def _double(m, n, r, u, v, verb):
    return ("double", "--m", str(m), "--n", str(n), "--r", str(r),
            "--u", str(u), "--v", str(v), verb)


def _triple(m, n, r, u, v, w):
    return ("triple-eq",) + tuple(
        x for flag, val in zip("mnruvw", (m, n, r, u, v, w)) for x in (f"--{flag}", str(val)))


FOUR_VERTEX_ARROWS = ((1, 3),) * 3 + ((1, 4),) * 2 + ((2, 3),) + ((2, 4),) * 2
QUIVER4 = Quiver(FOUR_VERTEX_ARROWS, (2, 2, 2, 3), (1, 1, 1, 1))
QUIVER4_SMALL = Quiver(FOUR_VERTEX_ARROWS, (2, 2, 2, 2), (1, 1, 1, 1))
INDEP_SHAPE = (3, 3, 3, 3)
INDEP_STATEMENTS = (("marginal", (1, 2)), ("saturated", (1,)), ("conditional", (1, 3, 2)))
TRIPLE_EQUAL = (3, 3, 2, 2, 2, 2)
TRIPLE_WITNESS = (4, 4, 6, 3, 3, 3)


def _tensor_invocations(shape, statements, spec, triples, digests):
    """One ``indep`` invocation, then one ``triple-eq`` per (m, n, r, u, v, w)."""
    argvs = [("indep", "--shape", ",".join(map(str, shape)), "--statements", spec)]
    argvs += [_triple(*t) for t in triples]
    expects = [expect_indep(indep_generator_count(shape, statements))]
    expects += [expect_lines(triple_eq_lines(*t)) for t in triples]
    return tuple(map(Invocation, argvs, expects, digests))


WORKLOADS = {
    # The ladder rung (3,3,3,2,2): serial direct check over QQ, default
    # order.  Time goes to division (poly.reduce), so any change to reduce
    # shows here; threads, GF(p) and order files are bypassed.
    "check-pencil": Workload(
        (Invocation(_double(3, 3, 3, 2, 2, "check"),
                    expect_check(pencil(3, 3, 3, 2, 2)),
                    "6d5ff9b10ec30ff61e8b920e3805a443f4d737a52d9e9d54f903b120b01da812"),),
        setup=(("double", (3, 3, 3, 2, 2), 0),)),
    # The four-vertex quiver over GF(32003) with two threads and a seeded
    # consistent order file: multi-vertex layout, prime-field coefficients,
    # the thread pool, and order-file parsing.  Most pairs are coprime, so
    # leading terms dominate.  Leading terms are diagonals under every
    # consistent order, so the output does not depend on the seed.
    "check-quiver4": Workload(
        (Invocation(("check", "--quiver", "{quiver}", "--field", "32003", "--threads", "2"),
                    expect_check(QUIVER4),
                    "a9a28cb1b0a778a4e18a40664469f14b1c720b35d05cf9f5c5127f7d4bd49418"),),
        setup=(("quiver", 32003),), quiver=QUIVER4),
    # Chain certificates for every pair of the (3,3,2,2,2) pencil: spair and
    # minors (determinant expansion, leading terms), never poly.reduce.
    "certify-pencil": Workload(
        (Invocation(_double(3, 3, 2, 2, 2, "certify"),
                    expect_certify(pencil(3, 3, 2, 2, 2)),
                    "e761fbe1fd6d76520afdbb309f62bfbe6d7a6149089f8dd4d3b66340d9c28d58"),),
        setup=(("double", (3, 3, 2, 2, 2), 0),)),
    # The tensors layer: an independence ideal (quadratic deduplication),
    # an equal triple-eq case (check plus ideal membership) and a witness
    # case (exact matrix rank).
    "tensor-ideals": Workload(
        _tensor_invocations(INDEP_SHAPE, INDEP_STATEMENTS, "1_2,1|rest,1_3|2",
                            (TRIPLE_EQUAL, TRIPLE_WITNESS),
                            ("e8b4ecc78cbcb4885a1a1a9319f21b58aa6f57e8248ba9402943bc6cae1883fa",
                             "dbabd4ea4853eefeef3b5fd39ca8efdfaabf35c3c95dd0ead0658a4a1871c7f2",
                             "722fef0c479eaef64e478014463007d343085eec06f15d4b4698c5dd482742ec")),
        setup=(("symbolic", INDEP_SHAPE), ("double_gens", TRIPLE_EQUAL[:5]))),
    # Tiny instances of every verb above, for the benchmark's own smoke test;
    # not listed in BENCHMARK.json.
    "smoke": Workload(
        (Invocation(_double(2, 2, 2, 2, 2, "check"),
                    expect_check(pencil(2, 2, 2, 2, 2)),
                    "00b7fff7152f59919c3088ac5b45e81586b68c0b5fa4cbb9a7a87c9fe313c452"),
         Invocation(_double(2, 2, 2, 2, 2, "certify"),
                    expect_certify(pencil(2, 2, 2, 2, 2)),
                    "9b3ee26912103597a418f9dbde9a6e55f4c6655c1f7bf3adb779fe5de8ad0ad4"),
         Invocation(("check", "--quiver", "{quiver}", "--field", "32003", "--threads", "2"),
                    expect_check(QUIVER4_SMALL),
                    "39f08e0c7835ad7c8338b374126acb2cf0b7cefa7cd0065f6364c147d8052ed4"))
        + _tensor_invocations((2, 2), (("marginal", (1, 2)),), "1_2",
                              ((2, 2, 2, 2, 2, 2), (2, 3, 2, 2, 3, 2)),
                              ("161fedee32d98c19a129bc7f6cd45fbbe3786d6c6dc941763622026eb1921eb1",
                               "5a8cd605e926383cfc58385c5d36ab47d83ad2635b0f7ecb559b1c71c32f7266",
                               "b00f5f4b650020f4705dd10e32d280aa04c4efdeea4b716d85107f24fd30e6ae")),
        setup=(("double", (2, 2, 2, 2, 2), 0), ("quiver", 32003),
               ("symbolic", (2, 2)), ("double_gens", (2, 2, 2, 2, 2))),
        quiver=QUIVER4_SMALL),
}


# ---------------------------------------------------------------------------
# seeded consistent orders

def consistent_order(layout, rng):
    """A random linear extension of the NW-SE adjacency poset: in every
    vertex matrix each variable ranks above (smaller rank) its right and
    lower neighbours.  Returns {VarId: rank}."""
    below = {v: set() for v in range(layout.nvars)}
    for grid in layout.matrices.values():
        for p, row in enumerate(grid):
            for q, v in enumerate(row):
                if q + 1 < len(row):
                    below[v].add(row[q + 1])
                if p + 1 < len(grid):
                    below[v].add(grid[p + 1][q])
    above = {v: 0 for v in below}
    for ws in below.values():
        for w in ws:
            above[w] += 1
    ready = [v for v in sorted(above) if above[v] == 0]
    rank = {}
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        rank[v] = len(rank)
        for w in sorted(below[v]):
            above[w] -= 1
            if above[w] == 0:
                ready.append(w)
    return rank


def write_quiver_files(q, seed, directory):
    """Write ``quiver.q`` and its seeded ``order.txt``; return the quiver path.

    Every generated order is checked with the program's own
    ``validate_consistent``; an invalid one is a benchmark defect."""
    from quivergb.layout import (build_layout, parse_order_file, parse_quiver,
                                 validate_consistent)
    layout = build_layout(parse_quiver(q.text()))
    rank = consistent_order(layout, random.Random(seed))
    text = "".join(f"{layout.var_name(v)} {r}\n" for v, r in sorted(rank.items()))
    bad = validate_consistent(parse_order_file(layout, text), layout)
    if len(rank) != layout.nvars or bad:
        raise BenchmarkDefect(f"generated order for seed {seed} is not consistent: {bad[:3]}")
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "order.txt").write_text(text)
    path = directory / "quiver.q"
    path.write_text(q.text("order.txt"))
    return path
