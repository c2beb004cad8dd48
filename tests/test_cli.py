import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import quivergb
from quivergb import cli, minors, spair, tensors
from quivergb.cli import main
from quivergb.groebner import CheckReport
from quivergb.layout import build_layout, default_order, parse_quiver
from quivergb.poly import DomainError, InputError, poly_var

from conftest import FOUR_VERTEX, MIXED_RANKS, MIXED_SIZES, seeded_rank


KEY_Q = "vertices 2\narrow 1 2\nm 3 3\nrank 1 1\n"
PAGE_2X3 = "vertices 2\narrow 1 2\nm 3 2\nrank 1 1\n"
PENCIL_33222 = ["double", "--m", "3", "--n", "3", "--r", "2", "--u", "2", "--v", "2"]
PENCIL_22222 = ["double", "--m", "2", "--n", "2", "--r", "2", "--u", "2", "--v", "2"]
# the quiver behind PENCIL_33222
PENCIL_33222_TEXT = "vertices 2\narrow 1 2\narrow 1 2\nm 3 3\nrank 1 1\n"
NO_MINORS = ["double", "--m", "3", "--n", "3", "--r", "2", "--u", "9", "--v", "9"]
TEX = "shape 2 2 2\n0 4 2 6 1 5 3 7\n"


@pytest.fixture()
def quiver_file(tmp_path):
    p = tmp_path / "key.q"
    p.write_text(KEY_Q)
    return str(p)


def order_quiver(tmp_path, reverse):
    """KEY_Q with an order file: the page-major default order, or its reverse."""
    names = [f"x[{i},{j},1]" for i in range(1, 4) for j in range(1, 4)]
    ranks = range(8, -1, -1) if reverse else range(9)
    (tmp_path / "order.txt").write_text(
        "".join(f"{n} {r}\n" for n, r in zip(names, ranks)))
    p = tmp_path / "ordered.q"
    p.write_text(KEY_Q + "order order.txt\n")
    return str(p)


@pytest.fixture()
def tensor_file(tmp_path):
    p = tmp_path / "tex.t"
    p.write_text(TEX)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGens:
    def test_stdout(self, capsys, quiver_file):
        code, out, _ = run(capsys, "gens", "--quiver", quiver_file)
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 9
        assert lines[0] == "1:1,2;1,2 +x[1,1,1]*x[2,2,1]-x[1,2,1]*x[2,1,1]"

    def test_out_file(self, capsys, quiver_file, tmp_path):
        dest = tmp_path / "gens.txt"
        code, out, _ = run(capsys, "gens", "--quiver", quiver_file,
                           "--out", str(dest))
        assert code == 0 and out == ""
        assert len(dest.read_text().strip().splitlines()) == 9

    @pytest.mark.parametrize("argv", [
        ["gens", "--quiver", None],
        ["double", "--m", "2", "--n", "2", "--r", "2", "--u", "2", "--v", "2", "gens"],
    ], ids=["quiver", "double"])
    def test_unwritable_out_file(self, capsys, quiver_file, tmp_path, argv):
        dest = tmp_path / "missing" / "gens.txt"
        argv = [quiver_file if a is None else a for a in argv]
        code, out, err = run(capsys, *argv, "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output file: ") and "Traceback" not in err
        assert not dest.parent.exists()

    def test_no_generators_writes_nothing(self, capsys, tmp_path):
        assert run(capsys, *NO_MINORS, "gens") == (0, "", "")
        dest = tmp_path / "gens.txt"
        assert run(capsys, *NO_MINORS, "gens", "--out", str(dest)) == (0, "", "")
        assert dest.read_text() == ""

    def test_duplicate_m_line_refused(self, capsys, tmp_path):
        q = tmp_path / "twice.q"
        q.write_text("vertices 2\narrow 1 2\nm 2 2\nm 3 3\nrank 1 1\n")
        code, out, err = run(capsys, "gens", "--quiver", str(q))
        assert code == 2 and out == ""
        assert "line 4: duplicate m line" in err

    def test_extra_token_refused(self, capsys, tmp_path):
        q = tmp_path / "extra.q"
        q.write_text("vertices 2 7\narrow 1 2\nm 2 2\nrank 1 1\n")
        code, out, err = run(capsys, "gens", "--quiver", str(q))
        assert code == 2 and out == ""
        assert "line 1: malformed: 'vertices 2 7'" in err


class TestCheck:
    def test_pass(self, capsys, quiver_file):
        code, out, _ = run(capsys, "check", "--quiver", quiver_file)
        assert code == 0 and "verdict: GROEBNER" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--quiver", "missing.q")
        assert code == 2 and "error:" in err

    def test_threads_identical_output(self, capsys, quiver_file):
        _, out1, _ = run(capsys, "check", "--quiver", quiver_file, "--threads", "1")
        _, out4, _ = run(capsys, "check", "--quiver", quiver_file, "--threads", "4")
        assert out1 == out4

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_refused(self, capsys, quiver_file, threads):
        code, out, err = run(capsys, "check", "--quiver", quiver_file, f"--threads={threads}")
        assert code == 2 and out == "" and "not a positive integer" in err

    @pytest.mark.parametrize("name", ["zz[1,1,1]", "x[1,2,1]junk"])
    def test_unknown_order_file_name_refused(self, capsys, tmp_path, name):
        q = order_quiver(tmp_path, False)
        order = tmp_path / "order.txt"
        order.write_text(order.read_text().replace("x[1,1,1]", name, 1))
        code, out, err = run(capsys, "check", "--quiver", q)
        assert code == 2 and out == "" and f"unknown variable {name!r}" in err

    def test_repeated_order_file_line_refused(self, capsys, tmp_path):
        q = order_quiver(tmp_path, False)
        order = tmp_path / "order.txt"
        order.write_text(order.read_text() + "x[1,1,1] 0\n")
        code, out, err = run(capsys, "check", "--quiver", q)
        assert code == 2 and out == ""
        assert "order file line 10: duplicate variable 'x[1,1,1]'" in err

    @pytest.mark.parametrize("verb", ["check", "gens", "init-ideal"])
    def test_reversed_order_file_refused(self, capsys, tmp_path, verb):
        code, out, err = run(capsys, verb, "--quiver", order_quiver(tmp_path, True))
        assert code == 2 and out == "" and "not consistent" in err

    def test_consistent_order_file_accepted(self, capsys, tmp_path, quiver_file):
        code, out, _ = run(capsys, "check", "--quiver", order_quiver(tmp_path, False))
        assert code == 0 and out == run(capsys, "check", "--quiver", quiver_file)[1]

    def test_no_coprime_skip(self, capsys, quiver_file):
        code, out, _ = run(capsys, "check", "--quiver", quiver_file,
                           "--no-coprime-skip")
        assert code == 0 and "coprime-skipped: 0" in out


class TestDouble:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "double", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "2", "--v", "2", "check")
        assert code == 0
        assert "pairs: 45" in out and "failures: 0" in out

    def test_gens_count(self, capsys):
        code, out, _ = run(capsys, "double", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "2", "--v", "2", "gens")
        assert code == 0 and len(out.strip().splitlines()) == 10

    def test_gf_field(self, capsys):
        code, out, _ = run(capsys, "double", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "2", "--v", "2", "check", "--field", "7")
        assert code == 0 and "verdict: GROEBNER" in out

    def test_bad_field(self, capsys):
        for p, message in [
            ("6", "not prime"),
            ("4214809", "not prime"),  # 2053**2: no prime factor below 2048
            ("3215031751", "not prime"),  # strong pseudoprime to bases 2, 3, 5, 7
            ("318665857834031151167461", "too large"),  # fools all twelve bases
        ]:
            code, _, err = run(capsys, "double", "--m", "2", "--n", "2", "--r", "2",
                               "--u", "2", "--v", "2", "check", "--field", p)
            assert code == 2 and message in err, p

    def test_gf_residues_print_bare(self, capsys):
        code, out, _ = run(capsys, "double", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "2", "--v", "2", "gens", "--field", "7")
        assert code == 0 and "mod" not in out
        assert out.splitlines()[0] == "1:1,2;1,2 +x[1,1,1]*x[2,2,1]+6*x[1,2,1]*x[2,1,1]"

    def test_check_flags_follow_the_verb(self, capsys):
        code, out, _ = run(capsys, *PENCIL_22222, "check", "--field", "7", "--threads", "2",
                           "--no-coprime-skip", "--fail-fast")
        assert code == 0
        assert out == ("pairs: 45  coprime-skipped: 0  reduced-to-zero: 45  failures: 0\n"
                       "verdict: GROEBNER\n")

    @pytest.mark.parametrize("argv", [
        ["gens", "--pairs", "1,2"],
        ["check", "--out", "F"],
        ["certify", "--threads", "3"],
        ["init-ideal", "--fail-fast"],
        ["--field", "7", "check"],
        ["spair", "--m1", "1:1,2;1,2", "--m2", "1:1,2;1,3"],
    ], ids=["gens-pairs", "check-out", "certify-threads", "init-ideal-fail-fast",
            "field-before-verb", "spair"])
    def test_flag_of_another_verb_refused(self, capsys, argv):
        code, out, _ = run(capsys, *PENCIL_22222, *argv)
        assert code == 2 and out == ""

    def test_cross_vertex_certificate_golden(self, capsys):
        # pins the step bodies, which the certify summary lines do not show
        code, out, _ = run(capsys, "double", "--m", "3", "--n", "3", "--r", "2",
                           "--u", "2", "--v", "2", "certify", "--pairs", "1,66")
        assert code == 0
        assert out == (
            "pair 1 66 chain 4 verified true\n"
            "chain 1:1,2;1,3 1:1,2;1,2 2:1,2;1,2 2:2,3;2,4\n"
            "step 0: rows: (empty) ; cols: [- x[2,1,1] pm 1:1,2;2,3]\n"
            "step 1: rows: (empty) ; cols: (empty)\n"
            "step 2: rows: [- x[2,1,1] pm 2:1,3;2,4] ; cols: [- x[3,2,1] pm 2:1,2;1,4]\n"
            "certified: 1/1\n")


class TestSpair:
    def test_key_example(self, capsys, quiver_file):
        code, out, _ = run(capsys, "spair", "--quiver", quiver_file,
                           "--m1", "2:2,3;1,3", "--m2", "2:1,3;2,3",
                           "--decompose")
        assert code == 0
        assert "S -x[1,2,1]*x[2,3,1]*x[3,1,1]+x[1,3,1]*x[2,1,1]*x[3,2,1]" in out
        assert "rows: [- x[3,1,1] pm 2:1,2;2,3]" in out
        assert "cols: [- x[1,3,1] pm 2:2,3;1,2]" in out
        assert "identity true small-lts true" in out

    def test_gf2_coprime_decomposition_golden(self, capsys, tmp_path):
        # the two minors share no page; over GF(2), -1 == +1, so both signs are +
        q = tmp_path / "four.q"
        q.write_text(FOUR_VERTEX)
        code, out, _ = run(capsys, "spair", "--quiver", str(q), "--field", "2",
                           "--m1", "3:1,2;1,2", "--m2", "4:1,2;1,2", "--decompose")
        assert code == 0
        assert out == (
            "S +x[1,1,1]*x[2,2,1]*x[1,2,4]*x[2,1,4]+x[1,2,1]*x[2,1,1]*x[1,1,4]*x[2,2,4]\n"
            "rows: [+ x[1,2,1]*x[2,1,1] pm 4:1,2;1,2]\n"
            "cols: [+ x[1,2,4]*x[2,1,4] pm 3:1,2;1,2]\n"
            "identity true small-lts true\n")

    def test_without_decompose_prints_only_s(self, capsys, quiver_file):
        assert run(capsys, "spair", "--quiver", quiver_file,
                   "--m1", "2:2,3;1,3", "--m2", "2:1,3;2,3") == (
            0, "S -x[1,2,1]*x[2,3,1]*x[3,1,1]+x[1,3,1]*x[2,1,1]*x[3,2,1]\n", "")

    def test_bad_minor_spec(self, capsys, quiver_file):
        code, _, err = run(capsys, "spair", "--quiver", quiver_file,
                           "--m1", "nope", "--m2", "2:1,2;1,2")
        assert code == 2 and "bad minor spec" in err


class TestCertify:
    def test_all_pairs(self, capsys, quiver_file):
        code, out, _ = run(capsys, "certify", "--quiver", quiver_file)
        assert code == 0 and "certified: 36/36" in out

    def test_single_pair_prints_certificate(self, capsys, quiver_file):
        code, out, _ = run(capsys, "certify", "--quiver", quiver_file,
                           "--pairs", "0,5")
        assert code == 0 and "chain " in out and "step 0:" in out

    def test_only_pairs_prints_a_certificate_body(self, capsys, tmp_path):
        # two generators make one pair, which all pairs prints without a body
        q = tmp_path / "two.q"
        q.write_text("vertices 4\narrow 1 2\narrow 3 4\nm 2 2 2 2\nrank 1 1 1 1\n")
        line = "pair 0 1 chain 2 verified true\n"
        assert run(capsys, "certify", "--quiver", str(q)) == (0, line + "certified: 1/1\n", "")
        assert run(capsys, "certify", "--quiver", str(q), "--pairs", "0,1") == (0, (
            line + "chain 1:1,2;1,2 3:1,2;1,2\n"
            "step 0: rows: [- x[1,2,1]*x[2,1,1] pm 3:1,2;1,2] ; "
            "cols: [- x[1,2,2]*x[2,1,2] pm 1:1,2;1,2]\n"
            "certified: 1/1\n"), "")

    def test_transplant_certificate_golden(self, capsys, tmp_path):
        q = tmp_path / "page5.q"
        q.write_text("vertices 2\narrow 1 2\nm 5 5\nrank 2 2\n")
        assert run(capsys, "certify", "--quiver", str(q), "--pairs", "57,75") == (0, (
            "pair 57 75 chain 3 verified true\n"
            "chain 1:1,4,5;2,3,5 1:2,4,5;1,3,5 1:2,3,5;1,4,5\n"
            "step 0: rows: [- x[1,3,1] pm 1:2,4,5;1,2,5] [+ x[1,5,1] pm 1:2,4,5;1,2,3] ; "
            "cols: [- x[4,1,1] pm 1:1,2,5;2,3,5] [+ x[5,1,1] pm 1:1,2,4;2,3,5]\n"
            "step 1: rows: [- x[5,3,1] pm 1:2,3,4;1,4,5] [- x[2,3,1] pm 1:4,3,5;1,4,5] ; "
            "cols: [- x[3,5,1] pm 1:2,4,5;1,3,4] [- x[3,1,1] pm 1:2,4,5;4,3,5]\n"
            "certified: 1/1\n"), "")

    def test_bad_pair(self, capsys, quiver_file):
        code, _, err = run(capsys, "certify", "--quiver", quiver_file,
                           "--pairs", "0,99")
        assert code == 2

    def test_same_generator_twice_refused(self, capsys, quiver_file):
        # (i, i) is not an S-pair, so there is nothing to certify
        code, out, err = run(capsys, "certify", "--quiver", quiver_file,
                             "--pairs", "3,3")
        assert code == 2 and out == ""
        assert "a pair needs two different generators" in err

    def test_each_ref_expanded_once(self, capsys, tmp_path, monkeypatch):
        # listing the generators, the coprime syzygies and verification all
        # read the one packed expansion per ref that the certifier keeps;
        # only this process is counted, so one CPU keeps every pair out of
        # forked workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        expanded = Counter()
        det = minors._det

        def counting(layout, ref, field):
            expanded[ref.vertex, ref.rows, ref.cols] += 1
            return det(layout, ref, field)
        monkeypatch.setattr(minors, "_det", counting)
        q = tmp_path / "four.q"
        q.write_text(FOUR_VERTEX)
        code, out, _ = run(capsys, "certify", "--quiver", str(q))
        assert code == 0 and out.endswith("certified: 5778/5778\n")
        assert len(expanded) >= 108
        assert max(expanded.values()) == 1


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(n) makes the CLI see n CPUs and returns the list that collects
    the pid of every worker it forks from then on."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)

    def see(n):
        forked.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forked
    return see


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_on(monkeypatch, raising):
    """Make Certifier.certify raise each exception of the dict raising on
    its pair (i, j) of the (2,2,2,2,2) pencil, in whichever process
    certifies it; a value may also be a function that returns the exception
    when called there.  certify runs only on the first pair of each pattern
    class, so each pair must be one."""
    refs = minors.natural_refs(build_layout(tensors.double_det_spec(2, 2, 2, 2, 2)))
    bad = {(refs[i], refs[j]): exc for (i, j), exc in raising.items()}
    certify = spair.Certifier.certify

    def failing(self, M, N):
        if (M, N) in bad:
            exc = bad[M, N]
            raise exc if isinstance(exc, BaseException) else exc()
        return certify(self, M, N)
    monkeypatch.setattr(spair.Certifier, "certify", failing)


def workers(cpus, classes):
    """How many workers certify forks: one per CPU, never more than there
    are classes, and none where that is one."""
    n = min(cpus, classes)
    return n if n > 1 else 0


class TestCertifyWidth:
    """certify cuts its pattern classes into contiguous chunks, about 8 per
    CPU, forks a worker per CPU, and the workers take chunks from one queue
    until it is empty; none of that shows."""

    @pytest.mark.parametrize("text, argv, pairs, classes", [
        (FOUR_VERTEX, [], 5778, 1297),
        (None, PENCIL_22222, 45, 37),
        (None, NO_MINORS, 0, 0),
        (PAGE_2X3, [], 3, 3),
    ], ids=["four-vertex", "pencil", "no-pairs", "fewer-pairs-than-cpus"])
    def test_same_bytes_at_every_width(self, capsys, tmp_path, cpus, text, argv, pairs, classes):
        if text is not None:
            q = tmp_path / "layout.q"
            q.write_text(text)
            argv = ["certify", "--quiver", str(q)]
        else:
            argv = [*argv, "certify"]
        runs = []
        for n in (1, 2, 4, 8):  # 8 workers race for each queue on fewer CPUs
            forked = cpus(n)
            runs.append(run(capsys, *argv))
            assert len(forked) == workers(n, classes)
        assert all(r == runs[0] for r in runs)
        code, out, err = runs[0]
        assert code == 0 and err == "" and out.endswith(f"certified: {pairs}/{pairs}\n")
        assert_no_children()

    @pytest.mark.parametrize("exc", [DomainError, InputError])
    def test_worker_error_reads_as_serial(self, capsys, cpus, monkeypatch, exc):
        # (7, 8) is the first pair of the last of the 37 classes, in the last
        # chunk; the lines before it go out in one block, or in blocks of 7
        fail_on(monkeypatch, {(7, 8): exc("no decomposition for this pair")})
        runs = []
        for block in (cli._BLOCK_LINES, 7):
            monkeypatch.setattr(cli, "_BLOCK_LINES", block)
            for n in (1, 2, 4):
                forked = cpus(n)
                runs.append(run(capsys, *PENCIL_22222, "certify"))
                assert len(forked) == workers(n, 37)
                assert_no_children()
        assert all(r == runs[0] for r in runs)
        code, out, err = runs[0]
        assert code == 2 and err == "error: no decomposition for this pair\n"
        lines = out.splitlines()
        assert len(lines) == 42 and lines[-1].startswith("pair 6 9 ")

    def test_lowest_failing_class_wins(self, capsys, cpus, monkeypatch):
        # the classes first met at (1, 2) and (5, 6) both fail; the lower one
        # fails late, so on more than one CPU another worker has failed on
        # the higher one first, and the lower one's error is still the one
        # shown, after the lines before its first pair
        def late():
            time.sleep(0.3)
            return DomainError("the lower class fails")
        fail_on(monkeypatch, {(1, 2): late, (5, 6): DomainError("the higher class fails")})
        runs = []
        for n in (1, 2, 4):
            forked = cpus(n)
            runs.append(run(capsys, *PENCIL_22222, "certify"))
            assert len(forked) == workers(n, 37)
            assert_no_children()
        assert all(r == runs[0] for r in runs)
        code, out, err = runs[0]
        assert code == 2 and err == "error: the lower class fails\n"
        lines = out.splitlines()
        assert len(lines) == 9 and lines[-1].startswith("pair 0 9 ")

    def test_queue_fits_one_page(self):
        # the chunks of certify (5,5,2,3,3): 168,173 classes; nothing runs
        for width, chunks in ((1, 8), (2, 16), (4, 32), (128, 1024), (4096, 1024)):
            bounds = spair._chunk_bounds(168173, width)
            assert len(bounds) - 1 == chunks and 4 * chunks <= 4096
            assert bounds[0] == 0 and bounds[-1] == 168173
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
        assert spair._chunk_bounds(3, 4) == [0, 1, 2, 3] and spair._chunk_bounds(0, 4) == [0]

    def test_worker_crash_is_raised(self, capsys, cpus, monkeypatch):
        fail_on(monkeypatch, {(7, 8): ValueError("a defect")})
        cpus(2)
        with pytest.raises(RuntimeError, match="worker .* failed"):
            main([*PENCIL_22222, "certify"])
        assert_no_children()

    def test_interrupt_kills_workers(self, capsys, cpus, monkeypatch):
        # the parent is interrupted while it waits, every worker stuck in its
        # own first class
        def chain(self, M, N):
            time.sleep(60)
        monkeypatch.setattr(spair.Certifier, "_chain", chain)
        forked = cpus(4)
        fork, parent = os.fork, os.getpid()

        def interrupting_fork():
            pid = fork()
            if pid and len(forked) == 4:
                threading.Timer(0.2, os.kill, (parent, signal.SIGINT)).start()
            return pid
        monkeypatch.setattr(os, "fork", interrupting_fork)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main([*PENCIL_22222, "certify"])
        assert time.monotonic() - start < 30
        assert len(forked) == 4
        assert_no_children()


def seeded_order_quiver(tmp_path, text, seed):
    """text with an order file of the consistent order seeded_rank draws
    from seed.  Returns the quiver path."""
    layout = build_layout(parse_quiver(text))
    rank = seeded_rank(layout, seed)
    (tmp_path / "order.txt").write_text(
        "".join(f"{layout.var_name(v)} {r}\n" for v, r in rank.items()))
    q = tmp_path / "ordered.q"
    q.write_text(text + "order order.txt\n")
    return str(q)


class TestCertifyByClass:
    """certify builds and verifies one chain per pattern class of pairs, in
    each process, and prints its verdict for every pair of the class."""

    @pytest.mark.parametrize("text", [None, MIXED_SIZES, MIXED_RANKS],
                             ids=["pencil-3x3", "mixed-sizes", "mixed-ranks"])
    def test_each_line_is_a_direct_build_and_verify(self, capsys, tmp_path, text):
        if text is None:
            argv = [*PENCIL_33222, "certify"]
        else:
            q = tmp_path / "layout.q"
            q.write_text(text)
            argv = ["certify", "--quiver", str(q)]
        code, out, _ = run(capsys, *argv)
        layout = build_layout(parse_quiver(text or PENCIL_33222_TEXT))
        refs = minors.natural_refs(layout)
        direct = spair.Certifier(layout, default_order(layout))
        want = []
        for i, j in combinations(range(len(refs)), 2):
            cert = direct.build(refs[i], refs[j])
            ok = "true" if direct.verify(cert) else "false"
            want.append(f"pair {i} {j} chain {len(cert.refs)} verified {ok}")
        assert code == 0 and out.splitlines() == [*want, f"certified: {len(want)}/{len(want)}"]

    def test_build_runs_once_per_pair_under_another_order(self, capsys, tmp_path, cpus,
                                                          monkeypatch):
        cpus(1)  # chain walks are counted in this process only
        built = Counter()
        chain = spair.Certifier._chain

        def counting(self, M, N):
            built[M, N] += 1
            return chain(self, M, N)
        monkeypatch.setattr(spair.Certifier, "_chain", counting)
        quiver = seeded_order_quiver(tmp_path, PENCIL_33222_TEXT, 3)
        code, out, _ = run(capsys, "certify", "--quiver", quiver)
        assert code == 0 and out.endswith("certified: 2556/2556\n")
        assert len(built) == sum(built.values()) == 2556
        built.clear()
        code, _, _ = run(capsys, *PENCIL_33222, "certify")
        assert code == 0 and len(built) == sum(built.values()) == 790

    @pytest.mark.parametrize("text, seed, digest", [
        (PENCIL_33222_TEXT, 3, "e761fbe1fd6d76520afdbb309f62bfbe6d7a6149089f8dd4d3b66340d9c28d58"),
        (FOUR_VERTEX, 5, "38046bab05c987d92ef71454b3bbec9eea709c74f238054dcc3777bc072b70aa"),
    ], ids=["pencil-3x3", "four-vertex"])
    def test_seeded_order_stdout_matches_recorded(self, capsys, tmp_path, text, seed, digest):
        # every pair its own class, and its lines written in blocks
        code, out, _ = run(capsys, "certify", "--quiver", seeded_order_quiver(tmp_path, text, seed))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_failed_representative_fails_its_class(self, capsys, cpus, monkeypatch):
        cpus(1)  # one process, whose first pair of each class is its representative
        layout = build_layout(tensors.double_det_spec(3, 3, 2, 2, 2))
        refs = minors.natural_refs(layout)
        certifier = spair.Certifier(layout, default_order(layout))
        classes = {}
        for i, j in combinations(range(len(refs)), 2):
            classes.setdefault(certifier.pattern(refs[i], refs[j]), []).append((i, j))
        members = max(classes.values(), key=len)
        rep = refs[members[0][0]], refs[members[0][1]]
        ends_hold = spair.Certifier._ends_hold

        def failing(self, refs):
            return (refs[0], refs[-1]) != rep and ends_hold(self, refs)
        monkeypatch.setattr(spair.Certifier, "_ends_hold", failing)
        code, out, _ = run(capsys, *PENCIL_33222, "certify")
        lines = out.splitlines()
        failed = [tuple(map(int, line.split()[1:3])) for line in lines[:-1]
                  if line.endswith("verified false")]
        assert code == 1 and len(members) > 1 and failed == members
        assert lines[-1] == f"certified: {2556 - len(members)}/2556"


class TestMixedMinorSizes:
    """2-minors at one vertex and 3-minors at the other, in one pair list."""

    @pytest.mark.parametrize("argv, line", [
        (["check"], "pairs: 2080  coprime-skipped: 1411  reduced-to-zero: 669  failures: 0"),
        (["check", "--no-coprime-skip"],
         "pairs: 2080  coprime-skipped: 0  reduced-to-zero: 2080  failures: 0"),
        (["certify"], "certified: 2080/2080"),
    ], ids=["check", "no-coprime-skip", "certify"])
    def test_counts(self, capsys, tmp_path, argv, line):
        q = tmp_path / "mixed.q"
        q.write_text(MIXED_SIZES)
        code, out, _ = run(capsys, *argv, "--quiver", str(q))
        assert code == 0 and line in out.splitlines()


class TestInitIdeal:
    def test_squarefree(self, capsys, quiver_file):
        code, out, _ = run(capsys, "init-ideal", "--quiver", quiver_file)
        assert code == 0
        assert out.strip().splitlines()[-1] == "squarefree true"

    @pytest.mark.parametrize("text, lines, digest", [
        (MIXED_SIZES, 46, "0acb36c13cc69087291b0cdb1828da9da4ab0950d8e3a6a3090d48137efefc48"),
        (MIXED_RANKS, 107, "72bb972e19906769ca8a03831adb836fcdda9d3f4c3e91d75135baf5fb44a507"),
    ], ids=["mixed-sizes", "mixed-ranks"])
    @pytest.mark.parametrize("field", ["0", "32003"])
    def test_stdout_matches_recorded(self, capsys, tmp_path, text, lines, digest, field):
        # recorded while every pair of leading monomials was tested for
        # divisibility; minimalisation drops 65 distinct leading monomials
        # to 45 on the one quiver and 119 to 106 on the other
        q = tmp_path / "mixed.q"
        q.write_text(text)
        code, out, _ = run(capsys, "init-ideal", "--quiver", str(q), "--field", field)
        assert code == 0 and len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTensorVerbs:
    def test_contract(self, capsys, tensor_file):
        code, out, _ = run(capsys, "tensor", "contract", "--data", tensor_file,
                           "--axes", "2")
        assert code == 0 and out == "shape 2 2\n2 10 4 12\n"

    def test_contract_all(self, capsys, tensor_file):
        code, out, _ = run(capsys, "tensor", "contract", "--data", tensor_file,
                           "--axes", "1,2,3")
        assert code == 0 and out.strip() == "28"

    def test_scan(self, capsys, tensor_file):
        code, out, _ = run(capsys, "tensor", "scan", "--data", tensor_file,
                           "--axis", "3")
        assert code == 0
        assert "slice 1\nshape 2 2\n0 2 1 3\n" in out

    def test_flatten(self, capsys, tensor_file):
        code, out, _ = run(capsys, "tensor", "flatten", "--data", tensor_file,
                           "--axis", "1")
        assert code == 0 and out == "0 2 4 6\n1 3 5 7\n"

    def test_bad_axis(self, capsys, tensor_file):
        code, _, err = run(capsys, "tensor", "flatten", "--data", tensor_file,
                           "--axis", "9")
        assert code == 2


class TestTripleEq:
    def test_equal(self, capsys):
        code, out, _ = run(capsys, "triple-eq", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "2", "--v", "2", "--w", "2")
        assert code == 0
        assert "predicted equal" in out and "verified true" in out

    def test_different(self, capsys):
        code, out, _ = run(capsys, "triple-eq", "--m", "2", "--n", "3", "--r", "2",
                           "--u", "2", "--v", "3", "--w", "2")
        assert code == 0
        assert "predicted different" in out and "witness ranks 1 2 2" in out

    def test_equal_over_prime_field(self, capsys):
        code, out, _ = run(capsys, "triple-eq", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "2", "--v", "2", "--w", "2", "--field", "7")
        assert code == 0
        assert out == "predicted equal\nreduced 6/6\nverified true\n"

    def test_failed_basis_check_is_refuted(self, capsys, monkeypatch):
        failing = CheckReport(1, 0, 0, [(0, 1, poly_var(0))], True)
        monkeypatch.setattr(tensors, "buchberger_check", lambda basis, ord: failing)
        assert run(capsys, "triple-eq", "--m", "3", "--n", "3", "--r", "2",
                   "--u", "2", "--v", "2", "--w", "2") == (
            1, "predicted equal\nreduced 0/36\nverified false\n", "")

    def test_bounds(self, capsys):
        code, _, err = run(capsys, "triple-eq", "--m", "2", "--n", "2", "--r", "2",
                           "--u", "9", "--v", "2", "--w", "2")
        assert code == 2


class TestIndep:
    def test_two_by_two(self, capsys):
        code, out, _ = run(capsys, "indep", "--shape", "2,2",
                           "--statements", "1_2")
        assert code == 0
        assert "+p[1,1]*p[2,2]-p[1,2]*p[2,1]" in out
        assert "generators 1" in out

    def test_prime_field(self, capsys):
        code, out, _ = run(capsys, "indep", "--shape", "2,2",
                           "--statements", "1_2", "--field", "7")
        assert code == 0
        assert out == "+p[1,1]*p[2,2]+6*p[1,2]*p[2,1]\ngenerators 1\n"

    def test_transposed_marginal_and_conditional_golden(self, capsys):
        # a > b in a marginal, and a conditional whose a lies after b, read
        # their 2-minors off the transposed marginal matrix
        code, out, _ = run(capsys, "indep", "--shape", "2,3,2",
                           "--statements", "2_1,3_1|2,2_3|1")
        assert code == 0
        assert out.splitlines()[-1] == "generators 12"
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "f2a4c7be0f502b07c87651c051148711efba2f4ade23eb9d96d933b2adb85b5a"

    @pytest.mark.parametrize("field, digest", [
        ("2", "2ad82617ba06ada54df65f6105f42b0882b28c8c42ad88f11d03fb067d077576"),
        ("7", "8c68aac4e98fa6f4fed024ba60a9e4a7d52582c6b7d1bd1285e1e7f87eaaf8c9"),
    ], ids=["GF2", "GF7"])
    def test_four_axis_prime_field_golden(self, capsys, field, digest):
        # over GF(2) a generator is its own negative, so the one key a
        # generator and its negative share must not tell them apart there
        code, out, _ = run(capsys, "indep", "--shape", "3,3,3,3",
                           "--statements", "1_2,1|rest,1_3|2", "--field", field)
        assert code == 0
        assert out.splitlines()[-1] == "generators 1089"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_statement(self, capsys):
        code, _, err = run(capsys, "indep", "--shape", "2,2",
                           "--statements", "zzz")
        assert code == 2

    @pytest.mark.parametrize("statement", ["1_2_3|4", "1|rest:1_0", "1_2|3_1"],
                             ids=["extra-part", "underscore-in-states", "underscore-in-axis"])
    def test_malformed_statement_is_refused(self, capsys, statement):
        # int() reads "1_0" as 10, and a split that keeps two pieces drops a third
        code, out, err = run(capsys, "indep", "--shape", "2,2,2,2",
                             "--statements", statement)
        assert code == 2
        assert out == ""
        assert "bad statement" in err


class TestArgErrors:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["check", "--quiver", "x.q", "--bogus"]) == 2


# Help, and a bad flag or flag value for every verb, each parsed by its own
# parser or by the top-level one.
PARSER_CASES = [
    ["--help"], ["double", "--help"], [],
    ["gens", "--quiver", "q", "--bogus"], ["gens", "--field", "x"],
    ["check", "--quiver", "q", "--threads", "0"], ["check", "--field", "x"],
    ["certify", "--field", "x"], ["spair", "--field", "x"], ["init-ideal", "--field", "x"],
    ["double", "--m", "x"], [*PENCIL_22222, "gens", "--field", "x"],
    [*PENCIL_22222, "check", "--field", "x"], [*PENCIL_22222, "certify", "--field", "x"],
    [*PENCIL_22222, "init-ideal", "--field", "x"], [*PENCIL_22222, "spair"],
    ["tensor", "contract", "--axes", "1"], ["tensor", "scan", "--axis", "x"],
    ["tensor", "flatten", "--data"], ["tensor", "--bogus"],
    ["triple-eq", "--m", "x"], ["indep", "--field", "x"], ["frobnicate"],
]
# sha256 of the JSON list of [exit code, stdout, stderr] of PARSER_CASES at
# 80 columns, recorded from the parser that gave every verb its flags, by
# Python release: argparse words some messages differently in each
PARSER_DIGESTS = {
    **dict.fromkeys([(3, 10, 13), (3, 11, 2), (3, 11, 7), (3, 12, 1)],
                    "b6863fefb16a89e9b0db4b1c6a687d95f1518a1a1261a70ab143303f9bc0f428"),
    (3, 13, 0): "90d25faa98aebf17e2d245c91bd2ca61a187c4ca8f9002e5888529fe027513ad",
    (3, 13, 13): "aa0d21f1e0c2324517044c53cc59ca1ad1aad3b09befcb842740546d692b5978",
}


class TestParser:
    """main builds the flags of the verbs that argv names only; what it
    prints is that of the parser with every flag."""

    def outputs(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        return [list(run(capsys, *argv)) for argv in PARSER_CASES]

    def test_output_matches_recorded(self, capsys, monkeypatch):
        digest = hashlib.sha256(json.dumps(self.outputs(capsys, monkeypatch)).encode()).hexdigest()
        want = PARSER_DIGESTS.get(sys.version_info[:3])
        if want is None:
            pytest.skip(f"no output recorded for Python {sys.version.split()[0]}")
        assert digest == want

    def test_output_matches_the_full_parser(self, capsys, monkeypatch):
        lazy = self.outputs(capsys, monkeypatch)
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv: build())
        assert self.outputs(capsys, monkeypatch) == lazy

    def test_only_named_verbs_get_flags(self):
        def flagged(ap):
            """The prog of every parser with a flag besides --help."""
            out = set()
            for action in ap._actions:
                for p in (action.choices or {}).values():  # the parsers of subcommands
                    if any(a.option_strings not in ([], ["-h", "--help"]) for a in p._actions):
                        out.add(p.prog)
                    out |= flagged(p)
            return out
        assert flagged(cli.build_parser([*PENCIL_22222, "certify"])) == {
            "quivergb double", "quivergb double certify", "quivergb certify"}
        assert len(flagged(cli.build_parser())) == 15  # all but quivergb and quivergb tensor


class TestBadFiles:
    def test_zero_denominator_entry(self, capsys, tmp_path):
        p = tmp_path / "zero.t"
        p.write_text("shape 2 2\n1 2 3 1/0\n")
        code, out, err = run(capsys, "tensor", "flatten", "--data", str(p), "--axis", "1")
        assert code == 2 and out == "" and "bad tensor entry" in err

    @pytest.mark.parametrize("what", ["quiver", "order", "tensor"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, what):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe not text\n")
        if what == "quiver":
            argv = ("check", "--quiver", str(bad))
        elif what == "order":
            q = tmp_path / "ordered.q"
            q.write_text(KEY_Q + "order bad\n")
            argv = ("check", "--quiver", str(q))
        else:
            argv = ("tensor", "flatten", "--data", str(bad), "--axis", "1")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"cannot read {what} file" in err


def python_probe(code, *args):
    """The stdout of code run by a fresh interpreter that imports this
    quivergb; -S keeps whatever site-packages load at start-up out of it."""
    env = dict(os.environ, PYTHONPATH=str(Path(quivergb.__file__).parents[1]))
    return subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_startup_imports_no_dataclass_machinery():
    # the CLI puts spair and tensors in sys.modules, where the spans of the
    # benchmark look for them, but neither has run (see TestLazyModules);
    # it must not load dataclasses or inspect
    probe = ("import sys, quivergb.cli; "
             "print(*(m in sys.modules for m in "
             "('dataclasses', 'inspect', 'quivergb.spair', 'quivergb.tensors')))")
    assert python_probe(probe).split() == ["False", "False", "True", "True"]


def test_exit_freezes_every_object_but_main_does_not():
    # atexit runs its handlers last registered first, so this probe's runs
    # after the CLI's gc.freeze: by then the last collection has nothing left
    # to walk, while main, as in-process callers run it, froze nothing
    probe = """if True:
        import atexit, gc, sys
        atexit.register(lambda: print("frozen at exit", gc.get_freeze_count() > 0))
        from quivergb.cli import main
        main(sys.argv[1:])
        print("frozen after main", gc.get_freeze_count())
    """
    out = python_probe(probe, "indep", "--shape", "2,2", "--statements", "1_2")
    assert out.splitlines()[-2:] == ["frozen after main 0", "frozen at exit True"]


class TestLazyModules:
    """A verb runs only the modules it needs: the CLI loads spair and tensors
    on first use, and fractions is loaded where a Fraction is made."""

    # After main(argv): whether spair and tensors have run, each told by a
    # name it defines, read from its own __dict__ past its __getattribute__
    # so that the probe does not load it; and whether fractions is loaded.
    PROBE = """if True:
        import sys
        from quivergb.cli import main
        main(sys.argv[1:])
        for name, defined in (("spair", "Certifier"), ("tensors", "Tensor")):
            print(defined in object.__getattribute__(sys.modules["quivergb." + name], "__dict__"))
        print("fractions" in sys.modules)
    """

    def ran(self, *argv):
        return python_probe(self.PROBE, *argv).split()[-3:]

    def test_check_runs_neither(self, quiver_file):
        assert self.ran("check", "--quiver", quiver_file) == ["False", "False", "False"]
        assert self.ran(*PENCIL_22222, "check") == ["False", "False", "False"]

    def test_indep_does_not_run_spair(self):
        spair_ran, tensors_ran, _ = self.ran("indep", "--shape", "2,2",
                                             "--statements", "1_2")
        assert (spair_ran, tensors_ran) == ("False", "True")

    def test_certify_runs_spair(self):
        assert self.ran(*PENCIL_22222, "certify")[:2] == ["True", "False"]

    @pytest.mark.parametrize("verb, runs", [
        ("gens", "False"), ("certify", "False"), ("check", "True"), ("init-ideal", "True"),
    ])
    def test_groebner_runs_only_for_its_verbs(self, verb, runs):
        probe = """if True:
            import sys
            from quivergb.cli import main
            main(sys.argv[1:])
            groebner = sys.modules["quivergb.groebner"]
            print("CheckReport" in object.__getattribute__(groebner, "__dict__"))
        """
        assert python_probe(probe, *PENCIL_22222, verb).split()[-1] == runs

    def test_a_loaded_module_is_reused(self):
        probe = ("import quivergb.spair, quivergb.cli; "
                 "print(quivergb.cli.spair is quivergb.spair, type(quivergb.spair).__name__)")
        assert python_probe(probe).split() == ["True", "module"]
