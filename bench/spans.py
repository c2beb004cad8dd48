"""Spans around the public functions of each quivergb layer.

``install`` wraps each function listed in LAYERS wherever a quivergb module
looks it up, so calls between modules and within one are both seen.  Each
call records a span (id, name, parent, start, end) plus one count taken from
its result.  Spans stay in memory, one buffer per thread, and ``Tracer.dump``
writes them when the traced process ends.  ``layer_stats`` reads them back
and computes each layer's self time: its span time minus the part of it that
its child spans cover.

A thread with no open span of its own (a worker of ``--threads``) takes the
main thread's innermost open span as parent.  Under the interpreter lock a
span's interval then includes time it waited for the lock.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict

_COLUMNS = (("id", "q"), ("name", "i"), ("parent", "q"),
            ("start", "d"), ("end", "d"), ("value", "q"))


def _report_detail(report):
    return {"pairs": report.total_pairs, "coprime_skipped": report.skipped_coprime,
            "reduced_to_zero": report.reduced_to_zero}


# (module, function, count recorded from the result, detail recorded from the result)
LAYERS = (
    ("cli", "main", None, None),
    ("layout", "build_layout", None, None),
    ("layout", "validate_consistent", None, None),
    ("minors", "natural_generators", len, None),
    ("minors", "expand_minor", None, None),
    ("minors", "minor_leading_term", None, None),
    ("poly", "reduce", lambda res: len(res[1]), None),
    ("poly", "leading_term", None, None),
    ("poly", "s_polynomial", lambda p: len(p.terms), None),
    ("poly", "render", None, None),
    ("groebner", "buchberger_check", None, _report_detail),
    ("groebner", "ideal_membership", None, None),
    ("spair", "build_chain", lambda cert: len(cert.refs), None),
    ("spair", "verify_chain", int, None),
    ("tensors", "independence_ideal", len, None),
    ("tensors", "triple_eq_check", None, None),
    ("tensors", "det_poly_matrix", None, None),
    ("tensors", "matrix_rank", None, None),
)


class _Buffer:
    def __init__(self):
        self.stack = []
        self.cols = {col: array(code) for col, code in _COLUMNS}


class Tracer:
    def __init__(self):
        self.names = []
        self.details = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._main = self._buffer()

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
            return buf

    def wrap(self, name, fn, count=None, detail=None):
        code = len(self.names)
        self.names.append(name)
        ids, main, buffer, details = self._ids, self._main.stack, self._buffer, self.details

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(ids)
            stack.append(sid)
            cpu = time.process_time() if detail is not None else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = count(result) if count is not None else 0
            if detail is not None:
                details.append(dict(detail(result), wall_s=end - start,
                                    cpu_s=time.process_time() - cpu))
            c = buf.cols
            c["id"].append(sid)
            c["name"].append(code)
            c["parent"].append(parent)
            c["start"].append(start)
            c["end"].append(end)
            c["value"].append(value)
            return result
        return traced

    def dump(self, path):
        """A marshalled header (names, details, spans per thread), then each
        thread's columns as raw arrays."""
        head = marshal.dumps({"names": self.names, "details": self.details,
                              "sizes": [len(buf.cols["id"]) for buf in self._buffers]})
        with open(path, "wb") as fh:
            fh.write(len(head).to_bytes(8, "little"))
            fh.write(head)
            for buf in self._buffers:
                for col, _ in _COLUMNS:
                    buf.cols[col].tofile(fh)


def install(tracer):
    """Replace every LAYERS function in every quivergb module that holds it."""
    import quivergb.cli  # noqa: F401  (imports every module of the package)
    modules = [m for n, m in sys.modules.items() if n.startswith("quivergb")]
    for mod_name, fn_name, count, detail in LAYERS:
        original = getattr(sys.modules[f"quivergb.{mod_name}"], fn_name)
        traced = tracer.wrap(f"{mod_name}.{fn_name}", original, count, detail)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, traced)


# ---------------------------------------------------------------------------
# reading traces back

_KEEP_DURATIONS = {"poly.reduce", "spair.build_chain", "spair.verify_chain", "cli.main"}


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    intervals.sort()
    total = 0.0
    lo, hi = intervals[0]
    for s, e in intervals[1:]:
        if s > hi:
            total += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    return total + hi - lo


def _read(path):
    with open(path, "rb") as fh:
        head = marshal.loads(fh.read(int.from_bytes(fh.read(8), "little")))
        threads = []
        for size in head["sizes"]:
            cols = {}
            for col, code in _COLUMNS:
                cols[col] = array(code)
                cols[col].fromfile(fh, size)
            threads.append(cols)
    return head, threads


def layer_stats(path):
    """Read one trace: per span name its calls, self_s, value_sum,
    value_max and, for a few names, inclusive durations in call order;
    and the recorded details."""
    head, threads = _read(path)
    names = head["names"]
    # Spans of one thread never overlap, so the time a parent's children
    # cover is their sum, unless they ran on several threads.
    owners = defaultdict(set)
    for t, cols in enumerate(threads):
        for parent in set(cols["parent"]):
            owners[parent].add(t)
    covered = defaultdict(float)
    overlapping = defaultdict(list)
    for cols in threads:
        for parent, s, e in zip(cols["parent"], cols["start"], cols["end"]):
            if len(owners[parent]) > 1:
                overlapping[parent].append((s, e))
            else:
                covered[parent] += e - s
    for parent, intervals in overlapping.items():
        covered[parent] = _covered(intervals)
    stats = {n: {"calls": 0, "self_s": 0.0, "value_sum": 0, "value_max": 0,
                 "durations": []} for n in names}
    for cols in threads:
        for sid, code, s, e, value in zip(cols["id"], cols["name"], cols["start"],
                                          cols["end"], cols["value"]):
            st = stats[names[code]]
            st["calls"] += 1
            st["self_s"] += (e - s) - covered.get(sid, 0.0)
            st["value_sum"] += value
            st["value_max"] = max(st["value_max"], value)
            if names[code] in _KEEP_DURATIONS:
                st["durations"].append((sid, e - s))
    for st in stats.values():
        st["durations"] = [d for _, d in sorted(st["durations"])]
    return stats, head["details"]


def _percentile(values, p):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# Per-layer metrics and their units.  Every "_s" time is self time summed
# over calls; "_ms.pNN" percentiles are of inclusive per-call time.
PER_LAYER = (
    ("layout.build_s", "s"),
    ("layout.validate_consistent_calls", "count"),
    ("layout.validate_consistent_s", "s"),
    ("minors.natural_generators_s", "s"),
    ("minors.generators", "count"),
    ("minors.expand_minor_calls", "count"),
    ("minors.expand_minor_s", "s"),
    ("minors.minor_leading_term_calls", "count"),
    ("minors.minor_leading_term_s", "s"),
    ("poly.reduce_calls", "count"),
    ("poly.reduce_s", "s"),
    ("poly.reduce_ms.p50", "ms"),
    ("poly.reduce_ms.p99", "ms"),
    ("poly.division_steps", "count"),
    ("poly.steps_per_reduce", "steps/call"),
    ("poly.leading_term_calls", "count"),
    ("poly.leading_term_s", "s"),
    ("poly.s_polynomial_calls", "count"),
    ("poly.s_polynomial_s", "s"),
    ("poly.spoly_terms", "count"),
    ("poly.render_calls", "count"),
    ("poly.render_s", "s"),
    ("groebner.buchberger_check_s", "s"),
    ("groebner.pairs", "count"),
    ("groebner.coprime_skipped", "count"),
    ("groebner.reduced_to_zero", "count"),
    ("groebner.skip_ratio", "ratio"),
    ("groebner.cpu_per_wall", "ratio"),
    ("groebner.ideal_membership_calls", "count"),
    ("groebner.ideal_membership_s", "s"),
    ("spair.build_chain_s", "s"),
    ("spair.verify_chain_s", "s"),
    ("spair.chain_steps", "count"),
    ("spair.chain_len_max", "count"),
    ("spair.pair_ms.p50", "ms"),
    ("spair.pair_ms.p99", "ms"),
    ("spair.verified_ratio", "ratio"),
    ("tensors.independence_ideal_s", "s"),
    ("tensors.indep_generators", "count"),
    ("tensors.triple_eq_check_s", "s"),
    ("tensors.det_poly_matrix_calls", "count"),
    ("tensors.det_poly_matrix_s", "s"),
    ("tensors.matrix_rank_s", "s"),
    ("cli.main_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead", "ratio"),
)

# Counts that must repeat exactly between two traced runs of the same code.
EXACT_UNITS = ("count", "bytes")


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(traces, stdout_bytes, verdict_s):
    """Per-layer metrics of one traced pass: ``traces`` holds the
    ``layer_stats`` of each invocation of the pass."""
    total = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "value_sum": 0, "value_max": 0})
    reduce_ms, pair_ms, main_s, details = [], [], 0.0, []
    for stats, recorded in traces:
        details += recorded
        for name, st in stats.items():
            t = total[name]
            t["calls"] += st["calls"]
            t["self_s"] += st["self_s"]
            t["value_sum"] += st["value_sum"]
            t["value_max"] = max(t["value_max"], st["value_max"])
        reduce_ms += [1e3 * d for d in stats["poly.reduce"]["durations"]]
        pair_ms += [1e3 * (b + v) for b, v in zip(stats["spair.build_chain"]["durations"],
                                                  stats["spair.verify_chain"]["durations"])]
        main_s += sum(stats["cli.main"]["durations"])

    def calls(n):
        return total[n]["calls"]

    def self_s(n):
        return total[n]["self_s"]

    reduce_ms.sort()
    pair_ms.sort()
    pairs = sum(d["pairs"] for d in details)
    skipped = sum(d["coprime_skipped"] for d in details)
    builds = total["spair.build_chain"]
    out = {
        "layout.build_s": self_s("layout.build_layout"),
        "layout.validate_consistent_calls": calls("layout.validate_consistent"),
        "layout.validate_consistent_s": self_s("layout.validate_consistent"),
        "minors.natural_generators_s": self_s("minors.natural_generators"),
        "minors.generators": total["minors.natural_generators"]["value_sum"],
        "poly.reduce_ms.p50": _percentile(reduce_ms, 50),
        "poly.reduce_ms.p99": _percentile(reduce_ms, 99),
        "poly.division_steps": total["poly.reduce"]["value_sum"],
        "poly.steps_per_reduce": _ratio(total["poly.reduce"]["value_sum"], calls("poly.reduce")),
        "poly.spoly_terms": total["poly.s_polynomial"]["value_sum"],
        "groebner.pairs": pairs,
        "groebner.coprime_skipped": skipped,
        "groebner.reduced_to_zero": sum(d["reduced_to_zero"] for d in details),
        "groebner.skip_ratio": _ratio(skipped, pairs),
        "groebner.cpu_per_wall": _ratio(sum(d["cpu_s"] for d in details),
                                        sum(d["wall_s"] for d in details)),
        "spair.chain_steps": builds["value_sum"] - builds["calls"],
        "spair.chain_len_max": builds["value_max"],
        "spair.pair_ms.p50": _percentile(pair_ms, 50),
        "spair.pair_ms.p99": _percentile(pair_ms, 99),
        "spair.verified_ratio": _ratio(total["spair.verify_chain"]["value_sum"],
                                       calls("spair.verify_chain")),
        "tensors.indep_generators": total["tensors.independence_ideal"]["value_sum"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead": _ratio(main_s, verdict_s),
    }
    for metric, _ in PER_LAYER:
        layer, _, rest = metric.partition(".")
        if metric in out:
            continue
        if rest.endswith("_calls"):
            out[metric] = calls(f"{layer}.{rest[:-6]}")
        elif rest.endswith("_s"):
            out[metric] = self_s(f"{layer}.{rest[:-2]}")
    return out
