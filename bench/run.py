"""Benchmark of the quivergb command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; it measures the sources in ``src``.
Each workload runs in a closed loop with one caller: a pass starts one fresh
python child per invocation, one after another, each calling
``quivergb.cli.main(argv)`` with its stdout captured, and the next pass
starts when the previous one has returned.  A fresh process per invocation
is what a CLI user pays for, and it keeps module-level caches from carrying
state between passes.  Passes repeat until S seconds have gone by.

With ``--trace 0`` the result holds the end-to-end metrics:
  verdict_s    median wall time of a pass, seen from this process
  setup_s      median over separate fresh children, two before each pass,
               of importing quivergb and building what the verbs need
               before their main loop
  peak_rss_mb  median over passes of the largest child peak RSS
An invocation fails when its exit code, its verdict and count lines (from
theory) or its stdout digest differ from workloads.py; error_rate, the
failed share, is printed and given as ``failed``/``attempted``.

With ``--trace 1`` the loop runs as well (for trace.overhead), followed by
two traced passes whose spans give the per-layer metrics (see spans.py).
Their counts must repeat exactly; a count that does not is reported as a
benchmark defect and makes the result incorrect.

Every line before the last is a readable report; the last line is the
JSON result.  Files go to ``.bench_build`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import WORKLOADS, BenchmarkDefect, failures, write_quiver_files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUPS_PER_PASS = 2
TRACED_PASSES = 2
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: str
    wall_s: float
    rss_mb: float


def spawn(args, env):
    """Run ``child.py ARGS`` to completion; time it and take its peak RSS."""
    with open(WORK / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errtext = err.read().decode("utf-8", "replace")
    return Outcome(proc.returncode, out, errtext, wall, usage.ru_maxrss / 1024)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_pass(steps, env):
    out = spawn(["setup", json.dumps(steps)], env)
    if out.code != 0:
        raise BenchmarkDefect(f"set-up child failed:\n{out.stderr}")
    return json.loads(out.stdout.decode().splitlines()[-1])


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    failed: int
    stdout_bytes: int
    traces: list


def run_pass(invocations, argvs, env, trace_dir=None):
    """One pass: each invocation in its own fresh child, in order."""
    wall = rss = 0.0
    failed = nbytes = 0
    traces = []
    for k, (inv, argv) in enumerate(zip(invocations, argvs)):
        if trace_dir is None:
            out = spawn(["main", *argv], env)
        else:
            path = trace_dir / f"trace-{k}.marshal"
            out = spawn(["trace", str(path), *argv], env)
            if out.code == 0:
                traces.append(spans.layer_stats(path))
        wall += out.wall_s
        rss = max(rss, out.rss_mb)
        nbytes += len(out.stdout)
        problems = failures(inv, out.code, out.stdout)
        if problems:
            failed += 1
            print(f"FAIL {' '.join(argv)}: " + "; ".join(problems[:3]), file=sys.stderr)
            if out.stderr:
                print(out.stderr[-2000:], file=sys.stderr)
    return Pass(wall, rss, failed, nbytes, traces)


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def traced_metrics(invocations, argvs, env, work, verdict_s):
    """Per-layer metrics of TRACED_PASSES traced passes; returns
    (metrics, attempted, failed, defects)."""
    runs, failed = [], 0
    for n in range(TRACED_PASSES):
        trace_dir = work / f"traced-{n}"
        trace_dir.mkdir(exist_ok=True)
        p = run_pass(invocations, argvs, env, trace_dir)
        failed += p.failed
        runs.append(spans.pass_metrics(p.traces, p.stdout_bytes, verdict_s))
    units = dict(spans.PER_LAYER)
    metrics, defects = {}, []
    for name, unit in spans.PER_LAYER:
        values = [r[name] for r in runs]
        if unit in spans.EXACT_UNITS:
            if len(set(values)) > 1:
                defects.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.mean(values)
    return ({n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            TRACED_PASSES * len(invocations), failed, defects)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quivergb" / "cli.py").is_file():
        print(f"error: no quivergb sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()

    quiver = write_quiver_files(workload.quiver, args.seed, work) if workload.quiver else None
    argvs = [[str(quiver) if a == "{quiver}" else a for a in inv.argv]
             for inv in workload.invocations]
    steps = [[s[0], str(quiver), *s[1:]] if s[0] == "quiver" else list(s)
             for s in workload.setup]

    # Warm-up, untimed: compiles the sources once and fills the page cache,
    # as for a user who runs the CLI repeatedly.
    package = setup_pass(steps, env)["package"]
    if Path(package).resolve() != (SRC / "quivergb").resolve():
        raise BenchmarkDefect(f"children import quivergb from {package}, not from {SRC}")

    # Set-up children are interleaved with the passes, so that both medians
    # sample the same stretch of time on a host whose speed drifts.
    setups, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        if not args.trace:
            setups += [setup_pass(steps, env)["setup_s"] for _ in range(SETUPS_PER_PASS)]
        passes.append(run_pass(workload.invocations, argvs, env))
    attempted = len(passes) * len(workload.invocations)
    failed = sum(p.failed for p in passes)
    verdict = spread([p.wall_s for p in passes])
    rss = spread([p.rss_mb for p in passes])

    print(f"quivergb benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  verdict_s    {verdict[0]:.4f} s   q1 {verdict[1]:.4f}  q3 {verdict[2]:.4f}  "
          f"n {len(passes)} passes")
    print(f"  peak_rss_mb  {rss[0]:.2f} MiB q1 {rss[1]:.2f}  q3 {rss[2]:.2f}  n {len(passes)}")
    defects = []
    if args.trace:
        metrics, extra, extra_failed, defects = traced_metrics(
            workload.invocations, argvs, env, work, verdict[0])
        attempted += extra
        failed += extra_failed
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    else:
        setup = spread(setups)
        print(f"  setup_s      {setup[0]:.4f} s   q1 {setup[1]:.4f}  q3 {setup[2]:.4f}  "
              f"n {len(setups)}")
        values = {"verdict_s": verdict[0], "setup_s": setup[0], "peak_rss_mb": rss[0]}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    print(f"  error_rate   {failed / attempted:g}  ({failed} of {attempted} invocations failed)")
    for d in defects:
        print(f"benchmark defect: {d}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not defects, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkDefect as exc:
        print(f"benchmark defect: {exc}", file=sys.stderr)
        sys.exit(3)
