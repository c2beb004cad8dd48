"""One fresh process of the benchmark.

    child.py main ARGV...          call quivergb.cli.main(ARGV)
    child.py trace FILE ARGV...    the same, with spans written to FILE
    child.py setup STEPS_JSON      time importing quivergb plus the set-up
                                   steps; print {"setup_s": ..., "package": ...}

quivergb must not be imported at module level: the setup pass times it.
"""

import json
import sys
import time
from pathlib import Path


def setup(steps):
    start = time.perf_counter()
    from quivergb.layout import (build_layout, default_order, parse_order_file,
                                 parse_quiver)
    from quivergb.minors import natural_generators
    from quivergb.poly import QQ, PrimeField
    from quivergb import tensors

    for step in steps:
        kind = step[0]
        if kind == "quiver":  # [kind, path, field]: what `check --quiver` builds
            path, p = step[1], step[2]
            spec = parse_quiver(Path(path).read_text())
            layout = build_layout(spec)
            if spec.order_file:
                parse_order_file(layout, (Path(path).parent / spec.order_file).read_text())
            else:
                default_order(layout)
        elif kind == "double":  # [kind, (m, n, r, u, v), field]
            layout = build_layout(tensors.double_det_spec(*step[1]))
            default_order(layout)
            p = step[2]
        elif kind == "symbolic":  # [kind, shape]
            tensors.symbolic_tensor(step[1])
            continue
        elif kind == "double_gens":  # [kind, (m, n, r, u, v)]
            tensors.double_det_generators(*step[1])
            continue
        else:
            raise ValueError(f"unknown set-up step {kind!r}")
        natural_generators(layout, PrimeField(p) if p else QQ)
    elapsed = time.perf_counter() - start
    import quivergb
    print(json.dumps({"setup_s": elapsed, "package": str(Path(quivergb.__file__).parent)}))
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return setup(json.loads(argv[1]))
    if mode == "main":
        from quivergb import cli
        return cli.main(argv[1:])
    if mode == "trace":
        import spans
        from quivergb import cli
        tracer = spans.Tracer()
        spans.install(tracer)
        code = cli.main(argv[2:])
        tracer.dump(argv[1])
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
