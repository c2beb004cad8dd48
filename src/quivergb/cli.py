"""Command-line interface: generator listings, Groebner checks, chain
certificates, S-pair decompositions, tensor utilities, and independence
ideals.  Exit codes: 0 verified/success, 1 property refuted, 2 bad input."""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib.util
import sys
from itertools import combinations
from pathlib import Path

from .poly import QQ, DomainError, InputError, Polynomial, PrimeField, render, s_polynomial
from .layout import (
    build_layout, default_order, double_det_spec, parse_order_file, parse_quiver,
)
from .minors import (
    ensure_consistent, expand_minor, minor_leading_term, natural_generators, natural_refs,
    parse_minor_spec, render_minor_spec,
)


def _lazy(name):
    """The submodule name of this package, run on its first attribute
    access rather than now; the module itself if it is loaded already.

    Either way it is the module in sys.modules and an attribute of the
    package, as an import leaves it, so a later import of it, or a lookup
    there, gets this same object."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# only check, init-ideal and the tensor verbs run groebner, only certify and
# spair run spair, and only the tensor verbs run tensors
groebner = _lazy("groebner")
spair = _lazy("spair")
tensors = _lazy("tensors")


def _field_of(args):
    return PrimeField(args.field) if args.field else QQ


def _read_text(path, what):
    """The UTF-8 text of a user-named file; unreadable or undecodable is bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None


def _load_layout(args):
    if getattr(args, "quiver", None):
        path = Path(args.quiver)
        spec = parse_quiver(_read_text(path, "quiver"))
        layout = build_layout(spec)
        if spec.order_file:
            text = _read_text(path.parent / spec.order_file, "order")
            ord = parse_order_file(layout, text)
            ensure_consistent(layout, ord)
        else:
            ord = default_order(layout)
        return layout, ord
    # double determinantal shorthand
    layout = build_layout(double_det_spec(args.m, args.n, args.r, args.u, args.v))
    return layout, default_order(layout)


def _gens(layout, ord, field, args):
    text = "".join(f"{render_minor_spec(ref)} {render(poly, ord, layout.var_name)}\n"
                   for ref, poly in natural_generators(layout, field))
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def _check(layout, ord, field, args):
    polys = [p for _, p in natural_generators(layout, field)]
    report = groebner.buchberger_check(polys, ord,
                                       coprime_skip=not args.no_coprime_skip,
                                       fail_fast=args.fail_fast)
    print(report.render(ord, layout.var_name))
    return 0 if report.is_groebner else 1


def _certify(layout, ord, field, args):
    refs = natural_refs(layout)
    certifier = spair.Certifier(layout, ord, field)
    if args.pairs == "all":
        pairs = combinations(range(len(refs)), 2)
        classes, firsts = certifier.pair_classes(refs)
    else:
        try:
            i, j = (int(x) for x in args.pairs.split(","))
        except ValueError:
            raise InputError(f"bad --pairs value {args.pairs!r}") from None
        if not (0 <= i < len(refs) and 0 <= j < len(refs)):
            raise InputError("pair index out of range")
        if i == j:
            raise InputError("a pair needs two different generators")
        pairs = firsts = [(i, j)]
        classes = [0]
    verdicts, error = spair.map_chunks(
        lambda c: certifier.certify(*map(refs.__getitem__, firsts[c])), len(firsts))
    failures, block = 0, []
    for line, ok in spair.pair_lines(pairs, classes, verdicts):
        block.append(line)
        failures += not ok
        if len(block) >= _BLOCK_LINES:
            _write(block)
    if args.pairs != "all" and verdicts:  # a single pair gets its certificate too
        block.append(spair.render_certificate(layout, certifier.build(refs[i], refs[j]), ord))
    _write(block)
    if error:
        raise error
    print(f"certified: {len(classes) - failures}/{len(classes)}")
    return 0 if failures == 0 else 1


# certify writes its pair lines in blocks of this many, and init-ideal and
# indep all of theirs at once: a print per line is a write per line where
# stdout is unbuffered, and far slower
_BLOCK_LINES = 1024


def _write(lines):
    """Write lines to stdout at once and empty the list."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")
        lines.clear()


def _spair(layout, ord, field, args):
    M = parse_minor_spec(args.m1)
    N = parse_minor_spec(args.m2)
    pm, pn = expand_minor(layout, M, field), expand_minor(layout, N, field)
    S = s_polynomial(pm, pn, ord)
    print("S " + render(S, ord, layout.var_name))
    if args.decompose:
        certifier = spair.Certifier(layout, ord, field)
        d = certifier.decomposition(M, N)
        print(spair.render_decomposition(layout, d, ord))
        small = certifier.has_small_lts(d)
        ok = spair.expand_decomposition(layout, d, field) == S
        print(f"identity {'true' if ok else 'false'} small-lts {'true' if small else 'false'}")
        return 0 if ok else 1
    return 0


def _init_ideal(layout, ord, field, args):
    # a minor's leading monomial is its diagonal, so no generator is expanded
    lms = [Polynomial({minor_leading_term(layout, ref, ord): 1}) for ref in natural_refs(layout)]
    monos = groebner.initial_ideal_gens(lms, ord)
    lines = [render(Polynomial({m: 1}), ord, layout.var_name) for m in monos]
    lines.append(f"squarefree {'true' if groebner.is_squarefree(monos) else 'false'}")
    _write(lines)
    return 0


def _axes_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"bad axis list {text!r}") from None


def _print_matrix(M):
    for row in M:
        print(" ".join(str(v) for v in row))


def _tensor(args):
    X = tensors.parse_tensor(_read_text(args.data, "tensor"))
    if args.tverb == "contract":
        out = tensors.contraction(X, _axes_list(args.axes))
        if isinstance(out, tensors.Tensor):
            sys.stdout.write(tensors.render_tensor(out))
        else:
            print(out)
    elif args.tverb == "scan":
        for i, piece in enumerate(tensors.scan(X, args.axis), start=1):
            print(f"slice {i}")
            sys.stdout.write(tensors.render_tensor(piece))
    else:
        _print_matrix(tensors.flatten(X, args.axis))
    return 0


def _triple_eq(args):
    res = tensors.triple_eq_check(args.m, args.n, args.r, args.u, args.v, args.w,
                                  _field_of(args))
    print(f"predicted {'equal' if res.predicted else 'different'}")
    if res.predicted:
        print(f"reduced {res.evidence['reduced']}/{res.evidence['total']}")
    else:
        print("witness ranks " + " ".join(map(str, res.evidence["ranks"])))
    print(f"verified {'true' if res.verified else 'false'}")
    return 0 if res.verified else 1


def _indep(args):
    shape = _axes_list(args.shape)
    stmts = [tensors.parse_statement(s) for s in args.statements.split(",")]
    gens = tensors.independence_ideal(shape, stmts, _field_of(args))
    ord = tensors.tensor_var_order(shape)
    namer = tensors.tensor_var_namer(shape)
    lines = [render(g, ord, namer) for g in gens]
    lines.append(f"generators {len(gens)}")
    _write(lines)
    return 0


def _add_field_flag(p):
    p.add_argument("--field", type=int, default=0, metavar="P",
                   help="work over GF(P) instead of the rationals")


def _positive_int(text):
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _check_flags(p):
    p.add_argument("--threads", type=_positive_int, default=1, metavar="N",
                   help="accepted for compatibility; selects nothing, the check is serial")
    p.add_argument("--no-coprime-skip", action="store_true")
    p.add_argument("--fail-fast", action="store_true")


def _spair_flags(p):
    p.add_argument("--m1", required=True, help="minor spec vertex:r1,..;c1,..")
    p.add_argument("--m2", required=True)
    p.add_argument("--decompose", action="store_true")


# The verbs run on a layout, each a --quiver verb and, but for spair, a verb
# of double: verb -> (help, adds its own flags, handler(layout, ord, field, args)).
_LAYOUT_VERBS = {
    "gens": ("print the natural generators",
             lambda p: p.add_argument("--out", help="write to file instead of stdout"), _gens),
    "check": ("verify the Groebner property by S-pair reduction", _check_flags, _check),
    "certify": ("chain certificates per generator pair",
                lambda p: p.add_argument("--pairs", default="all", help="'all' or 'i,j'"),
                _certify),
    "spair": ("S-polynomial and decomposition of two minors", _spair_flags, _spair),
    "init-ideal": ("initial ideal generators", lambda p: None, _init_ideal),
}


def _layout_flags(p, verb):
    """Give p, a parser of a layout verb or None, --field and the verb's own flags."""
    if p:
        _add_field_flag(p)
        _LAYOUT_VERBS[verb][1](p)
    return p


def build_parser(argv=None):
    """The parser of the CLI, with a parser for every verb, so that usage and
    help list them all.  Only a verb named by a word of argv gets its flags,
    and double and tensor their verbs, since no other verb can be run; with
    argv None, every verb gets them."""
    def verb(sub, name, **kwargs):
        """The parser of name in sub, returned if it is to get its flags."""
        p = sub.add_parser(name, **kwargs)
        return p if argv is None or name in argv else None

    ap = argparse.ArgumentParser(prog="quivergb")
    sub = ap.add_subparsers(dest="verb", required=True)

    for name, (about, _, _) in _LAYOUT_VERBS.items():
        p = _layout_flags(verb(sub, name, help=about), name)
        if p:
            p.add_argument("--quiver", required=True, help="quiver config file")

    p = verb(sub, "double", help="double determinantal shorthand")
    if p:
        for flag in "mnruv":
            p.add_argument(f"--{flag}", type=int, required=True)
        dsub = p.add_subparsers(dest="subverb", required=True)
        for name in ("gens", "check", "certify", "init-ideal"):
            _layout_flags(verb(dsub, name, help=_LAYOUT_VERBS[name][0]), name)

    p = verb(sub, "tensor", help="tensor utilities")
    if p:
        tsub = p.add_subparsers(dest="tverb", required=True)
        p = verb(tsub, "contract")
        if p:
            p.add_argument("--data", required=True)
            p.add_argument("--axes", required=True, help="comma-separated axes to sum out")
        for name in ("scan", "flatten"):
            p = verb(tsub, name)
            if p:
                p.add_argument("--data", required=True)
                p.add_argument("--axis", type=int, required=True)

    p = verb(sub, "triple-eq", help="double vs triple ideal equality check")
    if p:
        for flag in "mnruvw":
            p.add_argument(f"--{flag}", type=int, required=True)
        _add_field_flag(p)

    p = verb(sub, "indep", help="independence ideal generators")
    if p:
        p.add_argument("--shape", required=True, help="comma-separated table shape")
        p.add_argument("--statements", required=True,
                       help="comma-separated: a_b | a|rest | a_b|c | a|rest:s")
        _add_field_flag(p)

    return ap


def main(argv=None):
    # The last collection, at exit, would walk every object of the run only
    # for the process to end; frozen first, they are left to the exit.  A
    # caller that runs main in process collects as usual until it exits, and
    # a forked certify worker leaves by os._exit, which runs no handler.
    atexit.unregister(gc.freeze)  # one handler, however often main runs
    atexit.register(gc.freeze)
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        verb = args.subverb if args.verb == "double" else args.verb
        if verb in _LAYOUT_VERBS:
            return _LAYOUT_VERBS[verb][2](*_load_layout(args), _field_of(args), args)
        if verb == "tensor":
            return _tensor(args)
        if verb == "triple-eq":
            return _triple_eq(args)
        return _indep(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
