"""Command-line interface.

Subcommands:
  lyndon    enumerate Lyndon words over X, Y, or Y0
  table     print reference tables (dual bases, pi/sigma, C^-, Eulerian)
  verify    run identity checks; prints a JSON report, exit 0 iff pass
  eval      evaluate a polylogarithm or a negative-index harmonic sum
  simulate  truncated Chen/Fliess output of a polynomial system

Global flags: --format {text,json}, --precision DIGITS, --seed N.
The environment variable NCGEN_MAX_DEPTH caps every depth-like argument,
and the degree (weight + length) of an `eval hneg` word.
The argument parser is built once per process and reused by every main().

JSON output is json.dumps(payload, indent=2) byte for byte, floats
rounded to --precision significant digits, of which at most 17 are used
(text output rounds the same way). A closed stdout pipe (`ncgen ... |
head`) ends the command quietly with exit code 1; any other failed write
prints one "error: cannot write output: ..." line and exits with code 2.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from ncgen.words import (
    X,
    Y,
    Y0,
    lyndon_words,
    str_to_word,
    word_to_str,
)


class CLIError(Exception):
    pass


def _parse_word(text):
    try:
        return str_to_word(text)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _round(x, digits):
    """x to `digits` significant digits: how every printed float rounds."""
    return float("%.*g" % (digits, x))


_encode_str = json.encoder.encode_basestring_ascii


def _to_json(obj, digits, write):
    """Write json.dumps(obj, indent=2) byte for byte, each float first
    rounded by _round and each word series (an ncpoly.NCPoly, the one
    object that is not a JSON value) written as its
    to_json_dict()["terms"]; every chunk goes to write as it is made.

    Strings go through json's C escaper and other scalars through
    json.dumps, so json's pure-Python indent encoder never runs. A series
    is written one string per term, with no dict per term, and each word
    is named once per call."""
    names = {}  # alphabet -> {word: its name as a JSON string}

    def series(P, indent):
        if not P.terms:
            write("[]")
            return
        inner = indent + "  "
        lead = "{" + inner + '  "word": '
        mid = "," + inner + '  "coef": '
        close = inner + "}"
        known = names.setdefault(P.alphabet, {})
        sep = "[" + inner
        for w, c in sorted(P.terms.items()):
            name = known.get(w)
            if name is None:
                name = known[w] = _encode_str(word_to_str(w, P.alphabet))
            write(f"{sep}{lead}{name}{mid}{_encode_str(str(c))}{close}")
            sep = "," + inner
        write(indent + "]")

    def walk(obj, indent):  # indent: the newline and spaces before a closer
        if isinstance(obj, str):
            write(_encode_str(obj))
        elif isinstance(obj, dict) and obj:
            inner = indent + "  "
            sep = "{" + inner
            for k, v in obj.items():
                write(sep + _encode_str(k) + ": ")
                walk(v, inner)
                sep = "," + inner
            write(indent + "}")
        elif isinstance(obj, (list, tuple)) and obj:
            inner = indent + "  "
            sep = "[" + inner
            for v in obj:
                write(sep)
                walk(v, inner)
                sep = "," + inner
            write(indent + "]")
        elif obj is None or isinstance(obj, (int, float, dict, list, tuple)):
            # a scalar, {} or []
            write(json.dumps(_round(obj, digits) if isinstance(obj, float)
                             else obj))
        else:
            series(obj, indent)

    walk(obj, "\n")


def _emit(args, payload, text_lines=None):
    """Print payload as json.dumps(payload, indent=2) would, floats rounded
    to --precision and series as term lists (see _to_json), or in text
    format the lines text_lines(payload), which rounds the floats it
    prints with _round. JSON is streamed: each chunk goes to
    sys.stdout.write as it is made, so the document is never held whole.
    A closed pipe or another failed write raises OSError, for main() to
    report."""
    if args.format == "json" or text_lines is None:
        out = sys.stdout
        if out is not None:  # None: stdout was closed at start-up
            _to_json(payload, args.precision, out.write)
            out.write("\n")
    else:
        for line in text_lines(payload):
            print(line)


def _number(kind, ok, rule):
    """argparse type: kind(text), rejected with the rule unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("%s, got %s" % (rule, text))
        return value
    parse.__name__ = kind.__name__  # argparse reports "invalid int value"
    return parse


_POSITIVE = _number(int, lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE = _number(int, lambda v: v >= 0, "must be >= 0")
_FINITE = _number(float, math.isfinite, "must be finite")


def _precision(text):
    """--precision: an int >= 1, held at 17, since 17 significant digits
    already round-trip a float: more print the same bytes."""
    return min(_POSITIVE(text), 17)


_precision.__name__ = "int"  # as _number's: "invalid int value"


def _depth_cap(args):
    cap = os.environ.get("NCGEN_MAX_DEPTH")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise CLIError("NCGEN_MAX_DEPTH must be a positive integer, got %r"
                       % cap)
    cap = int(cap)
    sizes = {attr: getattr(args, attr, None)
             for attr in ("depth", "max_len", "max_weight", "max_n")}
    if getattr(args, "which", None) == "hneg":  # h_neg's cost grows with it
        word = _parse_word(args.word)[0]
        sizes["word degree"] = sum(word) + len(word)
    for attr, val in sizes.items():
        if val is not None and val > cap:
            raise CLIError(
                "%s=%d exceeds NCGEN_MAX_DEPTH=%d" % (attr, val, cap))


# ---------------------------------------------------------------------------
# lyndon

def cmd_lyndon(args):
    try:
        words = lyndon_words(args.alphabet, max_length=args.max_len,
                             max_weight=args.max_weight)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    payload = {"alphabet": args.alphabet,
               "count": len(words),
               "words": [word_to_str(w, args.alphabet) for w in words]}
    _emit(args, payload, lambda p: p["words"])
    return 0


# ---------------------------------------------------------------------------
# tables

def cmd_table(args):
    from ncgen import asymptotics, hopf, ncpoly, negpolylog

    if args.which == "dual-bases":
        alphabet = args.alphabet
        try:
            lws = lyndon_words(alphabet, max_length=args.max_len,
                               max_weight=args.max_weight)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        pbw, dual = hopf.basis_pair(alphabet)
        rows = [{"lyndon": word_to_str(l, alphabet), "p": pbw(l),
                 "s": dual(l)} for l in lws]
        names = {}  # one name per word for the whole table
        _emit(args, {"alphabet": alphabet, "rows": rows}, lambda pl: (
            "%-12s  P = %s\n%-12s  S = %s" % (
                r["lyndon"], ncpoly.poly_to_str(r["p"], names), "",
                ncpoly.poly_to_str(r["s"], names))
            for r in pl["rows"]))
        return 0

    if args.which == "pi-sigma":
        if args.max_weight is None:
            raise CLIError("pi-sigma needs --max-weight")
        rows = [{"word": word_to_str(w, Y), "pi": hopf.pbw_pi(w),
                 "sigma": hopf.dual_sigma(w)}
                for w in ncpoly.words_up_to(Y, args.max_weight) if w]
        names = {}
        _emit(args, {"rows": rows}, lambda pl: (
            "%-10s  Pi = %-40s Sigma = %s" % (
                r["word"], ncpoly.poly_to_str(r["pi"], names),
                ncpoly.poly_to_str(r["sigma"], names))
            for r in pl["rows"]))
        return 0

    if args.which == "cminus":
        if args.max_weight is None:
            raise CLIError("cminus needs --max-weight")
        rows = [{"word": word_to_str(w, Y),
                 "degree": asymptotics.growth_degree(w),
                 "c_minus": str(asymptotics.c_minus(w)),
                 "b_minus": str(asymptotics.b_minus(w))}
                for w in ncpoly.words_up_to(Y, args.max_weight) if w]
        _emit(args, {"rows": rows}, lambda pl: [
            "%-10s d=%-3s C=%-12s B=%s" % (r["word"], r["degree"],
                                           r["c_minus"], r["b_minus"])
            for r in pl["rows"]])
        return 0

    if args.which == "eulerian":
        n_max = args.max_n if args.max_n is not None else 6
        rows = [{"n": n, "values": [str(negpolylog.eulerian(n, k))
                                    for k in range(max(n - 1, 0) + 1)]}
                for n in range(1, n_max + 1)]
        _emit(args, {"rows": rows}, lambda pl: [
            "n=%d: %s" % (r["n"], " ".join(r["values"])) for r in pl["rows"]])
        return 0

    raise CLIError("unknown table %r" % args.which)


# ---------------------------------------------------------------------------
# verify

def verify_duality(args):
    from ncgen import hopf
    from ncgen.ncpoly import _linear, words_up_to
    depth = args.depth or 4
    alphabet = args.alphabet
    ws = [w for w in words_up_to(alphabet, depth) if w]
    pbw, dual = hopf.basis_pair(alphabet)
    cols = {}  # the P basis transposed: cols[w] = {v: <P_v | w>}
    for v in ws:
        for w, c in pbw(v).terms.items():
            cols.setdefault(w, {})[v] = c
    worst = 0
    for u in ws:  # row u of the pairing: <S_u | P_v> for each v, 0 if missing
        row = _linear(dual(u).terms, lambda w: cols.get(w, {}))
        row[u] = row.get(u, 0) - 1
        worst = max(worst, *map(abs, row.values()))
    return {"identity": "dual-bases-pairing", "alphabet": alphabet,
            "depth": depth, "max_abs_err": float(worst), "pass": worst == 0}


def verify_grouplike(args):
    from ncgen.ncpoly import grouplike_err
    from ncgen.polylog import harmonic_series
    from ncgen.renorm import rounding_tol, z_shuffle_series, z_stuffle_series
    depth = args.depth or 4
    h_err = float(grouplike_err(harmonic_series(10, depth), "stuffle", depth))
    zsh, zst = z_shuffle_series(depth), z_stuffle_series(depth)
    zsh_err = float(grouplike_err(zsh, "shuffle", depth))
    zst_err = float(grouplike_err(zst, "stuffle", depth))
    worst = max(h_err, zsh_err, zst_err)
    return {"identity": "grouplike", "depth": depth,
            "harmonic_err": h_err, "z_shuffle_err": zsh_err,
            "z_stuffle_err": zst_err,
            "max_abs_err": worst,
            "pass": (h_err == 0.0 and zsh_err <= rounding_tol(zsh)
                     and zst_err <= rounding_tol(zst))}


def verify_bridge(args):
    from ncgen.renorm import bridge_check
    depth = args.depth or 4
    report = bridge_check(depth)
    return {"identity": "bridge", "depth": depth,
            "max_abs_err": report["max_abs_err"], "pass": report["pass"]}


def verify_abel(args):
    from ncgen.renorm import abel_limits_check
    depth = args.depth or 3
    report = abel_limits_check(max_weight=depth)
    return {"identity": "abel", "depth": depth,
            "max_abs_err": report["max_fitted_gap"], "pass": report["pass"]}


def verify_cminus(args):
    import random
    from ncgen.asymptotics import cone_linear_check
    rng = random.Random(args.seed)
    depth = args.depth or 4
    trials = 100
    ok = True
    for _ in range(trials):
        u = tuple(rng.randint(0, depth) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.randint(0, depth) for _ in range(rng.randint(1, 3)))
        # the top stratum of u st v is u sh v: one check covers both
        ok = ok and cone_linear_check(u, v, "shuffle")
    return {"identity": "cminus-cone-linearity", "depth": depth,
            "trials": trials, "max_abs_err": 0.0 if ok else 1.0, "pass": ok}


def verify_faulhaber(args):
    from ncgen.negpolylog import faulhaber_roundtrip
    from ncgen.ncpoly import words_up_to

    depth = args.depth or 6
    ok = True
    tested = 0
    for w in words_up_to(Y, depth):
        if not w or len(w) > 3:
            continue
        ok = ok and faulhaber_roundtrip(w)
        tested += 1
    return {"identity": "faulhaber-roundtrip", "depth": depth,
            "words": tested, "max_abs_err": 0.0 if ok else 1.0, "pass": ok}


def verify_dynsys(args):
    from ncgen.dynsys import (
        StatePoly,
        chen_ode,
        residual_identity_check,
        shuffle_morphism_check,
        system_hypergeometric,
    )
    from ncgen.rational import rep_hypergeometric
    depth = args.depth or 4
    q0 = (Fraction(2, 3), Fraction(-1, 5))
    t = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 3))
    system = system_hypergeometric(*t, q0)
    rep = rep_hypergeometric(*t, q0=q0)
    exact_ok = (system.generating_series(min(depth, 5))
                == rep.truncated_series(min(depth, 5)))
    full = chen_ode(0.2, 0.5, depth)
    comp = chen_ode(0.35, 0.5, depth) * chen_ode(0.2, 0.35, depth)
    path_err = full.max_abs_diff(comp)
    q1 = StatePoly.coord(2, 0)
    q2 = StatePoly.coord(2, 1)
    shuffle_ok = shuffle_morphism_check(system, q1, q2, min(depth, 4))
    residual_ok = residual_identity_check(system, (0, 1), min(depth, 4))
    ok = exact_ok and shuffle_ok and residual_ok and path_err <= 1e-8
    return {"identity": "dynsys", "depth": depth,
            "rep_vs_fields_exact": exact_ok,
            "path_composition_err": path_err,
            "shuffle_morphism": shuffle_ok,
            "residual_identity": residual_ok,
            "max_abs_err": path_err if ok else max(path_err, 1.0),
            "pass": ok}


VERIFIERS = {
    "duality": verify_duality,
    "grouplike": verify_grouplike,
    "bridge": verify_bridge,
    "abel": verify_abel,
    "cminus": verify_cminus,
    "faulhaber": verify_faulhaber,
    "dynsys": verify_dynsys,
}


def cmd_verify(args):
    report = VERIFIERS[args.which](args)
    _emit(args, report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args):
    if args.which == "li":
        from ncgen.polylog import auto_terms, polylog_eval
        word, alphabet = _parse_word(args.word)
        if args.z is None:
            raise CLIError("li needs --z")
        terms = auto_terms(args.z) if args.terms is None else args.terms
        try:
            value, tail = polylog_eval(word, args.z, terms, alphabet)
        except (ValueError, OverflowError) as exc:
            raise CLIError(str(exc)) from None
        payload = {"word": args.word, "z": args.z, "terms": terms,
                   "value": value, "tail_bound": tail}
        _emit(args, payload, lambda p: [
            "Li_{%s}(%s) = %s  (tail <= %s)" % (
                p["word"], _round(p["z"], args.precision),
                _round(p["value"], args.precision),
                _round(p["tail_bound"], args.precision))])
        return 0

    if args.which == "hneg":
        from ncgen.negpolylog import h_neg
        word, alphabet = _parse_word(args.word)
        if word and alphabet == X:  # "e" parses as the empty X-word
            raise CLIError("hneg expects a Y/Y0 word such as 'y2 y1'")
        if args.n is not None:
            val = h_neg(word).eval(args.n)
            payload = {"word": args.word, "n": args.n, "value": str(val)}
            _emit(args, payload,
                  lambda p: ["H^-_{%s}(%d) = %s" % (p["word"], p["n"],
                                                    p["value"])])
            return 0
        coefs = [str(c) for c in h_neg(word).coefs]
        payload = {"word": args.word,
                   "polynomial": {"var": "N", "coefs": coefs}}
        _emit(args, payload,
              lambda p: ["H^-_{%s}(N): coefs %s" %
                         (p["word"], p["polynomial"]["coefs"])])
        return 0

    raise CLIError("unknown eval target %r" % args.which)


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args):
    from ncgen.dynsys import (
        chen_drift,
        chen_ode,
        fliess_output,
        load_system,
    )
    try:
        system = load_system(args.system)
    except (OSError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise CLIError("cannot load system: %s" % exc) from None
    depth = args.depth
    if args.z is not None:
        z0 = args.z0 if args.z0 is not None else system.z0
        if z0 is None:
            z0 = 0.2
        try:
            chen = chen_ode(z0, args.z, depth)
        except ValueError as exc:
            raise CLIError("z0 = %s, z = %s: %s" % (z0, args.z, exc)) from None
        payload = {"mode": "forms", "z0": z0, "z": args.z}
    elif args.T is not None:
        try:
            controls = tuple(_FINITE(c) for c in args.controls.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            raise CLIError("bad --controls %r: want finite numbers, "
                           "comma-separated" % args.controls) from None
        if len(controls) != 2:  # one per field: x0 and x1
            raise CLIError("need 2 controls, got %d" % len(controls))
        try:
            chen = chen_drift(args.T, depth, controls)
        except OverflowError:
            raise CLIError("T = %s: T^%d overflows a float"
                           % (args.T, depth)) from None
        payload = {"mode": "drift", "T": args.T, "controls": list(controls)}
    else:
        raise CLIError("simulate needs --z or --T")
    try:
        y = fliess_output(system, chen, depth)
    except OverflowError:  # a Fliess coefficient beyond the float range
        y = math.inf
    if not math.isfinite(y):
        raise CLIError("the output overflows a float")
    payload.update(depth=depth, output=y)
    _emit(args, payload,
          lambda p: ["output = %s" % _round(p["output"], args.precision)])
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncgen",
        description="Exact computer algebra for shuffle/stuffle Hopf "
                    "algebras, polylogarithms, harmonic sums, and "
                    "truncated Chen/Fliess series.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--precision", type=_precision, default=12)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lyndon", help="enumerate Lyndon words")
    p.add_argument("--alphabet", choices=(X, Y, Y0), default=X)
    p.add_argument("--max-len", type=_POSITIVE, default=None)
    p.add_argument("--max-weight", type=_POSITIVE, default=None)
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("table", help="reference tables")
    p.add_argument("which", choices=("dual-bases", "pi-sigma", "cminus",
                                     "eulerian"))
    p.add_argument("--alphabet", choices=(X, Y), default=X)
    p.add_argument("--max-len", type=_POSITIVE, default=None)
    p.add_argument("--max-weight", type=_POSITIVE, default=None)
    p.add_argument("--max-n", type=_POSITIVE, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="identity checks (JSON report)")
    p.add_argument("which", choices=sorted(VERIFIERS))
    p.add_argument("--alphabet", choices=(X, Y), default=X)
    p.add_argument("--depth", type=_POSITIVE, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate quantities")
    p.add_argument("which", choices=("li", "hneg"))
    p.add_argument("--word", required=True)
    p.add_argument("--z", type=_FINITE, default=None)
    p.add_argument("--terms", type=_POSITIVE, default=None)
    p.add_argument("--n", type=_NONNEGATIVE, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="truncated Chen/Fliess output")
    p.add_argument("--system", required=True)
    p.add_argument("--z", type=_FINITE, default=None)
    p.add_argument("--z0", type=_FINITE, default=None)
    p.add_argument("--T", type=_FINITE, default=None)
    p.add_argument("--controls", default="1.0,0.0")
    p.add_argument("--depth", type=_POSITIVE, default=8)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _depth_cap(args)
        code = args.func(args)
        # flush now, so a failed write lands below and not at exit; print
        # skips a stdout that was closed at start-up (sys.stdout is None)
        print(end="", flush=True)
    except CLIError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:  # from a write to stdout: the only other I/O,
        # reading a system file, raises CLIError. The interpreter flushes
        # stdout again at exit; send that nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader has gone: no noise
            return 1
        print("error: cannot write output: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
