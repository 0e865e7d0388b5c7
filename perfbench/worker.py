"""One pass of a workload, in a fresh single-threaded process.

Usage (from run.py): python3 perfbench/worker.py ROOT TRACE < plan.json

The worker reads the plan, imports ncgen from ROOT/src with numpy and
scipy, fills the caches the plan asks for, installs the tracer when TRACE
is 1, prints "ready" and runs every job once. ncgen is reached only through
``ncgen.cli.main`` argv and public module functions, looked up at call
time so the tracer's wrappers are seen. The last stdout line is a JSON
record of the pass: its wall time, the time spent reading the plan (which
run.py takes out of set-up), one entry per job (latency, failed, error
against the reference, reason) and the per-layer totals.
"""

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction

LAYERS = ("words", "ncpoly", "hopf", "polylog", "negpolylog", "asymptotics",
          "renorm", "rational", "dynsys", "cli")


class Modules:
    """The ncgen layer modules, looked up by attribute at call time."""

    def __init__(self, root):
        import importlib

        import numpy  # noqa: F401  (part of the measured set-up)
        import scipy  # noqa: F401

        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        import ncgen
        if os.path.dirname(os.path.abspath(ncgen.__file__)) != os.path.join(src, "ncgen"):
            raise SystemExit("ncgen was not imported from %s" % src)
        self.by_layer = []
        for name in LAYERS:
            try:
                module = importlib.import_module("ncgen." + name)
            except ModuleNotFoundError:
                module = None
            self.by_layer.append(module)
            setattr(self, name, module)


# ---------------------------------------------------------------------------
# checks: result -> (ok, err against the reference or None, reason)

def _pairing(p, q):
    """<p|q> for two printed term lists."""
    a = {t["word"]: Fraction(t["coef"]) for t in p}
    return sum((a[t["word"]] * Fraction(t["coef"]) for t in q if t["word"] in a),
               Fraction(0))


def _json_output(check, parse):
    # verify exits 1 with its report when the identity fails
    allowed = (0, 1) if parse is _verify else (0,)

    def run(result):
        rc, out, err = result
        if rc not in allowed:
            return False, None, "exit %s: %s" % (rc, " ".join((err or out).split())[:120])
        ok, value, reason = parse(check, json.loads(out))
        return ok and rc == 0, value, reason
    return run


def _verify(check, report):
    # the verdict is the check; ncgen's own max_abs_err compares two of its
    # series, not a value against a reference, so it is only reported
    if report.get("pass") is not True:
        return False, None, "verdict fail, max_abs_err %s" % report.get("max_abs_err")
    return True, None, ""


def _li(check, payload):
    ref, tol = float(check["ref"]), check["tol"]
    err = abs(payload["value"] - ref)
    return err <= tol, err, "|%r - %r| > %g" % (payload["value"], ref, tol)


def _hneg(check, payload):
    return payload["value"] == check["value"], None, "wrong H^- value"


def _pi_sigma(check, payload):
    rows = payload["rows"]
    if [r["word"] for r in rows] != check["words"]:
        return False, None, "rows are not the words of weight <= max"
    for i, j in check["pairs"]:
        if _pairing(rows[i]["pi"], rows[j]["sigma"]) != int(i == j):
            return False, None, "<Pi_u|Sigma_v> != delta at %s" % [i, j]
    return True, None, ""


def _dual_bases(check, payload):
    rows = payload["rows"]
    if len(rows) != check["count"]:
        return False, None, "%d rows, expected %d" % (len(rows), check["count"])
    for i, j in check["pairs"]:
        if _pairing(rows[i]["s"], rows[j]["p"]) != int(i == j):
            return False, None, "<S_u|P_v> != delta at %s" % [i, j]
    return True, None, ""


def _cminus(check, payload):
    rows = payload["rows"]
    got = {r["word"]: r["c_minus"] for r in rows}
    bad = [w for w, c in check["rows"].items() if got.get(w) != c]
    return (len(rows) == check["count"] and not bad), None, "C^- rows %s" % bad[:3]


CLI_CHECKS = {"verify": _verify, "li": _li, "hneg": _hneg,
              "pi_sigma": _pi_sigma, "dual_bases": _dual_bases,
              "cminus": _cminus}


def _equal(expected, reason):
    return lambda result: (result == expected, None, reason)


def _close(ref, tol):
    ref = float(ref)

    def run(result):
        err = abs(result - ref)
        return err <= tol, err, "|%r - %r| > %g" % (result, ref, tol)
    return run


def _terms(pairs):
    return {tuple(w): Fraction(c) for w, c in pairs}


# ---------------------------------------------------------------------------
# operations: job -> (thunk, check); inputs are built before the clock starts

def op_cli(m, job):
    argv = job["argv"]

    def thunk():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = m.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    check = job["check"]
    return thunk, _json_output(check, CLI_CHECKS[check["type"]])


def op_diagonal(m, job):
    return (lambda: m.hopf.diagonal_factorization_check(*job["args"]),
            _equal(True, "factorization differs"))


def op_sigma_products(m, job):
    w = tuple(job["word"])

    def thunk():
        return (m.hopf.sigma_by_products(w).terms, m.hopf.dual_sigma(w).terms)
    return thunk, lambda r: (r[0] == r[1], None, "sigma_by_products != dual_sigma")


def op_hankel(m, job):
    rep = m.rational.rep_hypergeometric(*(Fraction(p) for p in job["params"]))
    return (lambda: m.rational.hankel_rank(rep, depth=job["depth"]),
            _equal(job["rank"], "wrong Hankel rank"))


def op_chen_between(m, job):
    coeffs = [(tuple(w), float(c)) for w, c in job["coeffs"]]

    def check(series):
        err = max(abs(series.terms.get(w, 0.0) - c) for w, c in coeffs)
        return err <= job["tol"], err, "coefficient off by %g" % err
    return lambda: m.renorm.chen_between(*job["args"]), check


def _zeta(fn_of):
    def op(m, job):
        w = tuple(job["word"])
        return lambda: fn_of(m)(w), _close(job["ref"], job["tol"])
    return op


def op_euler_maclaurin(m, job):
    checks = {k: _close(v, job["tol"][k]) for k, v in job["ref"].items()}

    def check(result):
        outcomes = [checks[k](result[k]) for k in checks]
        err = max(o[1] for o in outcomes)
        return all(o[0] for o in outcomes), err, "constants off by %g" % err
    return lambda: m.renorm.euler_maclaurin_constants(), check


def _product(name):
    def op(m, job):
        p = m.ncpoly.NCPoly(job["alphabet"], _terms(job["p"]))
        q = m.ncpoly.NCPoly(job["alphabet"], _terms(job["q"]))
        expected = _terms(job["expect"])
        fn = getattr(m.ncpoly, name)
        return (lambda: fn(p, q).terms), _equal(expected, "wrong %s" % name)
    return op


def op_roundtrip(m, job):
    terms = _terms(job["p"])
    p = m.ncpoly.NCPoly(job["alphabet"], terms)

    def thunk():
        coords = m.hopf.decompose_in_basis(p, job["basis"])
        return m.hopf.recompose_from_basis(coords, job["basis"],
                                           job["alphabet"]).terms
    return thunk, _equal(terms, "decompose/recompose is not the identity")


def op_hneg(m, job):
    w, n = tuple(job["word"]), Fraction(job["n"])
    return (lambda: m.negpolylog.h_neg(w).eval(n),
            _equal(Fraction(job["value"]), "H^- polynomial != literal sum"))


def op_cone(m, job):
    args = tuple(job["u"]), tuple(job["v"]), job["product"]
    return (lambda: m.asymptotics.cone_linear_check(*args),
            _equal(True, "cone identity fails"))


def op_harmonic(m, job):
    w, n = tuple(job["word"]), job["n"]
    return (lambda: m.polylog.harmonic(w, n),
            _equal(Fraction(job["value"]), "wrong H_w(N)"))


def _fractions(values):
    return [Fraction(v) for v in values]


def op_fields_vs_rep(m, job):
    params, q0 = _fractions(job["params"]), _fractions(job["q0"])
    expected = _terms(job["expect"])

    def thunk():
        system = m.dynsys.system_hypergeometric(*params, q0)
        rep = m.rational.rep_hypergeometric(*params, q0=q0)
        return (system.generating_series(job["depth"]).terms,
                rep.truncated_series(job["depth"]).terms)
    return thunk, lambda r: (r[0] == expected and r[1] == expected, None,
                             "generating series differ from lambda mu(w) eta")


def op_const_log(m, job):
    return (lambda: m.renorm.const_log_identity(*job["args"]),
            _equal(True, "Const(n) != exp(-sum H_k (-y1)^k / k)"))


def op_limit(m, job):
    w, n = tuple(job["word"]), job["n"]

    def check(report):
        err = abs(report["ratio"] - job["ratio"])
        ok = report["pass"] is True and err <= 1e-12
        return ok, err, "ratio %r, expected %r" % (report["ratio"], job["ratio"])
    return lambda: m.asymptotics.limit_validation(w, n), check


def op_hyp_chen(m, job):
    rep = m.rational.rep_hypergeometric(*_fractions(job["params"]),
                                        q0=_fractions(job["q0"]))

    def thunk():
        chen = m.renorm.chen_between(job["z0"], job["z1"], job["depth"])
        return m.dynsys.fliess_output_rep(rep, chen, job["depth"])
    return thunk, _close(job["ref"], job["tol"])


def op_fliess(m, job):
    params, q0 = _fractions(job["params"]), _fractions(job["q0"])
    system = m.dynsys.system_hypergeometric(*params, q0)
    rep = m.rational.rep_hypergeometric(*params, q0=q0)
    w = tuple(job["word"])
    expected = Fraction(job["value"])

    def thunk():
        return system.fliess_coefficient(w), rep.coefficient(w)
    return thunk, lambda r: (r == (expected, expected), None,
                             "Fliess coefficient != lambda mu(w) eta")


OPS = {
    "cli": op_cli,
    "diagonal": op_diagonal,
    "sigma_products": op_sigma_products,
    "hankel": op_hankel,
    "chen_between": op_chen_between,
    "zeta_stuffle": _zeta(lambda m: m.renorm.zeta_stuffle_reg),
    "zeta_shuffle": _zeta(lambda m: m.renorm.zeta_shuffle_reg),
    "euler_maclaurin": op_euler_maclaurin,
    "shuffle": _product("shuffle"),
    "stuffle": _product("stuffle"),
    "roundtrip": op_roundtrip,
    "hneg": op_hneg,
    "cone": op_cone,
    "harmonic": op_harmonic,
    "fields_vs_rep": op_fields_vs_rep,
    "const_log": op_const_log,
    "limit": op_limit,
    "hyp_chen": op_hyp_chen,
    "fliess": op_fliess,
}


def run_job(m, job, clock=time.perf_counter):
    """[id, latency s, failed, |value - reference| or None, reason]."""
    latency = 0.0
    try:
        thunk, check = OPS[job["op"]](m, job)
        start = clock()
        try:
            result = thunk()
        finally:
            latency = clock() - start
        ok, err, reason = check(result)
    except Exception as exc:  # raising, or output the check cannot read
        return [job["id"], latency, True, None,
                "%s: %s" % (type(exc).__name__, str(exc)[:120])]
    return [job["id"], latency, not ok, err, "" if ok else reason]


def warm(m, caches):
    """Fill the dual-basis caches through the public functions."""
    for alphabet, degree in caches:
        for w in m.ncpoly.words_up_to(alphabet, degree):
            if alphabet == "X":
                m.hopf.pbw_p(w)
                m.hopf.dual_s(w)
            else:
                m.hopf.pbw_pi(w)
                m.hopf.dual_sigma(w)


def main():
    root, traced = sys.argv[1], sys.argv[2] == "1"
    start = time.perf_counter()
    plan = json.load(sys.stdin)
    plan_s = time.perf_counter() - start
    m = Modules(root)
    warm(m, plan["warm"])
    tracer = None
    if traced:
        from tracer import Tracer, install
        tracer = Tracer(LAYERS)
        install(tracer, m.by_layer)
    print("ready", flush=True)
    start = time.perf_counter()
    records = [run_job(m, job) for job in plan["jobs"]]
    run_s = time.perf_counter() - start
    print(json.dumps({"run_s": run_s, "plan_s": plan_s, "jobs": records,
                      "layers": tracer.totals() if tracer else None}))


if __name__ == "__main__":
    main()
