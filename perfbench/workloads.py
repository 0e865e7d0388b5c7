"""The workloads: seeded job lists with their expected answers.

A plan is a JSON-ready dict: ``warm`` (caches the worker fills before it
reports ready) and ``jobs``. Each job names an operation, its inputs and
its check; the expected values come from reference.py, never from ncgen.
ncgen only ever sees the generated inputs.

Operations that hit a known defect stay in the plans and count as
failed (KNOWN_FAILURES), so each fix shows. Every ``verify`` identity is
a theorem, so its expected verdict is pass.
"""

import math
import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("tables", "analytic", "session")

KNOWN_FAILURES = {
    "verify bridge --depth 5":
        "zeta by 1e5-term partial sums: err 1.08e-2 > tol 1e-2",
    "verify bridge --depth 6": "same truncation: err 6.8e-2 > tol 1e-2",
    "verify abel --depth 4": "fitted gap 7.9e-3 > tol 1e-3",
    "eval li y0 y1 --z 0.5":
        "alphabet guessed from the letters: prints Li_2(1/2), not log 2",
    "eval hneg y2 y1 --n 3000": "h_neg_value recurses once per n: RecursionError",
    "harmonic (2, 1) 3000": "harmonic recurses once per N: RecursionError",
}

LI_Z = (0.1, 0.5, 0.9, 0.99, 0.999)
ZETA_TERMS = 100000   # partial-sum length behind ncgen's zeta values


def build(name, seed):
    rng = random.Random("%s:%d" % (name, seed))
    return {"tables": _tables, "analytic": _analytic,
            "session": _session}[name](rng)


def _terms(p):
    return [[list(w), str(c)] for w, c in sorted(p.items())]


def _digits(x):
    return ref.mpmath.nstr(x, 30)


def _cli(job_id, argv, check):
    return {"id": job_id, "op": "cli", "argv": argv, "check": check}


# ---------------------------------------------------------------------------
# tables: cold, exact Hopf algebra

def _tables(rng):
    # seven small jobs, diagonal X 6 and seven large ones, so the median
    # job is one job and query_p50_ms does not jump between two
    ys = [w for w in ref.words_up_to("Y", 7) if w]
    same_weight = [(u, v) for u in ys for v in ys if sum(u) == sum(v)]
    non_lyndon = [w for w in ys if sum(w) == 7 and not ref.is_lyndon(w, "Y")]
    cminus = [w for w in ref.words_up_to("Y", 8) if w]
    jobs = [
        _cli("table pi-sigma --max-weight 7",
             ["--format", "json", "table", "pi-sigma", "--max-weight", "7"],
             {"type": "pi_sigma",
              "words": [ref.word_str(w, "Y") for w in ys],
              "pairs": [[ys.index(u), ys.index(v)]
                        for u, v in rng.sample(same_weight, 40)]}),
        _cli("verify duality --alphabet Y --depth 6",
             ["verify", "duality", "--alphabet", "Y", "--depth", "6"],
             {"type": "verify"}),
        _cli("table dual-bases --alphabet X --max-len 10",
             ["--format", "json", "table", "dual-bases", "--alphabet", "X",
              "--max-len", "10"],
             {"type": "dual_bases", "count": ref.lyndon_count_x(10),
              "pairs": [[rng.randrange(ref.lyndon_count_x(10)) for _ in "uv"]
                        for _ in range(40)]}),
        _cli("verify duality --depth 6",
             ["verify", "duality", "--depth", "6"], {"type": "verify"}),
        {"id": "diagonal_factorization_check X 6", "op": "diagonal",
         "args": ["X", 6]},
        {"id": "diagonal_factorization_check Y 6", "op": "diagonal",
         "args": ["Y", 6]},
        _cli("verify faulhaber --depth 6",
             ["verify", "faulhaber", "--depth", "6"], {"type": "verify"}),
        # the second exact elimination: a dense, rank-deficient Hankel block
        {"id": "hankel_rank hypergeometric 5", "op": "hankel",
         "params": ["1/4", "1/4", "1/3"], "depth": 5, "rank": 2},
        _cli("table cminus --max-weight 8",
             ["--format", "json", "table", "cminus", "--max-weight", "8"],
             {"type": "cminus",
              "rows": {ref.word_str(w, "Y"): str(_c_minus(w))
                       for w in rng.sample(cminus, 30)},
              "count": len(cminus)}),
    ]
    for w in rng.sample(non_lyndon, 4):
        jobs.append({"id": "sigma_by_products %s" % (w,),
                     "op": "sigma_products", "word": list(w)})
    # exact identities that reach the other layers
    params = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 3)]
    q0 = [Fraction(2, 3), Fraction(-1, 5)]
    coeffs = {w: ref.hypergeometric_coefficient(*params, q0, w)
              for w in ref.words_up_to("X", 6)}
    jobs.append({"id": "hypergeometric series, fields vs representation",
                 "op": "fields_vs_rep", "params": [str(t) for t in params],
                 "q0": [str(c) for c in q0], "depth": 6,
                 "expect": _terms({w: c for w, c in coeffs.items() if c})})
    jobs.append({"id": "const_log_identity 12 5", "op": "const_log",
                 "args": [12, 5]})
    return {"warm": [], "jobs": jobs}


def _limit_job(rng, n):
    # H^-_w(n) / (C^-_w n^d), from the literal sum and the product formula
    w = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
    d = sum(w) + len(w)
    ratio = Fraction(ref.h_neg_exact(w, n)[n]) / (_c_minus(w) * n ** d)
    return {"id": "limit_validation %s %d" % (w, n), "op": "limit",
            "word": list(w), "n": n, "ratio": float(ratio)}


def _c_minus(w):
    # C^-_w = prod over nonempty suffixes v of 1/(weight(v) + |v|)
    out = Fraction(1)
    for k in range(len(w)):
        out /= sum(w[k:]) + len(w) - k
    return out


# ---------------------------------------------------------------------------
# analytic: cold, float layer

def _li_terms(z):
    # enough terms that z^T stays below ~1e-17
    return max(400, math.ceil(40 / (1 - z)))


def _li_job(w, alphabet, z, job_id=None):
    # the tolerance is the reference's own tail beyond the T terms ncgen
    # is asked to sum, plus a float-rounding allowance of 1e-12 relative
    yw = ref.x_to_y(w) if alphabet == "X" else w
    text = ref.word_str(w, alphabet)
    terms = _li_terms(z)
    value, tail = ref.li_with_tail(yw, z, terms)
    return _cli(job_id or "eval li %s --z %s" % (text, z),
                ["--format", "json", "--precision", "17", "eval", "li",
                 "--word", text, "--z", repr(z), "--terms", str(terms)],
                {"type": "li", "ref": _digits(value),
                 "tol": float(abs(tail)) + 1e-12 * max(1.0, abs(float(value)))})


def _random_x_word(rng, max_len):
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(1, max_len - 1))) + (1,)


def _analytic(rng):
    jobs = []
    for d in (4, 5, 6):
        jobs.append(_cli("verify bridge --depth %d" % d,
                         ["verify", "bridge", "--depth", str(d)],
                         {"type": "verify"}))
    for d in (3, 4):
        jobs.append(_cli("verify abel --depth %d" % d,
                         ["verify", "abel", "--depth", str(d)],
                         {"type": "verify"}))
    jobs.append(_cli("verify grouplike --depth 5",
                     ["verify", "grouplike", "--depth", "5"], {"type": "verify"}))
    jobs.append(_cli("verify dynsys --depth 8",
                     ["verify", "dynsys", "--depth", "8"], {"type": "verify"}))
    words = [(_random_x_word(rng, 4), "X") for _ in range(2)]
    words += [(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))), "Y")
              for _ in range(2)]
    for _ in range(2):
        # Y0 words with y0 and a letter >= 2; the y0/y1-only words are the
        # alphabet-guess defect, which the fixed y0 y1 job below covers
        w = (0, rng.randint(2, 3)) + tuple(rng.randint(0, 3)
                                           for _ in range(rng.randint(0, 1)))
        words.append((tuple(rng.sample(w, len(w))), "Y0"))
    for w, alphabet in words:
        for z in LI_Z:
            jobs.append(_li_job(w, alphabet, z))
    jobs.append(_li_job((0, 1), "Y0", 0.5, "eval li y0 y1 --z 0.5"))
    # the tolerance is the truncation bound of the partial sums the
    # regularized values are made of, plus float rounding
    # every word of weight <= 5, in seeded order: a sample would make the
    # worst error, and so max_abs_err, depend on the seed
    ys = [w for w in ref.words_up_to("Y", 5) if w]
    for w in rng.sample(ys, len(ys)):
        tol = ref.truncation_bound(ref.stuffle_expansion(w), ZETA_TERMS)
        jobs.append({"id": "zeta_stuffle_reg %s" % (w,), "op": "zeta_stuffle",
                     "word": list(w), "ref": _digits(ref.zeta_stuffle(w)),
                     "tol": tol + 1e-12})
    xs = [w for w in ref.words_up_to("X", 5) if w]
    for w in rng.sample(xs, len(xs)):
        tol = ref.truncation_bound(ref.shuffle_expansion(w), ZETA_TERMS,
                                   y_words=False)
        jobs.append({"id": "zeta_shuffle_reg %s" % (w,), "op": "zeta_shuffle",
                     "word": list(w), "ref": _digits(ref.zeta_shuffle(w)),
                     "tol": tol + 1e-12})
    with ref.mpmath.workdps(30):
        gamma = ref.mpmath.euler
        jobs.append({"id": "euler_maclaurin_constants",
                     "op": "euler_maclaurin",
                     "ref": {"gamma": _digits(gamma),
                             "gamma_y1y1": _digits((gamma ** 2 - ref.ZETA[(2,)]) / 2)},
                     "tol": {"gamma": 1e-4, "gamma_y1y1": 1e-2}})
    jobs.append(_chen_job(rng, 5))
    # 2F1 continued along [0.2, z1] by the factorized Chen series
    params = ["1/4", "1/4", "1/3"]
    z1 = round(rng.uniform(0.3, 0.45), 3)
    jobs.append({"id": "2F1 by chen_between 0.2 %s 6" % z1, "op": "hyp_chen",
                 "params": params, "z0": 0.2, "z1": z1, "depth": 6,
                 "q0": ref.hyp2f1_state(*map(Fraction, params), 0.2),
                 "ref": ref.hyp2f1_state(*map(Fraction, params), z1)[0],
                 "tol": 1e-8})
    jobs.append(_limit_job(rng, 10000))
    return {"warm": [], "jobs": jobs}


def _chen_job(rng, depth):
    """chen_between on a seeded segment, checked on three coefficients.

    Coefficients of words of length <= 5 are large enough for an absolute
    check to mean something; longer words have coefficients below it.
    """
    z0, z1 = round(rng.uniform(0.1, 0.3), 3), round(rng.uniform(0.5, 0.7), 3)
    ws = [w for w in ref.words_up_to("X", depth) if w]
    picked = rng.sample([w for w in ws if len(w) == depth], 1)
    picked += rng.sample([w for w in ws if len(w) < depth], 2)
    return {"id": "chen_between %s %s %d" % (z0, z1, depth),
            "op": "chen_between", "args": [z0, z1, depth],
            "coeffs": [[list(w), _digits(ref.iterated_integral(w, z0, z1))]
                       for w in picked],
            "tol": 1e-9}


# ---------------------------------------------------------------------------
# session: warm caches, a seeded stream of small queries

# Equal counts of the seven query kinds of the session definition (no
# usage data says otherwise), plus a few Fliess-coefficient and Const(n)
# queries only so the rational, dynsys and renorm layers are crossed too.
SESSION_MIX = (("shuffle", 420), ("stuffle", 420), ("roundtrip", 420),
               ("hneg", 420), ("cone", 420), ("harmonic", 420),
               ("eval hneg", 420), ("fliess", 30), ("const_log", 30))
SESSION_SYSTEM = ("1/4", "1/4", "1/3"), ("2/3", "-1/5")
SESSION_QUERIES = sum(count for _, count in SESSION_MIX)


def _poly(rng, words):
    return {w: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            for w in rng.sample(words, 3)}


def _session(rng):
    xs = [w for w in ref.words_up_to("X", 4) if w]
    ys = [w for w in ref.words_up_to("Y", 4) if w]
    xs6 = [w for w in ref.words_up_to("X", 6) if w]
    ys6 = [w for w in ref.words_up_to("Y", 6) if w]
    harmonic_words = [w for w in ys if len(w) <= 3]
    exact_h = {}

    def harmonic(w, n):
        if w not in exact_h or len(exact_h[w]) <= n:
            exact_h[w] = ref.harmonic_exact(w, max(n, 500))
        return exact_h[w][n]

    # a fixed mix in seeded order
    kinds = [kind for kind, count in SESSION_MIX for _ in range(count)]
    rng.shuffle(kinds)
    jobs = []
    for kind in kinds:
        if kind in ("shuffle", "stuffle"):
            pool = xs if kind == "shuffle" else ys
            p, q = _poly(rng, pool), _poly(rng, pool)
            jobs.append({"op": kind, "alphabet": "X" if pool is xs else "Y",
                         "p": _terms(p), "q": _terms(q),
                         "expect": _terms(ref.poly_product(
                             p, q, kind == "stuffle"))})
        elif kind == "roundtrip":
            basis = rng.choice(("S", "Sigma"))
            pool = xs6 if basis == "S" else ys6
            jobs.append({"op": "roundtrip", "basis": basis,
                         "alphabet": "X" if basis == "S" else "Y",
                         "p": _terms(_poly(rng, pool))})
        elif kind == "hneg":
            w = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
            n = rng.randint(0, 40)
            jobs.append({"op": "hneg", "word": list(w), "n": n,
                         "value": str(ref.h_neg_exact(w, n)[n])})
        elif kind == "fliess":
            w = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
            params, q0 = ([Fraction(c) for c in part] for part in SESSION_SYSTEM)
            jobs.append({"op": "fliess", "params": SESSION_SYSTEM[0],
                         "q0": SESSION_SYSTEM[1], "word": list(w),
                         "value": str(ref.hypergeometric_coefficient(
                             *params, q0, w))})
        elif kind == "const_log":
            jobs.append({"op": "const_log",
                         "args": [rng.randint(1, 30), rng.randint(1, 4)]})
        elif kind == "cone":
            u = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
            jobs.append({"op": "cone", "u": list(u), "v": list(v),
                         "product": rng.choice(("shuffle", "stuffle"))})
        elif kind == "harmonic":
            w = rng.choice(harmonic_words)
            n = rng.randint(1, 500)
            jobs.append({"op": "harmonic", "word": list(w), "n": n,
                         "value": str(harmonic(w, n))})
        else:
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            n = rng.randint(1, 500)
            jobs.append(_cli(None, ["--format", "json", "eval", "hneg", "--word",
                                    ref.word_str(w, "Y"), "--n", str(n)],
                             {"type": "hneg",
                              "value": str(ref.h_neg_exact(w, n)[n])}))
    # the two recursion-limit defects, at fixed places in the stream
    jobs[SESSION_QUERIES // 3] = _cli(
        "eval hneg y2 y1 --n 3000",
        ["--format", "json", "eval", "hneg", "--word", "y2 y1", "--n", "3000"],
        {"type": "hneg", "value": str(ref.h_neg_exact((2, 1), 3000)[3000])})
    jobs[2 * SESSION_QUERIES // 3] = {
        "id": "harmonic (2, 1) 3000", "op": "harmonic", "word": [2, 1],
        "n": 3000, "value": str(ref.harmonic_exact((2, 1), 3000)[3000])}
    for i, job in enumerate(jobs):
        job["id"] = job.get("id") or "%s #%d" % (job["op"], i)
    return {"warm": [["Y", 7], ["X", 8]], "jobs": jobs}
