"""Polynomial input/state systems, Chen series, and Fliess expansions.

A system is a family of polynomial vector fields A_i (one per letter),
an observation polynomial f, and an initial state q0; its polynomials
in the state are polylog.StatePolys.  The generating series of f
assigns to the word w = x_{i1}...x_{ik} the iterated directional
derivative with the FIRST letter applied first:

    <sigma(f)|w> = ( A_{ik}( ... A_{i2}( A_{i1}(f)) ... ) )(q0),

which is the order matching lambda mu(w1)...mu(wk) eta for linear
systems.  The dual Chen coefficients alpha_w carry the first letter
OUTERMOST: d/dz alpha_{x_i v}(z0 -> z) = omega_i(z) alpha_v(z0 -> z).
With these pairings the output is y(z) = sum_w <sigma(f)|w> alpha_w.

Chen series for the two singular forms dz/z and dz/(1-z) come either
from the polylogarithms (renorm.l_series, L(z) = sum_w Li_w(z) w) or
from direct integration of the word ODE, both on segments inside (0, 1); one
function, _alphas, integrates the word ODE on any suffix-closed word
list: every word up to a depth for chen_ode, the suffixes of one word
for iterated_integral.  For ordinary (non-singular) constant controls on
[0, T] the coefficients collapse to u_{i1}...u_{ik} T^k/k!.  Every ODE
here is solved by one call, _solve: the DOP853 Runge-Kutta pair of
Hairer, Norsett & Wanner (Solving Ordinary Differential Equations I,
sections II.4-II.5) with rtol 1e-12 and atol 1e-14, a numpy loop that
takes the steps scipy's BSD-3 solve_ivp takes and gives the same floats,
so ncgen needs numpy alone.  The output is one sum, _pair, whether the
coefficients come from the vector fields or from a linear representation.
"""

import json
import math
from fractions import Fraction

import numpy as np

from ncgen.ncpoly import NCPoly, residual_right, shuffle, words_up_to
from ncgen.hopf import dual_s, pbw_p
from ncgen.polylog import StatePoly
from ncgen.renorm import _check_segment
from ncgen.words import X


class VectorField:
    """A = sum_j components[j] d/dq_j acting on state polynomials."""

    __slots__ = ("m", "components")

    def __init__(self, components):
        self.components = tuple(components)
        self.m = self.components[0].m

    def apply(self, f):
        out = StatePoly(self.m)
        for j, comp in enumerate(self.components):
            if not comp.is_zero():
                out = out + comp * f.diff(j)
        return out


class PolySystem:
    """fields[i] is the vector field of letter i; f the observation."""

    def __init__(self, fields, observation, q0, z0=None):
        self.fields = list(fields)
        self.observation = observation
        self.q0 = tuple(Fraction(c) for c in q0)
        self.z0 = z0
        # a memo that lives and dies with the system; functools.cache on
        # the method would keep every system alive
        self._derivative_memo = {(): observation}

    @property
    def m(self):
        return self.observation.m

    def word_derivative(self, w):
        """A(w) applied to the observation, first letter innermost."""
        w = tuple(w)
        got = self._derivative_memo.get(w)
        if got is None:
            got = self.fields[w[-1]].apply(self.word_derivative(w[:-1]))
            self._derivative_memo[w] = got
        return got

    def fliess_coefficient(self, w):
        """<sigma(f)|w> = (A(w) f)(q0), exact."""
        return self.word_derivative(w).eval(self.q0)

    def generating_series(self, depth):
        """sigma(f) truncated to words of length <= depth, exact NCPoly."""
        return NCPoly(X, {w: self.fliess_coefficient(w)
                          for w in words_up_to(X, depth)})

    def to_json_dict(self):
        return {
            "m": self.m,
            "q0": [str(c) for c in self.q0],
            "z0": self.z0,
            "observation": self.observation.to_json_list(),
            "fields": [[comp.to_json_list() for comp in fld.components]
                       for fld in self.fields],
        }

    @classmethod
    def from_json_dict(cls, d):
        m = d["m"]
        fields = [VectorField([StatePoly.from_json_list(m, comp)
                               for comp in fld])
                  for fld in d["fields"]]
        obs = StatePoly.from_json_list(m, d["observation"])
        return cls(fields, obs, [Fraction(c) for c in d["q0"]], d.get("z0"))


# ---------------------------------------------------------------------------
# Chen series of the two singular forms

# DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations
# I, 2nd ed., sections II.4-II.5; their dop853.f): nodes _C, stage rows _A
# (strict lower triangle), weights _B, and the order-5 and order-3 error
# rows _E5, _E3 over the 12 stages and f(t + h, y_new).
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0])
_A = np.zeros((12, 12))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2,
             5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0,
             8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0,
             -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0, 0,
             1.70828608729473871279604482173e-1,
             1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0, 0,
             1.70383925712239993810214054705e-1,
             1.07262030446373284651809199168e-1,
             -1.53194377486244017527936158236e-2,
             8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0, 0,
             -3.36089262944694129406857109825,
             -8.68219346841726006818189891453e-1,
             2.75920996994467083049415600797e1,
             2.01540675504778934086186788979e1,
             -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0, 0,
             -2.48811461997166764192642586468,
             -5.90290826836842996371446475743e-1,
             2.12300514481811942347288949897e1,
             1.52792336328824235832596922938e1,
             -3.32882109689848629194453265587e1,
             -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0, 0,
               5.18637242884406370830023853209,
               1.09143734899672957818500254654,
               -8.14978701074692612513997267357,
               -1.85200656599969598641566180701e1,
               2.27394870993505042818970056734e1,
               2.49360555267965238987089396762,
               -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0, 0,
               -1.05344954667372501984066689879e1,
               -2.00087205822486249909675718444,
               -1.79589318631187989172765950534e1,
               2.79488845294199600508499808837e1,
               -2.85899827713502369474065508674,
               -8.87285693353062954433549289258,
               1.23605671757943030647266201528e1,
               6.43392746015763530355970484046e-1]
_B = np.array([
    5.42937341165687622380535766363e-2, 0, 0, 0, 0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_RTOL, _ATOL = 1e-12, 1e-14


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


def _solve(rhs, t0, t1, y0):
    """y(t1) for y' = rhs(t, y), y(t0) = y0; RuntimeError if it fails.

    DOP853 with rtol 1e-12 and atol 1e-14, stepped as scipy's solve_ivp
    steps it (scipy.integrate._ivp, BSD-3; the same operations in the same
    order, so the same floats): Hairer's starting step, the 3/5 error
    pair's norm, and a step factor 0.9 err^(-1/8) kept within [0.2, 10],
    at most 1 straight after a rejection.  rhs returns a float array.
    """
    t, t1 = float(t0), float(t1)
    y = np.array(y0, dtype=float)
    if t == t1:
        return y
    direction = 1.0 if t1 > t else -1.0
    f = rhs(t, y)
    # the starting step (Hairer, Norsett & Wanner, II.4)
    span = abs(t1 - t)
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((rhs(t + h0 * direction, y + h0 * direction * f) - f)
              / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, span)
    K = np.empty((13, y.size))
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too: it would never shrink
                raise RuntimeError(
                    "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = rhs(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = rhs(t + h, y_new)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            e5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            if e5 == 0 and e3 == 0:
                err = 0.0
            else:
                err = h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * y.size)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def _alphas(ws, z0, z1):
    """{w: alpha_w(z0 -> z1)} on a suffix-closed word list, by one
    integration of the word ODE alpha'_{x_i v}(z) = omega_i(z) alpha_v(z),
    omega_0 = 1/z, omega_1 = 1/(1-z), alpha_() = 1; needs 0 < z < 1 along
    the segment."""
    _check_segment(z0, z1)
    index = {w: i for i, w in enumerate(ws)}
    first = np.array([w[0] if w else -1 for w in ws])
    tail = np.array([index[w[1:]] if w else 0 for w in ws])
    i0, i1 = first == 0, first == 1

    def rhs(z, a):
        out = np.zeros_like(a)
        out[i0] = a[tail[i0]] / z
        out[i1] = a[tail[i1]] / (1.0 - z)
        return out

    a0 = np.zeros(len(ws))
    a0[index[()]] = 1.0
    return dict(zip(ws, _solve(rhs, z0, z1, a0)))


def chen_ode(z0, z1, depth):
    """All alpha_w(z0 -> z1), |w| <= depth, by integrating the word ODE."""
    return NCPoly(X, _alphas(words_up_to(X, depth), z0, z1), depth)


def iterated_integral(w, z0, z1):
    """Single iterated integral alpha_w(z0 -> z1) of the singular forms:
    the word ODE on the suffixes of w."""
    w = tuple(w)
    return float(_alphas([w[i:] for i in range(len(w) + 1)], z0, z1)[w])


def chen_drift(T, depth, controls=(1.0, 0.0)):
    """Chen coefficients for constant controls on [0, T]:
    alpha_w = u_{w_1} ... u_{w_k} T^k / k!."""
    t = {}
    for w in words_up_to(X, depth):
        val = float(T) ** len(w) / math.factorial(len(w))
        for a in w:
            val *= controls[a]
        t[w] = val
    return NCPoly(X, t, depth)


# ---------------------------------------------------------------------------
# outputs

def _pair(p, series):
    """<p|series> in floats, summed in the term order of p."""
    total = 0.0
    for w, c in p.terms.items():
        total += float(c) * float(series.coeff(w))
    return total


def fliess_output(system, chen, depth):
    """y = <sigma(f)|C> = sum_{|w| <= depth} <sigma(f)|w> alpha_w."""
    return _pair(system.generating_series(depth), chen)


def fliess_output_rep(rep, chen, depth):
    """Same sum with coefficients from a linear representation."""
    return _pair(rep.truncated_series(depth), chen)


def dyson_output(system, chen, depth):
    """The Fliess sum resummed through the dual pair (S_w, P_w).

    sum_w <sigma(f)|w> alpha_w = sum_w <sigma(f)|S_w> <C|P_w>, degree by
    degree; a float-level identity test target.
    """
    sigma = system.generating_series(depth)
    total = 0.0
    for w in words_up_to(X, depth):
        s_val = _pair(dual_s(w), sigma)
        if s_val:
            total += s_val * _pair(pbw_p(w), chen)
    return total


def _flow(system, weights, t0, t1):
    """Observation at t1 of q' = sum_i weights(t)[i] A_i(q), q(t0) = q0."""
    def rhs(t, q):
        out = np.zeros(system.m)
        for u, fld in zip(weights(t), system.fields):
            if u:
                for j, poly in enumerate(fld.components):
                    out[j] += u * poly.eval(q)
        return out

    q0 = np.array([float(c) for c in system.q0])
    return float(system.observation.eval(_solve(rhs, t0, t1, q0)))


def ode_reference(system, controls, T):
    """Observation of the controlled ODE q' = sum_i u_i A_i(q) at time T."""
    return _flow(system, lambda t: controls, 0.0, T)


def ode_reference_forms(system, z0, z1):
    """Observation of q' = A_0(q)/z + A_1(q)/(1-z) from z0 to z1."""
    _check_segment(z0, z1)
    return _flow(system, lambda z: (1.0 / z, 1.0 / (1.0 - z)), z0, z1)


# ---------------------------------------------------------------------------
# structural identities of the generating-series map

def shuffle_morphism_check(system, f, g, depth):
    """sigma(f g) = sigma(f) shuffle sigma(g), exact up to a depth: the
    three series, each cut there, and one shuffle product."""
    sigma_f, sigma_g, sigma_fg = (
        PolySystem(system.fields, h, system.q0).generating_series(depth)
        .truncate(depth) for h in (f, g, f * g))
    return shuffle(sigma_f, sigma_g) == sigma_fg


def residual_identity_check(system, u, depth):
    """sigma(A(u) f) = sigma(f) |> u, <sigma(A(u) f)|w> = <sigma(f)|u w>,
    for |w| <= max(depth - |u|, 0): one residual of one series."""
    u = tuple(u)
    cut = max(depth - len(u), 0)
    shifted = PolySystem(system.fields, system.word_derivative(u), system.q0)
    full = system.generating_series(max(depth, len(u)))
    return (shifted.generating_series(cut)
            == residual_right(full, NCPoly.word(u)).truncate(cut))


# ---------------------------------------------------------------------------
# stock systems

def system_hypergeometric(t0, t1, t2, q0):
    """Gauss ODE z(1-z) y'' + (t2 - (t0+t1+1) z) y' - t0 t1 y = 0 as a
    two-field system in the forms dz/z, dz/(1-z); y = q1, q2 = -(1-z) y'."""
    t0, t1, t2 = Fraction(t0), Fraction(t1), Fraction(t2)
    m = 2
    q1 = StatePoly.coord(m, 0)
    q2 = StatePoly.coord(m, 1)
    zero = StatePoly(m)
    a0 = VectorField([zero, (q1.scale(-t0 * t1)) + (q2.scale(-t2))])
    a1 = VectorField([q2.scale(-1), q2.scale(t0 + t1 - t2)])
    return PolySystem([a0, a1], q1, q0)


def system_oscillator(k1, k2, q0):
    """Scalar drift -(k1 q + k2 q^2) d/dq with additive control d/dq."""
    q = StatePoly.coord(1, 0)
    a0 = VectorField([q.scale(-Fraction(k1)) + (q * q).scale(-Fraction(k2))])
    a1 = VectorField([StatePoly.const(1, 1)])
    return PolySystem([a0, a1], q, q0)


def system_duffing(a, b, c, q0):
    """q1'' + c q1' + a q1 + b q1^3 = u, written on (q1, q2 = q1')."""
    m = 2
    q1 = StatePoly.coord(m, 0)
    q2 = StatePoly.coord(m, 1)
    drift2 = (q1.scale(-Fraction(a)) + (q1 * q1 * q1).scale(-Fraction(b))
              + q2.scale(-Fraction(c)))
    a0 = VectorField([q2, drift2])
    a1 = VectorField([StatePoly(m), StatePoly.const(m, 1)])
    return PolySystem([a0, a1], q1, q0)


def system_vanderpol(mu, q0):
    """q1'' - mu (1 - q1^2) q1' + q1 = u on (q1, q2 = q1')."""
    m = 2
    q1 = StatePoly.coord(m, 0)
    q2 = StatePoly.coord(m, 1)
    drift2 = (q1.scale(-1)
              + q2.scale(Fraction(mu))
              + (q1 * q1 * q2).scale(-Fraction(mu)))
    a0 = VectorField([q2, drift2])
    a1 = VectorField([StatePoly(m), StatePoly.const(m, 1)])
    return PolySystem([a0, a1], q1, q0)


# builtin name -> (builder, its parameters in sorted order); q0 comes last
_BUILTINS = {"hypergeometric": (system_hypergeometric, ["t0", "t1", "t2"]),
             "oscillator": (system_oscillator, ["k1", "k2"]),
             "duffing": (system_duffing, ["a", "b", "c"]),
             "vanderpol": (system_vanderpol, ["mu"])}


def load_system(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("want a JSON object, got %s" % type(data).__name__)
    z0 = data.get("z0")
    if z0 is not None and (isinstance(z0, bool)
                           or not isinstance(z0, (int, float))):
        raise ValueError("z0 must be a number, got %r" % (z0,))
    if "builtin" in data:
        name = data["builtin"]
        if name not in _BUILTINS:
            raise ValueError("unknown builtin system %r" % (name,))
        build, names = _BUILTINS[name]
        params = data.get("params", {})
        if sorted(params) != names:
            raise ValueError("builtin %r wants parameters %s, got %s"
                             % (name, names, sorted(params)))
        system = build(*[Fraction(params[k]) for k in names],
                       [Fraction(c) for c in data["q0"]])
        system.z0 = z0
    else:
        m = data["m"]
        if type(m) is not int or m < 1:
            raise ValueError("m must be a positive integer, got %r" % (m,))
        if any(len(fld) != m for fld in data["fields"]):
            raise ValueError("every field needs m = %d components" % m)
        system = PolySystem.from_json_dict(data)
    m, fields = system.m, system.fields
    if len(fields) != 2 or len(system.q0) != m:
        raise ValueError("want two fields (x0, x1) and m = %d entries in q0; "
                         "got %d fields, %d entries"
                         % (m, len(fields), len(system.q0)))
    if not all(len(e) == m and all(type(a) is int and a >= 0 for a in e)
               for p in [system.observation] + [c for f in fields
                                                for c in f.components]
               for e in p.terms):
        raise ValueError("exponents must be m = %d integers >= 0" % m)
    return system
