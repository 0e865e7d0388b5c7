"""Polynomial input/state systems, Chen series, and Fliess expansions.

A system is a family of polynomial vector fields A_i (one per letter),
an observation polynomial f, and an initial state q0.  The generating
series of f assigns to the word w = x_{i1}...x_{ik} the iterated
directional derivative with the FIRST letter applied first:

    <sigma(f)|w> = ( A_{ik}( ... A_{i2}( A_{i1}(f)) ... ) )(q0),

which is the order matching lambda mu(w1)...mu(wk) eta for linear
systems.  The dual Chen coefficients alpha_w carry the first letter
OUTERMOST: d/dz alpha_{x_i v}(z0 -> z) = omega_i(z) alpha_v(z0 -> z).
With these pairings the output is y(z) = sum_w <sigma(f)|w> alpha_w.

Chen series for the two singular forms dz/z and dz/(1-z) come either
from the factorized polylog product (renorm.l_series) or from direct
integration of the word ODE, both on segments inside (0, 1); one
function, _alphas, integrates the word ODE on any suffix-closed word
list: every word up to a depth for chen_ode, the suffixes of one word
for iterated_integral.  For ordinary (non-singular) constant controls on
[0, T] the coefficients collapse to u_{i1}...u_{ik} T^k/k!.  Every ODE
here is solved by one call, _solve: scipy's DOP853 with rtol 1e-12 and
atol 1e-14.  The output is one sum, _pair, whether the coefficients
come from the vector fields or from a linear representation.
"""

import json
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from ncgen.ncpoly import NCPoly, words_up_to
from ncgen.hopf import dual_s, pbw_p
from ncgen.renorm import _check_segment
from ncgen.words import X

_ZERO = Fraction(0)


class StatePoly:
    """Polynomial function of the state q in Q^m: exponent tuple -> coef."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[tuple(e)] = c

    @classmethod
    def const(cls, m, c):
        return cls(m, {(0,) * m: c})

    @classmethod
    def coord(cls, m, j):
        e = [0] * m
        e[j] = 1
        return cls(m, {tuple(e): 1})

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, _ZERO) + c
        return StatePoly(self.m, t)

    def scale(self, c):
        c = Fraction(c)
        return StatePoly(self.m, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, StatePoly):
            return self.scale(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, _ZERO) + c1 * c2
        return StatePoly(self.m, t)

    __rmul__ = __mul__

    def diff(self, j):
        t = {}
        for e, c in self.terms.items():
            if e[j]:
                e2 = list(e)
                e2[j] -= 1
                t[tuple(e2)] = t.get(tuple(e2), _ZERO) + c * e[j]
        return StatePoly(self.m, t)

    def eval(self, q):
        total = None
        for e, c in self.terms.items():
            v = c if isinstance(q[0], Fraction) else float(c)
            for qi, ei in zip(q, e):
                for _ in range(ei):
                    v = v * qi
            total = v if total is None else total + v
        if total is None:
            return Fraction(0) if (len(q) and isinstance(q[0], Fraction)) else 0.0
        return total

    def is_zero(self):
        return not self.terms

    def to_json_list(self):
        return [{"exps": list(e), "coef": str(c)}
                for e, c in sorted(self.terms.items())]

    @classmethod
    def from_json_list(cls, m, data):
        return cls(m, {tuple(item["exps"]): Fraction(item["coef"])
                       for item in data})

    def __repr__(self):
        return "StatePoly(%r)" % (self.terms,)


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

def _solve(rhs, t0, t1, y0):
    """y(t1) for y' = rhs(t, y), y(t0) = y0; RuntimeError if it fails."""
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, -1]


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
    """sigma(f g) = sigma(f) shuffle sigma(g), exact up to a depth."""
    from ncgen.rational import shuffle_coefficient
    sys_f = PolySystem(system.fields, f, system.q0)
    sys_g = PolySystem(system.fields, g, system.q0)
    sys_fg = PolySystem(system.fields, f * g, system.q0)
    for w in words_up_to(X, depth):
        lhs = sys_fg.fliess_coefficient(w)
        rhs = shuffle_coefficient(sys_f.fliess_coefficient,
                                  sys_g.fliess_coefficient, w)
        if lhs != rhs:
            return False
    return True


def residual_identity_check(system, u, depth):
    """sigma(A(u) f) agrees with the left-shift of sigma(f) by u.

    <sigma(A(u) f)|w> = <sigma(f)|u w> for all w (length <= depth - |u|).
    """
    u = tuple(u)
    shifted = PolySystem(system.fields, system.word_derivative(u), system.q0)
    for w in words_up_to(X, depth - len(u)):
        if shifted.fliess_coefficient(w) != system.fliess_coefficient(u + w):
            return False
    return True


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
