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
integration of the word ODE; for ordinary (non-singular) constant
controls on [0, T] the coefficients collapse to u_{i1}...u_{ik} T^k/k!.
"""

import json
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from ncgen.ncpoly import NCPoly, words_up_to
from ncgen.hopf import dual_s, pbw_p
from ncgen.rational import LinearRepresentation
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
    def coord(cls, m, j, power=1):
        e = [0] * m
        e[j] = power
        return cls(m, {tuple(e): 1})

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, _ZERO) + c
        return StatePoly(self.m, t)

    def __sub__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, _ZERO) - c
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

    def generating_series(self, depth, observation=None):
        """sigma(f) truncated to words of length <= depth, exact NCPoly."""
        if observation is None:
            terms = {w: self.fliess_coefficient(w)
                     for w in words_up_to(X, depth)}
        else:
            sub = PolySystem(self.fields, observation, self.q0, self.z0)
            terms = {w: sub.fliess_coefficient(w)
                     for w in words_up_to(X, depth)}
        return NCPoly(X, terms)

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

def chen_ode(z0, z1, depth, rtol=1e-12, atol=1e-14):
    """All alpha_w(z0 -> z1), |w| <= depth, by integrating the word ODE.

    alpha'_{x_i v}(z) = omega_i(z) alpha_v(z), omega_0 = 1/z,
    omega_1 = 1/(1-z); needs 0 < z < 1 along the segment.
    """
    if not (0 < min(z0, z1) and max(z0, z1) < 1):
        raise ValueError("segment must stay inside (0, 1)")
    ws = words_up_to(X, depth)
    index = {w: i for i, w in enumerate(ws)}
    first = np.array([w[0] if w else -1 for w in ws])
    tail = np.array([index[w[1:]] if w else 0 for w in ws])
    nonempty = np.array([bool(w) for w in ws])
    i0 = nonempty & (first == 0)
    i1 = nonempty & (first == 1)

    def rhs(z, a):
        out = np.zeros_like(a)
        out[i0] = a[tail[i0]] / z
        out[i1] = a[tail[i1]] / (1.0 - z)
        return out

    a0 = np.zeros(len(ws))
    a0[index[()]] = 1.0
    sol = solve_ivp(rhs, (z0, z1), a0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(sol.message)
    final = sol.y[:, -1]
    return NCPoly(X, {w: final[index[w]] for w in ws}, depth)


def iterated_integral(w, z0, z1, rtol=1e-12):
    """Single iterated integral alpha_w(z0 -> z1) of the singular forms."""
    w = tuple(w)
    suffixes = [w[i:] for i in range(len(w) + 1)]
    index = {v: i for i, v in enumerate(suffixes)}

    def rhs(z, a):
        out = np.zeros_like(a)
        for v in suffixes:
            if not v:
                continue
            om = 1.0 / z if v[0] == 0 else 1.0 / (1.0 - z)
            out[index[v]] = om * a[index[v[1:]]]
        return out

    a0 = np.zeros(len(suffixes))
    a0[index[()]] = 1.0
    sol = solve_ivp(rhs, (z0, z1), a0, method="DOP853", rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return float(sol.y[index[w], -1])


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

def fliess_output(system, chen, depth):
    """y = sum_{|w| <= depth} <sigma(f)|w> alpha_w."""
    total = 0.0
    for w in words_up_to(X, depth):
        c = system.fliess_coefficient(w)
        if c:
            total += float(c) * chen.coeff(w)
    return total


def fliess_output_rep(rep, chen, depth):
    """Same sum with coefficients from a linear representation (floats)."""
    lam = np.array([float(c) for c in rep.lam])
    eta = np.array([float(c) for c in rep.eta])
    mats = {a: np.array([[float(c) for c in row] for row in m])
            for a, m in rep.mu.items()}
    total = 0.0
    rows = {(): lam}
    for w in words_up_to(X, depth):
        if w:
            rows[w] = rows[w[:-1]] @ mats[w[-1]]
        total += float(rows[w] @ eta) * chen.coeff(w)
    return total


def dyson_output(system, chen, depth):
    """The Fliess sum resummed through the dual pair (S_w, P_w).

    sum_w <sigma(f)|w> alpha_w = sum_w <sigma(f)|S_w> <C|P_w>, degree by
    degree; a float-level identity test target.
    """
    sigma = system.generating_series(depth)
    total = 0.0
    for w in words_up_to(X, depth):
        s_val = sum(float(c) * float(sigma.coeff(v))
                    for v, c in dual_s(w).terms.items())
        if s_val == 0.0:
            continue
        p_val = sum(float(c) * chen.coeff(v)
                    for v, c in pbw_p(w).terms.items())
        total += s_val * p_val
    return total


def ode_reference(system, controls, T, n_eval=1, rtol=1e-12):
    """Observation of the controlled ODE q' = sum_i u_i A_i(q) at time T."""
    comps = [[c for c in fld.components] for fld in system.fields]

    def rhs(_, q):
        out = np.zeros(system.m)
        for u, comp in zip(controls, comps):
            if u:
                for j, poly in enumerate(comp):
                    out[j] += u * poly.eval(q)
        return out

    q0 = np.array([float(c) for c in system.q0])
    sol = solve_ivp(rhs, (0.0, T), q0, method="DOP853", rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return system.observation.eval(sol.y[:, -1])


def ode_reference_forms(system, z0, z1, rtol=1e-12):
    """Observation of q' = A_0(q)/z + A_1(q)/(1-z) from z0 to z1."""
    def rhs(z, q):
        out = np.zeros(system.m)
        for j, poly in enumerate(system.fields[0].components):
            out[j] += poly.eval(q) / z
        for j, poly in enumerate(system.fields[1].components):
            out[j] += poly.eval(q) / (1.0 - z)
        return out

    q0 = np.array([float(c) for c in system.q0])
    sol = solve_ivp(rhs, (z0, z1), q0, method="DOP853", rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return system.observation.eval(sol.y[:, -1])


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


def load_system(path):
    with open(path) as fh:
        data = json.load(fh)
    if "builtin" in data:
        name = data["builtin"]
        params = {k: Fraction(v) for k, v in data.get("params", {}).items()}
        q0 = [Fraction(c) for c in data["q0"]]
        builders = {
            "hypergeometric": lambda: system_hypergeometric(
                params["t0"], params["t1"], params["t2"], q0),
            "oscillator": lambda: system_oscillator(
                params["k1"], params["k2"], q0),
            "duffing": lambda: system_duffing(
                params["a"], params["b"], params["c"], q0),
            "vanderpol": lambda: system_vanderpol(params["mu"], q0),
        }
        try:
            system = builders[name]()
        except KeyError:
            raise ValueError("unknown builtin system %r" % name) from None
        system.z0 = data.get("z0")
        return system
    return PolySystem.from_json_dict(data)
