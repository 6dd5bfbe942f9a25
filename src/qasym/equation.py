"""Two-level linear q-difference-differential operator: hypotheses,
coefficient families, and pointwise residuals.

The operator acts on u(t, z, eps) given through its Fourier kernel
U(t, m, eps) (so d/dz is multiplication by im and the t-dilation
sigma^delta is t -> q^delta t):

    Q(d_z) u(qt)  =  sum_{j=1,2} (eps t)^{dD_j} RD_j(d_z) u(q^{dD_j/k_j + 1} t)
                   + sum_l eps^{Delta_l} t^{d_l} [ c_l R_l(d_z) u ](q^{delta_l} t)
                   + f(qt).

Structural hypotheses (checked in exact rational arithmetic whenever
the inputs are rational):

  (A) per lower-order term l:
        Delta_l >= d_l,
        (dD_1 - 1)/kappa + d_l/k2 + 1 >= delta_l,
        d_l/k1 + 1 >= delta_l,
        (dD_2 - 1)/k2 >= delta_l - 1,
      plus delta_1 = 1, delta_l strictly increasing, and globally
        k1 (dD_2 - 1) > k2 dD_1  (strict);

  (B) Q(im) != 0 and RD_j(im) != 0 on the tested m-grid,
      deg Q >= deg RD_1 = deg RD_2 >= max_l deg R_l,  mu > deg RD_1 + 1.

Coefficient families are power series in eps*t:

    c_l(t, z, eps) = F^{-1}( sum_p C_{l,p}(m, eps) (eps t)^p )(z),
    |C_{l,p}| <= DC_l T0^{-p} q^{-p^2 kappa/(2 k1 k2)} (1+|m|)^{-mu} e^{-beta|m|},

and the forcing f carries the same shape without the q-quadratic decay.
Truncation points are chosen from those certified envelopes so the
dropped tail is below a declared tolerance.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .fourier import SQRT2PI, DecayProfile, inverse_fourier
from .frames import QFrame
from .geometry import default_m_grid, polyval_im
from .schemas import Record


def poly_degree(coeffs) -> int:
    """Degree ignoring trailing zeros; -1 for the zero polynomial."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return len(c) - 1


def poly_abs_sum(coeffs) -> float:
    return float(sum(abs(c) for c in coeffs))


def _as_fraction(x) -> Fraction:
    """Exact Fraction view of an int/Fraction/float input (floats are
    binary-exact, so no rounding happens here)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))


@dataclass(frozen=True)
class EquationTerm(Record):
    """One lower-order term: eps^Delta t^d sigma^{delta}(c R(d_z) u)."""

    Delta: int
    d: int
    delta: Fraction | int | float
    R: tuple[float, ...] = (1.0,)


@dataclass(frozen=True)
class EquationSpec(Record):
    """Full operator data; polynomials as ascending coefficient tuples."""

    frame: QFrame
    d_D1: int
    d_D2: int
    Q: tuple[float, ...]
    RD1: tuple[float, ...]
    RD2: tuple[float, ...]
    terms: tuple[EquationTerm, ...]
    mu: float
    beta: float

    def __post_init__(self) -> None:
        if self.d_D1 < 1 or self.d_D2 < 1:
            raise ValueError("dilation powers d_D1, d_D2 must be >= 1")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")

    def dilation_exponent(self, j: int) -> Fraction:
        """Exact exponent dD_j/k_j + 1 of the leading dilations."""
        d = self.d_D1 if j == 1 else self.d_D2
        return _as_fraction(d) / _as_fraction(self.frame.level(j)) + 1

    @functools.cached_property
    def dilation_scales(self) -> tuple[float, ...]:
        """q^{dD_j/k_j + 1} for j = 1, 2, then q^{delta_l} for each term,
        rounded as dilate rounds them; computed once per spec, not at
        every residual point."""
        q = self.frame.q
        expos = (self.dilation_exponent(1), self.dilation_exponent(2),
                 *(_as_fraction(term.delta) for term in self.terms))
        return tuple(dilate(1.0, q, e) for e in expos)


@dataclass(frozen=True)
class ConditionCheck(Record):
    name: str
    ok: bool
    margin: float
    where: str = ""


@dataclass
class HypothesesReport(Record):
    structure: list[ConditionCheck]   # the rational inequalities
    spectral: list[ConditionCheck]    # the grid / degree conditions
    structure_ok: bool
    spectral_ok: bool

    @property
    def ok(self) -> bool:
        return self.structure_ok and self.spectral_ok

    def to_dict(self) -> dict:
        return {**super().to_dict(), "ok": self.ok}


def validate_hypotheses(spec: EquationSpec) -> HypothesesReport:
    """Check the structural and spectral hypotheses.

    Rational inequalities are decided exactly with Fractions.  The
    nonvanishing of Q(im), RD_j(im) is a test on geometry.default_m_grid:
    points where the value is numerically zero (relative to the
    coefficient scale) are reported with their location.
    """
    m_grid = default_m_grid()
    fr = spec.frame
    k1, k2 = _as_fraction(fr.k1), _as_fraction(fr.k2)
    kappa = k1 * k2 / (k2 - k1)
    dD1, dD2 = Fraction(spec.d_D1), Fraction(spec.d_D2)

    structure: list[ConditionCheck] = []

    def cond(name: str, lhs: Fraction, rhs: Fraction, strict: bool = False,
             where: str = "") -> None:
        ok = (lhs > rhs) if strict else (lhs >= rhs)
        structure.append(ConditionCheck(name=name, ok=ok,
                                        margin=float(lhs - rhs), where=where))

    deltas = [_as_fraction(t.delta) for t in spec.terms]
    if deltas:
        cond("delta_1 == 1", deltas[0], Fraction(1))
        cond("delta_1 == 1 (reverse)", Fraction(1), deltas[0])
    for i in range(len(deltas) - 1):
        cond("delta_l < delta_{l+1}", deltas[i + 1], deltas[i], strict=True,
             where=f"l={i + 1}")
    for i, term in enumerate(spec.terms, start=1):
        dl, Dl, delt = Fraction(term.d), Fraction(term.Delta), _as_fraction(term.delta)
        cond("Delta_l >= d_l", Dl, dl, where=f"l={i}")
        cond("(d_D1-1)/kappa + d_l/k2 + 1 >= delta_l",
             (dD1 - 1) / kappa + dl / k2 + 1, delt, where=f"l={i}")
        cond("d_l/k1 + 1 >= delta_l", dl / k1 + 1, delt, where=f"l={i}")
        cond("(d_D2-1)/k2 >= delta_l - 1", (dD2 - 1) / k2, delt - 1,
             where=f"l={i}")
    cond("k1*(d_D2-1) > k2*d_D1", k1 * (dD2 - 1), k2 * dD1, strict=True)

    spectral: list[ConditionCheck] = []
    for name, coeffs in (("Q", spec.Q), ("RD1", spec.RD1), ("RD2", spec.RD2)):
        vals = np.abs(polyval_im(coeffs, m_grid))
        scale = poly_abs_sum(coeffs) * (1.0 + np.abs(m_grid)) ** max(
            poly_degree(coeffs), 0)
        rel = vals / np.maximum(scale, 1e-300)
        i = int(np.argmin(rel))
        ok = bool(rel[i] > 1e-12)
        spectral.append(ConditionCheck(
            name=f"{name}(im) != 0 on m-grid", ok=ok, margin=float(rel[i]),
            where=f"m={float(m_grid[i])!r}"))
    degQ = poly_degree(spec.Q)
    deg1, deg2 = poly_degree(spec.RD1), poly_degree(spec.RD2)
    degR = max((poly_degree(t.R) for t in spec.terms), default=-1)
    spectral.append(ConditionCheck("deg Q >= deg RD1", degQ >= deg1,
                                   float(degQ - deg1)))
    spectral.append(ConditionCheck("deg RD1 == deg RD2", deg1 == deg2,
                                   float(deg1 - deg2)))
    spectral.append(ConditionCheck("deg RD2 >= max deg R_l", deg2 >= degR,
                                   float(deg2 - degR)))
    spectral.append(ConditionCheck("mu > deg RD1 + 1", spec.mu > deg1 + 1,
                                   float(spec.mu - deg1 - 1)))

    return HypothesesReport(structure=structure, spectral=spectral,
                            structure_ok=all(c.ok for c in structure),
                            spectral_ok=all(c.ok for c in spectral))


# --- coefficient families ---------------------------------------------------

P_CAP = 20   # largest truncation point a certified tail search tries


@dataclass
class CoefficientSeries:
    """Power-series coefficient data c_l and forcing f on the Fourier side.

    C_fn(l, p, m, eps) and F_fn(p, m, eps) are vectorized over m.  DC
    (per l) and DF are the declared envelope amplitudes; T0 the radius
    scale.
    """

    frame: QFrame
    T0: float
    mu: float
    beta: float
    DC: tuple[float, ...]
    DF: float
    C_fn: Callable
    F_fn: Callable
    F_max_power: int | None = None  # set when F_p vanishes beyond a power

    @property
    def n_terms(self) -> int:
        return len(self.DC)

    def quad_decay(self, p: int) -> float:
        fr = self.frame
        return fr.q ** (-p * p * fr.kappa / (2.0 * fr.k1 * fr.k2))

    def coeff_envelope(self, l: int, p: int) -> float:
        return self.DC[l] * self.T0 ** (-p) * self.quad_decay(p)

    def forcing_envelope(self, p: int) -> float:
        return self.DF * self.T0 ** (-p)

    def certify_envelopes(self, m_grid, eps_grid) -> tuple[bool, float]:
        """Worst ratio of |C_{l,p}|, |F_p| (p <= 12) to their envelopes."""
        m = np.asarray(m_grid, dtype=float)
        shape = (1.0 + np.abs(m)) ** (-self.mu) * np.exp(-self.beta * np.abs(m))
        worst = 0.0
        for eps in eps_grid:
            for p in range(13):
                for l in range(self.n_terms):
                    ratio = np.abs(self.C_fn(l, p, m, eps)) / np.maximum(
                        self.coeff_envelope(l, p) * shape, 1e-300)
                    worst = max(worst, float(np.max(ratio)))
                ratio = np.abs(self.F_fn(p, m, eps)) / np.maximum(
                    self.forcing_envelope(p) * shape, 1e-300)
                worst = max(worst, float(np.max(ratio)))
        return worst <= 1.0 + 1e-9, worst

    def _m_mass(self) -> float:
        """Upper bound for (2/sqrt(2pi)) * int_0^inf (1+m)^{-mu} e^{-beta m} dm."""
        return 2.0 / SQRT2PI * min(1.0 / self.beta, 1.0 / (self.mu - 1.0))

    def truncation_point(self, abs_et: float, quadratic: bool,
                         tail_tol: float) -> int:
        """Smallest P <= P_CAP with the certified post-P tail below tail_tol.

        quadratic selects the c_l envelope (with q^{-p^2 ...}); without
        it (forcing) the series is geometric and requires |eps t| < T0.
        """
        x = abs_et / self.T0
        amp = (max(self.DC) if self.DC else 0.0) if quadratic else self.DF
        if amp == 0.0:
            return 0
        if not quadratic and self.F_max_power is not None:
            return self.F_max_power  # finite support: evaluation is exact
        mass = self._m_mass()
        for P in range(P_CAP + 1):
            if quadratic:
                tail = sum(x ** p * self.quad_decay(p)
                           for p in range(P + 1, P + 60))
            else:
                if x >= 0.999:
                    raise ValueError(
                        f"|eps t| = {abs_et:.4g} reaches the forcing series "
                        f"radius T0 = {self.T0:.4g}; no certified truncation")
                tail = x ** (P + 1) / (1.0 - x)
            if amp * mass * tail <= tail_tol:
                return P
        raise ValueError(f"cannot certify tail <= {tail_tol} within P_CAP="
                         f"{P_CAP} at |eps t|={abs_et:.4g}")

    def profile(self, amp: float) -> DecayProfile:
        return DecayProfile(C=max(amp, 1e-300), mu=self.mu, beta=self.beta)


def _series_symbol(series: CoefficientSeries, l: int | None, t: complex,
                   eps: complex) -> tuple[Callable, DecayProfile]:
    """The symbol of c_l at (t, eps) (of the forcing f when l is None),
    p-summed up to the truncation point certified for a tail below
    1e-12, and its profile."""
    tail_tol = 1e-12
    et = eps * t
    coeff = l is not None
    P = series.truncation_point(abs(et), coeff, tail_tol)

    def term(p, m):
        return series.C_fn(l, p, m, eps) if coeff else series.F_fn(p, m, eps)

    def envelope(p):
        return series.coeff_envelope(l, p) if coeff else series.forcing_envelope(p)

    def symbol(m):
        acc = np.zeros(np.shape(m), dtype=complex)
        for p in range(P + 1):
            acc = acc + np.asarray(term(p, m)) * et ** p
        return acc
    amp = sum(envelope(p) * abs(et) ** p for p in range(P + 1))
    return symbol, series.profile(amp + tail_tol)


def _inverse_fourier_all(pairs, z: complex, quad_tol: float) -> list[complex]:
    """Inverse transforms at z of every (symbol, profile) pair, in one
    inverse_fourier call on the vector symbol that stacks them."""
    symbols, profiles = zip(*pairs)

    def stacked(m):
        out = np.empty(np.shape(m) + (len(symbols),), dtype=complex)
        for i, symbol in enumerate(symbols):
            out[..., i] = symbol(m)
        return out
    res = inverse_fourier(stacked, z, profiles, tol=quad_tol)
    return res.value.tolist()


def assemble_coefficients(series: CoefficientSeries, t: complex, z: complex,
                          eps: complex, quad_tol: float = 1e-12
                          ) -> tuple[list[complex], complex]:
    """Evaluate every c_l and f at one point by p-summation and one
    inverse Fourier transform of all their symbols; truncation points
    carry a certified tail bound."""
    pairs = [_series_symbol(series, l, t, eps) for l in range(series.n_terms)]
    pairs.append(_series_symbol(series, None, t, eps))
    values = _inverse_fourier_all(pairs, z, quad_tol)
    return values[:-1], values[-1]


def default_spec(frame: QFrame | None = None) -> EquationSpec:
    """A small two-term operator that satisfies every structural and
    spectral hypothesis with comfortable margins; used by the CLI demo
    and as the base case of the hypothesis test-suite."""
    if frame is None:
        frame = QFrame(q=2.0, k1=1.0, k2=2.0)
    return EquationSpec(
        frame=frame,
        d_D1=1,
        d_D2=4,
        Q=(2.0, 2.0, 1.0),
        RD1=(3.0, 1.0),
        RD2=(5.0, 2.0),
        terms=(
            EquationTerm(Delta=1, d=0, delta=1, R=(1.0,)),
            EquationTerm(Delta=2, d=2, delta=2, R=(0.5, 0.25)),
        ),
        mu=4.0,
        beta=1.0,
    )


def default_series(spec: EquationSpec, DC: tuple[float, ...] | None = None,
                   DF: float = 1.0, T0: float = 1.0) -> CoefficientSeries:
    """Synthetic family saturating the declared envelopes with alternating
    signs (so cancellations are exercised); eps enters through a bounded
    phase so sup_eps is attained."""
    fr = spec.frame
    if DC is None:
        DC = tuple(0.5 for _ in spec.terms)
    mu, beta = spec.mu, spec.beta

    def shape(m):
        am = np.abs(np.asarray(m, dtype=float))
        return (1.0 + am) ** (-mu) * np.exp(-beta * am)

    qdec = fr.q ** (-np.arange(0, 400) ** 2 * fr.kappa / (2.0 * fr.k1 * fr.k2))

    def C_fn(l, p, m, eps):
        return DC[l] * (-1.0) ** p * T0 ** (-p) * qdec[p] * shape(m)

    def F_fn(p, m, eps):
        return DF * (-1.0) ** p * T0 ** (-p) * shape(m)

    return CoefficientSeries(frame=fr, T0=T0, mu=mu, beta=beta, DC=DC, DF=DF,
                             C_fn=C_fn, F_fn=F_fn)


# --- the operator ------------------------------------------------------------

def _poly_profile(base: DecayProfile, coeffs) -> DecayProfile:
    """Profile dominating m -> P(im) g(m) when |g| <= base envelope."""
    return _poly_profile_of(base, tuple(coeffs))


@functools.lru_cache(maxsize=64)
def _poly_profile_of(base: DecayProfile, coeffs: tuple) -> DecayProfile:
    # memoized: every residual point asks for the same few profiles
    deg = max(poly_degree(coeffs), 0)
    mu = base.mu - deg
    if mu <= 1:
        raise ValueError("kernel profile too weak for this polynomial order: "
                         f"mu - deg = {mu} <= 1")
    return DecayProfile(C=base.C * max(poly_abs_sum(coeffs), 1e-300),
                        mu=mu, beta=base.beta)


def dilate(t: complex, q: float, expo: Fraction) -> complex:
    """q^expo * t; the exact exponent is rounded to a float before the power."""
    return q ** float(expo) * t


def _poly_symbol(coeffs, U: Callable, profile_U: DecayProfile, t: complex,
                 eps: complex) -> tuple[Callable, DecayProfile]:
    """The symbol m -> P(im) U(t, m, eps) of P(d_z) u and its profile."""
    def symbol(m):
        return polyval_im(coeffs, m) * U(t, m, eps)
    return symbol, _poly_profile(profile_U, coeffs)


def _identity_terms(spec: EquationSpec, series: CoefficientSeries, U: Callable,
                    profile_U: DecayProfile, t: complex, z: complex,
                    eps: complex, quad_tol: float) -> tuple[complex, list]:
    """The left side of the operator identity at one point and the terms
    of its right side, in the order they are summed: the two leading
    dilations, one product c_l R_l u per lower-order term, and f."""
    q = spec.frame.q
    et = eps * t
    s1, s2, *deltas = spec.dilation_scales
    pairs = [_poly_symbol(spec.Q, U, profile_U, q * t, eps),
             _poly_symbol(spec.RD1, U, profile_U, s1 * t, eps),
             _poly_symbol(spec.RD2, U, profile_U, s2 * t, eps)]
    for i, (term, s) in enumerate(zip(spec.terms, deltas)):
        td = s * t
        pairs.append(_series_symbol(series, i, td, eps))
        pairs.append(_poly_symbol(term.R, U, profile_U, td, eps))
    pairs.append(_series_symbol(series, None, q * t, eps))
    values = _inverse_fourier_all(pairs, z, quad_tol)

    terms = [et ** spec.d_D1 * values[1], et ** spec.d_D2 * values[2]]
    for i, term in enumerate(spec.terms):
        c_i, conv = values[3 + 2 * i], values[4 + 2 * i]
        terms.append(eps ** term.Delta * t ** term.d * c_i * conv)
    terms.append(values[-1])
    return values[0], terms


def _residual(lhs: complex, terms: list) -> complex:
    rhs = terms[0]      # summed left to right, as the identity is written
    for term in terms[1:]:
        rhs += term
    return lhs - rhs


def apply_equation_operator(spec: EquationSpec, series: CoefficientSeries,
                            U: Callable, profile_U: DecayProfile,
                            t: complex, z: complex, eps: complex,
                            quad_tol: float = 1e-12) -> complex:
    """Residual  (left side) - (right side)  of the operator identity at
    one point, with u given by its Fourier kernel U(t, m, eps).

    Every Fourier-side symbol of the identity (Q u, RD_j u, each c_l and
    R_l u, and f) is transformed in one inverse_fourier call."""
    return _residual(*_identity_terms(spec, series, U, profile_U, t, z, eps,
                                      quad_tol))


def relative_residual(spec: EquationSpec, series: CoefficientSeries,
                      U: Callable, profile_U: DecayProfile, t: complex,
                      z: complex, eps: complex, quad_tol: float
                      ) -> tuple[complex, float]:
    """The residual of apply_equation_operator at one point, and its
    modulus relative to the largest modulus among the terms of the
    identity (the left side and each right-side term).  Unlike the
    residual itself, the ratio does not shrink with the solution, so one
    threshold judges every power of a manufactured solution."""
    lhs, terms = _identity_terms(spec, series, U, profile_U, t, z, eps, quad_tol)
    r = _residual(lhs, terms)
    scale = max(abs(x) for x in (lhs, *terms))
    return r, abs(r) / scale if scale > 0 else abs(r)


# --- manufactured solutions --------------------------------------------------

def manufactured_problem(spec: EquationSpec, a: int = 0
                         ) -> tuple[Callable, DecayProfile, CoefficientSeries]:
    """Fourier kernel U = phi(m) (eps t)^a and the forcing that makes the
    operator identity hold exactly with all c_l = 0.

    phi decays mu_phi = mu + deg Q orders so every polynomial image still
    satisfies an integrable profile.  The forcing series has exactly the
    powers a, a + dD_1, a + dD_2; its powers start at 0, so a < 0 is
    refused.
    """
    if a < 0:
        raise ValueError(f"power a must be >= 0 (the forcing series holds "
                         f"powers p >= 0), got {a}")
    fr = spec.frame
    mu_phi = spec.mu + max(poly_degree(spec.Q), 0)
    beta = spec.beta
    last = [None, None]   # the node array phi last saw, and phi there

    def phi(m):
        # a stacked symbol passes one node array to its U and F_fn
        # components in turn: evaluate phi once per array
        if m is not last[0]:
            am = np.abs(np.asarray(m, dtype=float))
            last[:] = m, (1.0 + am) ** (-mu_phi) * np.exp(-beta * am)
        return last[1]

    def U(t, m, eps):
        return phi(m) * (eps * t) ** a

    profile_U = DecayProfile(C=1.0, mu=mu_phi, beta=beta)

    packets: dict[int, list] = {a: [(spec.Q, 1.0)]}
    for j, RD in ((1, spec.RD1), (2, spec.RD2)):
        dDj = spec.d_D1 if j == 1 else spec.d_D2
        kj = fr.level(j)
        w = -float(fr.q) ** (dDj * (a / kj - 1.0))
        packets.setdefault(a + dDj, []).append((RD, w))

    def F_fn(p, m, eps):
        if p not in packets:
            return np.zeros(np.shape(m), dtype=complex)
        acc = np.zeros(np.shape(m), dtype=complex)
        for coeffs, w in packets[p]:
            acc = acc + w * polyval_im(coeffs, m)
        return acc * phi(m)

    # envelope amplitude: bound each packet by its polynomial mass; phi
    # absorbs deg Q powers of (1+|m|)
    DF = max(sum(abs(w) * poly_abs_sum(c) for c, w in pk) for pk in packets.values())
    series = CoefficientSeries(frame=fr, T0=1.0, mu=spec.mu, beta=beta,
                               DC=tuple(0.0 for _ in spec.terms), DF=DF,
                               C_fn=lambda l, p, m, eps: np.zeros(
                                   np.shape(m), dtype=complex),
                               F_fn=F_fn, F_max_power=max(packets))
    return U, profile_U, series


def residual_sweep(spec: EquationSpec, series: CoefficientSeries, U: Callable,
                   profile_U: DecayProfile, t_grid, z_grid, eps_grid,
                   quad_tol: float = 1e-12) -> list[tuple]:
    """Rows (t, z, eps, |residual|) over the product grid."""
    rows = []
    for t in t_grid:
        for z in z_grid:
            for eps in eps_grid:
                r = apply_equation_operator(spec, series, U, profile_U,
                                            t, z, eps, quad_tol)
                rows.append((complex(t), complex(z), complex(eps), abs(r)))
    return rows


def write_residual_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Re t", "Im t", "Re z", "Im z", "Re eps", "Im eps",
                    "abs residual"])
        for t, z, eps, r in rows:
            w.writerow([repr(t.real), repr(t.imag), repr(z.real), repr(z.imag),
                        repr(eps.real), repr(eps.imag), repr(r)])
