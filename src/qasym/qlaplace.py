"""q-Laplace transform of order k along a direction, with certified domains.

For f analytic near 0 and along the ray L_d = R_+ e^{id} with the
log-Gaussian growth certificate

    |f(u)| <= K exp( k log^2|u| / (2 log q) + alpha log|u| ),  |u| >= rho,
    |f(u)| <= K,                                               |u| <= rho,

the transform

    (L_{q;1/k}^d f)(T) = (k / log q) * integral_{L_d} f(u) / Theta_k(u/T) du/u

converges and is holomorphic on the spiral-clear domain R_{d,dlt}
intersected with |T| < r1 = q^{(1/2 - alpha)/k} / 2.  Substituting
u = e^{s + id} turns the integrand into a function with log-Gaussian
decay on both ends of the s-line (the theta kernel dominates), so an
adaptive quadrature on a certificate-derived window suffices.

Every f/Theta integral in the package -- rays here and in the model,
the model's arcs and mid segments -- runs through one routine,
log_contour_transform, on a log-contour u = exp(w0 + x dw).  Its rule
is fourier.complex_quad, QUADPACK's G10K21 batched over panels: each
refinement round evaluates f and 1/Theta once, as arrays over the nodes
of all panels it refines, so f must accept an ndarray of u.  A call that
cannot meet its tolerance within its panel limit raises QuadratureError.

Monomials u^n map to c_{n,k} T^n with the closed form
c_{n,k} = q^{n(n-1)/(2k)}, whose ratio law c_{n,k}/c_{n-1,k} = q^{(n-1)/k}
is forced by the theta q-difference equation.  monomial_image_constant
measures the constant by quadrature, so it can be checked against the
closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fourier import QuadratureError, complex_quad
from .geometry import qspiral_infimum, qspiral_membership
from .theta import inv_theta_at


@dataclass(frozen=True)
class GrowthCertificate:
    """Log-Gaussian growth data along a ray: level k, log-slope alpha,
    amplitude K, disc radius rho."""

    K: float
    alpha: float
    k: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (self.K > 0 and self.k >= 0 and self.rho > 0):
            raise ValueError("need K > 0, k >= 0, rho > 0")

    def log_bound(self, r: float, q: float) -> float:
        """log of the certified envelope at |u| = r."""
        if r <= self.rho:
            return math.log(self.K)
        L = math.log(r)
        return math.log(self.K) + 0.5 * self.k * L * L / math.log(q) + self.alpha * L

    def certify(self, f: Callable[[complex], complex], d: float,
                q: float) -> tuple[bool, float]:
        """Check |f| against the envelope at 200 log-spaced |u| in [1e-6, 1e3].

        Returns (ok, worst log-excess); worst <= 0 means certified."""
        rs = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 200))
        worst = -math.inf
        for r in rs:
            v = abs(f(r * cmath.exp(1j * d)))
            if v == 0.0:
                continue
            worst = max(worst, math.log(v) - self.log_bound(float(r), q))
        return worst <= 1e-9, worst


def domain_radius(q: float, k: float, alpha: float) -> float:
    """r1 = q^{(1/2 - alpha)/k} / 2, the certified disc radius of the
    transform domain."""
    if not (q > 1 and k > 0):
        raise ValueError("need q > 1 and k > 0")
    return q ** ((0.5 - alpha) / k) / 2.0


@dataclass(frozen=True)
class QLaplaceSpec:
    """Direction, base, order and tolerance of the transform."""

    q: float
    k: float
    direction: float
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.q > 1 and self.k > 0):
            raise ValueError("need q > 1 and k > 0")


@dataclass
class QLaplaceResult:
    value: complex
    error_estimate: float
    nodes_used: int
    direction_used: float
    window: tuple[float, float]


def _integration_window(spec: QLaplaceSpec, cert: GrowthCertificate,
                        absT: float) -> tuple[float, float]:
    """s-window outside which the integrand envelope is below tol * peak.

    The envelope in s = log|u| is the certified growth of f minus the
    theta kernel's lower bound:

        g(s) = log_bound(e^s) - (k/2)(s-L)^2/log q - (s-L)/2,

    with L = log|T|.  The window ends where g has dropped `budget` below
    its peak on each side; if g keeps rising to the right the growth
    certificate is too strong for the transform order and we refuse.
    """
    lq = math.log(spec.q)
    L = math.log(absT)
    budget = math.log(1.0 / spec.tol) + 10.0

    def g(s: float) -> float:
        return cert.log_bound(math.exp(s), spec.q) \
            - 0.5 * spec.k * (s - L) ** 2 / lq - 0.5 * (s - L)

    scan_hi = max(L, math.log(cert.rho)) + 2.0
    scan = np.linspace(L - 2.0, scan_hi, 64)
    g_peak = max(g(float(s)) for s in scan)

    step = 0.25
    s_hi = scan_hi
    rises = 0
    while g(s_hi) > g_peak - budget:
        if g(s_hi + step) > g(s_hi):
            rises += 1
            if rises > 400:
                raise ValueError(
                    "integrand envelope does not decay along the ray: growth "
                    f"certificate (k={cert.k}, alpha={cert.alpha}) too strong "
                    f"for transform order k={spec.k} at |T|={absT:.3g}")
        s_hi += step
        if s_hi - scan_hi > 200.0:
            raise ValueError("q-Laplace window exceeds 200 log units; "
                             "certificate incompatible with |T|")
    s_lo = L - 2.0
    while g(s_lo) > g_peak - budget:
        s_lo -= step
    return s_lo - 0.5, s_hi + 0.5


def log_contour_transform(f: Callable[[np.ndarray], np.ndarray], q: float,
                          k: float, T: complex, w0: complex, dw: complex,
                          a: float, b: float, *, epsabs: float, epsrel: float,
                          limit: int) -> tuple[complex, float, int]:
    """(k / log q) * integral f(u) / Theta_k(u/T) du/u along the
    log-contour u = exp(w0 + x dw), a <= x <= b.

    dw = 1 gives the ray at angle Im w0 (x = log|u|), dw = 1j the arc of
    radius e^{Re w0} (x = arg u); du/u = dw dx.  f takes an ndarray of u
    and returns values that broadcast against it; 1/Theta comes from
    theta.inv_theta_at on the same array.  The integral in x is
    fourier.complex_quad, so each refinement round evaluates f and
    1/Theta once, on the nodes of every panel it refines, and a call
    that would pass `limit` panels raises QuadratureError.  Returns
    (value, error estimate, integrand evaluations).
    """
    w0, dw = complex(w0), complex(dw)

    def integrand(x):
        u = np.exp(w0 + x * dw)
        return np.broadcast_to(f(u), u.shape) * inv_theta_at(q, k, u / T)

    try:
        val, err, n_eval = complex_quad(integrand, a, b, epsabs=epsabs,
                                        epsrel=epsrel, limit=limit)
    except QuadratureError as exc:
        raise QuadratureError(f"contour exp({w0} + x*{dw}), {exc}") from exc
    scale = k / math.log(q) * dw
    return scale * val, abs(scale) * err, n_eval


def qlaplace(spec: QLaplaceSpec, f: Callable[[np.ndarray], np.ndarray],
             T: complex, cert: GrowthCertificate,
             enforce_domain: bool = True) -> QLaplaceResult:
    """Evaluate the transform at T by adaptive quadrature on the log-ray
    (log_contour_transform; f takes an ndarray of u).

    T must lie in the spiral-clear domain R_{d,0.1}; if the ray grazes
    the theta zero spiral the direction is rerouted by 1e-3 radians to
    either side, otherwise the point is rejected.  With enforce_domain,
    |T| must also be below the certified radius r1.
    """
    T = complex(T)
    if T == 0:
        raise ValueError("T must be nonzero")
    if enforce_domain:
        r1 = domain_radius(spec.q, spec.k, cert.alpha)
        if abs(T) >= r1:
            raise ValueError(f"|T|={abs(T):.6g} outside certified radius r1={r1:.6g}")
    d = spec.direction
    if not qspiral_membership(d, 0.1, T):
        for dd in (1e-3, -1e-3):
            if qspiral_membership(d + dd, 0.1, T):
                d = d + dd
                break
        else:
            raise ValueError(
                f"ray direction {spec.direction} grazes the theta zero spiral at "
                f"T={T} (clearance {qspiral_infimum(spec.direction, T):.3g} <= "
                "0.1) and rerouting by 0.001 rad does not fix it")

    s_lo, s_hi = _integration_window(spec, cert, abs(T))
    val, err, n = log_contour_transform(f, spec.q, spec.k, T, 1j * d, 1.0,
                                        s_lo, s_hi, epsabs=spec.tol,
                                        epsrel=spec.tol * 10, limit=300)
    return QLaplaceResult(value=val, error_estimate=err, nodes_used=n,
                          direction_used=d, window=(s_lo, s_hi))


# --- monomial images --------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_image_constant(q: float, k: float, n: int, tol: float = 1e-12,
                            direction: float = 0.0, absT: float = 0.25) -> complex:
    """Measured c_{n,k} with L(u^n)(T) = c_{n,k} T^n, from quadrature at a
    reference point on the ray.  Cached per (q, k, n, tol)."""
    spec = QLaplaceSpec(q=q, k=k, direction=direction, tol=tol)
    cert = GrowthCertificate(K=1.0, alpha=float(n), k=0.0, rho=1.0)
    T = absT * cmath.exp(1j * direction)
    res = qlaplace(spec, lambda u: u ** n, T, cert, enforce_domain=False)
    return res.value / T ** n


def monomial_ratio_law(q: float, k: float, n: int) -> float:
    """q^{(n-1)/k}: the exact ratio c_{n,k}/c_{n-1,k} forced by the theta
    q-difference equation."""
    return q ** ((n - 1) / k)
