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
log_contour_transform, on a log-contour u = exp(w0 + s dw).  Its rule
is fourier.complex_quad, QUADPACK's G10K21 batched over panels: each
refinement round evaluates f and 1/Theta once, as arrays over the nodes
of all panels it refines, so f must accept an ndarray of u.  It takes
an array of T (with a window [a, b] per T) and integrates all of those
contours as the components of one vector integrand, so a cascade of
probe points costs one quadrature; a single T is a batch of one.  A
call that cannot meet its tolerance within its panel limit raises
QuadratureError.

Monomials u^n map to c_{n,k} T^n with the closed form
c_{n,k} = q^{n(n-1)/(2k)}, whose ratio law c_{n,k}/c_{n-1,k} = q^{(n-1)/k}
is forced by the theta q-difference equation.  monomial_image_constant
measures the constant by quadrature, so it can be checked against the
closed form.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fourier import QuadratureError, complex_quad
from .geometry import qspiral_infimum, qspiral_membership
from .theta import inv_theta_at

_LOG_MAX = math.log(sys.float_info.max)     # e^s overflows a double past this


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

    def log_bound(self, r, q: float):
        """log of the certified envelope at |u| = r, for scalar or array r."""
        r, log_K = np.asarray(r, dtype=float), math.log(self.K)
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.log(r)
            out = np.where(r <= self.rho, log_K,
                           log_K + 0.5 * self.k * L * L / math.log(q) + self.alpha * L)
        return out if out.ndim else float(out)


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
        for name, v in (("q", self.q), ("k", self.k)):
            if not math.isfinite(v):
                raise ValueError(f"{name}={v} is not finite")
        if not math.isfinite(self.tol):
            raise ValueError(f"tol={self.tol} is not finite")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass
class QLaplaceResult:
    value: complex
    error_estimate: float
    nodes_used: int
    direction_used: float


def _integration_window(spec: QLaplaceSpec, cert: GrowthCertificate,
                        absT: float) -> tuple[float, float]:
    """s-window outside which the integrand envelope is below tol * peak.

    The envelope in s = log|u| is the certified growth of f minus the
    theta kernel's lower bound:

        g(s) = log_bound(e^s) - (k/2)(s-L)^2/log q - (s-L)/2,

    with L = log|T|; past rho it is a s^2 + b s + c, and unless a < 0,
    or a = 0 and b < 0, the integral diverges and we refuse.  The window
    ends where g has dropped `budget` below its peak on each side, found
    by walks of 0.25 evaluated as arrays; we also refuse a window wider
    than 200 log units or one that reaches |u| past the largest double.
    """
    lq = math.log(spec.q)
    L = math.log(absT)
    a = (cert.k - spec.k) / (2.0 * lq)
    b = cert.alpha + spec.k * L / lq - 0.5
    if not (a < 0 or a == 0 and b < 0):
        raise ValueError(
            "integrand envelope does not decay along the ray: growth "
            f"certificate (k={cert.k}, alpha={cert.alpha}) too strong "
            f"for transform order k={spec.k} at |T|={absT:.3g}")
    budget = math.log(1.0 / spec.tol) + 10.0

    def g(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            r = np.exp(s)
        return cert.log_bound(r, spec.q) \
            - 0.5 * spec.k * (s - L) ** 2 / lq - 0.5 * (s - L)

    scan_hi = max(L, math.log(cert.rho)) + 2.0
    floor = g(np.linspace(L - 2.0, scan_hi, 64)).max() - budget

    # each walk steps by 0.25 from one end of the scan while g > floor;
    # its grid is a cumsum of the steps, so every s is the running sum
    # that adding 0.25 at a time would form
    step = 0.25
    for count in (64, 810):     # 810 steps pass 200 log units
        s = _walk(scan_hi, step, count)
        gs = g(s)
        if not (gs > floor).all():
            break
    # the right walk may not take its step past 200 log units (to s[n])
    n = _first(s - scan_hi > 200.0)
    j_stop = min(_first(~(gs[:n + 1] > floor)), n)
    # where e^s overflows on the walk, g is not a bound
    if s[j_stop] > _LOG_MAX:
        raise ValueError(f"q-Laplace window reaches |u| = e^{s[j_stop]:.6g}, past "
                         f"double range, at |T|={absT:.3g}")
    if j_stop >= n:
        raise ValueError("q-Laplace window exceeds 200 log units; "
                         "certificate incompatible with |T|")
    s_hi = s[j_stop]

    s_lo = L - 2.0
    while True:
        s = _walk(s_lo, -step, 64)
        j = _first(~(g(s) > floor))
        if j < s.size:
            return float(s[j]) - 0.5, float(s_hi) + 0.5
        s_lo = s[-1]


def _first(mask: np.ndarray) -> int:
    """Index of the first True in a nonempty mask, or its length if
    there is none."""
    j = int(mask.argmax())
    return j if mask[j] else mask.size


def _walk(start: float, step: float, count: int) -> np.ndarray:
    """start, start + step, ... (count steps), each the running sum."""
    s = np.full(count + 1, step)
    s[0] = start
    return np.cumsum(s)


def log_contour_transform(f: Callable[[np.ndarray], np.ndarray], q: float,
                          k: float, T, w0: complex, dw: complex, a, b, *,
                          epsabs: float, epsrel: float, limit: int) -> tuple:
    """(k / log q) * integral f(u) / Theta_k(u/T) du/u along the
    log-contour u = exp(w0 + s dw), a <= s <= b.

    dw = 1 gives the ray at angle Im w0 (s = log|u|), dw = 1j the arc of
    radius e^{Re w0} (s = arg u); du/u = dw ds.  f takes an ndarray of u
    and returns values that broadcast against it; 1/Theta comes from
    theta.inv_theta_at on the same array.

    T is one point or a 1-d array of n points, with a and b scalars or
    arrays of the same length: n contours that share f, w0 and dw (one
    T is a batch of one).  They are the components of one vector
    fourier.complex_quad call on x in [0, 1]: component i runs along
    s = a_i + x (b_i - a_i), with Jacobian b_i - a_i, so each keeps its
    own epsabs and epsrel test, and each refinement round evaluates f
    and 1/Theta once, on the nodes of every panel it refines.  Returns
    (value, error estimate, x-nodes evaluated), with the value and the
    error arrays over the n points, or a complex and a float for one T.
    A call that would pass `limit` panels raises QuadratureError naming
    the |T| and the s-window of the component furthest from its target.
    """
    scalar = np.ndim(T) == 0
    T = np.atleast_1d(np.asarray(T, dtype=complex))
    if T.size == 0:
        return np.zeros(0, dtype=complex), np.zeros(0), 0
    w0, dw = complex(w0), complex(dw)
    # scalar windows stay scalar, so f runs once per node for all T
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    span = b - a

    def integrand(x):
        u = np.exp(w0 + (a + x[..., None] * span) * dw)
        return np.broadcast_to(f(u), u.shape) * inv_theta_at(q, k, u / T) * span

    try:
        val, err, n_eval = complex_quad(integrand, 0.0, 1.0, epsabs=epsabs,
                                        epsrel=epsrel, limit=limit)
    except QuadratureError as exc:
        i = exc.component
        a, b = np.broadcast_to(a, T.shape), np.broadcast_to(b, T.shape)
        raise QuadratureError(
            f"{T.size} contour{'s' * (T.size > 1)} exp({w0} + s*{dw}), "
            f"s = a + x (b - a), worst at |T|={abs(T[i]):.3g} on s in "
            f"[{a[i]:.6g}, {b[i]:.6g}], {exc}", i) from exc
    scale = k / math.log(q) * dw
    val, err = scale * val, abs(scale) * err
    return (complex(val[0]), float(err[0]), n_eval) if scalar else (val, err, n_eval)


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
                          direction_used=d)


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
