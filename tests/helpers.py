"""Independent oracles used across the test suite.

Everything here is deliberately written from first principles (plain
series summation, direct linear-parametrization quadrature) so it shares
no code path with the library routines it checks.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad


def theta_brute(q: float, k: float, z: complex, P: int = 80) -> complex:
    """Bilateral series sum_{p=-P..P} q^{-p(p-1)/(2k)} z^p, no scaling."""
    acc = 0.0 + 0.0j
    for p in range(-P, P + 1):
        acc += q ** (-p * (p - 1) / (2.0 * k)) * z ** p
    return acc


def spiral_clear_brute(q: float, k: float, z, m_span: int = 80):
    """inf_m |1 + z q^{m/k}| by direct scan over a wide integer window,
    for scalar or array z."""
    best = math.inf
    for m in range(-m_span, m_span + 1):
        best = np.minimum(best, np.abs(1.0 + z * q ** (m / k)))
    return best


def cauchy_ray_direct(delta, t, direction: float, length: float,
                      eps: complex, n: int = 4000) -> complex:
    """(1/2pi i) int_ray delta(t, xi)/(xi - eps) dxi with the ray
    parametrized linearly (xi = s e^{ic}) and integrated by scipy quad
    on real and imaginary parts separately."""
    c = cmath.exp(1j * direction)

    def integrand(s: float) -> complex:
        xi = s * c
        return complex(np.asarray(delta(t, xi)).reshape(())) * c / (xi - eps)

    re, _ = quad(lambda s: integrand(s).real, 0.0, length, limit=n, epsabs=1e-13,
                 epsrel=1e-13)
    im, _ = quad(lambda s: integrand(s).imag, 0.0, length, limit=n, epsabs=1e-13,
                 epsrel=1e-13)
    return (re + 1j * im) / (2j * math.pi)


def log_branch_at(xi, center: float):
    """log|xi| + i * (angle measured from `center`), continuous across the
    ray at `center` and real on it; written with atan2 so it shares no
    code with the library's angle helpers."""
    xi = np.asarray(xi, dtype=complex)
    rel = xi * np.exp(-1j * center)
    ang = np.arctan2(rel.imag, rel.real)
    return np.log(np.abs(xi)) + 1j * ang


def closed_jump(q: float, k: float, A: float, cut_direction: float,
                amplitude: complex):
    """Ladder jump written out longhand: on |t| <= q^{-N/(2k)} its modulus
    is bounded by a constant times (A |xi|)^N; analytic near its cut."""
    lq = math.log(q)

    def delta(t, xi):
        xi = np.asarray(xi, dtype=complex)
        safe = np.where(xi == 0, 1.0, xi)
        expo = -(2.0 * k / lq) * np.log(complex(t)) \
            * (math.log(A) + log_branch_at(safe, cut_direction))
        return np.where(xi == 0, 0.0, amplitude * np.exp(expo))

    return delta
