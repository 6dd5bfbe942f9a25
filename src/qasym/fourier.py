"""Inverse Fourier transform for exponentially decaying symbols.

For a symbol f on the real line satisfying

    |f(m)| <= C (1 + |m|)^{-mu} exp(-beta |m|),   mu > 1, beta > 0,

the normalized inverse transform

    (F^{-1} f)(z) = (2 pi)^{-1/2} * integral f(m) exp(i z m) dm

defines a bounded holomorphic function on any horizontal strip
|Im z| <= beta' < beta.  The integral is truncated at a cutoff M
derived from the declared profile so the discarded tail is below the
requested tolerance on the whole strip, then evaluated by adaptive
Gauss-Kronrod quadrature (real and imaginary parts separately).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class HorizontalStrip:
    """Open strip |Im z| < half_width."""

    half_width: float

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")

    def contains(self, z: complex) -> bool:
        return abs(complex(z).imag) < self.half_width


@dataclass(frozen=True)
class DecayProfile:
    """Envelope C (1+|m|)^{-mu} e^{-beta |m|} with mu > 1, beta > 0."""

    C: float
    mu: float
    beta: float

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"C must be > 0, got {self.C}")
        if not self.mu > 1:
            raise ValueError(f"mu must be > 1 for integrability, got {self.mu}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def bound(self, m) -> np.ndarray:
        m = np.abs(np.asarray(m, dtype=float))
        return self.C * (1.0 + m) ** (-self.mu) * np.exp(-self.beta * m)

    def certify(self, f: Callable[[np.ndarray], np.ndarray],
                m_grid: np.ndarray) -> tuple[bool, float, float]:
        """Check |f| <= bound on a grid.

        Returns (ok, worst_ratio, argmax_m); worst_ratio <= 1 means the
        profile dominates the samples.
        """
        m_grid = np.asarray(m_grid, dtype=float)
        vals = np.abs(np.asarray(f(m_grid), dtype=complex))
        bnd = self.bound(m_grid)
        ratios = vals / bnd
        i = int(np.argmax(ratios))
        return bool(ratios[i] <= 1.0 + 1e-12), float(ratios[i]), float(m_grid[i])

    def cutoff(self, strip_half_width: float, tol: float) -> float:
        """Cutoff M with the two tails of the strip-weighted integral below tol.

        Tail estimate: 2/sqrt(2 pi) * C (1+M)^{-mu} e^{-(beta-b')M} / (beta-b').
        Solved by fixed-point iteration on the log.
        """
        gap = self.beta - strip_half_width
        if gap <= 0:
            raise ValueError(
                f"strip half-width {strip_half_width} must be < beta={self.beta}")
        M = 1.0
        for _ in range(200):
            t = 2.0 / SQRT2PI * self.C * (1.0 + M) ** (-self.mu) \
                * math.exp(-gap * M) / gap
            if t <= tol:
                break
            M += max((math.log(t / tol)) / gap, 0.25)
        return M


def complex_quad(f: Callable[[float], complex], a: float, b: float,
                 epsabs: float = 1e-12, epsrel: float = 1e-11,
                 limit: int = 300, points=None) -> tuple[complex, float, int]:
    """Adaptive Gauss-Kronrod on [a,b] for a complex integrand.

    ``points`` are interior breakpoints the first subdivision starts from.
    Returns (value, error_estimate, evaluation_count)."""
    re, re_err, info_r = quad(lambda x: f(x).real, a, b, epsabs=epsabs,
                              epsrel=epsrel, limit=limit, points=points,
                              full_output=True)[:3]
    im, im_err, info_i = quad(lambda x: f(x).imag, a, b, epsabs=epsabs,
                              epsrel=epsrel, limit=limit, points=points,
                              full_output=True)[:3]
    return re + 1j * im, math.hypot(re_err, im_err), info_r["neval"] + info_i["neval"]


@dataclass
class InverseFourierResult:
    value: complex
    error_estimate: float
    nodes_used: int
    cutoff: float


def inverse_fourier(f: Callable, z: complex, profile: DecayProfile,
                    strip: HorizontalStrip | None = None,
                    tol: float = 1e-12) -> InverseFourierResult:
    """(2 pi)^{-1/2} * integral_{-M}^{M} f(m) e^{izm} dm with profile-derived M.

    z must lie strictly inside the declared strip (default: half of the
    profile's beta).  The tail beyond M is bounded by tol by design.

    The range is split at m = 0: for an even symbol and nearly real z the
    imaginary part of the integrand is nearly odd, and one Gauss-Kronrod
    rule on the symmetric [-M, M] sums it to about 0 with an error
    estimate of about 0, so a small but nonzero integral would be accepted
    as 0 on the first pass.
    """
    if strip is None:
        strip = HorizontalStrip(half_width=0.5 * profile.beta)
    if strip.half_width >= profile.beta:
        raise ValueError("strip half-width must be smaller than the decay rate beta")
    z = complex(z)
    if not strip.contains(z):
        raise ValueError(f"z={z} lies outside the declared strip "
                         f"|Im z| < {strip.half_width}")
    M = profile.cutoff(strip.half_width, tol)
    val, err, n = complex_quad(lambda m: complex(f(m)) * np.exp(1j * z * m),
                               -M, M, epsabs=tol / 4.0, epsrel=1e-11,
                               points=(0.0,))
    return InverseFourierResult(value=val / SQRT2PI, error_estimate=err / SQRT2PI + tol,
                                nodes_used=n, cutoff=M)


# --- symbol registry -------------------------------------------------------

def standard_symbol(beta: float, mu: float) -> Callable:
    """f(m) = (1+|m|)^{-mu} e^{-beta|m|}; saturates its own profile with C=1."""
    def f(m):
        am = np.abs(m)
        return (1.0 + am) ** (-mu) * np.exp(-beta * am)
    return f


def gaussian_symbol() -> Callable:
    """f(m) = exp(-m^2); inverse transform is exp(-z^2/4)/sqrt(2)."""
    def f(m):
        return np.exp(-np.asarray(m, dtype=float) ** 2)
    return f


def oscillating_symbol(beta: float, mu: float, freq: float = 1.0) -> Callable:
    """f(m) = cos(freq*m) (1+|m|)^{-mu} e^{-beta|m|}."""
    def f(m):
        am = np.abs(m)
        return np.cos(freq * m) * (1.0 + am) ** (-mu) * np.exp(-beta * am)
    return f


BUILTIN_SYMBOLS: dict[str, Callable[..., Callable]] = {
    "standard": standard_symbol,
    "gaussian": lambda beta=0.0, mu=0.0: gaussian_symbol(),
    "oscillating": oscillating_symbol,
}


def make_symbol(name: str, beta: float, mu: float) -> Callable:
    if name not in BUILTIN_SYMBOLS:
        raise KeyError(f"unknown symbol '{name}'; have {sorted(BUILTIN_SYMBOLS)}")
    return BUILTIN_SYMBOLS[name](beta, mu)


def default_profile_for(name: str, beta: float, mu: float) -> DecayProfile:
    """Profile certified to dominate the named builtin."""
    if name == "gaussian":
        # exp(-m^2) <= C (1+|m|)^{-mu} e^{-beta|m|} needs C = sup ratio
        grid = np.linspace(0, 60, 6001)
        c = float(np.max(np.exp(-grid ** 2) * (1 + grid) ** mu * np.exp(beta * grid)))
        return DecayProfile(C=max(c, 1.0), mu=mu, beta=beta)
    return DecayProfile(C=1.0, mu=mu, beta=beta)
