"""Inverse Fourier transform for exponentially decaying symbols.

For a symbol f on the real line satisfying

    |f(m)| <= C (1 + |m|)^{-mu} exp(-beta |m|),   mu > 1, beta > 0,

the normalized inverse transform

    (F^{-1} f)(z) = (2 pi)^{-1/2} * integral f(m) exp(i z m) dm

defines a bounded holomorphic function on any horizontal strip
|Im z| <= beta' < beta.  The integral is truncated at a cutoff M
derived from the declared profile so the discarded tail is below the
requested tolerance on the whole strip, then evaluated by complex_quad.

complex_quad is the package's one adaptive rule: QUADPACK's G10K21
batched over panels, so each refinement round makes one call of the
integrand on an ndarray of nodes.  The log-contour transforms of
qlaplace and the Cauchy-Heine rays of cocycle run on it too.  A call
that cannot meet its tolerance within its panel limit raises
QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# unused here; bound so that perfbench's QuadAudit can patch it by name
from scipy.integrate import quad  # noqa: F401

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


# QUADPACK qk21: the 21 Kronrod nodes on [-1, 1] and their weights, and
# the weights of the 10 Gauss nodes among them (every other one).
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208034034236, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_X21 = np.concatenate([-_XK[:-1], _XK[::-1]])
_W21 = np.concatenate([_WK[:-1], _WK[::-1]])
_G21 = np.zeros(21)
_G21[1:10:2] = _WG
_G21[11:20:2] = _WG[::-1]
_EPS50 = 50.0 * np.finfo(float).eps


class QuadratureError(ArithmeticError):
    """An integral missed its tolerance within `limit` panels."""


def _gk21(fv: np.ndarray, half: np.ndarray) -> tuple:
    """QUADPACK qk21 along the last axis of fv (real values at the 21
    nodes of each panel) for panels of half-width `half`, which
    broadcasts against the other axes: (value, error estimate, round-off
    floor)."""
    h = np.abs(half)
    resk = fv @ _W21
    err = np.abs(resk - fv @ _G21) * h
    resabs = (np.abs(fv) @ _W21) * h
    resasc = (np.abs(fv - 0.5 * resk[..., None]) @ _W21) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    floor = _EPS50 * resabs
    return resk * half, np.maximum(err, floor), floor


def complex_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 epsabs: float = 1e-12, epsrel: float = 1e-11,
                 limit: int = 300, points=None) -> tuple:
    """Adaptive Gauss-Kronrod integral of a complex integrand over [a, b].

    f takes an ndarray of nodes and returns values of that shape (a
    scalar integrand) or of that shape plus one trailing component axis
    (a vector integrand).  The rule is QUADPACK's G10K21 (Piessens et al.
    1983) batched over panels: from 8 equal panels, cut at the interior
    ``points``, each round makes one f call on the 21 nodes of every
    panel it refines.

    As scipy's quad does for each part, the real and the imaginary part
    of every component must each meet max(epsabs, epsrel |that part of
    the integral|).  A vector integrand must also meet quad_vec's test:
    the 2-norms of the panels' errors sum to at most
    max(epsabs, epsrel ||integral||_2).  A panel is bisected while it
    misses its share of a target (in proportion to width) and one of its
    parts is above its round-off floor, 50 eps times the integral of
    |part| over the panel; when only such floors stand in the way, the
    call returns with their error.  Raises QuadratureError if a
    bisection would take the number of panels past `limit`.

    Returns (value, error estimate, nodes evaluated).  The value and the
    error, the modulus of the real and imaginary errors, are scalars for
    a scalar integrand and arrays over the components otherwise.
    """
    edges = np.linspace(a, b, 9)
    cuts = [p for p in points or () if min(a, b) < p < max(a, b)]
    if cuts:
        edges = np.union1d(edges, cuts)[::1 if a < b else -1]
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = np.empty(0)
    panels = None   # value, error, floor x panel [x component] x (Re, Im)
    n_eval = 0
    while True:
        centre, half = 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo)
        x = centre[:, None] + half[:, None] * _X21
        fv = np.asarray(f(x))
        n_eval += x.size
        if fv.ndim == 3:   # nodes to the last axis, where _gk21 sums them
            fv, half = np.moveaxis(fv, 1, 2), half[:, None]
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        new = np.stack([_gk21(fv.real, half), _gk21(fv.imag, half)], axis=-1)
        panels = new if panels is None else np.concatenate([panels, new], axis=1)
        val, err, floor = panels
        total, total_err = val.sum(axis=0), err.sum(axis=0)
        target = np.maximum(epsabs, epsrel * np.abs(total))
        width = ((hi - lo) / (b - a)).reshape((-1,) + (1,) * (err.ndim - 1))
        above = (err > floor).reshape(len(lo), -1)
        split = ((err > width * target).reshape(len(lo), -1) & above).any(axis=1)
        done = np.all(total_err <= target)
        if val.ndim == 3:
            norms = np.sqrt((err ** 2).sum(axis=(1, 2)))
            norm_target = max(epsabs, epsrel * math.sqrt((total ** 2).sum()))
            split |= (norms > width.ravel() * norm_target) & above.any(axis=1)
            done = done and norms.sum() <= norm_target
        if done or not split.any():
            break
        if len(lo) + split.sum() > limit:
            ratio = np.max(total_err / target)
            if val.ndim == 3:
                ratio = max(ratio, norms.sum() / norm_target)
            raise QuadratureError(
                f"x in [{a}, {b}]: error {ratio:.3g} times its target with "
                f"{len(lo)} panels; bisecting would pass limit={limit}")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        lo, hi, panels = lo[~split], hi[~split], panels[:, ~split]
    if val.ndim == 2:
        return complex(total[0], total[1]), math.hypot(*total_err), n_eval
    return (total[:, 0] + 1j * total[:, 1],
            np.hypot(total_err[:, 0], total_err[:, 1]), n_eval)


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
    val, err, n = complex_quad(lambda m: np.asarray(f(m)) * np.exp(1j * z * m),
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
