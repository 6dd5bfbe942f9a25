"""Inverse Fourier transform for exponentially decaying symbols.

For a symbol f on the real line satisfying

    |f(m)| <= C (1 + |m|)^{-mu} exp(-beta |m|),   mu > 1, beta > 0,

the normalized inverse transform

    (F^{-1} f)(z) = (2 pi)^{-1/2} * integral f(m) exp(i z m) dm

defines a bounded holomorphic function on any horizontal strip
|Im z| <= beta' < beta; inverse_fourier takes beta' = beta/2.  The
integral is truncated at a cutoff M derived from the declared profile
so the discarded tail is below the requested tolerance on that whole
strip, then evaluated by complex_quad.

complex_quad is the package's one adaptive rule: QUADPACK's G10K21
batched over panels, so each refinement round makes one call of the
integrand on an ndarray of nodes.  The log-contour transforms of
qlaplace and the Cauchy-Heine rays of cocycle run on it too.  A call
that cannot meet its tolerance within its panel limit raises
QuadratureError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SQRT2PI = math.sqrt(2.0 * math.pi)


def __getattr__(name: str):
    # perfbench's QuadAudit patches fourier.quad by name; scipy is
    # imported only when it asks.  The shim goes with QuadAudit.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    def cutoff(self, strip_half_width: float, tol: float) -> float:
        """Cutoff M with the two tails of the strip-weighted integral below tol.

        Tail estimate: 2/sqrt(2 pi) * C (1+M)^{-mu} e^{-(beta-b')M} / (beta-b').
        Solved by fixed-point iteration on the log, once per (profile,
        strip, tol): a residual point asks again for the same polynomial
        profiles.
        """
        return _cutoff(self, strip_half_width, tol)


@functools.lru_cache(maxsize=256)
def _cutoff(profile: DecayProfile, strip_half_width: float, tol: float) -> float:
    gap = profile.beta - strip_half_width
    if gap <= 0:
        raise ValueError(
            f"strip half-width {strip_half_width} must be < beta={profile.beta}")
    M = 1.0
    for _ in range(200):
        t = 2.0 / SQRT2PI * profile.C * (1.0 + M) ** (-profile.mu) \
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
_KG21 = np.stack([_W21, _G21])
_EDGE_STEPS = np.arange(9.0)   # edge k of the 8 starting panels is a + k (b - a)/8
_EPS50 = 50.0 * np.finfo(float).eps


class QuadratureError(ArithmeticError):
    """An integral missed its tolerance within `limit` panels, or a panel
    integrated to a non-finite value.

    For a vector integrand, `component` is the index of the component
    furthest from its target (or not finite); None for a scalar one."""

    def __init__(self, message: str, component: int | None = None):
        super().__init__(message)
        self.component = component


def _gk21(fv: np.ndarray, half: np.ndarray) -> np.ndarray:
    """QUADPACK qk21 on real values fv over (panel, node, part), the 21
    nodes of each panel on the middle axis, for panels of half-width
    `half` (panel x 1): one (2, 21) Kronrod/Gauss contraction and two
    weighted |.| sums give the (value, error estimate, round-off floor)
    over (panel, part), written into one (3, panel, part) array.  The
    three sums that scale with the panel, |Kronrod - Gauss| and the two
    |.| sums, are multiplied by |half| together, in that array.  Run it
    with divide, invalid and overflow warnings off: 0/0 in the error
    scaling is masked here, and a non-finite result is the caller's to
    refuse."""
    resk, resg = np.moveaxis(_KG21 @ fv, 1, 0)
    out = np.empty((3,) + resk.shape)
    resasc, err, resabs = out
    np.abs(np.subtract(resk, resg, out=err), out=err)
    dev = np.abs(fv)      # one scratch array of fv's size for both sums
    resabs[...] = _W21 @ dev
    np.abs(np.subtract(fv, 0.5 * resk[:, None], out=dev), out=dev)
    resasc[...] = _W21 @ dev
    out *= np.abs(half)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    np.copyto(err, scaled, where=(resasc != 0) & (err != 0))
    floor = np.multiply(_EPS50, resabs, out=resabs)
    np.maximum(err, floor, out=err)
    np.multiply(resk, half, out=out[0])
    return out


def complex_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 epsabs: float = 1e-12, epsrel: float = 1e-11,
                 limit: int = 300, points=None) -> tuple:
    """Adaptive Gauss-Kronrod integral of a complex integrand over [a, b].

    f takes an ndarray of nodes and returns values of that shape plus a
    trailing component axis (a vector integrand) or of that shape alone
    (a scalar integrand, integrated as one component).  The rule is
    QUADPACK's G10K21 (Piessens et al. 1983) batched over panels: from 8
    equal panels, cut at the ``points`` that lie strictly inside the
    range (a sequence or an array; repeats are cut once), each round
    makes one f call on the 21 nodes of every panel it refines.  The
    values are read as reals, through a float view of the complex array,
    so a round is one _gk21 call over (panel, node, part), a part being
    the real or the imaginary part of one component, and the panels'
    state is kept per (panel, part).

    As scipy's quad does for each part, the real and the imaginary part
    of every component must each meet max(epsabs, epsrel |that part of
    the integral|), and, as in quad_vec, the 2-norms of the panels'
    errors must sum to at most max(epsabs, epsrel ||integral||_2).  The
    call returns as soon as both hold.  Otherwise a panel is bisected
    while it misses its share of a target (in proportion to width) and
    one of its parts is above its round-off floor, 50 eps times the
    integral of |part| over the panel; when only such floors stand in
    the way, the call returns with their error.  Raises QuadratureError
    if a bisection would take the number of panels past `limit` or a
    panel integrates to a non-finite value; its `component` is the one
    furthest from its target or not finite (None for a scalar
    integrand).

    Returns (value, error estimate, nodes evaluated): the value and the
    error, the modulus of the real and imaginary errors, are arrays over
    the components, or a complex and a float for a scalar integrand.
    """
    # np.linspace(a, b, 9) bit for bit, without its set-up per call (it
    # divides before it multiplies when the step underflows to 0)
    step = (b - a) / 8
    edges = (_EDGE_STEPS * step if step else _EDGE_STEPS / 8 * (b - a)) + a
    edges[-1] = b
    if points is not None:
        cuts = np.asarray(points, dtype=float).ravel()
        cuts = cuts[(min(a, b) < cuts) & (cuts < max(a, b))]
        if cuts.size:
            # np.union1d's sort and its drop of repeats, reversed when a > b
            edges = np.concatenate([edges, cuts])
            edges.sort()
            edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
            edges = edges[::1 if a < b else -1]
    lo, hi = new_lo, new_hi = edges[:-1], edges[1:]
    panels = None   # value, error, floor x panel x part
    n_eval = 0
    while True:
        centre, half = 0.5 * (new_lo + new_hi)[:, None], 0.5 * (new_hi - new_lo)[:, None]
        x = centre + half * _X21
        fv = np.ascontiguousarray(f(x), dtype=complex)
        n_eval += x.size
        scalar = fv.ndim == 2
        # panel x node x part: part 2c is Re and 2c + 1 is Im of component c
        fv = (fv[..., None] if scalar else fv).view(float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = _gk21(fv, half)
        if not np.isfinite(new).all():
            i, c = np.argwhere(~np.isfinite(new).all(axis=0))[0]   # panel, part
            raise QuadratureError(f"x in [{a}, {b}]: the panel on [{new_lo[i]:.6g}, "
                                  f"{new_hi[i]:.6g}] integrates to a non-finite value",
                                  component=None if scalar else int(c) // 2)
        if panels is None:
            panels = new
        else:
            lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
            panels = np.concatenate([panels, new], axis=1)
        val, err, floor = panels
        total, total_err = val.sum(axis=0), err.sum(axis=0)
        target = np.maximum(epsabs, epsrel * np.abs(total))
        # past 1e154 the squares overflow: an infinite target makes the
        # norm test vacuous, an infinite panel norm refines or raises
        with np.errstate(over="ignore"):
            norms = np.sqrt((err ** 2).sum(axis=1))
            norm_target = max(epsabs, epsrel * math.sqrt((total ** 2).sum()))
        if np.all(total_err <= target) and norms.sum() <= norm_target:
            break
        width = ((hi - lo) / (b - a))[:, None]
        above = err > floor
        split = ((err > width * target) & above).any(axis=1)
        split |= (norms > width.ravel() * norm_target) & above.any(axis=1)
        if not split.any():
            break
        if len(lo) + split.sum() > limit:
            ratios = total_err / target
            ratio = max(np.max(ratios), norms.sum() / norm_target)
            raise QuadratureError(
                f"x in [{a}, {b}]: error {ratio:.3g} times its target with "
                f"{len(lo)} panels; bisecting would pass limit={limit}",
                component=None if scalar else int(np.argmax(ratios)) // 2)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        lo, hi, panels = lo[~split], hi[~split], panels[:, ~split]
    value = total.view(complex)
    error = np.hypot(total_err[0::2], total_err[1::2])
    return (complex(value[0]), float(error[0]), n_eval) if scalar else (value, error, n_eval)


@dataclass
class InverseFourierResult:
    value: complex | np.ndarray
    error_estimate: float | np.ndarray
    nodes_used: int
    cutoff: float


def inverse_fourier(f: Callable, z: complex,
                    profile: DecayProfile | Sequence[DecayProfile],
                    tol: float = 1e-12) -> InverseFourierResult:
    """(2 pi)^{-1/2} * integral_{-M}^{M} f(m) e^{izm} dm with profile-derived M.

    z must lie strictly inside the strip |Im z| < beta/2 (else
    ValueError), where the tail beyond M is bounded by tol by design; a
    tol that is not finite or not > 0 and a non-finite M (C = inf) are
    refused with ValueError.

    A vector symbol returns m.shape + (n,) and takes a sequence of n
    profiles, one per component.  All components share one complex_quad
    call on [-M, M], M the largest of their cutoffs: each component's
    tail past that M is at most its tail past its own cutoff, so every
    component keeps tol.  The strip is half the smallest beta, and value
    and error_estimate are arrays over the components.  A scalar symbol
    is a vector of one component, unwrapped to a complex and a float on
    return.

    The range is split at m = 0: for an even symbol and nearly real z the
    imaginary part of the integrand is nearly odd, and one Gauss-Kronrod
    rule on the symmetric [-M, M] sums it to about 0 with an error
    estimate of about 0, so a small but nonzero integral would be accepted
    as 0 on the first pass.

    The panels start graded toward that cut.  Besides the 8 uniform
    panels of [-M, M], the range is cut at +-M/2^j for j = 3, 4, ...,
    down to the first cut at most 1 (M = 54: 16 panels, the innermost
    [0, M/64]).  The scale 1 is that of the profile's (1+|m|) factor: on
    m >= 0 its nearest singularity is m = -1, so each panel [c, 2c] is
    no wider than its distance from it.  The stacked symbols of the
    manufactured residual sweep, kinked at 0 like their profiles, meet
    tol on these panels in the first round; from 8 uniform panels they
    took four more rounds of halving the two panels beside 0 (504 nodes
    against 336).
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol={tol} is not finite")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    vector = not isinstance(profile, DecayProfile)
    profiles = tuple(profile) if vector else (profile,)
    half_width = 0.5 * min(p.beta for p in profiles)
    z = complex(z)
    if not abs(z.imag) < half_width:
        raise ValueError(f"z={z} lies outside the declared strip "
                         f"|Im z| < {half_width}")
    M = max(p.cutoff(half_width, tol) for p in profiles)
    if not math.isfinite(M):
        raise ValueError(f"the cutoff M={M} for tol={tol} is not finite")

    def integrand(m):
        fv = np.asarray(f(m))
        if vector and fv.shape != m.shape + (len(profiles),):
            raise ValueError(f"a vector symbol with {len(profiles)} profiles "
                             f"returned shape {fv.shape} on nodes {m.shape}")
        return fv.reshape(m.shape + (-1,)) * np.exp(1j * z * m)[..., None]
    cs = M / 2.0 ** np.arange(3, max(3, math.ceil(math.log2(M))) + 1)
    val, err, n = complex_quad(integrand, -M, M, epsabs=tol / 4.0, epsrel=1e-11,
                               points=np.concatenate([[0.0], -cs, cs]))
    val, err = val / SQRT2PI, err / SQRT2PI + tol
    if not vector:
        val, err = complex(val[0]), float(err[0])
    return InverseFourierResult(value=val, error_estimate=err, nodes_used=n, cutoff=M)


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


def oscillating_symbol(beta: float, mu: float) -> Callable:
    """f(m) = cos(m) (1+|m|)^{-mu} e^{-beta|m|}."""
    def f(m):
        am = np.abs(m)
        return np.cos(m) * (1.0 + am) ** (-mu) * np.exp(-beta * am)
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
