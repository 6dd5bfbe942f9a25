"""Order-k Jacobi-type theta function and its sampled lower envelope.

The function evaluated here is the bilateral series

    Theta_k(z) = sum_{p in Z} q^{-p(p-1)/(2k)} z^p,   z != 0.

It solves the q-difference equation

    Theta_k(q^{m/k} z) = q^{m(m+1)/(2k)} z^m Theta_k(z),   m in Z,

has an essential singularity at 0, and vanishes exactly on the spiral
z = -q^{m/k}, m in Z.  Away from that spiral it admits the lower bound

    |Theta_k(z)| >= C * dlt * exp((k/2) log^2|z| / log q) * |z|^{1/2}

on { z : inf_m |1 + z q^{m/k}| > dlt }, where C = C(q,k) is calibrated
numerically (sampled minimum of the ratio, deflated by 0.9; not
certified) and persisted with the spec; it is never hard-coded.  The
bound is judged in log form, so it stays finite for every double z.

With Q = q^{1/k}, each z is reduced to w = z Q^{-m} on the fundamental
annulus Q^{-1/2} <= |w| <= Q^{1/2} (m = round(log|z| / log Q)).  There
the series S(w) is summed over |p| <= P = truncation_order(q, k) by
Horner's rule, in w for p > 0 and in 1/w for p < 0, in place, with
O(size of z) memory; its largest term is p = 0 or p = 1, so the scale
is max(1, |w|).  On that annulus every term with |p| > P is below
e^{-40} times the p = 0 term, whatever |z| is, and

    Theta_k(z) = Q^{m(m+1)/2} w^m S(w).

theta_eval_scaled folds that exact factor, phase included, into a
shifted-exponent result that never overflows.  The calibration of C and
the lower bound read only the modulus, so they form
log|Theta| = log|S| + m(m+1)/2 log Q + m log|w| without the phase.
The spiral clearance is a minimum over the few scales q^{m/k} that can
bring |z q^{m/k}| near 1; the admissibility test needs only those near
[1 - dlt, 1 + dlt].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .schemas import Record


@dataclass(frozen=True)
class ThetaSpec(Record):
    """Theta parameters and the calibrated lower-bound constant Cqk
    (None until calibrate_theta_constant has run).  P, the symmetric
    truncation order (terms p = -P..P), follows from (q, k)."""

    q: float
    k: float
    Cqk: float | None = None

    def __post_init__(self) -> None:
        if not self.q > 1.0:
            raise ValueError(f"q must be > 1, got {self.q}")
        if not self.k > 0.0:
            raise ValueError(f"k must be > 0, got {self.k}")

    @property
    def P(self) -> int:
        return truncation_order(self.q, self.k)


def truncation_order(q: float, k: float) -> int:
    """Truncation order on the fundamental annulus.  With L = log q / k and
    |log|w|| <= L/2, term p is at most exp(-L p(p-2)/2) for p > 0 and
    exp(-L p^2/2) for p < 0, so past this P each is below e^{-40}."""
    return int(math.ceil(math.sqrt(80.0 * k / math.log(q)))) + 2


def spec_for_annulus(q: float, k: float, r_min: float, r_max: float) -> ThetaSpec:
    """ThetaSpec(q, k).  The radii are checked but no longer choose the
    truncation: every z is reduced to the fundamental annulus."""
    if not (0 < r_min <= r_max):
        raise ValueError("need 0 < r_min <= r_max")
    return ThetaSpec(q=q, k=k)


@lru_cache(maxsize=64)
def _coefficients(q: float, k: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(c_1..c_P, c_{-1}..c_{-P}) with c_p = Q^{-p(p-1)/2}, Q = q^{1/k}."""
    lQ = math.log(q) / k
    p = range(1, truncation_order(q, k) + 1)
    return (tuple(math.exp(-j * (j - 1) * lQ / 2.0) for j in p),
            tuple(math.exp(-j * (j + 1) * lQ / 2.0) for j in p))


def _annulus_sum(spec: ThetaSpec, z):
    """(S, w, m, x) with Theta(z) = Q^{m(m+1)/2} w^m S, Q = q^{1/k}:
    z reduced to w = z Q^{-m} on the fundamental annulus, x = log|w|, and
    S = 1 + sum_{p=1..P} (c_p w^p + c_{-p} w^{-p}).

    The two halves of S run by Horner's rule, in w and in 1/w, in one
    loop over p and in place, so memory stays O(size of z).  0-d z gives
    numpy scalars."""
    z = np.asarray(z, dtype=complex)
    if not z.all():
        raise ValueError("theta has an essential singularity at z = 0")
    lQ = math.log(spec.q) / spec.k
    m = np.rint(np.log(np.abs(z)) / lQ)
    # w = (z Q^{-m/2}) Q^{-m/2}: the half power stays in double range for
    # every nonzero double z, also where Q^{-m} overflows (subnormal z);
    # for q = 2, k = 1 and even m every factor is exact
    half = spec.q ** (m * (-0.5 / spec.k))
    if z.ndim:
        w = z * half * half
    else:   # near 1e308 numpy's 0-d complex-by-real multiply flags a false
        # overflow; the same product on one element does not
        w = (z.reshape(1) * half * half)[0]
    x = np.log(np.abs(w))
    u = 1.0 / w
    pos, neg = _coefficients(spec.q, spec.k)
    hp = pos[-1] * w
    hn = neg[-1] * u
    for cp, cn in zip(pos[-2::-1], neg[-2::-1]):
        hp += cp
        hp *= w
        hn += cn
        hn *= u
    return hp + hn + 1.0, w, m, x


def theta_eval_scaled(spec: ThetaSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """Theta as (mantissa, log_scale): theta = mantissa * exp(log_scale),
    exp(log_scale) being the modulus of the full series' largest term.
    Vectorized over nonzero z of any array shape.

    With x = log|w| in [-log Q / 2, log Q / 2], term p of the series at w
    has exponent -p(p-1) log Q / 2 + p x, at most that of term 1 for
    p >= 1 and below term 0 for p <= -1: the largest term at w is
    max(1, |w|).
    """
    S, w, m, x = _annulus_sum(spec, z)
    lQ = math.log(spec.q) / spec.k
    top = np.maximum(x, 0.0)
    # fold in Q^{m(m+1)/2} w^m: term p + m at z is that factor times term p
    # at w.  In place, so S stays the left operand: numpy's complex product
    # rounds differently with its operands swapped, and on large arrays
    # its temporary elision would swap them for a named S
    S *= np.exp(1j * m * np.angle(w))
    S *= np.exp(-top)
    return S, top + m * (m + 1) * (lQ / 2.0) + m * x


@lru_cache(maxsize=64)
def _spec(q: float, k: float) -> ThetaSpec:
    return ThetaSpec(q=q, k=k)


def inv_theta_at(q: float, k: float, z):
    """1/Theta_k(z) for scalar or array z, safe against overflow of Theta
    itself (underflows to 0)."""
    mant, shift = theta_eval_scaled(_spec(q, k), z)
    with np.errstate(under="ignore"):
        out = np.exp(-shift) / mant
    return out if np.ndim(z) else complex(out)


def _check_subnormal_shift(scale: float, z: complex, shifted: complex) -> None:
    """Refuse a subnormal shifted point that rounds by more than 2 eps.

    A subnormal keeps only its few low bits, and theta's log-derivative
    there (thousands) would turn that rounding into an O(1) residual.  The
    relative error |shifted - scale z| / |scale z| is computed exactly in
    Fractions; for q = 2, k = 1 the shift is a power of two and exact."""
    exact = [Fraction(scale) * Fraction(part) for part in (z.real, z.imag)]
    err2 = sum((Fraction(got) - want) ** 2
               for got, want in zip((shifted.real, shifted.imag), exact))
    norm2 = sum(e * e for e in exact)
    if err2 > (2.0 * sys.float_info.epsilon) ** 2 * norm2:
        rel = math.sqrt(float(err2 / norm2))
        raise ValueError(
            f"the shifted point q^(m/k) z = {shifted!r} is subnormal and "
            f"rounds by {rel:.3g} relative, more than 2 eps; need a |z| or m "
            "that keeps it in normal double range, or a q^(1/k) that is a "
            "power of two")


def theta_qdiff_residual(spec: ThetaSpec, z: complex, m: int) -> float:
    """Relative residual of the q-difference equation at (z, m):

        | Theta(q^{m/k} z) - q^{m(m+1)/(2k)} z^m Theta(z) | / max(|lhs|, |rhs|)

    computed in shifted-exponent form so it is meaningful even when the
    two sides are astronomically large.  Both sides sum the series on the
    fundamental annulus, so this checks the reduction's prefactor against
    the identity; the tests check the series against a triple product.
    """
    z = complex(z)
    lq = math.log(spec.q)
    try:
        scale = spec.q ** (m / spec.k)
        shifted = scale * z
    except OverflowError:
        shifted = math.inf
    if not (np.isfinite(shifted) and shifted != 0):
        raise ValueError("the shifted point q^(m/k) z leaves double range; "
                         "need a smaller |m| or |log|z||")
    if abs(shifted) < sys.float_info.min:
        _check_subnormal_shift(scale, z, shifted)
    lm, sm = theta_eval_scaled(spec, shifted)
    rm, sr = theta_eval_scaled(spec, z)
    # fold the prefactor q^{m(m+1)/(2k)} z^m into the right mantissa/scale
    lzm = m * np.log(complex(z))
    sr = sr + m * (m + 1) * lq / (2.0 * spec.k) + lzm.real
    rm = rm * np.exp(1j * lzm.imag)
    base = max(float(sm), float(sr))
    lhs = complex(lm) * math.exp(float(sm) - base)
    rhs = complex(rm) * math.exp(float(sr) - base)
    denom = max(abs(lhs), abs(rhs))
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def _spiral_min(q: float, k: float, z, lo: float, hi: float):
    """min(7/8, |1 + z q^{m/k}|) over the m that bring |z q^{m/k}| into
    [lo, hi] for some point of z, padded by one scale on each side; a
    float for a scalar z, an array of z's shape for an array.

    Each point's value depends only on the point: an array's window
    spans all its moduli, but the m it adds for a point lie outside that
    point's own window, and each scale q^{m/k} is formed from m alone.
    Past e^700 a scale would overflow, so it is applied as
    (z 2^e) (q^{m/k} 2^{-e}), with e its own and the power of two exact;
    e is 0 for every smaller scale.  A product that overflows belongs to
    a point far outside that m's window and is skipped (fmin drops NaN).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim:
        az = np.abs(z)
        r_lo, r_hi = float(az.min()), float(az.max())
    else:
        r_lo = r_hi = abs(complex(z))
    if r_lo == 0:
        raise ValueError("z must be nonzero")
    lq = math.log(q)
    m_lo = int(math.floor(k * (math.log(lo) - math.log(r_hi)) / lq)) - 1
    m_hi = int(math.ceil(k * (math.log(hi) - math.log(r_lo)) / lq)) + 1
    lm = np.arange(m_lo, m_hi + 1) * lq / k
    e = np.maximum(0.0, np.ceil((lm - 700.0) / math.log(2.0)))
    scales = np.exp(lm - e * math.log(2.0))
    if not z.ndim:
        # e rises with m, so e[-1] = 0 means that no scale is shifted; the
        # point's own window keeps every product near 1, so none overflows
        zs = z * 2.0 ** e if e[-1] else z
        return min(float(np.min(np.abs(1.0 + zs * scales))), 0.875)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.full(z.shape, 0.875)
        for shift, scale in zip(e, scales):
            zs = z * 2.0 ** shift if shift else z
            np.fmin(out, np.abs(1.0 + zs * scale), out=out)
    return out


def spiral_clearance(q: float, k: float, z):
    """inf over m in Z of |1 + z q^{m/k}|, capped at 7/8, for scalar or
    array z; a point's value does not depend on the other points.

    Only finitely many m can bring z q^{m/k} near -1; outside the window
    |z q^{m/k}| in [1/8, 8] the distance to -1 is at least 7/8 from
    below and 7 from above, so the window minimum together with those
    floors is the exact infimum for any threshold < 7/8 and a correct
    lower bound in general.  An array is swept one scale at a time as a
    running minimum (memory O(size of z)).
    """
    return _spiral_min(q, k, z, 0.125, 8.0)


def spiral_admissible(q: float, k: float, z, dlt: float):
    """Whether z keeps distance > dlt from the zero spiral in the
    normalized sense inf_m |1 + z q^{m/k}| > dlt, for scalar or array z.
    Exact for dlt < 7/8.

    |1 + z q^{m/k}| > dlt wherever |z q^{m/k}| lies outside
    [1 - dlt, 1 + dlt], so only the scales that bring it into that
    window are tested (padded by one on each side), through the same
    code as spiral_clearance: the result equals
    spiral_clearance(q, k, z) > dlt exactly."""
    if not 0 < dlt < 0.875:
        raise ValueError(f"dlt must lie in (0, 0.875), got {dlt}")
    return _spiral_min(q, k, z, 1.0 - dlt, 1.0 + dlt) > dlt


def log_lower_envelope(q: float, k: float, z) -> np.ndarray:
    """(k/2) log^2|z| / log q + log|z| / 2, the log of the lower bound's
    shape; finite for every nonzero double z."""
    L = np.log(np.abs(np.asarray(z, dtype=complex)))
    return 0.5 * k * L * L / math.log(q) + 0.5 * L


def _log_abs_theta(spec: ThetaSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """(log|Theta(z)|, log|mantissa|): with Theta(z) = Q^{m(m+1)/2} w^m S
    on the fundamental annulus, log|Theta| = log|S| + m(m+1)/2 log Q
    + m log|w|, and the mantissa of theta_eval_scaled has modulus
    |S| / max(1, |w|).  Neither needs the phase fold exp(i m arg w) nor
    exp(-max(log|w|, 0))."""
    S, _, m, x = _annulus_sum(spec, z)
    with np.errstate(divide="ignore"):
        log_s = np.log(np.abs(S))
    return (log_s + m * (m + 1) * (math.log(spec.q) / spec.k / 2.0) + m * x,
            log_s - np.maximum(x, 0.0))


def _crossing_angles(q: float, k: float, radii: np.ndarray,
                     t: float) -> np.ndarray:
    """Per radius r, the angle a* in (pi/2, pi] past which inf_m
    |1 + r e^{ia} q^{m/k}| drops below t (0 < t < 1), or inf where it
    never does.

    With rho_m = r q^{m/k}, |1 + rho_m e^{ia}|^2 = 1 + rho_m^2 + 2 rho_m cos a
    falls as a goes from 0 to pi and reaches t^2 where
    cos a = (t^2 - 1 - rho_m^2) / (2 rho_m); that is >= -1 exactly when
    |1 - rho_m| <= t, so only the m with rho_m in [1 - t, 1 + t] cross,
    and a* is the smallest of their arccos."""
    lQ = math.log(q) / k
    m_lo = math.floor(math.log((1.0 - t) / radii.max()) / lQ)
    m_hi = math.ceil(math.log((1.0 + t) / radii.min()) / lQ)
    rho = np.multiply.outer(radii, np.exp(np.arange(m_lo, m_hi + 1) * lQ))
    c = (t * t - 1.0 - rho * rho) / (2.0 * rho)
    return np.where(c >= -1.0, np.arccos(np.clip(c, -1.0, 1.0)), np.inf).min(axis=1)


def calibrate_theta_constant(spec: ThetaSpec, dlt: float = 0.3) -> ThetaSpec:
    """Measure C(q,k) and return a spec carrying it.

    The ratio |Theta(z)| / (dlt * envelope(z)) is log-periodic in |z|
    with period q^{1/k}, so one radial period suffices.  Theta has real
    coefficients, so |Theta(conj z)| = |Theta(z)|; the clearance is even
    in arg z and the envelope depends on |z| only, so the upper half
    plane suffices too.  The minimum is approached as the clearance
    decreases to dlt; besides a polar grid (48 radii x 361 angles over
    [0, pi], about 17k samples) we add, for each radius, the angle where
    the clearance crosses 1.02 dlt, in closed form (_crossing_angles;
    admissible by construction), then set

        Cqk = 0.9 * min ratio over all admissible samples,

    the ratio formed in log form (log|Theta| - log envelope, log|Theta|
    from the annulus sum without its phase fold).  Cqk is a
    sampled minimum, not a certified one: the 0.9 deflation is meant to
    absorb the gap between the samples and the true infimum over the
    admissible set, and nothing checks that it does.

    Raises ValueError where the pitch log q / k is so small (about 0.1
    and below) that |Theta| on one period falls below double resolution:
    a sampled scaled value under 1e-10 is round-off of terms near 1, not
    a value of Theta.
    """
    q, k = spec.q, spec.k
    radii = np.exp(np.linspace(0.0, math.log(q) / k, 48, endpoint=False))
    zs = np.multiply.outer(radii, np.exp(1j * np.linspace(0.0, math.pi, 361))).ravel()
    zs = zs[spiral_admissible(q, k, zs, dlt)]
    a = _crossing_angles(q, k, radii, 1.02 * dlt)
    crossed = np.isfinite(a)
    zs = np.concatenate([zs, radii[crossed] * np.exp(1j * a[crossed])])

    log_abs, log_mant = _log_abs_theta(spec, zs)
    smallest = math.exp(float(log_mant.min()))
    if not smallest >= 1e-10:
        raise ValueError(
            f"cannot calibrate Cqk at q={q}, k={k}, dlt={dlt}: at pitch "
            f"log q / k = {math.log(q) / k:.3g}, |Theta| on the admissible set "
            f"is below double resolution (smallest scaled value "
            f"{smallest:.3g} < 1e-10)")
    log_ratio = np.min(log_abs - log_lower_envelope(q, k, zs))
    return replace(spec, Cqk=0.9 * math.exp(float(log_ratio)) / dlt)


@dataclass(frozen=True)
class ThetaBoundCheck:
    z: complex
    admissible: bool
    clearance: float
    lhs: float          # |Theta(z)| (inf where it overflows a double)
    rhs: float          # Cqk * dlt * envelope(z) (likewise)
    log_lhs: float      # log |Theta(z)|, finite for every double z
    log_rhs: float
    log_margin: float   # log_lhs - log_rhs; >= 0 means the bound holds
    ok: bool


def theta_lower_bound(spec: ThetaSpec, z: complex, dlt: float) -> ThetaBoundCheck:
    """Check |Theta(z)| >= Cqk * dlt * envelope(z) at one admissible point.

    Raises if the spec has no calibrated Cqk.  Points failing the spiral
    clearance are reported admissible=False and not judged.
    """
    if spec.Cqk is None:
        raise ValueError("ThetaSpec has no calibrated Cqk; run calibrate_theta_constant")
    clearance = spiral_clearance(spec.q, spec.k, z)
    admissible = clearance > dlt
    log_lhs = float(_log_abs_theta(spec, z)[0])
    log_rhs = math.log(spec.Cqk * dlt) + float(log_lower_envelope(spec.q, spec.k, z))
    margin = log_lhs - log_rhs
    lhs = math.exp(log_lhs) if log_lhs < 700 else math.inf
    rhs = math.exp(log_rhs) if log_rhs < 700 else math.inf
    return ThetaBoundCheck(z=complex(z), admissible=admissible, clearance=clearance,
                           lhs=lhs, rhs=rhs, log_lhs=log_lhs, log_rhs=log_rhs,
                           log_margin=margin, ok=admissible and margin >= 0.0)
