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
shifted-exponent result that never overflows.  A 0-d z is summed in
Python floats, through math and cmath with no numpy call, since numpy's
dispatch on one number costs more than the sum; an array is summed in
numpy.  The two round differently in the last bits (numpy's abs, log
and complex reciprocal are not Python's), so a 0-d value agrees with its
array element to a few ulp of the sum's cancellation, not bit for bit.
The calibration of C and the lower bound read only the modulus, so they
form log|Theta| = log|S| + m(m+1)/2 log Q + m log|w| without the phase.
The spiral clearance is a minimum over the few scales q^{m/k} that can
bring |z q^{m/k}| into [1/8, 8], in a window of scales of each point's
own, and a point is admissible where its clearance exceeds dlt; a 0-d z
finds its window in math but forms the minimum with the array path's
ufuncs, so its clearance is its array element's, bit for bit.

By the Jacobi triple product every factor of |Theta(r e^{ia})| is
|1 + c e^{+-ia}| with c > 0, and each term |1 + rho_m e^{ia}| of the
clearance has that form too, so on a circle |z| = r both fall as a goes
from 0 to pi.  So the admissible part of the upper half circle is the
arc of angles below a*(r) = min(crossing of dlt, pi), in closed form,
and the ratio's infimum over it is its value at a*(r): the calibration
sums Theta once per radius, at r e^{i a*(r)}.
"""

from __future__ import annotations

import cmath
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
        for name, v in (("q", self.q), ("k", self.k)):
            if not math.isfinite(v):
                raise ValueError(f"{name}={v} is not finite")

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


_AT_ZERO = "theta has an essential singularity at z = 0"
_PAST_RANGE = ("theta needs a z whose modulus is a finite double "
               "(|z| <= 1.8e308)")
_NOT_CLEARABLE = "z must be nonzero with a finite modulus"


# Python numbers that take the 0-d path with no numpy call; np.float64 and
# np.complex128 subclass float and complex, and a 0-d array joins them
# after an np.ndim test
_SCALARS = (complex, float, int)


def _annulus_sum(spec: ThetaSpec, z):
    """(S, w, m, x) with Theta(z) = Q^{m(m+1)/2} w^m S, Q = q^{1/k}:
    z reduced to w = z Q^{-m} on the fundamental annulus, x = log|w|, and
    S = 1 + sum_{p=1..P} (c_p w^p + c_{-p} w^{-p}).

    The two halves of S run by Horner's rule, in w and in 1/w, in one
    loop over p and in place, so memory stays O(size of z).  0-d z runs
    on Python numbers (S and w complex, m and x float) through math,
    with no numpy call.  A z that is 0, or whose modulus is not a finite
    double, is refused."""
    if isinstance(z, _SCALARS) or not np.ndim(z):
        return _annulus_sum_0d(spec, complex(z))
    z = np.asarray(z, dtype=complex)
    if not z.all():
        raise ValueError(_AT_ZERO)
    lQ = math.log(spec.q) / spec.k
    m = np.rint(np.log(np.abs(z)) / lQ)
    # |z| is inf where it overflows a double or a part is inf, and nan
    # where a part is nan; m, already at hand, shows either
    if not np.isfinite(m).all():
        raise ValueError(_PAST_RANGE)
    # w = (z Q^{-m/2}) Q^{-m/2}: the half power stays in double range for
    # every nonzero double z, also where Q^{-m} overflows (subnormal z);
    # for q = 2, k = 1 and even m every factor is exact
    half = spec.q ** (m * (-0.5 / spec.k))
    w = z * half * half
    return _horner(spec, w, 1.0 / w), w, m, np.log(np.abs(w))


def _annulus_sum_0d(spec: ThetaSpec, z: complex):
    """_annulus_sum of one Python complex, in math: the modulus by
    math.hypot, which is inf, not an OverflowError, past double range,
    and m by round, with rint's ties to even and sign of zero."""
    if z == 0:
        raise ValueError(_AT_ZERO)
    lQ = math.log(spec.q) / spec.k
    v = math.log(math.hypot(z.real, z.imag)) / lQ
    if not math.isfinite(v):
        raise ValueError(_PAST_RANGE)
    m = math.copysign(round(v), v)
    half = spec.q ** (m * (-0.5 / spec.k))
    w = z * half * half
    return (_horner(spec, w, 1.0 / w), w, m,
            math.log(math.hypot(w.real, w.imag)))


def _horner(spec: ThetaSpec, w, u):
    """1 + sum_{p=1..P} (c_p w^p + c_{-p} u^p) by Horner's rule, in place
    for arrays, given u = 1/w."""
    pos, neg = _coefficients(spec.q, spec.k)
    hp = pos[-1] * w
    hn = neg[-1] * u
    for cp, cn in zip(pos[-2::-1], neg[-2::-1]):
        hp += cp
        hp *= w
        hn += cn
        hn *= u
    return hp + hn + 1.0


def theta_eval_scaled(spec: ThetaSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """Theta as (mantissa, log_scale): theta = mantissa * exp(log_scale),
    exp(log_scale) being the modulus of the full series' largest term.
    Vectorized over nonzero z of any array shape; 0-d z gives a Python
    complex and float.

    With x = log|w| in [-log Q / 2, log Q / 2], term p of the series at w
    has exponent -p(p-1) log Q / 2 + p x, at most that of term 1 for
    p >= 1 and below term 0 for p <= -1: the largest term at w is
    max(1, |w|).
    """
    S, w, m, x = _annulus_sum(spec, z)
    lQ = math.log(spec.q) / spec.k
    # fold in Q^{m(m+1)/2} w^m: term p + m at z is that factor times term p
    # at w.  The phase is exp(i m arg w): cmath.exp for 0-d z, and for an
    # array cos y + i sin y, y = m arg w, the bits of numpy's complex exp
    # at real part 0 without its complex temporaries
    if isinstance(S, complex):
        top = max(x, 0.0)
        S = S * cmath.exp(1j * m * math.atan2(w.imag, w.real)) * math.exp(-top)
        return S, top + m * (m + 1) * (lQ / 2.0) + m * x
    top = np.maximum(x, 0.0)
    y = m * np.arctan2(w.imag, w.real)
    phase = np.empty(S.shape, complex)
    phase.real = np.cos(y)
    phase.imag = np.sin(y)
    # in place, so S stays the left operand: numpy's complex product
    # rounds differently with its operands swapped, and on large arrays
    # its temporary elision would swap them for a named S
    S *= phase
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
    if not (cmath.isfinite(shifted) and shifted != 0):
        raise ValueError("the shifted point q^(m/k) z leaves double range; "
                         "need a smaller |m| or |log|z||")
    if abs(shifted) < sys.float_info.min:
        _check_subnormal_shift(scale, z, shifted)
    lm, sm = theta_eval_scaled(spec, shifted)
    rm, sr = theta_eval_scaled(spec, z)
    # fold the prefactor q^{m(m+1)/(2k)} z^m into the right mantissa/scale
    lzm = m * cmath.log(z)
    sr = sr + m * (m + 1) * lq / (2.0 * spec.k) + lzm.real
    rm = rm * cmath.exp(1j * lzm.imag)
    base = max(sm, sr)
    lhs = lm * math.exp(sm - base)
    rhs = rm * math.exp(sr - base)
    denom = max(abs(lhs), abs(rhs))
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def spiral_clearance(q: float, k: float, z):
    """inf over m in Z of |1 + z q^{m/k}|, capped at 7/8, for scalar or
    array z; a float for a scalar z, an array of z's shape for an array.

    Only finitely many m can bring z q^{m/k} near -1; outside the window
    |z q^{m/k}| in [1/8, 8] the distance to -1 is at least 7/8 from
    below and 7 from above, so the window minimum together with those
    floors is the exact infimum for any threshold < 7/8 and a correct
    lower bound in general.  Each point gets its own window: the
    ceil(k log 64 / log q) + 3 scales from m_lo = floor(k (log(1/8) -
    log|z|) / log q) - 1 up, which cover [1/8, 8] with one scale to
    spare on each side.  So a point's value does not depend on the other
    points, and memory is the size of z times that count.

    Past e^700 a scale would overflow, so it is applied as
    (z 2^e) (q^{m/k} 2^{-e}), with e its own and the power of two exact;
    e is 0 for every smaller scale.  A product that overflows belongs to
    a scale far outside [1/8, 8] and is inf, or nan and skipped.  A z
    that is 0, or whose modulus is not a finite double, is refused.
    """
    lq = math.log(q)
    count = math.ceil(k * math.log(64.0) / lq) + 3
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(z, _SCALARS) or not np.ndim(z):
            # m_lo in math may sit one scale off the array path's; both
            # windows cover [1/8, 8] with a scale to spare, and the ufuncs
            # below form the minimum as for an array, so the value is the
            # array element's
            z = complex(z)
            r = math.hypot(z.real, z.imag)
            v = k * (math.log(0.125) - math.log(r)) / lq if 0.0 < r < math.inf else math.nan
            if not math.isfinite(v):
                raise ValueError(_NOT_CLEARABLE)
            lm = (math.floor(v) - 1.0 + np.arange(count)) * lq / k
            far = lm[-1] > 700.0    # the exponents rise along the window
        else:
            z = np.asarray(z, dtype=complex)
            m_lo = np.floor(k * (math.log(0.125) - np.log(np.abs(z))) / lq) - 1.0
            if not np.isfinite(m_lo).all():
                raise ValueError(_NOT_CLEARABLE)
            # the scales run along a new first axis, so each product and
            # the minimum over them run along z's contiguous axes
            j = np.arange(count).reshape((count,) + (1,) * z.ndim)
            lm = (m_lo + j) * lq / k
            far = lm.max() > 700.0
        if far:
            e = np.maximum(0.0, np.ceil((lm - 700.0) / math.log(2.0)))
            z = z * 2.0 ** e
            lm -= e * math.log(2.0)
        # cast up front: numpy's mixed complex-by-real product casts in
        # small buffers, several times slower; the values are the same
        w = z * np.exp(lm).astype(complex)
        w += 1.0
        out = np.fmin.reduce(np.abs(w), axis=0, initial=0.875)
    return out if out.ndim else float(out)


def spiral_admissible(q: float, k: float, z, dlt: float):
    """Whether z keeps distance > dlt from the zero spiral in the
    normalized sense inf_m |1 + z q^{m/k}| > dlt, for scalar or array z:
    spiral_clearance(q, k, z) > dlt by definition, exact for dlt < 7/8."""
    _check_dlt(dlt)
    return spiral_clearance(q, k, z) > dlt


def _check_dlt(dlt: float) -> None:
    if not 0 < dlt < 0.875:
        raise ValueError(f"dlt must lie in (0, 0.875), got {dlt}")


def log_lower_envelope(q: float, k: float, z) -> np.ndarray:
    """(k/2) log^2|z| / log q + log|z| / 2, the log of the lower bound's
    shape; finite for every nonzero double z."""
    return _envelope_of_log(q, k, np.log(np.abs(np.asarray(z, dtype=complex))))


def _envelope_of_log(q: float, k: float, L):
    """log_lower_envelope at log|z| = L, for a float or an array."""
    return 0.5 * k * L * L / math.log(q) + 0.5 * L


def _log_abs_theta(spec: ThetaSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """(log|Theta(z)|, log|mantissa|): with Theta(z) = Q^{m(m+1)/2} w^m S
    on the fundamental annulus, log|Theta| = log|S| + m(m+1)/2 log Q
    + m log|w|, and the mantissa of theta_eval_scaled has modulus
    |S| / max(1, |w|).  Neither needs the phase fold exp(i m arg w) nor
    exp(-max(log|w|, 0))."""
    S, _, m, x = _annulus_sum(spec, z)
    if isinstance(S, complex):
        h = abs(S)
        log_s = math.log(h) if h else -math.inf
        top = max(x, 0.0)
    else:
        with np.errstate(divide="ignore"):
            log_s = np.log(np.abs(S))
        top = np.maximum(x, 0.0)
    return (log_s + m * (m + 1) * (math.log(spec.q) / spec.k / 2.0) + m * x,
            log_s - top)


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
    # past double range rho overflows and c is -inf or nan: no crossing
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.multiply.outer(radii, np.exp(np.arange(m_lo, m_hi + 1) * lQ))
        c = (t * t - 1.0 - rho * rho) / (2.0 * rho)
    return np.where(c >= -1.0, np.arccos(np.clip(c, -1.0, 1.0)), np.inf).min(axis=1)


def calibrate_theta_constant(spec: ThetaSpec, dlt: float = 0.3) -> ThetaSpec:
    """Measure C(q,k) and return a spec carrying it.

    The ratio |Theta(z)| / (dlt * envelope(z)) is log-periodic in |z|
    with period q^{1/k}, so one radial period suffices.  Theta has real
    coefficients, so |Theta(conj z)| = |Theta(z)|; the clearance is even
    in arg z and the envelope depends on |z| only, so the upper half
    plane suffices too.  On a radius |Theta| and the clearance fall as
    arg z goes from 0 to pi (the triple product, module docstring), so
    the admissible angles are those below a*(r), the closed-form
    crossing of dlt (_crossing_angles) or pi where there is none, and
    the ratio's infimum on the radius is its value at r e^{i a*(r)}.
    On 48 radii over one period,

        Cqk = 0.9 * min over the radii of the ratio at r e^{i a*(r)},

    the ratio formed in log form (log|Theta| - log envelope, log|Theta|
    from the annulus sum without its phase fold): Theta is summed at 48
    points.  Cqk is a sampled minimum over log r, not a certified one:
    the 0.9 deflation is meant to absorb the gap between the 48 radii and
    the infimum over all of them, and nothing checks that it does.

    Raises ValueError where the pitch log q / k is so small (about 0.1
    and below) that |Theta| on one period falls below double resolution:
    a sampled scaled value under 1e-10 is round-off of terms near 1, not
    a value of Theta.  Raises ValueError too where the pitch is past the
    log of the largest double, so that one radial period leaves double
    range.
    """
    q, k = spec.q, spec.k
    _check_dlt(dlt)
    pitch = math.log(q) / k
    if not pitch <= math.log(sys.float_info.max):
        raise ValueError(
            f"cannot calibrate Cqk at q={q}, k={k}, dlt={dlt}: at pitch "
            f"log q / k = {pitch:.3g}, one radial period leaves double range "
            f"(pitch > {math.log(sys.float_info.max):.6g}, the log of the "
            f"largest double)")
    radii = np.exp(np.linspace(0.0, pitch, 48, endpoint=False))
    zs = radii * np.exp(1j * np.minimum(_crossing_angles(q, k, radii, dlt), math.pi))
    log_abs, log_mant = _log_abs_theta(spec, zs)
    smallest = math.exp(float(log_mant.min()))
    if not smallest >= 1e-10:
        raise ValueError(
            f"cannot calibrate Cqk at q={q}, k={k}, dlt={dlt}: at pitch "
            f"log q / k = {pitch:.3g}, |Theta| on the admissible set "
            f"is below double resolution (smallest scaled value "
            f"{smallest:.3g} < 1e-10)")
    log_ratio = np.min(log_abs - log_lower_envelope(q, k, zs))
    return replace(spec, Cqk=0.9 * math.exp(float(log_ratio)) / dlt)


@dataclass(frozen=True)
class ThetaBoundCheck:
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

    Raises if dlt is not in (0, 7/8) or the spec has no calibrated Cqk.
    Points failing the spiral clearance are reported admissible=False and
    not judged.
    """
    _check_dlt(dlt)
    if spec.Cqk is None:
        raise ValueError("ThetaSpec has no calibrated Cqk; run calibrate_theta_constant")
    z = complex(z)
    clearance = spiral_clearance(spec.q, spec.k, z)
    admissible = clearance > dlt
    log_lhs = _log_abs_theta(spec, z)[0]
    log_rhs = math.log(spec.Cqk * dlt) + _envelope_of_log(
        spec.q, spec.k, math.log(math.hypot(z.real, z.imag)))
    margin = log_lhs - log_rhs
    lhs = math.exp(log_lhs) if log_lhs < 700 else math.inf
    rhs = math.exp(log_rhs) if log_rhs < 700 else math.inf
    return ThetaBoundCheck(admissible=admissible, clearance=clearance,
                           lhs=lhs, rhs=rhs, log_lhs=log_lhs, log_rhs=log_rhs,
                           log_margin=margin, ok=admissible and margin >= 0.0)
