"""Global parameter frames and scalar bound utilities.

Everything downstream is parametrised by a base q > 1 and a pair of
Gevrey levels 1 <= k1 < k2.  The auxiliary level kappa is defined by

    1/kappa = 1/k1 - 1/k2,

so that kappa > k1 and the splitting identity

    -k2 + k2^2/(kappa + k2) = -k1

holds exactly.  One scalar fact is used throughout:

    sup_{x>0} x^{gamma-N} exp(-(k/2) log^2(x)/log q)
      = q^{gamma^2/(2k)} (q^{-gamma/k})^N q^{N^2/(2k)},

which converts a log-Gaussian functional bound into a sequence of
geometric-in-N bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .schemas import Record


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class QFrame(Record):
    """Base q and the two Gevrey levels, with derived kappa.

    kappa is always recomputed from (k1, k2); it is never stored in
    serialized form, so a round trip cannot drift.
    """

    q: float
    k1: float
    k2: float
    epsilon0: float = 0.4
    rT: float = 0.4
    kappa: float = field(init=False)

    def __post_init__(self) -> None:
        _require(self.q > 1.0, f"q must be > 1, got {self.q}")
        _require(self.k1 >= 1.0, f"k1 must be >= 1, got {self.k1}")
        _require(self.k2 > self.k1, f"need k2 > k1, got k1={self.k1}, k2={self.k2}")
        _require(0.0 < self.epsilon0 < 1.0, f"epsilon0 must be in (0,1), got {self.epsilon0}")
        _require(0.0 < self.rT < 1.0, f"rT must be in (0,1), got {self.rT}")
        object.__setattr__(self, "kappa", self.k1 * self.k2 / (self.k2 - self.k1))

    def level(self, j: int) -> float:
        """k_j for j in {1, 2}."""
        if j == 1:
            return self.k1
        if j == 2:
            return self.k2
        raise ValueError(f"level index must be 1 or 2, got {j}")


def ladder_radius(q: float, k: float, N: int | float) -> float:
    """r_N = q^{-N/(2k)}, the radius of the level-k shrinking disc on
    which the order-N bound is claimed; strictly decreasing in N, -> 0."""
    _require(q > 1.0, f"q must be > 1, got {q}")
    _require(k > 0.0, f"k must be > 0, got {k}")
    return q ** (-N / (2.0 * k))


def log_gaussian_power(q: float, k: float, gamma: float, N: int, absT: float) -> float:
    """|T|^{gamma-N} * exp(-(k/2) log^2|T| / log q), the left side of the
    sequence-bound inequality.  Defined for absT > 0."""
    _require(absT > 0.0, "absT must be positive")
    _require(q > 1.0, "q must be > 1")
    _require(k > 0.0, "k must be > 0")
    L = math.log(absT)
    return math.exp((gamma - N) * L - 0.5 * k * L * L / math.log(q))


def seq_bound_from_log_bound(q: float, k: float, gamma: float, N: int) -> float:
    """Supremum over |T| > 0 of log_gaussian_power(q, k, gamma, N, |T|):

        q^{gamma^2/(2k)} * (q^{-gamma/k})^N * q^{N^2/(2k)}.

    The bound is tight (attained at |T| = q^{(gamma-N)/k}).
    """
    _require(q > 1.0, "q must be > 1")
    _require(k > 0.0, "k must be > 0")
    lq = math.log(q)
    expo = (gamma * gamma / (2.0 * k) - gamma * N / k + N * N / (2.0 * k)) * lq
    return math.exp(expo)
