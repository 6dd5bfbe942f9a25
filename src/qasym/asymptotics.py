"""Remainder tables and certification-oriented Gevrey fits.

Two bound shapes are fitted, always on logs and always finishing with a
certification step that inflates the constant C until every table row
is dominated (max log-violation <= 0):

* q-Gevrey order 1/k:
      norm <= C * A^{N+1} * q^{N(N+1)/(2k)} * |eps|^{N+1};

* order zero relative to a radius ladder r_p = q^{-p/(2k)}:
      norm <= C * A^{N+1} * |eps|^{N+1},
  each row additionally required to satisfy |t| <= r_N.

A functional log-Gaussian bound K exp(-(k/2) log^2 x / log q) x^gamma
converts to the sequential family

    bound_N(x) = K q^{gamma^2/(2k)} (q^{-gamma/k})^N q^{N^2/(2k)} x^N,

and restricting |t| <= r_N turns |eps t|^N q^{N^2/(2k)} into |eps|^N,
which is how the shrinking-disc ladder arises.

Norms below 1e-300 are floored and excluded from regressions (they are
numerically indistinguishable from exact zeros) but still count toward
certification.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .frames import ladder_radius
from .schemas import Record

NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class RemainderRow:
    N: int
    eps: complex
    t: complex | None
    norm: float


@dataclass
class RemainderTable:
    rows: list[RemainderRow] = field(default_factory=list)

    def add(self, N: int, eps: complex, norm: float, t: complex | None = None) -> None:
        self.rows.append(RemainderRow(N=int(N), eps=complex(eps),
                                      t=None if t is None else complex(t),
                                      norm=float(norm)))

    def __len__(self) -> int:
        return len(self.rows)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "Re eps", "Im eps", "Re t", "Im t", "norm"])
            for r in self.rows:
                tre = "" if r.t is None else repr(r.t.real)
                tim = "" if r.t is None else repr(r.t.imag)
                w.writerow([r.N, repr(r.eps.real), repr(r.eps.imag),
                            tre, tim, repr(r.norm)])

    @classmethod
    def read_csv(cls, path: str) -> "RemainderTable":
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip().lower() for h in header[:2]] != ["n", "re eps"]:
                raise ValueError(f"{path}: not a remainder table (header {header})")
            for row in reader:
                if not row:
                    continue
                if len(row) < 6:
                    raise ValueError(f"{path}, line {reader.line_num}: need 6 "
                                     f"columns, got {len(row)}")
                t = None
                if row[3].strip() != "" and row[4].strip() != "":
                    t = complex(float(row[3]), float(row[4]))
                table.add(int(row[0]), complex(float(row[1]), float(row[2])),
                          float(row[5]), t)
        return table


@dataclass
class GevreyFit(Record):
    """Result of a certified bound fit.

    C_fit/A_fit come from least squares on logs; C_cert is C_fit
    inflated so that max_violation (the largest log-excess of a row over
    the bound) is <= 0.  `floored` counts rows at the numerical zero
    floor (excluded from the regression, dominated by construction).
    """

    kind: str
    q: float
    k: float
    C_fit: float
    A_fit: float
    C_cert: float
    max_violation: float
    residual_rms: float
    n_rows: int
    floored: int

    @property
    def certified(self) -> bool:
        return self.max_violation <= 0.0

    def bound(self, N: int, abs_eps: float) -> float:
        extra = self.q ** (N * (N + 1) / (2.0 * self.k)) if self.kind == "q-gevrey" else 1.0
        return self.C_cert * self.A_fit ** (N + 1) * extra * abs_eps ** (N + 1)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "certified": self.certified}


def _regress_offsets(Ns: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least squares of y = logC + (N+1) logA; returns (logC, logA, rms)."""
    X = np.column_stack([np.ones_like(ys), Ns + 1.0])
    coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
    resid = ys - X @ coef
    rms = float(np.sqrt(np.mean(resid ** 2))) if len(ys) else 0.0
    return float(coef[0]), float(coef[1]), rms


def _finish_fit(kind: str, q: float, k: float, rows, offsets) -> GevreyFit:
    """Common tail: regression on non-floored rows, then certification."""
    Ns = np.array([r.N for r in rows], dtype=float)
    norms = np.array([max(r.norm, NORM_FLOOR) for r in rows])
    floored = int(np.sum(np.array([r.norm for r in rows]) < NORM_FLOOR))
    live = norms > NORM_FLOOR
    ys = np.log(norms) - offsets
    if np.sum(live) >= 2:
        logC, logA, rms = _regress_offsets(Ns[live], ys[live])
    elif np.sum(live) == 1:
        logC, logA, rms = float(ys[live][0]), 0.0, 0.0
    else:
        logC, logA, rms = math.log(NORM_FLOOR), 0.0, 0.0
    # certify: inflate C until every row (floored ones included) is dominated
    excess = ys - (logC + (Ns + 1.0) * logA)
    bump = float(np.max(excess)) if len(excess) else 0.0
    logC_cert = logC + max(bump, 0.0)
    max_violation = float(np.max(ys - (logC_cert + (Ns + 1.0) * logA)))
    pad = 1e-18
    while max_violation > 0.0:
        # non-associativity can leave an ulp of excess; pad until dominated
        logC_cert += max_violation + pad
        pad *= 4.0
        max_violation = float(np.max(ys - (logC_cert + (Ns + 1.0) * logA)))
    return GevreyFit(kind=kind, q=q, k=k, C_fit=math.exp(logC),
                     A_fit=math.exp(logA), C_cert=math.exp(logC_cert),
                     max_violation=max_violation, residual_rms=rms,
                     n_rows=len(rows), floored=floored)


def fit_q_gevrey(table: RemainderTable, q: float, k: float) -> GevreyFit:
    """Fit/certify norm <= C A^{N+1} q^{N(N+1)/(2k)} |eps|^{N+1}."""
    if not table.rows:
        raise ValueError("empty remainder table")
    rows = table.rows
    lq = math.log(q)
    offsets = np.array([r.N * (r.N + 1) / (2.0 * k) * lq
                        + (r.N + 1) * math.log(abs(r.eps)) for r in rows])
    return _finish_fit("q-gevrey", q, k, rows, offsets)


def fit_zero_gevrey_relative(table: RemainderTable, q: float, k: float) -> GevreyFit:
    """Fit/certify norm <= C A^{N+1} |eps|^{N+1} on rows with |t| <= r_N.

    Rows violating the radius ladder are rejected by index: the bound is
    only claimed on the shrinking discs, so out-of-domain rows would
    poison the certificate.
    """
    if not table.rows:
        raise ValueError("empty remainder table")
    bad = [i for i, r in enumerate(table.rows)
           if r.t is None or abs(r.t) > ladder_radius(q, k, r.N) * (1 + 1e-12)]
    if bad:
        raise ValueError(
            "rows outside the shrinking-disc ladder (|t| <= q^{-N/(2k)}): "
            f"indices {bad}")
    rows = table.rows
    offsets = np.array([(r.N + 1) * math.log(abs(r.eps)) for r in rows])
    return _finish_fit("zero-relative", q, k, rows, offsets)


def restrict_and_refit(table: RemainderTable, q: float, k_from: float,
                       k_to: float) -> tuple[GevreyFit, GevreyFit, RemainderTable]:
    """Restriction corollary: re-certify a finer-level ladder certificate
    on the coarser level's smaller discs.

    k_to < k_from, so the coarse discs q^{-N/(2 k_to)} shrink faster;
    rows outside them are dropped, the rest are refitted at k_to.
    Returns (fit at k_from on the full table, fit at k_to on the kept
    rows, the kept sub-table).
    """
    if not k_to < k_from:
        raise ValueError("restriction goes from the finer level to the "
                         f"coarser one: need k_to < k_from, got {k_to} >= {k_from}")
    fit_from = fit_zero_gevrey_relative(table, q, k_from)
    kept = [r for r in table.rows
            if r.t is not None
            and abs(r.t) <= ladder_radius(q, k_to, r.N) * (1 + 1e-12)]
    if not kept:
        raise ValueError("no rows survive the disc restriction; add rows "
                         "with smaller |t|")
    sub = RemainderTable(rows=kept)
    fit_to = fit_zero_gevrey_relative(sub, q, k_to)
    return fit_from, fit_to, sub
