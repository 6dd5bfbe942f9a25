"""Command-line front end.

Every subcommand returns one report dict, printed as a single JSON
document (keys sorted, floats in full precision) so runs are
reproducible byte-for-byte.  A block that shows a library result is that
result's dataclass fields.  The exit code is the report's own "ok":

    0   requested checks/certifications all passed
    1   the computation ran but a check or certification failed
    2   bad input (malformed JSON, unknown symbol, ...); a machine
        readable {"error": {...}} document is printed before exiting.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .asymptotics import RemainderTable, fit_q_gevrey, fit_zero_gevrey_relative
from .cocycle import CHOptions, Cocycle, cauchy_heine_many, ladder_jump, multilevel_split
from .equation import (EquationSpec, default_spec, manufactured_problem,
                       relative_residual, validate_hypotheses)
from .fourier import QuadratureError, default_profile_for, inverse_fourier, make_symbol
from .frames import ladder_radius
from .geometry import (Sector, associate_family, geometry_scenario_from_dict,
                       geometry_scenario_to_dict, make_cyclic_covering,
                       validate_good_covering)
from .model import (ModelScenario, default_scenario, overlap_rate, verify_rate_dichotomy,
                    verify_two_level_theorem)
from .qlaplace import GrowthCertificate, QLaplaceSpec, qlaplace
from .theta import (ThetaSpec, calibrate_theta_constant, theta_eval_scaled,
                    theta_lower_bound, theta_qdiff_residual)


class InputError(Exception):
    """User-supplied input could not be interpreted."""


def _jsonable(obj):
    """Top-level complex values print as {"re", "im"}; numpy scalars and
    arrays as their Python equivalents."""
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return {"re": c.real, "im": c.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(payload: dict) -> None:
    """Print payload as strict JSON; a non-finite float raises ValueError."""
    print(json.dumps(payload, sort_keys=True, indent=2, default=_jsonable,
                     allow_nan=False))


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _parse_complex(s: str) -> complex:
    try:
        z = complex(s.replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number from {s!r}") from exc
    if not cmath.isfinite(z):
        raise InputError(f"need a finite complex number, got {s!r}")
    return z


def _load_json(path: str, decode):
    """decode(parsed JSON of the file at path); a file that cannot be read,
    parsed or decoded is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cannot decode {path}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------- theta

def _cmd_theta(args) -> dict:
    z = _parse_complex(args.z)
    if z == 0:
        raise InputError("theta is evaluated away from the origin; need z != 0")
    if not args.tol > 0:
        raise InputError(f"tol must be > 0, got {args.tol}")
    q, k, m = args.q, args.k, args.m
    spec = calibrate_theta_constant(ThetaSpec(q, k), args.dlt)
    mant, logs = theta_eval_scaled(spec, z)
    residual = theta_qdiff_residual(spec, z, m)
    bound = theta_lower_bound(spec, z, args.dlt)
    return {
        "q": q, "k": k, "z": z, "m": m,
        "value": {"mantissa": complex(mant), "log_scale": float(logs)},
        "functional_equation_residual": float(residual),
        # the linear sides are null where they overflow a double, and
        # log_lhs and log_margin where z is a zero of theta (-inf); the
        # bound is judged on the log sides
        "lower_bound": {**asdict(bound), "lhs": _finite_or_none(bound.lhs),
                        "rhs": _finite_or_none(bound.rhs),
                        "log_lhs": _finite_or_none(bound.log_lhs),
                        "log_margin": _finite_or_none(bound.log_margin)},
        "calibrated_constant": spec.Cqk,
        "truncation_order": spec.P,
        "ok": residual <= args.tol and (bound.ok or not bound.admissible),
    }


# --------------------------------------------------------------- fourier

def _cmd_fourier(args) -> dict:
    z = _parse_complex(args.z)
    try:
        f = make_symbol(args.symbol, args.beta, args.mu)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    profile = default_profile_for(args.symbol, args.beta, args.mu)
    res = inverse_fourier(f, z, profile, tol=args.tol)
    return {
        "symbol": args.symbol, "beta": args.beta, "mu": args.mu, "z": z,
        **asdict(res),
        "profile": asdict(profile),
        # the estimate stacks a certified tail bound (<= tol) on top of the
        # quadrature error (<= tol), so the honest acceptance line is 2 tol
        "ok": res.error_estimate <= 2.0 * args.tol * max(1.0, abs(res.value)),
    }


# -------------------------------------------------------------- qlaplace

def _cmd_qlaplace(args) -> dict:
    T = _parse_complex(args.T)
    if T == 0:
        raise InputError("need a nonzero evaluation point T")
    spec = QLaplaceSpec(q=args.q, k=args.k, direction=args.direction, tol=args.tol)
    # closed form c_{n,k} T^n, c_{n,k} = q^{n(n-1)/(2k)}, of the monomial image
    absT = math.hypot(T.real, T.imag)
    log_image = args.n * ((args.n - 1) / (2.0 * args.k) * math.log(args.q)
                          + math.log(absT))
    if not log_image <= math.log(sys.float_info.max):     # nan: |T| itself overflows
        raise InputError(f"the image of u^{args.n} at |T|={absT:.3g} has modulus "
                         f"e^{log_image:.6g}, past double range")
    cert = GrowthCertificate(K=1.0, alpha=float(args.n), k=0.0, rho=1.0)

    def monomial(u):
        # u^n may overflow on the window although the image is a double
        # (n = 3, T = 1e100): refused here, as complex_quad would refuse
        # the panel, before a non-finite value reaches the contour integrand
        with np.errstate(over="ignore", invalid="ignore"):
            v = u ** args.n
        if not np.isfinite(v).all():
            raise QuadratureError(f"u^{args.n} is non-finite on the window, "
                                  f"|u| up to {np.abs(u).max():.3g}", 0)
        return v
    res = qlaplace(spec, monomial, T, cert, enforce_domain=False)
    predicted = args.q ** (args.n * (args.n - 1) / (2.0 * args.k)) * T ** args.n
    rel = abs(res.value - predicted) / max(abs(predicted), 1e-300)
    return {
        "q": args.q, "k": args.k, "n": args.n, "T": T,
        **asdict(res),
        "predicted_monomial_image": complex(predicted),
        "relative_deviation": float(rel),
        "ok": rel <= args.check_tol,
    }


# -------------------------------------------------------------- geometry

def _cmd_geometry(args) -> dict:
    if args.scenario is not None:
        cov, directions, dlt, rho = _load_json(args.scenario, geometry_scenario_from_dict)
    else:
        cov = make_cyclic_covering(args.n, args.radius,
                                   math.radians(args.half_opening_deg),
                                   math.radians(args.phase_deg))
        directions = [math.radians(args.phase_deg) + 2.0 * math.pi * p / args.n
                      for p in range(args.n)]
        dlt, rho = args.dlt, args.rho
    report = validate_good_covering(cov)
    payload = {
        "scenario": geometry_scenario_to_dict(cov, directions, dlt, rho),
        "covering": asdict(report),
        "ok": report.ok,
    }
    if args.family:
        t_sector = Sector(bisector=math.radians(args.t_bisector_deg),
                          half_opening=math.radians(args.t_opening_deg) / 2.0,
                          radius=args.t_radius)
        fam = associate_family(cov, directions, dlt, t_sector, args.epsilon0)
        payload["family"] = asdict(fam)
        payload["ok"] = report.ok and fam.ok
    return payload


# ------------------------------------------------------------ hypotheses

def _cmd_hypotheses(args) -> dict:
    spec = (_load_json(args.spec, EquationSpec.from_dict)
            if args.spec is not None else default_spec())
    report = validate_hypotheses(spec)
    return {"spec": spec.to_dict(), "report": report.to_dict(), "ok": report.ok}


# ------------------------------------------------------------------ diff

def _cmd_diff(args) -> dict:
    scn = (_load_json(args.scenario, ModelScenario.from_dict)
           if args.scenario is not None else default_scenario())
    js = range(args.j_min, args.j_max + 1)
    if args.overlap is not None:
        table, fit, target, rel = overlap_rate(scn, args.overlap, js, args.tol)
        return {
            "overlap": args.overlap, "level": table.level,
            "rows": [asdict(r) for r in table.rows], "fit": asdict(fit),
            "target_rate": target, "rel_err": rel, "ok": rel <= args.rel_tol,
        }
    report = verify_rate_dichotomy(scn, js=js, tol=args.tol, rel_tol=args.rel_tol)
    return {"dichotomy": report.to_dict(), "ok": report.ok}


# ----------------------------------------------------------------- split

def _split_demo_inputs():
    """Synthetic two-level cocycle on the standard four-sector covering,
    plus branch functions realizing it (entire part + both correction sums)."""
    cov = make_cyclic_covering(4, 0.4, math.radians(60), math.radians(45))
    q, k1, k2, A = 2.0, 1.0, 2.0, 1.3
    cuts = [math.radians(d) for d in (0.0, 90.0, 180.0, 270.0)]
    slow = Cocycle(cov, deltas=(None, ladder_jump(q, k1, A, cuts[1], 0.7),
                                None, ladder_jump(q, k1, A, cuts[3], 0.4j)))
    fast = Cocycle(cov, deltas=(ladder_jump(q, k2, A, cuts[0], 0.9),
                                None, ladder_jump(q, k2, A, cuts[2], -0.6), None))
    opts = CHOptions(tol=1e-12)

    def entire(eps):
        return np.exp(0.3 * np.asarray(eps, dtype=complex))

    def branch(p):
        def G(t_arg, eps):
            sec = np.full(eps.shape, p, dtype=int)
            return (entire(eps)
                    + cauchy_heine_many(slow, t_arg, eps, sec, opts)
                    + cauchy_heine_many(fast, t_arg, eps, sec, opts))
        return G

    return cov, slow, fast, [branch(p) for p in range(4)], opts


def _cmd_split(args) -> dict:
    t = _parse_complex(args.t)
    _, slow, fast, G, opts = _split_demo_inputs()
    split = multilevel_split(G, slow, fast, t, opts=opts, j_max=args.j_max,
                             radius_frac=args.radius_frac)
    return {
        "t": t,
        "n_probes": len(split.probes),
        "max_spread": float(split.max_spread),
        "max_abs": float(split.max_abs),
        "max_realization_err": float(split.max_realization_err),
        "cascade": [asdict(row) for row in split.cascade],
        "tol": args.tol,
        "ok": split.max_spread <= args.tol and split.max_realization_err <= args.tol,
    }


# ------------------------------------------------------------------- fit

def _cmd_fit(args) -> dict:
    if args.synthetic:
        rng = np.random.default_rng(args.seed)
        table = RemainderTable()
        for N in range(args.n_max + 1):
            t_abs = 0.7 * ladder_radius(args.q, args.k, N + 1)
            for ae in (0.05, 0.1, 0.2, 0.3):
                base = (args.plant_C * args.plant_A ** (N + 1) * ae ** (N + 1)
                        * args.q ** (N * (N + 1) / (2.0 * args.k)))
                noise = 1.0 + args.noise * (2.0 * rng.random() - 1.0)
                table.add(N, ae * cmath.exp(1j * rng.random()), base * noise,
                          t=t_abs)
    elif args.csv is not None:
        try:
            table = RemainderTable.read_csv(args.csv)
        except (OSError, ValueError, KeyError) as exc:
            raise InputError(f"cannot read remainder table: {exc}") from exc
    else:
        raise InputError("need either --csv PATH or --synthetic")
    if args.kind == "q-gevrey":
        fit = fit_q_gevrey(table, args.q, args.k)
    else:
        fit = fit_zero_gevrey_relative(table, args.q, args.k)
    payload = {"fit": fit.to_dict(), "n_rows": len(table.rows), "ok": fit.certified}
    if args.synthetic:
        payload["planted"] = {"C": args.plant_C, "A": args.plant_A,
                              "noise": args.noise, "seed": args.seed}
    return payload


# ------------------------------------------------------------------ demo

def _cmd_demo(args) -> dict:
    scn = default_scenario()
    js = range(3, 9) if args.fast else range(3, 11)
    N_range = range(0, 5) if args.fast else range(0, 7)
    return verify_two_level_theorem(scn, js=js, N_range=N_range).to_dict()


# ------------------------------------------------------------- residuals

def _cmd_residual(args) -> dict:
    spec = (_load_json(args.spec, EquationSpec.from_dict)
            if args.spec is not None else default_spec())
    U, profile_U, series = manufactured_problem(spec, a=args.power)
    ts = [0.1 * cmath.exp(1j * 0.3), 0.2]
    zs = [0.0, 0.5]
    es = [0.1, 0.2 * cmath.exp(1j * 0.7)]
    # the solution scales as |eps t|^power: judge the residual relative
    # to the largest term of the identity, not on its own
    rows = [relative_residual(spec, series, U, profile_U, t, z, eps, args.tol)
            for t in ts for z in zs for eps in es]
    rel = [r for _, r in rows]
    return {"n_points": len(rows),
            "max_abs_residual": float(max(abs(r) for r, _ in rows)),
            "max_rel_residual": float(max(rel)),
            "threshold": args.threshold,
            "ok": all(r <= args.threshold for r in rel)}


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qasym",
        description="Numerics for q-special functions and two-level "
                    "q-Gevrey asymptotics.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="evaluate the q-theta function and "
                                     "check its functional equation and lower bound")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--z", type=str, required=True, help="complex point, e.g. 0.3+0.4j")
    p.add_argument("--m", type=int, default=1, help="shift count in the functional equation")
    p.add_argument("--dlt", type=float, default=0.3, help="spiral clearance parameter")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("fourier", help="inverse Fourier transform of a built-in symbol")
    p.add_argument("--symbol", choices=["standard", "gaussian", "oscillating"],
                   default="standard")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=3.0)
    p.add_argument("--z", type=str, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("qlaplace", help="q-Laplace transform of a monomial "
                                        "with its predicted image")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--n", type=int, default=2, help="monomial power")
    p.add_argument("--T", type=str, required=True)
    p.add_argument("--direction", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--check-tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_qlaplace)

    p = sub.add_parser("geometry", help="validate a sector covering scenario")
    p.add_argument("--scenario", type=str, default=None, help="scenario JSON file")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--radius", type=float, default=0.4)
    p.add_argument("--half-opening-deg", type=float, default=60.0)
    p.add_argument("--phase-deg", type=float, default=45.0)
    p.add_argument("--dlt", type=float, default=0.3)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--family", action="store_true",
                   help="also check the associated sector family")
    p.add_argument("--epsilon0", type=float, default=0.4)
    p.add_argument("--t-bisector-deg", type=float, default=-45.0)
    p.add_argument("--t-opening-deg", type=float, default=30.0)
    p.add_argument("--t-radius", type=float, default=0.4)
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("hypotheses", help="check structural and spectral "
                                          "hypotheses of an operator spec")
    p.add_argument("--spec", type=str, default=None, help="equation spec JSON file")
    p.set_defaults(fn=_cmd_hypotheses)

    p = sub.add_parser("diff", help="consecutive-difference cascade and decay-rate fits")
    p.add_argument("--scenario", type=str, default=None, help="model scenario JSON file")
    p.add_argument("--overlap", type=int, default=None,
                   help="single overlap index (default: all, as a dichotomy report)")
    p.add_argument("--j-min", type=int, default=3)
    p.add_argument("--j-max", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--rel-tol", type=float, default=0.15)
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("split", help="two-level splitting of a synthetic cocycle")
    p.add_argument("--t", type=str, default="0.05")
    p.add_argument("--j-max", type=int, default=5)
    p.add_argument("--radius-frac", type=float, default=0.6)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("fit", help="fit certified Gevrey constants to a remainder table")
    p.add_argument("--csv", type=str, default=None,
                   help="remainder table CSV (columns N, Re eps, Im eps, [t], norm)")
    p.add_argument("--synthetic", action="store_true",
                   help="fit a planted synthetic table instead of a file")
    p.add_argument("--kind", choices=["q-gevrey", "zero-gevrey"], default="q-gevrey")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--plant-C", type=float, default=2.0)
    p.add_argument("--plant-A", type=float, default=3.0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("residual", help="pointwise residual of a manufactured solution")
    p.add_argument("--spec", type=str, default=None)
    p.add_argument("--power", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_residual)

    p = sub.add_parser("demo", help="end-to-end two-level verification on the "
                                    "built-in model scenario")
    p.add_argument("--fast", action="store_true", help="smaller ranges, quicker run")
    p.set_defaults(fn=_cmd_demo)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its error code to 2
        return 2 if exc.code not in (0, None) else 0
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{dest}={value} is not finite")
        payload = args.fn(args)
    except (InputError, ValueError) as exc:
        # domain validation errors (bad q, malformed covering, ...) are
        # user-input problems here, not crashes
        _emit({"error": {"type": "input", "message": str(exc)}})
        return 2
    except QuadratureError as exc:
        # an integral missed its tolerance: a failed computation
        _emit({"error": {"type": "quadrature", "message": str(exc)}})
        return 1
    try:
        _emit(payload)
    except ValueError as exc:
        # a non-finite number in the result: not JSON, and not a result
        _emit({"error": {"type": "non-finite", "message": str(exc)}})
        return 1
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
