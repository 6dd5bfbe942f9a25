import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from qasym import cli
from qasym import cocycle, fourier
from qasym.cli import main
from qasym.equation import default_spec
from qasym.model import default_scenario
from qasym.qlaplace import QuadratureError
from qasym.schemas import validate_payload
from qasym.theta import ThetaSpec, calibrate_theta_constant


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, strict_json(out)


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, payload = run_cli(capsys, "theta", "--z", "0.3+0.4j")
        assert code == 0
        assert payload["ok"] is True

    def test_failed_check_is_one(self, capsys):
        code, payload = run_cli(capsys, "theta", "--q", "1.7", "--z", "0.3+0.4j",
                                "--tol", "1e-30")
        assert code == 1
        assert payload["ok"] is False
        assert payload["functional_equation_residual"] > 1e-30

    def test_bad_input_is_two_with_json_error(self, capsys):
        code, payload = run_cli(capsys, "theta", "--z", "0")
        assert code == 2
        assert payload["error"]["type"] == "input"
        code, payload = run_cli(capsys, "theta", "--z", "zebra")
        assert code == 2
        assert "zebra" in payload["error"]["message"]

    def test_domain_validation_is_two_not_a_traceback(self, capsys):
        code, payload = run_cli(capsys, "geometry", "--half-opening-deg", "100")
        assert code == 2
        assert payload["error"]["type"] == "input"
        code, payload = run_cli(capsys, "qlaplace", "--T", "0.1", "--q", "0.5")
        assert code == 2

    def test_argparse_errors_are_two(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2
        capsys.readouterr()


class TestTheta:
    def test_payload_shape(self, capsys):
        code, payload = run_cli(capsys, "theta", "--z", "0.3+0.4j",
                                "--q", "2.0", "--k", "1.0", "--m", "2")
        assert code == 0
        assert set(payload) >= {"value", "functional_equation_residual",
                                "lower_bound", "calibrated_constant",
                                "truncation_order", "ok"}
        assert payload["z"] == {"re": 0.3, "im": 0.4}
        assert payload["functional_equation_residual"] <= 1e-10
        assert payload["lower_bound"]["admissible"] in (True, False)

    @pytest.mark.parametrize("z, overflows", [
        ("1e200", True), ("1e14", True), ("1e-300", True), ("1e-320", True),
        ("5e-324", True), ("0.3+0.4j", False)])
    def test_extreme_z_prints_strict_json(self, capsys, z, overflows):
        """Where |Theta| overflows a double the linear sides of the bound
        are null and the log sides carry it; subnormal z is evaluated (for
        q = 2, k = 1 its shift by q^(m/k) is exact)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_cli(capsys, "theta", "--z", z)
        assert code == 0 and payload["ok"] is True
        bound = payload["lower_bound"]
        assert (bound["lhs"] is None) is overflows
        assert (bound["rhs"] is None) is overflows
        assert bound["log_lhs"] - bound["log_rhs"] == pytest.approx(
            bound["log_margin"], abs=1e-9 * abs(bound["log_lhs"]) + 1e-12)
        if not overflows:
            assert math.log(bound["lhs"]) == pytest.approx(bound["log_lhs"])

    def test_near_overflow_z_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "theta", "--z", "1e308+1e308j",
                                    "--m", "-1")
        assert code == 0 and payload["ok"] is True

    def test_huge_q_warns_nothing(self, capsys):
        """At q = 1e300 the scales one step past a window overflow; the
        clearance and the crossing angles drop them without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "theta", "--q", "1e300", "--z", "0.3")
        assert code == 0 and payload["ok"] is True

    @pytest.mark.parametrize("q, z", [("1e300", "1e-300"), ("1e300", "5e-324"),
                                      ("1e308", "1e-308")])
    def test_huge_q_and_tiny_z_warn_nothing(self, capsys, q, z):
        """The scales that bring z near 1 are past e^700 and the padding
        scale's power of two past 2^1023; the clearance stays finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "theta", "--q", q, "--z", z)
        assert code == 0 and payload["ok"] is True
        assert 0.0 <= payload["lower_bound"]["clearance"] <= 0.875

    def test_modulus_past_double_range_is_refused_without_warning(self, capsys):
        """Both parts of z are finite but |z| overflows a double: an input
        error naming the modulus, and no floating-point warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "theta", "--z", "1.7e308+1.7e308j")
        assert code == 2 and payload["error"]["type"] == "input"
        assert "modulus is a finite double" in payload["error"]["message"]

    @pytest.mark.parametrize("z", ["-1", "-2", "-0.5"])
    def test_zero_of_theta_prints_null_log_sides(self, capsys, z):
        """At a zero of theta log|Theta| is -inf: log_lhs and log_margin
        print as null, the point is not admissible and the run exits 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "theta", f"--z={z}")
        assert code == 0 and payload["ok"] is True
        bound = payload["lower_bound"]
        assert bound["admissible"] is False and bound["clearance"] == 0.0
        assert bound["lhs"] == 0.0
        assert bound["log_lhs"] is None and bound["log_margin"] is None
        assert math.isfinite(bound["log_rhs"])

    def test_non_finite_result_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_theta",
                            lambda args: {"value": float("nan"), "ok": True})
        code, payload = run_cli(capsys, "theta", "--z", "0.3")
        assert code == 1
        assert payload["error"]["type"] == "non-finite"

    def test_bound_uses_the_constant_calibrated_at_dlt(self, capsys):
        """Cqk calibrated at the library default dlt = 0.3 fails the bound
        at this point judged at dlt = 0.7 (log margin -0.04); calibrated
        at 0.7, as the bound is judged, it holds."""
        code, payload = run_cli(capsys, "theta", "--q", "3", "--k", "0.5",
                                "--dlt", "0.7", "--z=-133.607-32.865j")
        assert code == 0 and payload["lower_bound"]["ok"] is True
        assert payload["calibrated_constant"] == calibrate_theta_constant(
            ThetaSpec(3.0, 0.5), 0.7).Cqk

    def test_deterministic_output(self, capsys):
        main(["theta", "--z", "0.3+0.4j"])
        first = capsys.readouterr().out
        main(["theta", "--z", "0.3+0.4j"])
        second = capsys.readouterr().out
        assert first == second


class TestQLaplace:
    def test_matches_power_law_and_schema(self, capsys):
        code, payload = run_cli(capsys, "qlaplace", "--T", "0.2",
                                "--n", "3", "--k", "1.0")
        assert code == 0
        assert payload["relative_deviation"] <= 1e-8
        # q^{n(n-1)/(2k)} T^n = 2^3 * 0.2^3 = 0.064 for q=2, k=1, n=3
        assert payload["predicted_monomial_image"]["re"] == pytest.approx(0.064)
        body = {k: v for k, v in payload.items()
                if k in ("value", "error_estimate", "nodes_used",
                         "direction_used", "predicted_monomial_image",
                         "relative_deviation")}
        validate_payload("qlaplace_result", body)

    def test_zero_T_rejected(self, capsys):
        code, payload = run_cli(capsys, "qlaplace", "--T", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [("--T", "1e150"), ("--n", "1", "--T", "1e300")],
                             ids=["n2-T1e150", "n1-T1e300"])
    def test_image_in_double_range_warns_nothing(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "qlaplace", *argv)
        assert code == 0 and payload["ok"] is True

    def test_integrand_overflow_is_a_quadrature_error(self, capsys):
        """u^3 overflows on the window at |T| = 1e100 although the image
        1e300 q^3 is a double; the JSON error comes with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_cli(capsys, "qlaplace", "--n", "3", "--T", "1e100")
        assert code == 1
        assert payload["error"]["type"] == "quadrature"
        assert "|T|=1e+100" in payload["error"]["message"]
        assert "non-finite" in payload["error"]["message"]


class TestFourier:
    def test_standard_symbol(self, capsys):
        code, payload = run_cli(capsys, "fourier", "--z", "0.25",
                                "--symbol", "standard")
        assert code == 0
        assert payload["error_estimate"] <= 2e-10 * max(
            1.0, abs(payload["value"]["re"]))
        assert payload["nodes_used"] > 0


class TestGeometry:
    def test_default_scenario_validates_and_round_trips(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "geometry")
        assert code == 0
        assert payload["covering"]["ok"] is True
        assert payload["covering"]["adjacency_violations"] == []
        validate_payload("geometry_scenario", payload["scenario"])

        path = tmp_path / "scn.json"
        path.write_text(json.dumps(payload["scenario"]))
        code2, payload2 = run_cli(capsys, "geometry", "--scenario", str(path))
        assert code2 == 0
        assert payload2["scenario"] == payload["scenario"]

    def test_family_association(self, capsys):
        code, payload = run_cli(capsys, "geometry", "--family")
        assert code == 0
        assert payload["family"]["ok"] is True
        assert payload["family"]["product_failures"] == []

    def test_missing_scenario_file(self, capsys):
        code, payload = run_cli(capsys, "geometry", "--scenario",
                                "/nonexistent/scn.json")
        assert code == 2


class TestHypotheses:
    def test_default_spec_passes(self, capsys):
        code, payload = run_cli(capsys, "hypotheses")
        assert code == 0
        assert payload["report"]["structure_ok"] is True
        assert payload["report"]["spectral_ok"] is True

    def test_violating_spec_exits_one(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "hypotheses")
        spec = payload["spec"]
        spec["mu"] = 2.0        # breaks the Fourier-decay margin condition
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, payload = run_cli(capsys, "hypotheses", "--spec", str(path))
        assert code == 1
        assert payload["ok"] is False

    def test_unreadable_spec_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload = run_cli(capsys, "hypotheses", "--spec", str(path))
        assert code == 2


class TestDiffAndDemo:
    def test_single_overlap_fit(self, capsys):
        code, payload = run_cli(capsys, "diff", "--overlap", "0",
                                "--j-min", "3", "--j-max", "6")
        assert code == 0
        assert payload["level"] == 2
        assert payload["target_rate"] == 2.0
        assert payload["rel_err"] <= 0.15
        assert len(payload["rows"]) == 4

    def test_demo_fast(self, capsys):
        code, payload = run_cli(capsys, "demo", "--fast")
        assert code == 0
        assert payload["ok"] is True
        validate_payload("gevrey_fit", payload["fast_fit"])
        validate_payload("gevrey_fit", payload["corollary_fit"])


class TestSplit:
    def test_shallow_split(self, capsys):
        code, payload = run_cli(capsys, "split", "--j-max", "1",
                                "--t", "0.05")
        assert code == 0
        assert payload["max_spread"] <= payload["tol"]
        assert payload["max_realization_err"] <= payload["tol"]
        assert payload["n_probes"] > 0
        assert len(payload["cascade"]) == 2


class TestFit:
    def test_synthetic_certifies_and_validates(self, capsys):
        code, payload = run_cli(capsys, "fit", "--synthetic", "--seed", "3")
        assert code == 0
        assert payload["fit"]["certified"] is True
        assert payload["fit"]["max_violation"] <= 0.0
        validate_payload("gevrey_fit", payload["fit"])

    def test_planted_constants_recovered(self, capsys):
        code, payload = run_cli(capsys, "fit", "--synthetic", "--seed", "0",
                                "--plant-C", "2.0", "--plant-A", "3.0",
                                "--noise", "0.05")
        assert code == 0
        assert payload["fit"]["C_fit"] == pytest.approx(2.0, rel=0.10)
        assert payload["fit"]["A_fit"] == pytest.approx(3.0, rel=0.10)

    def test_seeded_determinism(self, capsys):
        main(["fit", "--synthetic", "--seed", "7"])
        first = capsys.readouterr().out
        main(["fit", "--synthetic", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second
        main(["fit", "--synthetic", "--seed", "8"])
        third = capsys.readouterr().out
        assert third != first

    def test_zero_gevrey_kind(self, capsys):
        code, payload = run_cli(capsys, "fit", "--synthetic",
                                "--kind", "zero-gevrey", "--k", "2.0")
        assert code == 0
        assert payload["fit"]["kind"] == "zero-relative"

    def test_needs_a_source(self, capsys):
        code, payload = run_cli(capsys, "fit")
        assert code == 2
        code, payload = run_cli(capsys, "fit", "--csv", "/nonexistent.csv")
        assert code == 2


class TestResidual:
    def test_manufactured_solution_residual(self, capsys):
        code, payload = run_cli(capsys, "residual")
        assert code == 0
        assert payload["max_abs_residual"] <= payload["threshold"]
        assert payload["n_points"] == 8

    def test_power_two_residual(self, capsys):
        code, payload = run_cli(capsys, "residual", "--power", "2")
        assert code == 0 and payload["ok"] is True
        assert payload["max_abs_residual"] <= payload["threshold"]

    @pytest.mark.parametrize("power", ["0", "2", "10", "20"])
    def test_relative_residual_at_round_off(self, capsys, power):
        # the absolute residual shrinks with |eps t|^power; relative to the
        # largest term of the identity it stays at round-off
        code, payload = run_cli(capsys, "residual", "--power", power)
        assert code == 0 and payload["ok"] is True
        assert payload["max_rel_residual"] <= 1e-14

    def test_wrong_forcing_fails_at_large_power(self, capsys, monkeypatch):
        # twice the forcing: every term of the identity is below 1e-15 at
        # power 20, so the absolute residual passes its threshold and
        # only the relative gate sees the error
        real = cli.manufactured_problem

        def doubled(spec, a):
            U, profile_U, series = real(spec, a)
            F_fn = series.F_fn
            return U, profile_U, replace(
                series, F_fn=lambda p, m, eps: 2.0 * F_fn(p, m, eps))
        monkeypatch.setattr(cli, "manufactured_problem", doubled)
        code, payload = run_cli(capsys, "residual", "--power", "20")
        assert code == 1 and payload["ok"] is False
        assert payload["max_abs_residual"] <= payload["threshold"]
        assert payload["max_rel_residual"] > 0.1


GOLDEN = Path(__file__).parent / "golden"
_FRAME = {"q": 2.0, "k1": 1.0, "k2": 2.0, "epsilon0": 0.4, "rT": 0.4}
_SECTORS = [{"bisector": b, "opening": 2.0, "radius": 0.4}
            for b in (0.8, 2.4, -2.4, -0.8)]
_GEOMETRY = {"covering": _SECTORS, "directions": [0.0, 1.6, 3.2, 4.8],
             "delta_t": 0.3, "rho": 0.8}
_SPEC = default_spec().to_dict()
_SCENARIO = default_scenario().to_dict()


def _renamed(d: dict, old: str, new: str) -> dict:
    """Copy of d with key old spelled new."""
    return {(new if k == old else k): v for k, v in d.items()}


class TestBadInputFiles:
    @pytest.mark.parametrize("argv, content, named", [
        pytest.param(("diff", "--scenario"), {"frame": _FRAME}, "covering",
                     id="diff-missing-key"),
        pytest.param(("residual", "--spec"), {"frame": _FRAME}, "d_D1",
                     id="residual-missing-key"),
        pytest.param(("geometry", "--scenario"),
                     {"covering": _SECTORS, "delta_t": 0.3, "rho": 0.8},
                     "directions", id="geometry-missing-key"),
        pytest.param(("diff", "--scenario"), [_FRAME], None, id="diff-array"),
        pytest.param(("residual", "--spec"), [_FRAME], None,
                     id="residual-array"),
        pytest.param(("geometry", "--scenario"), [_FRAME], None,
                     id="geometry-array"),
        # a key the decoder does not know is refused, not dropped while
        # the key that was meant silently takes its default
        pytest.param(("hypotheses", "--spec"),
                     {**_SPEC, "frame": _renamed(_SPEC["frame"], "epsilon0",
                                                 "epsilon_0")},
                     "epsilon_0", id="hypotheses-misspelled-key"),
        pytest.param(("residual", "--spec"),
                     {**_SPEC, "terms": [_SPEC["terms"][0],
                                         _renamed(_SPEC["terms"][1], "R", "r")]},
                     "'r'", id="residual-misspelled-key"),
        pytest.param(("diff", "--scenario"),
                     {**_SCENARIO, "kernel_ampp": [2.0, 0.0]}, "kernel_ampp",
                     id="diff-misspelled-key"),
        # the branch centers alone set the levels; a field that once
        # also set them is refused by name, not ignored
        pytest.param(("diff", "--scenario"),
                     {**_SCENARIO, "u_half_widths": [0.9, 0.9, 0.9, 0.5]},
                     "'u_half_widths'", id="diff-removed-key"),
        pytest.param(("diff", "--scenario"),
                     {**_SCENARIO, "covering": {**_SCENARIO["covering"],
                                                "radius": 0.9}},
                     "radius", id="diff-covering-extra-key"),
        pytest.param(("geometry", "--scenario"),
                     {**_GEOMETRY, "covering": [
                         _renamed(_SECTORS[0], "radius", "radus"),
                         *_SECTORS[1:]]},
                     "radus", id="geometry-misspelled-key"),
        pytest.param(("geometry", "--scenario"), {**_GEOMETRY, "dlt": 0.3},
                     "dlt", id="geometry-unknown-top-level-key"),
    ])
    def test_undecodable_file_is_two(self, capsys, tmp_path, argv, content,
                                     named):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, payload = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert payload["error"]["type"] == "input"
        if named is not None:
            assert named in payload["error"]["message"]


class TestBadArguments:
    """Out-of-range values exit 2 with a JSON error instead of a traceback
    or a result computed for some other value."""

    CSV = "<csv>"

    @pytest.mark.parametrize("argv, named", [
        pytest.param(("diff", "--overlap", "7", "--j-max", "5"), "overlap",
                     id="diff-overlap-past-last"),
        pytest.param(("diff", "--overlap", "-1", "--j-max", "5"), "overlap",
                     id="diff-overlap-negative"),
        pytest.param(("geometry", "--n", "0"), "n >= 2", id="geometry-no-sectors"),
        pytest.param(("fit", "--csv", CSV), "line 3", id="fit-short-csv-row"),
        pytest.param(("split", "--j-max", "-1"), "j_max",
                     id="split-no-probes"),
        pytest.param(("split", "--t", "0"), "t must be nonzero",
                     id="split-t-zero"),
        pytest.param(("split", "--radius-frac", "1.5"), "radius_frac",
                     id="split-radius-frac-past-one"),
        pytest.param(("split", "--radius-frac=-0.1"), "radius_frac",
                     id="split-radius-frac-negative"),
        pytest.param(("theta", "--z", "inf"), "'inf'", id="theta-z-inf"),
        pytest.param(("theta", "--z", "1e308"), "shifted point",
                     id="theta-shifted-z-overflows"),
        pytest.param(("theta", "--z", "0.3", "--m", "5000"), "shifted point",
                     id="theta-shift-power-overflows"),
        pytest.param(("theta", "--q", "1.3", "--k", "0.7", "--z", "1e-320"),
                     "is subnormal and rounds", id="theta-shift-rounds-subnormal"),
        pytest.param(("theta", "--q", "1.05", "--k", "4", "--z", "1"),
                     "is below double resolution", id="theta-small-pitch"),
        pytest.param(("fourier", "--z", "nan"), "'nan'", id="fourier-z-nan"),
        pytest.param(("fourier", "--z", "0.3", "--tol", "nan"), "is not finite",
                     id="fourier-tol-nan"),
        pytest.param(("fourier", "--z", "0.2", "--tol", "0"), "tol must be > 0, got 0.0",
                     id="fourier-tol-zero"),
        pytest.param(("residual", "--tol", "0"), "tol must be > 0, got 0.0",
                     id="residual-tol-zero"),
        pytest.param(("diff", "--overlap", "0", "--j-max", "5", "--tol", "0"),
                     "tol must be > 0, got 0.0", id="diff-tol-zero"),
        pytest.param(("qlaplace", "--T", "0.3", "--tol", "0"), "tol must be > 0, got 0.0",
                     id="qlaplace-tol-zero"),
        pytest.param(("qlaplace", "--T", "nan+1j"), "'nan+1j'",
                     id="qlaplace-t-nan"),
        pytest.param(("qlaplace", "--T", "1e300"), "past double range",
                     id="qlaplace-image-overflows"),
        pytest.param(("qlaplace", "--T", "1e154"), "past double range",
                     id="qlaplace-image-just-past-double-range"),
        pytest.param(("residual", "--power", "-1"), "power a must be >= 0",
                     id="residual-power-negative"),
        pytest.param(("diff", "--overlap", "0", "--j-max", "5", "--tol", "inf"),
                     "tol=inf is not finite", id="diff-tol-inf"),
        pytest.param(("qlaplace", "--T", "0.3", "--tol", "inf"),
                     "tol=inf is not finite", id="qlaplace-tol-inf"),
        pytest.param(("fourier", "--z", "0.2", "--tol", "inf"),
                     "tol=inf is not finite", id="fourier-tol-inf"),
        pytest.param(("residual", "--tol", "inf"), "tol=inf is not finite",
                     id="residual-tol-inf"),
        pytest.param(("theta", "--k", "inf", "--z", "0.3"), "k=inf is not finite",
                     id="theta-k-inf"),
        pytest.param(("theta", "--k", "1e-300", "--z", "0.3"),
                     "one radial period leaves double range", id="theta-pitch-past-range"),
        pytest.param(("theta", "--q", "inf", "--z", "0.3"), "q=inf is not finite",
                     id="theta-q-inf"),
        pytest.param(("theta", "--z", "0.3", "--tol", "nan"), "tol=nan is not finite",
                     id="theta-tol-nan"),
        pytest.param(("theta", "--z", "0.3", "--tol", "-1"), "tol must be > 0, got -1.0",
                     id="theta-tol-negative"),
        pytest.param(("qlaplace", "--k", "inf", "--T", "0.3"), "k=inf is not finite",
                     id="qlaplace-k-inf"),
        pytest.param(("qlaplace", "--T", "0.3", "--direction", "inf"),
                     "direction=inf is not finite", id="qlaplace-direction-inf"),
        pytest.param(("qlaplace", "--T", "0.3", "--check-tol", "nan"),
                     "check_tol=nan is not finite", id="qlaplace-check-tol-nan"),
        pytest.param(("geometry", "--family", "--t-radius", "inf"),
                     "t_radius=inf is not finite", id="geometry-t-radius-inf"),
        pytest.param(("geometry", "--rho", "nan"), "rho=nan is not finite",
                     id="geometry-rho-nan"),
        pytest.param(("fourier", "--z", "0.2", "--mu", "inf"), "mu=inf is not finite",
                     id="fourier-mu-inf"),
        pytest.param(("split", "--tol", "nan"), "tol=nan is not finite",
                     id="split-tol-nan"),
        pytest.param(("residual", "--threshold", "nan"), "threshold=nan is not finite",
                     id="residual-threshold-nan"),
        pytest.param(("fit", "--synthetic", "--noise", "nan"), "noise=nan is not finite",
                     id="fit-noise-nan"),
        pytest.param(("diff", "--overlap", "3", "--j-max", "6", "--rel-tol", "nan"),
                     "rel_tol=nan is not finite", id="diff-rel-tol-nan"),
    ])
    def test_is_two_without_traceback(self, capsys, tmp_path, argv, named):
        csv = tmp_path / "rows.csv"
        csv.write_text("N,Re eps,Im eps,Re t,Im t,norm\n"
                       "0,0.1,0.0,0.5,0.0,0.001\n"
                       "1,0.1,0.0\n")
        code = main([str(csv) if a == self.CSV else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        error = strict_json(captured.out)["error"]
        assert error["type"] == "input"
        assert named in error["message"]
        assert "Traceback" not in captured.err


class TestQuadratureFailure:
    def test_is_one_with_json_error(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("contour exp(0j + x*1j): error 1e-3")

        monkeypatch.setattr(cli, "qlaplace", fail)
        code = main(["qlaplace", "--T", "0.3+0.1j"])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert error["type"] == "quadrature"
        assert "contour" in error["message"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("module, argv, named", [
        pytest.param(fourier, ("fourier", "--z", "0.2"), "times its target",
                     id="fourier-inverse-transform"),
        pytest.param(cocycle, ("split", "--j-max", "2"), "worst on overlap",
                     id="split-cauchy-heine-ray"),
    ])
    def test_library_quadrature_is_one(self, capsys, monkeypatch, module, argv,
                                       named):
        def fail(*args, **kwargs):
            # every integrand here is a vector, so complex_quad names the
            # component furthest from its target
            raise QuadratureError("x in [0.0, 1.0]: error 3 times its target", 0)

        monkeypatch.setattr(module, "complex_quad", fail)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert error["type"] == "quadrature"
        assert "times its target" in error["message"]
        assert named in error["message"]
        assert "Traceback" not in captured.err


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, golden", [
        pytest.param(("hypotheses",), "hypotheses.json", id="hypotheses"),
        pytest.param(("geometry", "--family"), "geometry_family.json",
                     id="geometry-family"),
        pytest.param(("theta", "--q", "2", "--k", "1", "--z", "0.3+0.4j"), "theta.json",
                     id="theta"),
    ])
    def test_stdout_matches_golden_file(self, capsys, argv, golden):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
