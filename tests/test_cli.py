import json
from pathlib import Path

import pytest

from qasym import cli
from qasym import cocycle, fourier
from qasym.cli import main
from qasym.equation import default_spec
from qasym.model import default_scenario
from qasym.qlaplace import QuadratureError
from qasym.schemas import validate_payload


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


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
    ])
    def test_is_two_without_traceback(self, capsys, tmp_path, argv, named):
        csv = tmp_path / "rows.csv"
        csv.write_text("N,Re eps,Im eps,Re t,Im t,norm\n"
                       "0,0.1,0.0,0.5,0.0,0.001\n"
                       "1,0.1,0.0\n")
        code = main([str(csv) if a == self.CSV else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
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

    @pytest.mark.parametrize("module, argv", [
        pytest.param(fourier, ("fourier", "--z", "0.2"),
                     id="fourier-inverse-transform"),
        pytest.param(cocycle, ("split", "--j-max", "2"),
                     id="split-cauchy-heine-ray"),
    ])
    def test_library_quadrature_is_one(self, capsys, monkeypatch, module, argv):
        def fail(*args, **kwargs):
            raise QuadratureError("x in [0.0, 1.0]: error 3 times its target")

        monkeypatch.setattr(module, "complex_quad", fail)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert error["type"] == "quadrature"
        assert "times its target" in error["message"]
        assert "Traceback" not in captured.err


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, golden", [
        pytest.param(("hypotheses",), "hypotheses.json", id="hypotheses"),
        pytest.param(("geometry", "--family"), "geometry_family.json",
                     id="geometry-family"),
    ])
    def test_stdout_matches_golden_file(self, capsys, argv, golden):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()
