import json
import math
from fractions import Fraction

import jsonschema
import pytest

from qasym.asymptotics import GevreyFit, RemainderTable, fit_q_gevrey
from qasym.equation import (EquationSpec, EquationTerm, HypothesesReport, default_spec,
                            validate_hypotheses)
from qasym.frames import QFrame
from qasym.geometry import (geometry_scenario_from_dict, geometry_scenario_to_dict,
                            make_cyclic_covering)
from qasym.model import ModelScenario, PoleSpec, default_scenario
from qasym.schemas import (SCHEMA_NAMES, load_schema, validate_payload,
                           validator_for)


def planted_fit_payload():
    q, k, C, A = 2.0, 1.0, 0.7, 1.4
    table = RemainderTable()
    for N in range(5):
        for em in (0.2, 0.3):
            table.add(N, em, C * A ** (N + 1)
                      * q ** (N * (N + 1) / (2 * k)) * em ** (N + 1))
    return fit_q_gevrey(table, q, k).to_dict()


CANONICAL = {
    "qframe": lambda: QFrame(2.0, 1.0, 2.0, 0.4, 0.9).to_dict(),
    "equation_spec": lambda: default_spec().to_dict(),
    "geometry_scenario": lambda: geometry_scenario_to_dict(
        make_cyclic_covering(4, 0.4, math.radians(60), math.radians(45)),
        [math.radians(90.0 * p) for p in range(4)], 0.3, 0.8),
    "model_scenario": lambda: default_scenario().to_dict(),
    "gevrey_fit": planted_fit_payload,
    "qlaplace_result": lambda: {"value": {"re": 0.064, "im": 0.0},
                                "error_estimate": 3.2e-13, "nodes_used": 87,
                                "direction_used": 0.0,
                                "relative_deviation": 2.2e-16},
}


class TestSchemaFiles:
    def test_every_schema_is_valid_draft07(self):
        for name in SCHEMA_NAMES:
            jsonschema.Draft7Validator.check_schema(load_schema(name))

    def test_names_and_ids_line_up(self):
        assert set(CANONICAL) == set(SCHEMA_NAMES)
        for name in SCHEMA_NAMES:
            assert load_schema(name)["$id"] == f"qasym:{name}"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_schema("no_such_schema")


class TestCanonicalPayloads:
    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_producer_output_validates(self, name):
        validate_payload(name, CANONICAL[name]())

    def test_validator_for_is_usable_directly(self):
        v = validator_for("qframe")
        assert v.is_valid(CANONICAL["qframe"]())
        assert not v.is_valid({"q": 2.0})


class TestRejections:
    def _refuse(self, name, payload):
        with pytest.raises(jsonschema.ValidationError):
            validate_payload(name, payload)

    def test_qframe(self):
        good = CANONICAL["qframe"]()
        self._refuse("qframe", {**good, "q": 1.0})        # base must exceed 1
        self._refuse("qframe", {k: v for k, v in good.items() if k != "rT"})
        self._refuse("qframe", {**good, "extra": 1})

    def test_equation_spec(self):
        good = CANONICAL["equation_spec"]()
        bad_term = dict(good["terms"][0])
        bad_term["delta"] = 1.5                            # must be [num, den]
        self._refuse("equation_spec", {**good,
                                       "terms": [bad_term] + good["terms"][1:]})
        self._refuse("equation_spec", {**good, "d_D1": 0})
        # cross-reference into the qframe schema must be enforced
        self._refuse("equation_spec",
                     {**good, "frame": {**good["frame"], "q": 0.5}})

    def test_geometry_scenario(self):
        good = CANONICAL["geometry_scenario"]()
        self._refuse("geometry_scenario",
                     {k: v for k, v in good.items() if k != "delta_t"})
        bad_cov = [dict(s) for s in good["covering"]]
        bad_cov[0]["opening"] = 0.0
        self._refuse("geometry_scenario", {**good, "covering": bad_cov})

    def test_model_scenario(self):
        good = CANONICAL["model_scenario"]()
        bad = {**good, "poles": [{"location": [1.2, 0.0], "strength": 0.5}]}
        self._refuse("model_scenario", bad)
        self._refuse("model_scenario",
                     {**good, "frame": {**good["frame"], "q": 0.5}})

    def test_gevrey_fit(self):
        good = CANONICAL["gevrey_fit"]()
        self._refuse("gevrey_fit", {**good, "kind": "other"})
        self._refuse("gevrey_fit", {**good, "n_rows": 0})
        self._refuse("gevrey_fit",
                     {k: v for k, v in good.items() if k != "certified"})

    def test_qlaplace_result(self):
        good = CANONICAL["qlaplace_result"]()
        self._refuse("qlaplace_result", {**good, "error_estimate": -1e-3})
        self._refuse("qlaplace_result", {**good, "value": {"re": 1.0}})
        self._refuse("qlaplace_result", {**good, "nodes_used": 3.5})


def _schema_object(name, path):
    obj = load_schema(name)
    for key in path:
        obj = obj[key]
    return obj


# (schema, path to the object inside it, producer of the matching payload)
SCHEMA_OBJECTS = {
    "qframe": ("qframe", (), CANONICAL["qframe"]),
    "equation_spec": ("equation_spec", (), CANONICAL["equation_spec"]),
    "equation_term": ("equation_spec", ("definitions", "term"),
                      lambda: default_spec().terms[1].to_dict()),
    "model_scenario": ("model_scenario", (), CANONICAL["model_scenario"]),
    "pole": ("model_scenario", ("definitions", "pole"),
             lambda: default_scenario().poles[0].to_dict()),
    "covering": ("model_scenario", ("properties", "covering"),
                 lambda: default_scenario().covering.to_dict()),
    "sector": ("geometry_scenario", ("definitions", "sector"),
               lambda: default_scenario().covering.sectors[0].to_dict()),
    "gevrey_fit": ("gevrey_fit", (), planted_fit_payload),
}


class TestSchemasMatchCodec:
    @pytest.mark.parametrize("which", sorted(SCHEMA_OBJECTS))
    def test_properties_required_and_codec_keys_agree(self, which):
        name, path, make = SCHEMA_OBJECTS[which]
        obj = _schema_object(name, path)
        assert obj["additionalProperties"] is False
        assert set(obj["properties"]) == set(obj["required"])
        assert set(obj["properties"]) == set(make())

    def test_model_scenario_sectors_follow_geometry_schema(self):
        good = default_scenario().to_dict()
        for change in ({"opening": 7.0}, {"extra": 1}):
            bad = json.loads(json.dumps(good))
            bad["covering"]["covering"][0].update(change)
            with pytest.raises(jsonschema.ValidationError):
                validate_payload("model_scenario", bad)

    def test_unbounded_radius_is_null_and_valid(self):
        cov = make_cyclic_covering(4, math.inf, math.radians(60))
        d = geometry_scenario_to_dict(cov, [0.0, 1.0, 2.0, 3.0], 0.3, 0.8)
        assert all(s["radius"] is None for s in d["covering"])
        validate_payload("geometry_scenario", d)
        assert geometry_scenario_from_dict(d)[0] == cov


class TestRecordCodec:
    def test_complex_and_rational_wire_forms(self):
        pole = PoleSpec(location=1.5 + 2.0j, strength=0.5j)
        assert pole.to_dict() == {"location": [1.5, 2.0], "strength": [0.0, 0.5]}
        assert PoleSpec.from_dict(pole.to_dict()) == pole
        for delta, wire in ((Fraction(5, 2), [5, 2]), (2, [2, 1]), (0.75, [3, 4])):
            term = EquationTerm(Delta=1, d=0, delta=delta)
            assert term.to_dict() == {"Delta": 1, "d": 0, "delta": wire, "R": [1.0]}
            assert EquationTerm.from_dict(term.to_dict()).delta == Fraction(delta)

    def test_missing_key_with_default_takes_the_default(self):
        fr = QFrame.from_dict({"q": 2.0, "k1": 1.0, "k2": 2.0})
        assert fr == QFrame(q=2.0, k1=1.0, k2=2.0)
        assert EquationTerm.from_dict({"Delta": 1, "d": 0, "delta": [1, 1]}).R == (1.0,)

    def test_missing_required_key_names_class_and_key(self):
        with pytest.raises(ValueError, match=r"QFrame.*'k2'"):
            QFrame.from_dict({"q": 2.0, "k1": 1.0})
        d = default_spec().to_dict()
        del d["terms"][0]["Delta"]
        with pytest.raises(ValueError, match=r"EquationTerm.*'Delta'"):
            EquationSpec.from_dict(d)

    def test_unknown_key_names_class_and_key(self):
        with pytest.raises(ValueError, match=r"QFrame: unknown key 'epsilon_0'"):
            QFrame.from_dict({"q": 2.0, "k1": 1.0, "k2": 2.0, "epsilon_0": 0.2})
        d = default_spec().to_dict()
        d["terms"][1]["r"] = d["terms"][1].pop("R")
        with pytest.raises(ValueError, match=r"EquationTerm: unknown key 'r'"):
            EquationSpec.from_dict(d)

    def test_verdict_keys_written_by_to_dict_round_trip(self):
        fit = planted_fit_payload()
        assert "certified" in fit
        assert GevreyFit.from_dict(fit).to_dict() == fit
        rep = validate_hypotheses(default_spec())
        assert "ok" in rep.to_dict()
        assert HypothesesReport.from_dict(rep.to_dict()) == rep

    def test_non_object_is_refused(self):
        with pytest.raises(ValueError, match="ModelScenario"):
            ModelScenario.from_dict([1, 2])
        with pytest.raises(ValueError, match="QFrame"):
            EquationSpec.from_dict({**default_spec().to_dict(), "frame": [2.0]})
