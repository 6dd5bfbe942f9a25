"""Serialized objects: one dataclass <-> JSON codec and the Draft-07
schemas it is held to.

``Record`` gives a dataclass ``to_dict``/``from_dict`` derived from its
init fields and their annotations:

* ``complex`` <-> ``[re, im]``;
* ``Fraction`` (alone or in a union) <-> ``[num, den]``;
* ``tuple[X, ...]``, ``list[X]`` and bare ``tuple``/``list`` <-> arrays;
* a nested object with its own ``to_dict``/``from_dict`` <-> an object;
* anything else is stored as is.

A key missing from the input takes the field's default; a missing
required key, a key that the class's own ``to_dict`` does not write, or
input that is not a JSON object raises ValueError naming the class and
the key, so a misspelled optional key is an error, not its default.
Keys that ``to_dict`` adds beyond the fields (such as ``ok``) are
accepted and ignored, so every round trip holds.

The schemas are shipped as package data under ``qasym/schemas/``;
``validate_payload`` resolves the internal ``qasym:*`` cross-references.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import get_args, get_origin, get_type_hints

SCHEMA_NAMES = (
    "qframe",
    "equation_spec",
    "geometry_scenario",
    "model_scenario",
    "gevrey_fit",
    "qlaplace_result",
)


@lru_cache(maxsize=None)
def _init_fields(cls) -> tuple:
    """(name, annotation, required) per init field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls) if f.init)


def _encode(value, hint):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if hint is complex:
        c = complex(value)
        return [c.real, c.imag]
    if hint is Fraction or Fraction in get_args(hint):
        f = Fraction(value)
        return [f.numerator, f.denominator]
    if hint in (tuple, list) or get_origin(hint) in (tuple, list):
        item = (get_args(hint) or (None,))[0]
        return [_encode(v, item) for v in value]
    return value


def _decode(data, hint):
    if isinstance(hint, type) and hasattr(hint, "from_dict"):
        return hint.from_dict(data)
    if hint is complex:
        return complex(*data)
    if hint is Fraction or Fraction in get_args(hint):
        num, den = data
        return Fraction(num, den)
    if hint in (tuple, list) or get_origin(hint) in (tuple, list):
        item = (get_args(hint) or (None,))[0]
        return (get_origin(hint) or hint)(_decode(v, item) for v in data)
    return data


def refuse_unknown_keys(owner: str, d, known) -> None:
    """Raise ValueError, naming owner, unless d is a JSON object whose
    keys all lie in known."""
    if not isinstance(d, dict):
        raise ValueError(f"{owner}: expected a JSON object, "
                         f"got {type(d).__name__}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"{owner}: unknown key "
                         + ", ".join(f"'{k}'" for k in unknown))


class Record:
    """Base class of dataclasses whose JSON form is their init fields."""

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name), hint)
                for name, hint, _ in _init_fields(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__}: expected a JSON object, "
                             f"got {type(d).__name__}")
        kwargs = {}
        for name, hint, required in _init_fields(cls):
            if name in d:
                kwargs[name] = _decode(d[name], hint)
            elif required:
                raise ValueError(f"{cls.__name__}: missing required key '{name}'")
        obj = cls(**kwargs)
        refuse_unknown_keys(cls.__name__, d, obj.to_dict())
        return obj


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise KeyError(f"unknown schema '{name}'; have {sorted(SCHEMA_NAMES)}")
    path = resources.files("qasym") / "schemas" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def _registry():
    from referencing import Registry, Resource

    return Registry().with_resources(
        (f"qasym:{name}", Resource.from_contents(load_schema(name)))
        for name in SCHEMA_NAMES
    )


def validator_for(name: str):
    from jsonschema import Draft7Validator

    return Draft7Validator(load_schema(name), registry=_registry())


def validate_payload(name: str, payload: dict) -> None:
    """Raise jsonschema.ValidationError if payload does not conform."""
    validator_for(name).validate(payload)
