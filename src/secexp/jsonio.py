"""JSON input formats and validation for the CLI.

Distribution:  {"alphabet": ["a", "b", ...], "mass": [0.5, 0.5, ...]}
Joint:         {"alphabet": [...], "alphabet_e": [...], "mass": [[...], ...]}
               (row-major: one row per secret symbol)
Channel:       {"input_alphabet": [...], "output_alphabet": [...],
                "matrix": [[...], ...]}
               or {"structure": "additive", "noise": <distribution>,
                   "module": {"q": 2, "n": 1}}
               or {"structure": "general_additive", "joint": <joint>,
                   "module": {"q": 2, "n": 1}}

Inputs are validated against JSON schemas first (field-level error paths),
then constructed; malformed JSON surfaces the parser's line/column.
"""

from __future__ import annotations

import json
import math

import jsonschema

from .dists import Alphabet, JointDist, SubDist
from .gf import Module
from .wiretap import Channel

__all__ = [
    "InputValidationError",
    "load_subdist",
    "load_joint",
    "load_channel",
    "parse_subdist",
    "parse_joint",
    "parse_channel",
]


class InputValidationError(ValueError):
    """Input JSON failed schema or semantic validation."""


_DIST_SCHEMA = {
    "type": "object",
    "required": ["alphabet", "mass"],
    "additionalProperties": False,
    "properties": {
        "alphabet": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
        },
        "mass": {"type": "array", "minItems": 1, "items": {"type": "number"}},
    },
}

_JOINT_SCHEMA = {
    "type": "object",
    "required": ["alphabet", "alphabet_e", "mass"],
    "additionalProperties": False,
    "properties": {
        "alphabet": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
        },
        "alphabet_e": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string"},
        },
        "mass": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number"},
            },
        },
    },
}

_MODULE_SCHEMA = {
    "type": "object",
    "required": ["q", "n"],
    "additionalProperties": False,
    "properties": {
        "q": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1},
    },
}

_CHANNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "structure": {
            "type": "string",
            "enum": ["generic", "additive", "general_additive"],
        },
        "input_alphabet": {"type": "array", "items": {"type": "string"}},
        "output_alphabet": {"type": "array", "items": {"type": "string"}},
        "matrix": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "noise": _DIST_SCHEMA,
        "joint": _JOINT_SCHEMA,
        "module": _MODULE_SCHEMA,
    },
    "additionalProperties": False,
}


def _validate(obj, schema, what: str):
    try:
        jsonschema.validate(obj, schema)
    except jsonschema.ValidationError as e:
        path = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise InputValidationError(f"{what}: field {path}: {e.message}") from None


def parse_subdist(obj) -> SubDist:
    _validate(obj, _DIST_SCHEMA, "distribution")
    if len(obj["mass"]) != len(obj["alphabet"]):
        raise InputValidationError(
            "distribution: mass length does not match alphabet length"
        )
    try:
        return SubDist(Alphabet(tuple(obj["alphabet"])), obj["mass"])
    except ValueError as e:
        raise InputValidationError(f"distribution: {e}") from None


def parse_joint(obj) -> JointDist:
    _validate(obj, _JOINT_SCHEMA, "joint")
    try:
        return JointDist(
            Alphabet(tuple(obj["alphabet"])),
            Alphabet(tuple(obj["alphabet_e"])),
            obj["mass"],
        )
    except ValueError as e:
        raise InputValidationError(f"joint: {e}") from None


def parse_channel(obj) -> Channel:
    _validate(obj, _CHANNEL_SCHEMA, "channel")
    kind = obj.get("structure", "generic")
    try:
        if kind == "generic":
            for key in ("input_alphabet", "output_alphabet", "matrix"):
                if key not in obj:
                    raise InputValidationError(f"channel: field {key}: required")
            return Channel(
                Alphabet(tuple(obj["input_alphabet"])),
                Alphabet(tuple(obj["output_alphabet"])),
                obj["matrix"],
            )
        if "module" not in obj:
            raise InputValidationError("channel: field module: required")
        module = Module(obj["module"]["q"], obj["module"]["n"])
        if kind == "additive":
            if "noise" not in obj:
                raise InputValidationError("channel: field noise: required")
            return Channel.additive(parse_subdist(obj["noise"]), module)
        if "joint" not in obj:
            raise InputValidationError("channel: field joint: required")
        return Channel.general_additive(parse_joint(obj["joint"]), module)
    except InputValidationError:
        raise
    except ValueError as e:
        raise InputValidationError(f"channel: {e}") from None


def _load(path: str):
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise InputValidationError(f"{path}: {text} is not a finite number")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=finite, parse_constant=finite)
        except json.JSONDecodeError as e:
            raise InputValidationError(
                f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None


def load_subdist(path: str) -> SubDist:
    return parse_subdist(_load(path))


def load_joint(path: str) -> JointDist:
    return parse_joint(_load(path))


def load_channel(path: str) -> Channel:
    return parse_channel(_load(path))
