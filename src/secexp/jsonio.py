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

Inputs are checked field by field in one pass, each fault reported as
"<what>: field <path>: <message>", then constructed; malformed JSON surfaces
the parser's line/column.  Numbers are JSON numbers (bools refused) that
convert to finite floats; module sizes are JSON integers (bools and integral
floats refused).
"""

from __future__ import annotations

import json
import math

from .dists import Alphabet, JointDist, SizeLimitError, SubDist
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
    """Input JSON failed field or semantic validation."""


# the fields each channel structure needs, in the order messages list them
_KIND_FIELDS = {
    "generic": ("input_alphabet", "output_alphabet", "matrix"),
    "additive": ("module", "noise"),
    "general_additive": ("module", "joint"),
}
_CHANNEL_FIELDS = {"structure"}.union(*_KIND_FIELDS.values())


def _fail(what: str, path: str, message: str):
    """Refuse the field at path; an object's path may end in '/', as a prefix."""
    raise InputValidationError(f"{what}: field {path.rstrip('/') or '(root)'}: {message}")


def _object(obj, what: str, path: str, required, allowed):
    """A JSON object holding every required key and no key outside allowed."""
    if not isinstance(obj, dict):
        _fail(what, path, f"{obj!r} is not of type 'object'")
    for key in required:
        if key not in obj:
            _fail(what, path, f"{key!r} is a required property")
    extra = sorted(set(obj).difference(allowed), key=str)
    if extra:
        listed = ", ".join(map(repr, extra)) + (" was" if len(extra) == 1 else " were")
        _fail(what, path, f"Additional properties are not allowed ({listed} unexpected)")


def _array(values, what: str, path: str, nonempty: bool = True):
    if not isinstance(values, list):
        _fail(what, path, f"{values!r} is not of type 'array'")
    if nonempty and not values:
        _fail(what, path, "[] should be non-empty")


def _strings(values, what: str, path: str, nonempty: bool = True):
    _array(values, what, path, nonempty)
    for i, v in enumerate(values):
        if not isinstance(v, str):
            _fail(what, f"{path}/{i}", f"{v!r} is not of type 'string'")


def _check_numbers(values, what: str, path: str, nonempty: bool = True):
    """An array of JSON numbers (bools refused) that convert to finite floats."""
    _array(values, what, path, nonempty)
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            _fail(what, f"{path}/{i}", f"{v!r} is not of type 'number'")
        try:
            finite = math.isfinite(v)
        except OverflowError:
            _fail(what, f"{path}/{i}", "integer too large, not a finite number")
        if not finite:
            _fail(what, f"{path}/{i}", f"{v!r} is not a finite number")


def _check_number_rows(rows, what: str, path: str, nonempty: bool = True):
    _array(rows, what, path, nonempty)
    for i, row in enumerate(rows):
        _check_numbers(row, what, f"{path}/{i}", nonempty)


def _integer(value, what: str, path: str, minimum: int):
    if type(value) is not int:
        _fail(what, path, f"{value!r} is not of type 'integer'")
    if value < minimum:
        _fail(what, path, f"{value!r} is less than the minimum of {minimum!r}")


def _check_dist(obj, what: str, at: str = ""):
    _object(obj, what, at, ("alphabet", "mass"), ("alphabet", "mass"))
    _strings(obj["alphabet"], what, at + "alphabet")
    _check_numbers(obj["mass"], what, at + "mass")


def _check_joint(obj, what: str, at: str = ""):
    keys = ("alphabet", "alphabet_e", "mass")
    _object(obj, what, at, keys, keys)
    _strings(obj["alphabet"], what, at + "alphabet")
    _strings(obj["alphabet_e"], what, at + "alphabet_e")
    _check_number_rows(obj["mass"], what, at + "mass")


def _subdist(obj) -> SubDist:
    try:
        return SubDist(Alphabet(tuple(obj["alphabet"])), obj["mass"])
    except ValueError as e:
        raise InputValidationError(f"distribution: {e}") from None


def _joint(obj) -> JointDist:
    try:
        alphabets = (Alphabet(tuple(obj[key])) for key in ("alphabet", "alphabet_e"))
        return JointDist(*alphabets, obj["mass"])
    except ValueError as e:
        raise InputValidationError(f"joint: {e}") from None


def parse_subdist(obj) -> SubDist:
    _check_dist(obj, "distribution")
    return _subdist(obj)


def parse_joint(obj) -> JointDist:
    _check_joint(obj, "joint")
    return _joint(obj)


def parse_channel(obj) -> Channel:
    _object(obj, "channel", "", (), _CHANNEL_FIELDS)
    kind = obj.get("structure", "generic")
    if not isinstance(kind, str):
        _fail("channel", "structure", f"{kind!r} is not of type 'string'")
    if kind not in _KIND_FIELDS:
        _fail("channel", "structure", f"{kind!r} is not one of {list(_KIND_FIELDS)!r}")
    for key in ("input_alphabet", "output_alphabet"):
        if key in obj:
            _strings(obj[key], "channel", key, nonempty=False)
    if "matrix" in obj:
        _check_number_rows(obj["matrix"], "channel", "matrix", nonempty=False)
    if "noise" in obj:
        _check_dist(obj["noise"], "channel", "noise/")
    if "joint" in obj:
        _check_joint(obj["joint"], "channel", "joint/")
    if "module" in obj:
        _object(obj["module"], "channel", "module", ("q", "n"), ("q", "n"))
        _integer(obj["module"]["q"], "channel", "module/q", 2)
        _integer(obj["module"]["n"], "channel", "module/n", 1)
    _object(obj, "channel", "", _KIND_FIELDS[kind], _CHANNEL_FIELDS)
    try:
        if kind == "generic":
            alphabets = (Alphabet(tuple(obj[key])) for key in ("input_alphabet", "output_alphabet"))
            return Channel(*alphabets, obj["matrix"])
        module = Module(obj["module"]["q"], obj["module"]["n"])
        if kind == "additive":
            return Channel.additive(_subdist(obj["noise"]), module)
        return Channel.general_additive(_joint(obj["joint"]), module)
    except (InputValidationError, SizeLimitError):
        raise
    except ValueError as e:
        raise InputValidationError(f"channel: {e}") from None


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:  # missing, a directory, unreadable
        raise InputValidationError(f"{path}: cannot be read: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise InputValidationError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except ValueError as e:  # an integer past the digit limit
        raise InputValidationError(f"{path}: {e}") from None


def load_subdist(path: str) -> SubDist:
    return parse_subdist(_load(path))


def load_joint(path: str) -> JointDist:
    return parse_joint(_load(path))


def load_channel(path: str) -> Channel:
    return parse_channel(_load(path))
