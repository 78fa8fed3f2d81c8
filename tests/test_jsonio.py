import copy

import pytest
from hypothesis import given, settings, strategies as st

from secexp.dists import SizeLimitError
from secexp.jsonio import InputValidationError, parse_channel, parse_joint, parse_subdist


class TestNumberArrayMessages:
    """Number arrays report their first bad entry with its field path."""

    @pytest.mark.parametrize(
        "parse, obj, message",
        [
            (
                parse_subdist,
                {"alphabet": ["a", "b"], "mass": [True, 0.5]},
                "distribution: field mass/0: True is not of type 'number'",
            ),
            (
                parse_subdist,
                {"alphabet": ["a", "b"], "mass": [0.5, [0.5]]},
                "distribution: field mass/1: [0.5] is not of type 'number'",
            ),
            (
                parse_joint,
                {"alphabet": ["a", "b"], "alphabet_e": ["u", "v"],
                 "mass": [[0.25, 0.25], [0.25, None]]},
                "joint: field mass/1/1: None is not of type 'number'",
            ),
            (
                parse_channel,
                {"input_alphabet": ["0"], "output_alphabet": ["0", "1"],
                 "matrix": [[0.5, "x"]]},
                "channel: field matrix/0/1: 'x' is not of type 'number'",
            ),
            (
                parse_channel,
                {"structure": "additive", "module": {"q": 3, "n": 1},
                 "noise": {"alphabet": ["0", "1", "2"], "mass": [0.5, 0.5, False]}},
                "channel: field noise/mass/2: False is not of type 'number'",
            ),
            (
                parse_channel,
                {"structure": "general_additive", "module": {"q": 2, "n": 1},
                 "joint": {"alphabet": ["0", "1"], "alphabet_e": ["u"],
                           "mass": [[0.5], [True]]}},
                "channel: field joint/mass/1/0: True is not of type 'number'",
            ),
            (
                parse_subdist,
                {"alphabet": ["a", "b"], "mass": [0, 10**330]},
                "distribution: field mass/1: integer too large, not a finite number",
            ),
            (
                parse_subdist,
                {"alphabet": ["a", "b"], "mass": [float("nan"), 0.5]},
                "distribution: field mass/0: nan is not a finite number",
            ),
            (
                parse_channel,
                {"input_alphabet": ["0"], "output_alphabet": ["0", "1"],
                 "matrix": [[0.5, float("-inf")]]},
                "channel: field matrix/0/1: -inf is not a finite number",
            ),
        ],
    )
    def test_first_bad_entry_is_reported(self, parse, obj, message):
        with pytest.raises(InputValidationError) as err:
            parse(obj)
        assert str(err.value) == message

    def test_integers_are_numbers(self):
        assert parse_subdist({"alphabet": ["a", "b"], "mass": [1, 0]}).total == 1.0


GENERIC = {"input_alphabet": ["0", "1"], "output_alphabet": ["0", "1"],
           "matrix": [[0.9, 0.1], [0.2, 0.8]]}
NOISE = {"alphabet": ["0", "1", "2"], "mass": [0.5, 0.25, 0.25]}
JOINT = {"alphabet": ["0", "1"], "alphabet_e": ["u", "v"],
         "mass": [[0.25, 0.25], [0.25, 0.25]]}
ADDITIVE = {"structure": "additive", "noise": NOISE, "module": {"q": 3, "n": 1}}
GENERAL = {"structure": "general_additive", "joint": JOINT, "module": {"q": 2, "n": 1}}


class TestSingleFaultMessages:
    """One fault per input, reported as "<what>: field <path>: <message>"."""

    @pytest.mark.parametrize(
        "parse, obj, message",
        [
            (parse_subdist, {"alphabet": ["a"]},
             "distribution: field (root): 'mass' is a required property"),
            (parse_subdist, {"alphabet": ["a"], "mass": []},
             "distribution: field mass: [] should be non-empty"),
            (parse_subdist, {"alphabet": ["a", 3], "mass": [0.5, 0.5]},
             "distribution: field alphabet/1: 3 is not of type 'string'"),
            (parse_subdist, ["a"], "distribution: field (root): ['a'] is not of type 'object'"),
            (parse_subdist, {"alphabet": "ab", "mass": [0.5, 0.5]},
             "distribution: field alphabet: 'ab' is not of type 'array'"),
            (parse_subdist, {"alphabet": ["a"], "mass": [1.0], "p": 1, "e": 2},
             "distribution: field (root): Additional properties are not allowed "
             "('e', 'p' were unexpected)"),
            (parse_joint, dict(JOINT, mass=[[0.5, 0.5], []]),
             "joint: field mass/1: [] should be non-empty"),
            (parse_joint, dict(JOINT, alphabet_e=[]),
             "joint: field alphabet_e: [] should be non-empty"),
            (parse_channel, dict(GENERIC, extra=1),
             "channel: field (root): Additional properties are not allowed "
             "('extra' was unexpected)"),
            (parse_channel, dict(ADDITIVE, module={"q": 1, "n": 1}),
             "channel: field module/q: 1 is less than the minimum of 2"),
            (parse_channel, dict(ADDITIVE, module={"q": 3, "n": 0}),
             "channel: field module/n: 0 is less than the minimum of 1"),
            (parse_channel, dict(ADDITIVE, module={"q": 1.5, "n": 1}),
             "channel: field module/q: 1.5 is not of type 'integer'"),
            (parse_channel, dict(ADDITIVE, module={"q": True, "n": 1}),
             "channel: field module/q: True is not of type 'integer'"),
            (parse_channel, dict(ADDITIVE, module={"q": 3}),
             "channel: field module: 'n' is a required property"),
            (parse_channel, dict(ADDITIVE, module={"q": 3, "n": 1, "k": 2}),
             "channel: field module: Additional properties are not allowed "
             "('k' was unexpected)"),
            (parse_channel, dict(GENERIC, structure="weird"),
             "channel: field structure: 'weird' is not one of "
             "['generic', 'additive', 'general_additive']"),
            (parse_channel, dict(ADDITIVE, noise={"alphabet": ["0", "1", "2"]}),
             "channel: field noise: 'mass' is a required property"),
            (parse_channel, dict(GENERAL, joint=dict(JOINT, alphabet=["0", None])),
             "channel: field joint/alphabet/1: None is not of type 'string'"),
            (parse_channel, dict(GENERIC, matrix=[[0.9, 0.1], 0.2]),
             "channel: field matrix/1: 0.2 is not of type 'array'"),
            (parse_channel, dict(GENERIC, output_alphabet=["0", 1]),
             "channel: field output_alphabet/1: 1 is not of type 'string'"),
        ],
    )
    def test_message(self, parse, obj, message):
        with pytest.raises(InputValidationError) as err:
            parse(obj)
        assert str(err.value) == message

    def test_generic_channel_keeps_a_checked_noise_field(self):
        assert parse_channel(dict(GENERIC, noise=NOISE)).structure_kind() == "generic"
        with pytest.raises(InputValidationError, match="field noise/mass/1: 'x'"):
            parse_channel(dict(GENERIC, noise=dict(NOISE, mass=[0.5, "x", 0.25])))

    @pytest.mark.parametrize(
        "obj, key",
        [({k: v for k, v in GENERIC.items() if k != key}, key) for key in GENERIC]
        + [({"structure": "additive", "noise": NOISE}, "module"),
           ({"structure": "additive", "module": {"q": 3, "n": 1}}, "noise"),
           ({"structure": "general_additive", "module": {"q": 2, "n": 1}}, "joint")],
    )
    def test_each_structure_requires_its_fields(self, obj, key):
        with pytest.raises(InputValidationError) as err:
            parse_channel(obj)
        assert str(err.value) == f"channel: field (root): {key!r} is a required property"

    @pytest.mark.parametrize(
        "module, message",
        [({"q": 1000000000000000003, "n": 1},
          "1000000000000000003 field elements exceed cap 1048576"),
         ({"q": 3, "n": 100000000}, "3^100000000 module symbols exceed cap 1048576")],
    )
    def test_oversized_module_is_a_size_limit(self, module, message):
        with pytest.raises(SizeLimitError) as err:
            parse_channel(dict(ADDITIVE, module=module))
        assert str(err.value) == message


def _json_values(integers):
    scalars = (st.none() | st.booleans() | integers | st.text(max_size=4)
               | st.floats(allow_nan=False, allow_infinity=False))
    keys = st.sampled_from(["alphabet", "mass", "q", "n", "structure", "noise", "x"])
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(keys | st.text(max_size=3), inner, max_size=4),
        max_leaves=12,
    )


# unbounded integers, and ones past every size cap, where q and n go
INTEGERS = st.integers() | st.integers(min_value=10**6, max_value=10**30)
JSON_VALUES = _json_values(INTEGERS)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return out


VALID = [
    (parse_subdist, NOISE),
    (parse_joint, JOINT),
    (parse_channel, GENERIC),
    (parse_channel, dict(GENERIC, noise=NOISE, module={"q": 2, "n": 1})),
    (parse_channel, ADDITIVE),
    (parse_channel, GENERAL),
]


class TestFuzzedBoundary:
    """Every input either parses or is refused by InputValidationError or
    SizeLimitError, within the deadline."""

    @staticmethod
    def _parse_or_refuse(parse, obj):
        try:
            parse(obj)
        except (InputValidationError, SizeLimitError):
            pass

    def test_valid_inputs_parse(self):
        for parse, obj in VALID:
            parse(obj)

    @settings(max_examples=300, derandomize=True, deadline=1000)
    @given(st.sampled_from([parse_subdist, parse_joint, parse_channel]), JSON_VALUES)
    def test_arbitrary_json(self, parse, obj):
        self._parse_or_refuse(parse, obj)

    @settings(max_examples=500, derandomize=True, deadline=1000)
    @given(st.data())
    def test_one_field_replaced(self, data):
        parse, obj = data.draw(st.sampled_from(VALID))
        path = data.draw(st.sampled_from(list(_paths(obj))))
        value = data.draw(INTEGERS | JSON_VALUES)
        self._parse_or_refuse(parse, _replaced(obj, path, value))
