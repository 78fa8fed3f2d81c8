import pytest

from secexp.jsonio import InputValidationError, parse_channel, parse_joint, parse_subdist


class TestNumberArrayMessages:
    """Number arrays are checked outside the schema, with jsonschema's
    messages and field paths."""

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
        ],
    )
    def test_first_bad_entry_is_reported(self, parse, obj, message):
        with pytest.raises(InputValidationError) as err:
            parse(obj)
        assert str(err.value) == message

    def test_integers_are_numbers(self):
        assert parse_subdist({"alphabet": ["a", "b"], "mass": [1, 0]}).total == 1.0
