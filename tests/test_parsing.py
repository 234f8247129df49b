import pytest

from tsf.errors import NoListFound, NonNumericElement, WrongCount
from tsf.parsing import parse_prediction

# The rows the other patch templates' output formats ask the model to echo
# before "Prediction:"; like the "Patches:" echo, none is taken as the forecast.
PATCH_ROW_ECHOES = {
    "nonoverlap-rows": "[8.35, 8.36, 8.32]\n[8.45, 8.35, 8.25]\n[8.2, 8.09, 8.13]",
    "str-rows": "[[1.5,0.1], [1.6,-0.2], [1.7,0]]\n[[1.6,-0.2], [1.7,0], [1.8,0.3]]",
    "meta-rows": "[(8.35;63), (8.36;64), (8.32;65)]\n[(8.36;64), (8.32;65), (8.45;66)]",
}


class TestParsePrediction:
    def test_prediction_marker(self):
        text = "Patches:\n[[2,3,4],[1,2,3]]\nPrediction:\n[0.1, 0.2, 0.3]"
        assert parse_prediction(text, 3) == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize(
        "echo", PATCH_ROW_ECHOES.values(), ids=PATCH_ROW_ECHOES.keys()
    )
    def test_patch_row_echo_not_forecast(self, echo):
        text = f"{echo}\nPrediction:\n[0.1, 0.2, 0.3]"
        assert parse_prediction(text, 3) == [0.1, 0.2, 0.3]

    def test_bare_list(self):
        assert parse_prediction("[7.5]", 1) == [7.5]

    def test_wrong_count(self):
        with pytest.raises(WrongCount) as exc:
            parse_prediction("Prediction: [1, 2]", 3)
        assert exc.value.found == 2
        assert exc.value.expected == 3

    def test_last_list_wins_without_marker(self):
        text = "Input was [1, 2, 3] and the answer is [4, 5, 6]"
        assert parse_prediction(text, 3) == [4, 5, 6]

    def test_surrounding_prose_tolerated(self):
        text = "Sure! Here is the forecast:\nPrediction: [1.5, 2.5] .\nHope that helps."
        assert parse_prediction(text, 2) == [1.5, 2.5]

    def test_scientific_notation(self):
        assert parse_prediction("[1e-3, 2.5E2]", 2) == [0.001, 250.0]

    def test_no_list(self):
        with pytest.raises(NoListFound):
            parse_prediction("no numbers here", 1)

    def test_non_numeric(self):
        with pytest.raises(NonNumericElement):
            parse_prediction("[a, b]", 2)

    def test_lenient_truncates(self):
        assert parse_prediction("[1, 2, 3, 4]", 2, lenient=True) == [1, 2]

    def test_lenient_pads_with_last(self):
        assert parse_prediction("[1, 2]", 4, lenient=True) == [1, 2, 2, 2]

    def test_round_trip_with_rendering(self):
        from tsf.dataset import format_value

        values = [0.80325, 1.0, -2.4689]
        text = "[" + ", ".join(format_value(v) for v in values) + "]"
        parsed = parse_prediction(text, 3)
        assert [format_value(p) for p in parsed] == [format_value(v) for v in values]

    def test_deterministic(self):
        text = "Prediction:\n[9.1, 9.2]"
        assert parse_prediction(text, 2) == parse_prediction(text, 2)
