import json
import re
from dataclasses import replace

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsf.llmgateway as gw
from tsf.dataset import format_value
from tsf.errors import (HttpStatusError, MalformedAnswer, MalformedFixture, ReplayMiss,
                        TransportError)
from tsf.evaluation import WindowResult
from tsf.llmgateway import (
    BackendConfig,
    BackendKind,
    Gateway,
    LlmResponse,
    TokenSource,
    bundle_hash,
    estimate_tokens,
    load_fixtures,
    save_fixtures,
)
from tsf.prompting import PromptBundle, Strategy

from conftest import make_dataset
from golden_util import compose, golden_bundle

MOCK_P = BackendConfig(kind=BackendKind.MOCK_PERSISTENCE)
MOCK_L = BackendConfig(kind=BackendKind.MOCK_LINEAR)


def bundle_for(context, horizon, strategy=Strategy.ZEROSHOT, neighbor_windows=None):
    """The bundle of window ("s", 0) of one series: the context, then horizon zeros."""
    ds = make_dataset({"s": [*context, *[0.0] * horizon]},
                      descriptions={"s": "a test series"})
    return compose(strategy, ds, ("s", 0), horizon, len(context),
                   neighbor_windows=neighbor_windows)


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_eight_bytes(self):
        assert estimate_tokens("abcdefgh") == 2

    def test_monotone(self):
        text = ""
        prev = 0
        for ch in "hello world, here are tokens":
            text += ch
            cur = estimate_tokens(text)
            assert cur >= prev
            prev = cur

    @settings(max_examples=300, deadline=None)
    @example("")
    @example("abc")
    @example("\u00e9t\u00e9")
    @example("\U0001F600 x")
    @given(st.text())
    def test_equals_utf8_byte_oracle(self, text):
        assert estimate_tokens(text) == (len(text.encode("utf-8")) + 3) // 4


class TestMockBackends:
    def test_persistence(self):
        b = bundle_for([1.0, 2.0, 7.5], horizon=3)
        resp = Gateway(MOCK_P).complete(b)
        assert resp.text == "[7.5, 7.5, 7.5]"
        assert resp.token_source is TokenSource.ESTIMATED

    def test_linear(self):
        b = bundle_for([1, 2, 3], horizon=2)
        assert Gateway(MOCK_L).complete(b).text == "[4, 5]"

    def test_pure_function_of_bundle(self):
        b = golden_bundle(Strategy.PATCH_INSTRUCT)
        r1 = Gateway(MOCK_P).complete(b)
        r2 = Gateway(MOCK_P).complete(b)
        assert r1 == r2

    def test_zero_latency(self):
        b = bundle_for([1, 2], horizon=1)
        assert Gateway(MOCK_P).complete(b).latency_seconds == 0.0


def full_parse_answer(bundle, kind):
    """Reference mock answer: every value of the last <...> group parsed."""
    values = [float(tok) for tok in re.findall(r"<([^<>]*)>", bundle.user)[-1].split(", ")]
    h = bundle.horizon
    if kind is BackendKind.MOCK_PERSISTENCE:
        preds = [values[-1]] * h
    else:
        slope = values[-1] - values[-2] if len(values) >= 2 else 0.0
        preds = [values[-1] + (i + 1) * slope for i in range(h)]
    return "[" + ", ".join(format_value(p) for p in preds) + "]"


# ties and near-ties at the fourth decimal, negatives, and values that render as 0
VALUES = st.floats(-1e6, 1e6) | st.sampled_from(
    [0.00025, -0.00015, 1.00005, -2.5, -0.0, 0.00004, -0.00004, 123.45675])


class TestMockAnswersFromTail:
    @settings(max_examples=300, deadline=None)
    @example(context=[-0.00015], horizon=3, neighbors=[])
    @example(context=[2.00025, -1.5], horizon=2, neighbors=[[7.0, 8.0]])
    @given(
        context=st.lists(VALUES, min_size=1, max_size=12),
        horizon=st.integers(1, 12),
        neighbors=st.lists(st.lists(VALUES, min_size=1, max_size=12), max_size=3),
    )
    def test_equal_full_parse(self, context, horizon, neighbors):
        if neighbors:
            b = bundle_for(context, horizon, strategy=Strategy.NEIGHS, neighbor_windows=neighbors)
        else:
            b = bundle_for(context, horizon)
        for cfg in (MOCK_P, MOCK_L):
            assert Gateway(cfg).complete(b).text == full_parse_answer(b, cfg.kind)


class TestMockTextOracle:
    @settings(max_examples=300, deadline=None)
    @given(context=st.lists(VALUES, min_size=1, max_size=6), horizon=st.integers(1, 24))
    def test_equals_per_value_oracle(self, context, horizon):
        """Each mock's answer equals formatting each predicted value on its own,
        the predictions made from the tail the prompt shows."""
        b = bundle_for(context, horizon)
        tail = [float(format_value(v)) for v in context[-2:]]
        slope = tail[-1] - tail[-2] if len(tail) >= 2 else 0.0
        for kind, preds in (
            (BackendKind.MOCK_PERSISTENCE, [tail[-1]] * horizon),
            (BackendKind.MOCK_LINEAR, [tail[-1] + (i + 1) * slope for i in range(horizon)]),
        ):
            oracle = "[" + ", ".join(format_value(p) for p in preds) + "]"
            assert gw._mock_text(b, kind) == oracle


def _records():
    """Fresh instances of the three per-window records, equal field for field on every call."""
    return (
        PromptBundle("sys", "user <1, 2>", Strategy.ZEROSHOT, "s:0", 2),
        LlmResponse("[2, 2]", 5, 2, 0.0, TokenSource.ESTIMATED),
        WindowResult("s:0", 0.25, 0.5, 5, 2, 0.0),
    )


class TestRecords:
    @pytest.mark.parametrize("index", range(3))
    def test_immutable(self, index):
        record = _records()[index]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], "x")

    @pytest.mark.parametrize("index", range(3))
    def test_equal_fields_equal_and_hash_alike(self, index):
        a, b = _records()[index], _records()[index]
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a._replace(**{a._fields[1]: "other"})

    def test_window_result_defaults_to_parsed(self):
        ok = _records()[2]
        assert ok.parse_status == "ok" and ok.parsed
        assert not ok._replace(parse_status="failed:NoListFound").parsed


class TestTokenDirection:
    def test_zeroshot_lt_patch_lt_patch_neighs(self):
        zs = golden_bundle(Strategy.ZEROSHOT)
        pi = golden_bundle(Strategy.PATCH_INSTRUCT)
        pin = golden_bundle(Strategy.PATCH_INSTRUCT_NEIGHS)
        g = Gateway(MOCK_P)
        it = {s: g.complete(b).input_tokens for s, b in [("zs", zs), ("pi", pi), ("pin", pin)]}
        assert it["zs"] < it["pi"] < it["pin"]


class TestReplay:
    def test_round_trip(self, tmp_path):
        b = bundle_for([1, 2, 3], horizon=2)
        rec = {
            "hash": bundle_hash(b),
            "text": "[4, 5]",
            "input_tokens": 100,
            "output_tokens": 6,
            "latency_seconds": 1.25,
        }
        path = tmp_path / "fx.jsonl"
        save_fixtures([rec], path)
        assert load_fixtures(path) == {rec["hash"]: rec}
        cfg = BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(path))
        resp = Gateway(cfg).complete(b)
        assert resp.text == "[4, 5]"
        assert resp.input_tokens == 100
        assert resp.latency_seconds == 1.25
        assert resp.token_source is TokenSource.REPORTED

    def test_miss(self, tmp_path):
        path = tmp_path / "fx.jsonl"
        save_fixtures([], path)
        cfg = BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(path))
        with pytest.raises(ReplayMiss):
            Gateway(cfg).complete(bundle_for([1, 2], horizon=1))

    @pytest.mark.parametrize("line, fault", [
        ('{"hash": "a", "text": "[1]"', "not JSON"),
        ('["a", "[1]", 1, 1, 0.5]', "not a JSON object"),
        ('{"hash": 7, "text": "[1]", "input_tokens": 1, "output_tokens": 1, "latency_seconds": 0}',
         "'hash' is not a string"),
        ('{"hash": "a", "text": "[1]", "input_tokens": -1, "output_tokens": 1, "latency_seconds": 0}',
         "'input_tokens' is not an integer >= 0"),
        ('{"hash": "a", "text": "[1]", "input_tokens": 1.0, "output_tokens": 1, "latency_seconds": 0}',
         "'input_tokens' is not an integer >= 0"),
        ('{"hash": "a", "text": "[1]", "input_tokens": 1, "latency_seconds": 0}',
         "'output_tokens' is not an integer >= 0"),
        ('{"hash": "a", "text": "[1]", "input_tokens": 1, "output_tokens": 1, "latency_seconds": NaN}',
         "'latency_seconds' is not a finite number >= 0"),
        ('{"hash": "a", "text": "[1]", "input_tokens": 1, "output_tokens": 1, "latency_seconds": -0.5}',
         "'latency_seconds' is not a finite number >= 0"),
        ('{"hash": "a", "text": "[1]", "input_tokens": 1, "output_tokens": 1, "latency_seconds": false}',
         "'latency_seconds' is not a finite number >= 0"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, fault):
        """Blank lines count toward the line number but are skipped."""
        path = tmp_path / "fx.jsonl"
        good = '{"hash": "g", "text": "[1]", "input_tokens": 1, "output_tokens": 0, "latency_seconds": 2}'
        path.write_text(good + "\n\n" + line + "\n" + good + "\n", encoding="utf-8")
        with pytest.raises(MalformedFixture) as info:
            load_fixtures(path)
        assert str(info.value) == f"fixture file {path}, line 3: {fault}"

    def test_integer_latency_and_blank_lines_load(self, tmp_path):
        path = tmp_path / "fx.jsonl"
        rec = {"hash": "g", "text": "[1]", "input_tokens": 0, "output_tokens": 0, "latency_seconds": 2}
        path.write_text("\n" + json.dumps(rec) + "\n  \n", encoding="utf-8")
        assert load_fixtures(path) == {"g": rec}

    def test_requires_fixture_path(self):
        with pytest.raises(ValueError):
            BackendConfig(kind=BackendKind.REPLAY)


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload or {})

    def json(self):
        return self._payload


class BodyResponse(FakeResponse):
    """A response whose json() parses its text, as requests' does."""

    def __init__(self, status_code, text):
        super().__init__(status_code, text=text)

    def json(self):
        return json.loads(self.text)


HTTP_CFG = BackendConfig(
    kind=BackendKind.HTTP,
    endpoint_url="http://llm.example",
    model_name="test-model",
    max_retries=3,
)


def ok_payload(content="[1]", it=10, ot=2):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": it, "completion_tokens": ot},
    }


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv(gw.API_KEY_ENV, "test-key")


class TestHttp:
    def test_requires_endpoint_and_model(self):
        with pytest.raises(ValueError):
            BackendConfig(kind=BackendKind.HTTP)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -1.0])
    def test_temperature_must_be_finite_and_non_negative(self, temperature):
        """A library caller's bad temperature fails at construction, not as
        retried transport errors on every window."""
        with pytest.raises(ValueError, match="is not a finite number >= 0"):
            replace(HTTP_CFG, temperature=temperature)

    @pytest.mark.parametrize("temperature", [0, 0.7])
    def test_temperature_in_range_constructs(self, temperature):
        assert replace(HTTP_CFG, temperature=temperature).temperature == temperature

    def test_success_reports_usage(self, monkeypatch, api_key):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers)
            return FakeResponse(200, ok_payload("[2.5]", it=42, ot=3))

        monkeypatch.setattr(requests, "post", fake_post)
        b = bundle_for([1, 2], horizon=1)
        resp = Gateway(HTTP_CFG).complete(b)
        assert resp.text == "[2.5]"
        assert resp.input_tokens == 42
        assert resp.output_tokens == 3
        assert resp.token_source is TokenSource.REPORTED
        assert seen["url"] == "http://llm.example/chat/completions"
        assert seen["headers"]["Authorization"] == "Bearer test-key"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["messages"][0]["role"] == "system"
        assert seen["body"]["messages"][1]["content"] == b.user

    def test_missing_usage_estimated(self, monkeypatch, api_key):
        payload = {"choices": [{"message": {"content": "[1]"}}]}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, payload))
        resp = Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert resp.token_source is TokenSource.ESTIMATED

    def test_zero_counts_are_reported(self, monkeypatch, api_key):
        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: FakeResponse(200, ok_payload("[1]", it=0, ot=0)))
        resp = Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert (resp.input_tokens, resp.output_tokens, resp.token_source) == (
            0, 0, TokenSource.REPORTED)

    @pytest.mark.parametrize("usage", [None, {}, {"prompt_tokens": 4}, {"completion_tokens": 2},
                                       {"total_tokens": 6}])
    def test_absent_counts_are_estimated(self, monkeypatch, api_key, usage):
        """A null usage, or one without both counts, estimates the tokens."""
        payload = {"choices": [{"message": {"content": "[1]"}}], "usage": usage}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, payload))
        resp = Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert resp.token_source is TokenSource.ESTIMATED

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": "12", "completion_tokens": 1},
        "prompt_tokens: 12, completion_tokens: 1",
        "n/a",
        [12, 1],
        {"prompt_tokens": -5, "completion_tokens": 1},
        {"prompt_tokens": 12, "completion_tokens": True},
        {"prompt_tokens": 1.5, "completion_tokens": 1},
        {"prompt_tokens": 12.0, "completion_tokens": 1},
        {"prompt_tokens": None, "completion_tokens": 1},
        {"prompt_tokens": "12"},
    ], ids=["string count", "string usage", "other string usage", "list usage", "negative",
            "bool", "float", "whole float", "null count", "string count alone"])
    def test_malformed_token_counts(self, monkeypatch, api_key, tmp_path, usage):
        """usage must be an object, and each count it holds a non-negative int that
        is not a bool: anything else is a MalformedAnswer after one request,
        recorded to no fixture file."""
        calls = []
        payload = {"choices": [{"message": {"content": "[1]"}}], "usage": usage}
        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: calls.append(1) or FakeResponse(200, payload))
        fx = tmp_path / "fx.jsonl"
        gateway = Gateway(replace(HTTP_CFG, fixture_path=str(fx)))
        with pytest.raises(MalformedAnswer, match="usage"):
            gateway.complete(bundle_for([1, 2], horizon=1))
        assert len(calls) == 1 and fx.read_text(encoding="utf-8") == ""

    def test_retry_on_429_then_success(self, monkeypatch, api_key):
        calls = []
        sleeps = []

        def fake_post(*a, **k):
            calls.append(1)
            if len(calls) < 3:
                return FakeResponse(429, {}, text="rate limited")
            return FakeResponse(200, ok_payload())

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setattr(gw, "_sleep", sleeps.append)
        resp = Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert resp.text == "[1]"
        assert len(calls) == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff from 1 s

    @pytest.mark.parametrize("body", [
        "<html><body>502 Bad Gateway</body></html>", "", "{}", "[1]", '{"choices": []}',
        '{"choices": [{"message": {}}]}', '{"choices": [{"message": {"content": null}}]}',
        '{"choices": [{"message": {"content": ["[1]"]}}]}', '{"choices": {"0": 1}}',
    ])
    def test_malformed_answer(self, monkeypatch, api_key, body):
        """A 200 answer whose body is not JSON, or holds no string at
        choices[0].message.content, is a MalformedAnswer after one request."""
        calls = []
        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: calls.append(1) or BodyResponse(200, body))
        with pytest.raises(MalformedAnswer):
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert len(calls) == 1

    def test_http_error_status(self, monkeypatch, api_key):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse(500, {}, text="boom")
        )
        with pytest.raises(HttpStatusError) as exc:
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert exc.value.status == 500

    def test_transport_error_after_retries(self, monkeypatch, api_key):
        calls = []
        sleeps = []

        def fail(*a, **k):
            calls.append(1)
            raise requests.ConnectionError("down")

        monkeypatch.setattr(requests, "post", fail)
        monkeypatch.setattr(gw, "_sleep", sleeps.append)
        with pytest.raises(TransportError):
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert len(calls) == 3
        assert sleeps == [1.0, 2.0]  # the backoff 429 takes, and none after the last attempt

    @pytest.mark.parametrize("max_retries, attempts", [(0, 1), (1, 1), (4, 4)])
    def test_mixed_failures_share_one_backoff(self, monkeypatch, api_key, max_retries,
                                              attempts):
        """Transport errors and 429s, alternating, back off along one schedule;
        a 429 on the last attempt is the window's error."""
        calls = []
        sleeps = []

        def flaky(*a, **k):
            calls.append(1)
            if len(calls) % 2:
                raise requests.Timeout("slow")
            return FakeResponse(429, {}, text="rate limited")

        monkeypatch.setattr(requests, "post", flaky)
        monkeypatch.setattr(gw, "_sleep", sleeps.append)
        cfg = replace(HTTP_CFG, max_retries=max_retries)
        with pytest.raises(TransportError if attempts % 2 else HttpStatusError):
            Gateway(cfg).complete(bundle_for([1, 2], horizon=1))
        assert len(calls) == attempts
        assert sleeps == [2.0 ** i for i in range(attempts - 1)]

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv(gw.API_KEY_ENV, raising=False)
        with pytest.raises(TransportError):
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))


class TestRecordFixtures:
    def test_record_then_replay_identical(self, monkeypatch, api_key, tmp_path):
        """An http gateway with a fixture path records each answer; a replay
        gateway over that file answers the same, every time."""
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse(200, ok_payload("[9]", 11, 1))
        )
        bundles = [bundle_for([1, 2], horizon=1), bundle_for([3, 4], horizon=1)]
        path = tmp_path / "fx.jsonl"
        path.write_text("stale\n", encoding="utf-8")  # a new recording starts the file afresh
        live = Gateway(replace(HTTP_CFG, fixture_path=str(path)))
        recorded = [live.complete(b) for b in bundles]
        g = Gateway(BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(path)))
        first = [g.complete(b) for b in bundles]
        second = [g.complete(b) for b in bundles]
        assert first == second
        assert all(r.text == "[9]" for r in first)
        fields = [(r.text, r.input_tokens, r.output_tokens, r.latency_seconds) for r in recorded]
        assert [(r.text, r.input_tokens, r.output_tokens, r.latency_seconds) for r in first] == fields
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["hash"] for line in lines] == [bundle_hash(b) for b in bundles]

    def test_offline_backends_leave_fixture_path_alone(self, tmp_path):
        path = tmp_path / "fx.jsonl"
        path.write_text("kept\n", encoding="utf-8")
        g = Gateway(replace(MOCK_P, fixture_path=str(path)))
        g.complete(bundle_for([1, 2], horizon=1))
        assert path.read_text(encoding="utf-8") == "kept\n"

    def test_fixture_serialization_round_trip(self, tmp_path):
        rec = {"hash": "h", "text": "[1]", "input_tokens": 1, "output_tokens": 1, "latency_seconds": 0.5}
        path = tmp_path / "fx.jsonl"
        save_fixtures([rec], path)
        assert load_fixtures(path)["h"] == rec
