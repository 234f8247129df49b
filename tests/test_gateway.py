import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsf.llmgateway as gw
from tsf.dataset import format_value
from tsf.errors import HttpStatusError, ReplayMiss, TransportError
from tsf.llmgateway import (
    BackendConfig,
    BackendKind,
    Gateway,
    TokenSource,
    bundle_hash,
    estimate_tokens,
    load_fixtures,
    record_fixtures,
    save_fixtures,
)
from tsf.neighbors import CandidateWindow, NeighborSet
from tsf.prompting import PromptText, Strategy

from golden_util import golden_bundle, golden_window

MOCK_P = BackendConfig(kind=BackendKind.MOCK_PERSISTENCE)
MOCK_L = BackendConfig(kind=BackendKind.MOCK_LINEAR)


def bundle_for(context, horizon, truth=None, strategy=Strategy.ZEROSHOT, neighbor_set=None):
    from tsf.dataset import EvalWindow

    w = EvalWindow(
        series_id="s",
        context=tuple(float(v) for v in context),
        context_start=0,
        horizon=horizon,
        truth=tuple(truth or [0.0] * horizon),
        context_timestamps=tuple(600 * i for i in range(len(context))),
    )
    return PromptText().assemble(strategy, w, "a test series", 600, neighbor_set=neighbor_set)


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
            ns = NeighborSet(k=len(neighbors), entries=tuple(
                (CandidateWindow("n", i, tuple(v)), float(i)) for i, v in enumerate(neighbors)))
            b = bundle_for(context, horizon, strategy=Strategy.NEIGHS, neighbor_set=ns)
        else:
            b = bundle_for(context, horizon)
        for cfg in (MOCK_P, MOCK_L):
            assert Gateway(cfg).complete(b).text == full_parse_answer(b, cfg.kind)


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

    def test_success_reports_usage(self, monkeypatch, api_key):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers)
            return FakeResponse(200, ok_payload("[2.5]", it=42, ot=3))

        monkeypatch.setattr(gw.requests, "post", fake_post)
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
        monkeypatch.setattr(gw.requests, "post", lambda *a, **k: FakeResponse(200, payload))
        resp = Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert resp.token_source is TokenSource.ESTIMATED

    def test_retry_on_429_then_success(self, monkeypatch, api_key):
        calls = []
        sleeps = []

        def fake_post(*a, **k):
            calls.append(1)
            if len(calls) < 3:
                return FakeResponse(429, {}, text="rate limited")
            return FakeResponse(200, ok_payload())

        monkeypatch.setattr(gw.requests, "post", fake_post)
        monkeypatch.setattr(gw, "_sleep", sleeps.append)
        resp = Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert resp.text == "[1]"
        assert len(calls) == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff from 1 s

    def test_http_error_status(self, monkeypatch, api_key):
        monkeypatch.setattr(
            gw.requests, "post", lambda *a, **k: FakeResponse(500, {}, text="boom")
        )
        with pytest.raises(HttpStatusError) as exc:
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))
        assert exc.value.status == 500

    def test_transport_error_after_retries(self, monkeypatch, api_key):
        def fail(*a, **k):
            raise gw.requests.ConnectionError("down")

        monkeypatch.setattr(gw.requests, "post", fail)
        monkeypatch.setattr(gw, "_sleep", lambda s: None)
        with pytest.raises(TransportError):
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv(gw.API_KEY_ENV, raising=False)
        with pytest.raises(TransportError):
            Gateway(HTTP_CFG).complete(bundle_for([1, 2], horizon=1))


class TestRecordFixtures:
    def test_record_then_replay_identical(self, monkeypatch, api_key, tmp_path):
        monkeypatch.setattr(
            gw.requests, "post", lambda *a, **k: FakeResponse(200, ok_payload("[9]", 11, 1))
        )
        bundles = [bundle_for([1, 2], horizon=1), bundle_for([3, 4], horizon=1)]
        path = tmp_path / "fx.jsonl"
        record_fixtures(bundles, HTTP_CFG, path)
        cfg = BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(path))
        g = Gateway(cfg)
        first = [g.complete(b) for b in bundles]
        second = [g.complete(b) for b in bundles]
        assert first == second
        assert all(r.text == "[9]" for r in first)

    def test_mock_backend_refused(self, tmp_path):
        with pytest.raises(ValueError):
            record_fixtures([], MOCK_P, tmp_path / "fx.jsonl")

    def test_fixture_serialization_round_trip(self, tmp_path):
        rec = {"hash": "h", "text": "[1]", "input_tokens": 1, "output_tokens": 1, "latency_seconds": 0.5}
        path = tmp_path / "fx.jsonl"
        save_fixtures([rec], path)
        assert load_fixtures(path)["h"] == rec
