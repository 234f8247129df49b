"""LLM dispatch: an OpenAI-style HTTP backend plus deterministic offline
backends (persistence / linear mocks and replay of fixtures a live run recorded)."""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .dataset import format_value
from .errors import (HttpStatusError, MalformedAnswer, MalformedFixture, ReplayMiss,
                     TransportError)
from .prompting import PromptBundle

API_KEY_ENV = "TSF_API_KEY"

# injectable for tests
_sleep = time.sleep


class BackendKind(Enum):
    HTTP = "http"
    MOCK_PERSISTENCE = "mock-persistence"
    MOCK_LINEAR = "mock-linear"
    REPLAY = "replay"


class TokenSource(Enum):
    REPORTED = "reported"
    ESTIMATED = "estimated"


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind
    endpoint_url: Optional[str] = None
    model_name: Optional[str] = None
    temperature: float = 0.0
    timeout_seconds: int = 60
    max_retries: int = 3
    parallelism: int = 1
    fixture_path: Optional[str] = None

    def __post_init__(self):
        if self.kind is BackendKind.HTTP and not (self.endpoint_url and self.model_name):
            raise ValueError("http backend requires endpoint_url and model_name")
        if self.kind is BackendKind.REPLAY and not self.fixture_path:
            raise ValueError("replay backend requires fixture_path")
        if not 0 <= self.temperature < math.inf:  # nan and inf included
            raise ValueError(f"temperature {self.temperature!r} is not a finite number >= 0")

    @property
    def backend_id(self) -> str:
        if self.kind is BackendKind.HTTP:
            return f"http:{self.model_name}"
        return self.kind.value


class LlmResponse(NamedTuple):
    text: str
    input_tokens: int
    output_tokens: int
    latency_seconds: float
    token_source: TokenSource


def estimate_tokens(text: str) -> int:
    """Crude fallback estimate: ceil(utf-8 bytes / 4). ASCII text, one byte a
    character, is not encoded."""
    return ((len(text) if text.isascii() else len(text.encode("utf-8"))) + 3) // 4


def bundle_hash(bundle: PromptBundle) -> str:
    import hashlib  # here, not at the top: a mock run never loads OpenSSL's libcrypto

    payload = bundle.system + "\x00" + bundle.user
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _context_tail(bundle: PromptBundle) -> list[float]:
    """The last one or two values of the target context, the last <...>
    sequence in the user prompt; the mocks answer from nothing else."""
    user = bundle.user
    start = user.rfind("<")
    end = user.find(">", start)
    if start < 0 or end < 0:
        raise ValueError("user prompt carries no <...> sequence")
    return [float(tok) for tok in user[start + 1 : end].rsplit(", ", 2)[-2:]]


def _mock_text(bundle: PromptBundle, kind: BackendKind) -> str:
    """The mock's answer from the context tail: persistence repeats the last
    value, formatted once; linear extrapolates the last slope."""
    values = _context_tail(bundle)
    h = bundle.horizon
    if kind is BackendKind.MOCK_PERSISTENCE:
        return "[" + ", ".join([format_value(values[-1])] * h) + "]"
    slope = values[-1] - values[-2] if len(values) >= 2 else 0.0
    return "[" + ", ".join([format_value(values[-1] + (i + 1) * slope) for i in range(h)]) + "]"


def _estimated_response(text: str, bundle: PromptBundle, latency: float = 0.0) -> LlmResponse:
    return LlmResponse(text, estimate_tokens(bundle.system) + estimate_tokens(bundle.user),
                       estimate_tokens(text), latency, TokenSource.ESTIMATED)


def _fixture_fault(rec) -> Optional[str]:
    """What keeps one parsed line of a fixture file from being a record, or None."""
    if type(rec) is not dict:
        return "not a JSON object"
    for key in ("hash", "text"):
        if type(rec.get(key)) is not str:
            return f"{key!r} is not a string"
    for key in ("input_tokens", "output_tokens"):
        if type(rec.get(key)) is not int or rec[key] < 0:  # a bool is not a count
            return f"{key!r} is not an integer >= 0"
    latency = rec.get("latency_seconds")
    if type(latency) not in (int, float) or not 0 <= latency < math.inf:  # nan and inf included
        return "'latency_seconds' is not a finite number >= 0"
    return None


def load_fixtures(path) -> dict:
    """The records of a fixture file by hash, the last of each. Each non-blank
    line is checked as it is read; the first that is not a record raises
    MalformedFixture, naming the file and the line."""
    fixtures = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:  # a record cut short among them
                fault = "not JSON"
            else:
                fault = _fixture_fault(rec)
            if fault:
                raise MalformedFixture(f"fixture file {path}, line {number}: {fault}")
            fixtures[rec["hash"]] = rec
    return fixtures


def _write_fixtures(records: Iterable[dict], path, mode: str) -> None:
    """One JSON object per line, keys sorted: the format load_fixtures reads."""
    with open(path, mode, encoding="utf-8") as f:
        f.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def save_fixtures(records: Iterable[dict], path) -> None:
    _write_fixtures(records, path, "w")


def _http_complete(bundle: PromptBundle, cfg: BackendConfig) -> LlmResponse:
    import requests  # here, not at the top: offline runs never load the HTTP stack

    api_key = os.environ.get(API_KEY_ENV)
    if not api_key:
        raise TransportError(f"{API_KEY_ENV} is not set")
    url = cfg.endpoint_url.rstrip("/") + "/chat/completions"
    body = {
        "model": cfg.model_name,
        "temperature": cfg.temperature,
        "messages": [
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.user},
        ],
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    attempts = max(1, cfg.max_retries)
    for attempt in range(attempts):
        last = attempt + 1 == attempts
        start = time.perf_counter()
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=cfg.timeout_seconds)
        except requests.RequestException as e:  # timeouts included
            if last:
                raise TransportError(str(e)) from e
        else:
            if resp.status_code != 429 or last:
                break
        _sleep(2.0 ** attempt)  # a transport error or 429 retries after 1 s, 2 s, ...
    latency = time.perf_counter() - start
    if resp.status_code != 200:
        raise HttpStatusError(resp.status_code, resp.text)
    try:
        data = resp.json()
        text = data["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):  # not JSON, or not of that shape
        text = None
    if not isinstance(text, str):
        raise MalformedAnswer(f"no string choices[0].message.content in {resp.text[:500]!r}")
    usage = {} if data.get("usage") is None else data["usage"]  # null is absent
    if not isinstance(usage, dict):
        raise MalformedAnswer(f"usage {usage!r:.500} is not an object")
    counts = [usage[k] for k in ("prompt_tokens", "completion_tokens") if k in usage]
    if any(type(c) is not int or c < 0 for c in counts):  # a bool is not a count
        raise MalformedAnswer(f"usage {usage!r:.500} has a count that is not an integer >= 0")
    if len(counts) < 2:  # a count is absent
        return _estimated_response(text, bundle, latency)
    return LlmResponse(text, *counts, latency, TokenSource.REPORTED)


class Gateway:
    """Dispatches bundles against one configured backend. Replay fixtures are
    loaded once. An http backend with a fixture path records to it: the file is
    emptied here, and each answer is appended as soon as it arrives. All methods
    are safe for concurrent use."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._fixtures: Optional[dict] = None
        self._record_lock = threading.Lock()
        if cfg.kind is BackendKind.REPLAY:
            self._fixtures = load_fixtures(cfg.fixture_path)
        elif cfg.kind is BackendKind.HTTP and cfg.fixture_path:
            save_fixtures([], cfg.fixture_path)

    def complete(self, bundle: PromptBundle) -> LlmResponse:
        kind = self.cfg.kind
        if kind in (BackendKind.MOCK_PERSISTENCE, BackendKind.MOCK_LINEAR):
            return _estimated_response(_mock_text(bundle, kind), bundle)
        if kind is BackendKind.REPLAY:
            rec = self._fixtures.get(bundle_hash(bundle))
            if rec is None:
                raise ReplayMiss(
                    f"no fixture for bundle {bundle.window_id}"
                    f" ({bundle.strategy.value}, h={bundle.horizon})"
                )
            return LlmResponse(rec["text"], rec["input_tokens"], rec["output_tokens"],
                               rec["latency_seconds"], TokenSource.REPORTED)
        resp = _http_complete(bundle, self.cfg)
        if self.cfg.fixture_path:
            rec = {
                "hash": bundle_hash(bundle),
                "text": resp.text,
                "input_tokens": resp.input_tokens,
                "output_tokens": resp.output_tokens,
                "latency_seconds": resp.latency_seconds,
            }
            with self._record_lock:
                _write_fixtures([rec], self.cfg.fixture_path, "a")
        return resp
