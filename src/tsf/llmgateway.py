"""LLM dispatch: an OpenAI-style HTTP backend plus deterministic offline
backends (persistence / linear mocks and record-replay fixtures)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import requests

from .dataset import format_value
from .errors import HttpStatusError, ReplayMiss, TransportError
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

    @property
    def backend_id(self) -> str:
        if self.kind is BackendKind.HTTP:
            return f"http:{self.model_name}"
        return self.kind.value


@dataclass(frozen=True)
class LlmResponse:
    text: str
    input_tokens: int
    output_tokens: int
    latency_seconds: float
    backend_id: str
    token_source: TokenSource


def estimate_tokens(text: str) -> int:
    """Crude fallback estimate: ceil(utf-8 bytes / 4)."""
    return (len(text.encode("utf-8")) + 3) // 4


def bundle_hash(bundle: PromptBundle) -> str:
    payload = bundle.system + "\x00" + bundle.user
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_SEQ_RE = re.compile(r"<([^<>]*)>")


def _context_values(bundle: PromptBundle) -> list[float]:
    """Target context = the last <...> sequence in the user prompt (neighbor
    lines, when present, come before it)."""
    groups = _SEQ_RE.findall(bundle.user)
    if not groups:
        raise ValueError("user prompt carries no <...> sequence")
    return [float(tok) for tok in groups[-1].split(", ")]


def _mock_text(bundle: PromptBundle, kind: BackendKind) -> str:
    values = _context_values(bundle)
    h = bundle.horizon
    if kind is BackendKind.MOCK_PERSISTENCE:
        preds = [values[-1]] * h
    else:
        slope = values[-1] - values[-2] if len(values) >= 2 else 0.0
        preds = [values[-1] + (i + 1) * slope for i in range(h)]
    return "[" + ", ".join(format_value(p) for p in preds) + "]"


def _estimated_response(
    text: str, bundle: PromptBundle, backend_id: str, latency: float = 0.0
) -> LlmResponse:
    return LlmResponse(
        text=text,
        input_tokens=estimate_tokens(bundle.system) + estimate_tokens(bundle.user),
        output_tokens=estimate_tokens(text),
        latency_seconds=latency,
        backend_id=backend_id,
        token_source=TokenSource.ESTIMATED,
    )


def load_fixtures(path) -> dict:
    fixtures = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            fixtures[rec["hash"]] = rec
    return fixtures


def save_fixtures(records: Iterable[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def _http_complete(bundle: PromptBundle, cfg: BackendConfig) -> LlmResponse:
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
    backoff = 1.0
    last_err: Exception | None = None
    for attempt in range(attempts):
        start = time.perf_counter()
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=cfg.timeout_seconds)
        except requests.RequestException as e:  # timeouts included
            last_err = e
            if attempt + 1 < attempts:
                _sleep(backoff)
                backoff *= 2
                continue
            raise TransportError(str(e)) from e
        latency = time.perf_counter() - start
        if resp.status_code == 429 and attempt + 1 < attempts:
            _sleep(backoff)
            backoff *= 2
            continue
        if resp.status_code != 200:
            raise HttpStatusError(resp.status_code, resp.text)
        data = resp.json()
        text = data["choices"][0]["message"]["content"]
        usage = data.get("usage") or {}
        if "prompt_tokens" in usage and "completion_tokens" in usage:
            return LlmResponse(
                text=text,
                input_tokens=usage["prompt_tokens"],
                output_tokens=usage["completion_tokens"],
                latency_seconds=latency,
                backend_id=cfg.backend_id,
                token_source=TokenSource.REPORTED,
            )
        return _estimated_response(text, bundle, cfg.backend_id, latency)
    raise TransportError(str(last_err))


class Gateway:
    """Dispatches bundles against one configured backend. Replay fixtures are
    loaded once; all methods are safe for concurrent use."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._fixtures: Optional[dict] = None
        if cfg.kind is BackendKind.REPLAY:
            self._fixtures = load_fixtures(cfg.fixture_path)

    def complete(self, bundle: PromptBundle) -> LlmResponse:
        kind = self.cfg.kind
        if kind in (BackendKind.MOCK_PERSISTENCE, BackendKind.MOCK_LINEAR):
            return _estimated_response(_mock_text(bundle, kind), bundle, self.cfg.backend_id)
        if kind is BackendKind.REPLAY:
            rec = self._fixtures.get(bundle_hash(bundle))
            if rec is None:
                raise ReplayMiss(
                    f"no fixture for bundle {bundle.window_id}"
                    f" ({bundle.strategy.value}, h={bundle.horizon})"
                )
            return LlmResponse(
                text=rec["text"],
                input_tokens=rec["input_tokens"],
                output_tokens=rec["output_tokens"],
                latency_seconds=rec["latency_seconds"],
                backend_id=self.cfg.backend_id,
                token_source=TokenSource.REPORTED,
            )
        return _http_complete(bundle, self.cfg)


def record_fixtures(bundles: Iterable[PromptBundle], cfg: BackendConfig, out) -> None:
    """Capture live responses keyed by bundle content hash for later replay."""
    if cfg.kind is not BackendKind.HTTP:
        raise ValueError("only the http backend can record fixtures")
    records = []
    for bundle in bundles:
        resp = _http_complete(bundle, cfg)
        records.append(
            {
                "hash": bundle_hash(bundle),
                "text": resp.text,
                "input_tokens": resp.input_tokens,
                "output_tokens": resp.output_tokens,
                "latency_seconds": resp.latency_seconds,
            }
        )
    save_fixtures(records, out)
