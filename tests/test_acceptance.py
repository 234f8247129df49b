"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from tsf.dataset import CsvSchema, load_csv
from tsf.errors import EmptyPool
from tsf.evaluation import RunReport, improvement, mae, mse, reports_to_json
from tsf.llmgateway import (
    BackendConfig,
    BackendKind,
    Gateway,
    bundle_hash,
    save_fixtures,
)
from tsf.neighbors import search
from tsf.prompting import Strategy
from tsf.runner import RunConfig, bundles_for_run, draw_starts, run

from conftest import enumerate_candidates, euclidean, fresh_bundle, make_dataset
from golden_util import golden_bundle, golden_path, render_bundle


def ok(msg):
    print(f"\nACCEPTANCE PASS: {msg}")


def test_neighbor_oracle_50_random_datasets():
    rng = random.Random(99)
    L = 8
    start = time.perf_counter()
    for _ in range(50):
        n_series = rng.randint(1, 3)
        length = rng.randint(40, 160)
        # integer-valued data keeps both distance computations bit-identical
        cols = {
            f"s{j}": [float(rng.randint(0, 20)) for _ in range(length)]
            for j in range(n_series)
        }
        ds = make_dataset(cols)
        series = ds.series[rng.randrange(n_series)]
        cstart = rng.randint(L, length - L - 1)
        target = (series.id, cstart)
        candidates = enumerate_candidates(ds, target, L, euclidean)
        assert len(candidates) <= 5000
        (got,) = search(ds, [target], L, k=5)
        expected = sorted(candidates, key=lambda e: (e[2], e[0], e[1]))[:5]
        assert list(got) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(f"top-k equals brute force on 50 random datasets incl. tie-breaks ({elapsed:.2f}s < 5s)")


def test_metric_oracle_10000_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(10000):
        h = int(rng.integers(1, 13))
        pred = rng.uniform(-100, 100, h)
        truth = rng.uniform(-100, 100, h)
        got_mse = mse(pred.tolist(), truth.tolist())
        got_mae = mae(pred.tolist(), truth.tolist())
        ref_mse = float(np.mean((pred - truth) ** 2))
        ref_mae = float(np.mean(np.abs(pred - truth)))
        assert math.isclose(got_mse, ref_mse, rel_tol=1e-12)
        assert math.isclose(got_mae, ref_mae, rel_tol=1e-12)
        assert got_mae**2 <= got_mse * (1 + 1e-12)

    def rep(m):
        return RunReport(
            dataset="weather", strategy="x", horizon=1, n_windows=1, n_parsed=1,
            mean_mse=m, mean_mae=0.0, total_input_tokens=0, total_output_tokens=0,
            mean_input_tokens=0.0, mean_output_tokens=0.0, mean_latency_s=0.0,
            parse_failure_rate=0.0, template_version="1.0.0", backend_id="b", config={},
        )

    assert improvement(rep(0.0095), rep(0.0014)) == pytest.approx(85.26, abs=0.01)
    ok("mse/mae match independent recomputation on 10000 pairs; improvement(0.0095, 0.0014) = 85.26%")


def test_meta_patch_worked_example_clock(tmp_path):
    """The paper's worked example, 10:30 -> slot 63, read off a CSV with naive
    ISO times, which load_csv reads as UTC."""
    start = datetime(2021, 3, 4, 10, 30)
    rows = [f"{(start + timedelta(minutes=10 * i)).isoformat()},{i % 7}.5" for i in range(40)]
    path = tmp_path / "clock.csv"
    path.write_text("date,v\n" + "\n".join(rows) + "\n", encoding="utf-8")
    ds = load_csv(path, CsvSchema(timestamp_column="date"))
    cfg = RunConfig(
        strategies=(Strategy.META_TOKENS_PI,),
        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE),
        horizons=(1,),
        context_len=12,
        eval_stride=6,
    )
    stated = {b.window_id: b.system.split("measured at ")[1].split(";")[0]
              for b in bundles_for_run(ds, cfg)}
    assert stated["v:0"] == "10:30 UTC (slot 63)"
    minutes = {f"v:{s}": 630 + 10 * s for s in range(0, 28, 6)}
    assert stated == {w: f"{m // 60}:{m % 60:02d} UTC (slot {m // 10})" for w, m in minutes.items()}
    ok(f"meta-patch states 10:30 UTC (slot 63) for a context starting at 10:30 ({len(stated)} windows)")


def test_golden_prompts_byte_identical():
    phrases = {
        "zeroshot": "Continue the following sequence without producing any additional text",
        "patch-instruct": "reverse the list so the most recent patch appears first",
        "neighs": "You will also be given 5 neighbor time-series",
    }
    for strategy in Strategy:
        expected = golden_path(strategy).read_bytes()
        actual = render_bundle(golden_bundle(strategy)).encode("utf-8")
        assert actual == expected, f"{strategy.value} bundle drifted from golden"
    for name, phrase in phrases.items():
        assert phrase in golden_path(Strategy(name)).read_text(encoding="utf-8")
    ok("all 9 strategy bundles byte-identical to reviewed golden files")


def _full_run(values, backend_kind):
    ds = make_dataset({"v": values}, name="synthetic")
    cfg = RunConfig(
        strategies=tuple(Strategy),
        backend=BackendConfig(kind=backend_kind),
        horizons=(1, 2, 3, 4, 5, 6, 12),
        context_len=96,
        eval_stride=1,
        max_windows=20,
        seed=0,
    )
    return run(ds, cfg)


def test_end_to_end_offline():
    start = time.perf_counter()
    constant = _full_run([5.0] * 300, BackendKind.MOCK_PERSISTENCE)
    elapsed = time.perf_counter() - start
    assert constant.ok
    assert len(constant.reports) == 9 * 7
    for rep in constant.reports:
        assert rep.n_parsed >= 1
        assert rep.mean_mse == 0.0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"

    linear = _full_run([0.5 * i for i in range(300)], BackendKind.MOCK_LINEAR)
    assert linear.ok
    for rep in linear.reports:
        assert rep.mean_mse < 1e-20
    ok(
        "MockPersistence constant-series mean_mse == 0 and MockLinear linear-series"
        f" mean_mse < 1e-20 for all 9 strategies x 7 horizons ({elapsed:.2f}s < 10s)"
    )


def test_token_cost_direction_per_window():
    rng = random.Random(5)
    ds = make_dataset({"v": [float(rng.randint(0, 99)) / 7 for _ in range(300)]})
    cfg = RunConfig(
        strategies=(Strategy.ZEROSHOT,),
        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE),
        horizons=(3,),
        eval_stride=1,
        max_windows=20,
    )
    gateway = Gateway(cfg.backend)
    checked = 0
    for start in draw_starts(ds, cfg):
        window = ("v", start)
        try:
            pin = fresh_bundle(cfg, ds, window, 3, Strategy.PATCH_INSTRUCT_NEIGHS)
        except EmptyPool:
            continue
        zs = fresh_bundle(cfg, ds, window, 3, Strategy.ZEROSHOT)
        pi = fresh_bundle(cfg, ds, window, 3, Strategy.PATCH_INSTRUCT)
        it = [gateway.complete(b).input_tokens for b in (zs, pi, pin)]
        assert it[0] < it[1] < it[2]
        checked += 1
    assert checked >= 10
    ok(f"estimated input tokens obey Zeroshot < PatchInstruct < PatchInstruct+Neighs on {checked} windows")


def test_record_replay_determinism_50_fixtures(tmp_path):
    rng = random.Random(21)
    ds = make_dataset({"v": [float(rng.randint(0, 50)) / 3 for _ in range(250)]})
    cfg = RunConfig(
        strategies=(Strategy.PATCH_INSTRUCT, Strategy.ZEROSHOT),
        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE),
        horizons=(1, 2, 3),
        eval_stride=5,
        max_windows=10,
    )
    bundles = bundles_for_run(ds, cfg)
    assert len(bundles) >= 50
    # live-shaped responses: patch echo plus prediction, reported tokens, latency
    records = []
    for i, b in enumerate(bundles):
        pred = "[" + ", ".join("0.8032" for _ in range(b.horizon)) + "]"
        text = f"Patches:\n[[1, 2, 3]]\nPrediction:\n{pred}"
        records.append(
            {
                "hash": bundle_hash(b),
                "text": text,
                "input_tokens": 7000 + i,
                "output_tokens": 40 * b.horizon,
                "latency_seconds": 1.0 + (i % 7) / 10,
            }
        )
    path = tmp_path / "fixtures.jsonl"
    save_fixtures(records, path)
    replay_cfg = RunConfig(
        strategies=cfg.strategies,
        backend=BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(path)),
        horizons=cfg.horizons,
        eval_stride=cfg.eval_stride,
        max_windows=cfg.max_windows,
    )
    first = reports_to_json(run(ds, replay_cfg).reports).encode("utf-8")
    second = reports_to_json(run(ds, replay_cfg).reports).encode("utf-8")
    assert first == second
    ok(f"record/replay of {len(records)} live-shaped fixtures reproduces byte-identical reports")
