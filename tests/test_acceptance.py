"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time

import numpy as np
import pytest

from tsf.dataset import EvalWindow
from tsf.errors import EmptyPool
from tsf.evaluation import RunReport, improvement, mae, mse, reports_to_json
from tsf.llmgateway import (
    BackendConfig,
    BackendKind,
    Gateway,
    bundle_hash,
    save_fixtures,
)
from tsf.neighbors import build_pool, euclidean, top_k
from tsf.patching import (
    nonoverlapping_patches,
    overlapping_patches,
    reverse_patches,
    slot_index,
)
from tsf.prompting import Strategy
from tsf.runner import RunConfig, bundles_for_run, eval_windows, run

from conftest import make_dataset
from golden_util import golden_bundle, golden_path, render_bundle


def ok(msg):
    print(f"\nACCEPTANCE PASS: {msg}")


def test_patch_invariants_1000_random_contexts():
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(3, 200)
        ctx = [rng.uniform(-50, 50) for _ in range(n)]
        ps = overlapping_patches(ctx, w=3, s=1)
        assert len(ps.patches) == n - 2
        rev = reverse_patches(ps)
        assert tuple(reversed(rev.patches)) == ps.patches

        h = rng.randint(1, min(12, n))
        nop = nonoverlapping_patches(ctx, h)
        covered = [v for p in nop.patches for v in p.values]
        assert covered == ctx[n % h :]  # disjoint, suffix-aligned
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok(f"patch invariants on 1000 random contexts ({elapsed:.2f}s < 1s)")


def test_appendix_example_reproduction():
    ctx = [8.35, 8.36, 8.32, 8.45, 8.35, 8.25, 8.20, 8.09, 8.13, 8.00, 7.94, 7.86]
    ps = nonoverlapping_patches(ctx, 3)
    assert [list(p.values) for p in ps.patches] == [
        [8.35, 8.36, 8.32],
        [8.45, 8.35, 8.25],
        [8.20, 8.09, 8.13],
        [8.00, 7.94, 7.86],
    ]
    assert slot_index(10, 30) == 63
    ok("12-value non-overlapping example and 10:30 -> slot 63 reproduced exactly")


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
        target = EvalWindow(
            series_id=series.id,
            context=series.values[cstart : cstart + L],
            context_start=cstart,
            horizon=1,
            truth=series.values[cstart + L : cstart + L + 1],
            context_timestamps=series.timestamps[cstart : cstart + L],
        )
        pool = build_pool(ds, target)
        assert len(pool) <= 5000
        got = top_k(target, pool, k=5)
        expected = sorted(
            ((c, euclidean(c.values, target.context)) for c in pool),
            key=lambda e: (e[1], e[0].series_id, e[0].start_index),
        )[:5]
        assert [(c.series_id, c.start_index, d) for c, d in got.entries] == [
            (c.series_id, c.start_index, d) for c, d in expected
        ]
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
    from tsf.runner import _bundle_for

    checked = 0
    for series, window in eval_windows(ds, cfg, 3):
        try:
            pin = _bundle_for(cfg, ds, series, window, Strategy.PATCH_INSTRUCT_NEIGHS)
        except EmptyPool:
            continue
        zs = _bundle_for(cfg, ds, series, window, Strategy.ZEROSHOT)
        pi = _bundle_for(cfg, ds, series, window, Strategy.PATCH_INSTRUCT)
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
