import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsf
import tsf.llmgateway as gw
import tsf.prompting as prompting_mod
import tsf.runner as runner_mod
from tsf.cli import main
from tsf.dataset import CsvSchema, load_csv, slice_windows
from tsf.errors import EmptyPool, SeriesTooShort
from tsf.evaluation import compare_reports, render_comparison_markdown, reports_from_json
from tsf.llmgateway import BackendConfig, BackendKind, Gateway, bundle_hash, save_fixtures
from tsf.neighbors import build_pool, top_k
from tsf.prompting import Strategy
from tsf.runner import (
    RunConfig,
    bundles_for_run,
    eval_windows,
    run,
)

from conftest import fresh_bundle, make_dataset
from test_gateway import FakeResponse, ok_payload

MOCK_P = BackendConfig(kind=BackendKind.MOCK_PERSISTENCE)


def write_dataset_csv(tmp_path, n=130, columns=("v",), value=5.0, varying=False):
    lines = ["timestamp," + ",".join(columns)]
    for i in range(n):
        v = (i % 7) / 2 if varying else value
        lines.append(f"{600 * i}," + ",".join(str(v) for _ in columns))
    p = tmp_path / "data.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def small_config(strategies, horizons=(1, 3), backend=MOCK_P, **kw):
    defaults = dict(
        strategies=tuple(strategies),
        backend=backend,
        horizons=tuple(horizons),
        context_len=96,
        eval_stride=1,
        max_windows=5,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_every_module_reachable_from_cli():
    """No tsf module is reached by tests alone: importing the CLI, in a fresh
    interpreter, loads every module of the package."""
    code = ("import pkgutil, sys, tsf, tsf.cli; print(sorted(m.name for m in "
            "pkgutil.iter_modules(tsf.__path__) if 'tsf.' + m.name not in sys.modules))")
    src = os.path.dirname(os.path.dirname(tsf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestRunner:
    def test_persistence_on_constant_is_exact(self):
        ds = make_dataset({"v": [5.0] * 130})
        cfg = small_config([Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT])
        outcome = run(ds, cfg)
        assert outcome.ok
        assert len(outcome.reports) == 4
        for rep in outcome.reports:
            assert rep.mean_mse == 0.0
            assert rep.mean_mae == 0.0

    def test_neighbor_strategy_runs(self):
        ds = make_dataset({"v": [5.0] * 250})
        cfg = small_config([Strategy.NEIGHS], horizons=(2,))
        outcome = run(ds, cfg)
        assert outcome.ok
        rep = outcome.reports[0]
        assert rep.n_parsed >= 1
        assert rep.mean_mse == 0.0

    def test_replay_matches_recorded_run(self, tmp_path):
        ds = make_dataset({"v": [float(i % 9) for i in range(140)]})
        cfg = small_config([Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT], horizons=(1, 2))
        bundles = bundles_for_run(ds, cfg)
        mock = run(ds, cfg)
        # synthesize live-shaped fixtures from the mock backend's responses
        from tsf.llmgateway import Gateway

        g = Gateway(MOCK_P)
        records = []
        for b in bundles:
            resp = g.complete(b)
            records.append(
                {
                    "hash": bundle_hash(b),
                    "text": resp.text,
                    "input_tokens": resp.input_tokens,
                    "output_tokens": resp.output_tokens,
                    "latency_seconds": 0.33,
                }
            )
        path = tmp_path / "fx.jsonl"
        save_fixtures(records, path)
        replay_cfg = small_config(
            [Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT],
            horizons=(1, 2),
            backend=BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(path)),
        )
        r1 = run(ds, replay_cfg)
        r2 = run(ds, replay_cfg)
        assert r1.reports == r2.reports
        assert [r.mean_mse for r in r1.reports] == [r.mean_mse for r in mock.reports]

    def test_parallelism_matches_sequential(self):
        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        seq = run(ds, small_config([Strategy.ZEROSHOT], horizons=(2,)))
        par = run(
            ds,
            small_config(
                [Strategy.ZEROSHOT],
                horizons=(2,),
                backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE, parallelism=4),
            ),
        )
        for a, b in zip(seq.reports, par.reports):
            assert a.mean_mse == b.mean_mse
            assert a.n_windows == b.n_windows

    def test_many_workers_aggregate_every_cell_once(self):
        """More workers than cores, switching threads often: a lost update of a
        cell's count would drop or cut short that cell's report."""
        ds = make_dataset({"a": [float(i % 7) for i in range(140)],
                           "b": [float(i % 9) / 4 for i in range(140)]})
        strategies = [Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT, Strategy.REVERSE_ORDERED_PI]
        seq = run(ds, small_config(strategies, horizons=(1, 2, 3), max_windows=8))
        par_cfg = small_config(strategies, horizons=(1, 2, 3), max_windows=8,
                               backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE,
                                                     parallelism=16))
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=lambda: out.append(run(ds, par_cfg)))
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive()
        (par,) = out
        assert par.ok and [r.n_windows for r in par.reports] == [16] * 9
        assert par.reports == seq.reports

    def test_one_executor_per_run(self, monkeypatch):
        created = []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "ThreadPoolExecutor", CountingExecutor)
        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        cfg = small_config(
            [Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT], horizons=(1, 3),
            backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE, parallelism=3),
        )
        outcome = run(ds, cfg)
        assert outcome.ok and len(outcome.reports) == 4
        assert len(created) == 1

    def test_same_windows_at_every_horizon(self, monkeypatch):
        """136 points, stride 8: h=1 has 5 windows and h=12 has 4; keep 3."""
        ds = make_dataset({"a": [float(i % 7) for i in range(136)],
                           "b": [float(i % 5) for i in range(136)]})
        cfg = small_config([Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT], horizons=(1, 6, 12),
                           eval_stride=8, max_windows=3)
        assert [len(slice_windows(ds.series[0], 96, h, 8)) for h in (1, 12)] == [5, 4]
        scored = {}
        real_aggregate = runner_mod.evaluation.aggregate

        def recording_aggregate(results, **kw):
            scored[(kw["strategy"], kw["horizon"])] = sorted(r.window_id for r in results)
            return real_aggregate(results, **kw)

        monkeypatch.setattr(runner_mod.evaluation, "aggregate", recording_aggregate)
        outcome = run(ds, cfg)
        assert outcome.ok and len(scored) == 6
        ids = scored[("zeroshot", 12)]
        assert len(ids) == 6
        assert all(v == ids for v in scored.values())
        by_horizon = {}
        for b in bundles_for_run(ds, cfg):
            by_horizon.setdefault(b.horizon, set()).add(b.window_id)
        assert by_horizon == {h: set(ids) for h in cfg.horizons}

    def test_cell_failures(self):
        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        cells = [("zeroshot", 1), ("zeroshot", 3), ("neighs", 1), ("neighs", 3)]
        outcome = run(ds, small_config([Strategy.ZEROSHOT, Strategy.NEIGHS], max_windows=0))
        assert outcome.reports == []
        assert [(f.strategy, f.horizon, f.error) for f in outcome.failures] == [
            (s, h, "no evaluation windows") for s, h in cells
        ]
        # no window starts late enough to have a whole earlier window as a neighbor
        outcome = run(ds, small_config([Strategy.NEIGHS], max_windows=2))
        assert outcome.reports == []
        assert [f.error for f in outcome.failures] == [
            f"all 2 windows failed to parse (synthetic, neighs, h={h})" for h in (1, 3)
        ]

    def test_subsample_deterministic(self):
        ds = make_dataset({"v": [float(i % 11) for i in range(400)]})
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), max_windows=10)
        assert run(ds, cfg).reports == run(ds, cfg).reports


class TestEvalWindows:
    @settings(max_examples=200, deadline=None)
    @given(
        context_len=st.integers(1, 40),
        horizon=st.integers(1, 12),
        extra=st.integers(0, 300),
        stride=st.integers(1, 60),
        max_windows=st.integers(1, 12),
        seed=st.integers(0, 2**32),
    )
    def test_selection_equals_slice_then_subsample(
        self, context_len, horizon, extra, stride, max_windows, seed
    ):
        length = context_len + horizon + extra
        ds = make_dataset({"a": range(length), "b": [-v for v in range(length)]})
        cfg = small_config(
            [Strategy.ZEROSHOT], horizons=(horizon,), context_len=context_len,
            eval_stride=stride, max_windows=max_windows, seed=seed,
        )
        expected = []
        for series in ds.series:
            windows = slice_windows(series, context_len, horizon, stride)
            if len(windows) > max_windows:
                keep = sorted(random.Random(seed).sample(range(len(windows)), max_windows))
                windows = [windows[i] for i in keep]
            expected += [(series, w) for w in windows]
        assert eval_windows(ds, cfg, horizon) == expected

    def test_too_short_series(self):
        ds = make_dataset({"a": range(50)})
        with pytest.raises(SeriesTooShort):
            eval_windows(ds, small_config([Strategy.ZEROSHOT]), 1)


NEIGHBOR_DS = make_dataset({
    "b": [float(i % 17) for i in range(260)],
    "a": [float((3 * i) % 11) / 2 for i in range(260)],
})


class TestNeighborSearch:
    def test_top_k_once_per_window(self, monkeypatch):
        calls = []
        real_top_k = runner_mod.top_k

        def counting_top_k(target, pool, k=5, znorm=False):
            calls.append((target.series_id, target.context_start))
            return real_top_k(target, pool, k, znorm=znorm)

        monkeypatch.setattr(runner_mod, "top_k", counting_top_k)
        cfg = small_config(
            [Strategy.NEIGHS, Strategy.PATCH_INSTRUCT_NEIGHS], horizons=(1, 2, 3),
            eval_stride=8, max_windows=6,
        )
        # a window has candidates once a whole context fits before it
        searched = {
            (w.series_id, w.context_start)
            for h in cfg.horizons
            for _, w in eval_windows(NEIGHBOR_DS, cfg, h)
            if w.context_start >= cfg.context_len
        }
        outcome = run(NEIGHBOR_DS, cfg)
        assert outcome.reports
        assert sorted(calls) == sorted(searched)
        calls.clear()
        bundles = bundles_for_run(NEIGHBOR_DS, cfg)
        assert sorted(calls) == sorted(searched)
        assert len(bundles) > len(searched) > 1

    @pytest.mark.parametrize("znorm", [False, True])
    def test_shared_search_equals_fresh_search(self, znorm, monkeypatch):
        """Every bundle of bundles_for_run and run, built from shared searches and
        shared prompt text, equals a fresh search and assemble for its job alone."""
        cfg = all_strategies_config(znorm=znorm, parallelism=4)
        fresh = []
        for strategy in cfg.strategies:
            for h in cfg.horizons:
                for series, w in eval_windows(NEIGHBOR_DS, cfg, h):
                    try:
                        fresh.append(fresh_bundle(cfg, NEIGHBOR_DS, series, w, strategy))
                    except EmptyPool:
                        pass
        assert len({b.strategy for b in fresh}) == 9
        assert bundles_for_run(NEIGHBOR_DS, cfg) == fresh
        sent = dispatched_bundles(monkeypatch)
        run(NEIGHBOR_DS, cfg)
        assert Counter(sent) == Counter(fresh)


def all_strategies_config(znorm=False, parallelism=1):
    return small_config(
        list(Strategy), horizons=(1, 6, 12), eval_stride=8, max_windows=6, candidate_stride=2,
        k=3, znorm_neighbors=znorm,
        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE, parallelism=parallelism),
    )


def dispatched_bundles(monkeypatch) -> list:
    """The bundles that reach Gateway.complete, from any thread."""
    sent = []
    real_complete = Gateway.complete

    def recording_complete(self, bundle):
        sent.append(bundle)
        return real_complete(self, bundle)

    monkeypatch.setattr(Gateway, "complete", recording_complete)
    return sent


class TestSharedPromptText:
    @staticmethod
    def expected_renders(ds, cfg) -> Counter:
        """One context sequence per window and one neighbor block per window with
        neighbors, whose entries render one sequence each."""
        windows = {(w.series_id, w.context_start): w
                   for h in cfg.horizons for _, w in eval_windows(ds, cfg, h)}
        blocks = entries = 0
        for w in windows.values():
            try:
                pool = build_pool(ds, w, cfg.candidate_stride)
            except EmptyPool:
                continue
            blocks += 1
            entries += len(top_k(w, pool, cfg.k, znorm=cfg.znorm_neighbors).entries)
        assert blocks > 1 and len(windows) > blocks
        return Counter(sequence=len(windows) + entries, neighbor_block=blocks)

    @staticmethod
    def count_renders(monkeypatch) -> list:
        calls = []  # list.append is atomic, so workers may share it
        for name in ("render_sequence", "render_neighbor_block"):
            real = getattr(prompting_mod, name)

            def counting(arg, real=real, name=name):
                calls.append(name.removeprefix("render_"))
                return real(arg)

            monkeypatch.setattr(prompting_mod, name, counting)
        return calls

    def test_renders_once_per_window_per_call(self, monkeypatch):
        cfg = all_strategies_config()
        expected = self.expected_renders(NEIGHBOR_DS, cfg)
        calls = self.count_renders(monkeypatch)
        for call in (run, bundles_for_run):
            for _ in range(2):  # a second call renders again
                calls.clear()
                call(NEIGHBOR_DS, cfg)
                assert Counter(calls) == expected

    def test_many_workers_render_once(self, monkeypatch):
        """16 workers switching threads often: each window is still rendered
        once, and every bundle is the one a serial call builds."""
        cfg = all_strategies_config(parallelism=16)
        expected = self.expected_renders(NEIGHBOR_DS, cfg)
        serial = bundles_for_run(NEIGHBOR_DS, cfg)
        calls = self.count_renders(monkeypatch)
        sent = dispatched_bundles(monkeypatch)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=lambda: out.append(run(NEIGHBOR_DS, cfg)))
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive() and out
        assert Counter(calls) == expected
        assert Counter(sent) == Counter(serial)


def varying_dataset(n=106):
    """One series whose stride-1 windows all differ (period 13 > 10 windows)."""
    return make_dataset({"v": [float(i % 13) / 4 for i in range(n)]})


def fixture_records(bundles):
    g = Gateway(MOCK_P)
    return [
        {
            "hash": bundle_hash(b),
            "text": g.complete(b).text,
            "input_tokens": 5,
            "output_tokens": 1,
            "latency_seconds": 0.5,
        }
        for b in bundles
    ]


class TestDispatchFailures:
    """A dispatch error costs its own window only."""

    def test_replay_miss_costs_one_window(self, tmp_path):
        ds = varying_dataset()
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10)
        bundles = bundles_for_run(ds, cfg)
        assert len(bundles) == 10 and len({bundle_hash(b) for b in bundles}) == 10
        fx = tmp_path / "fx.jsonl"
        save_fixtures(fixture_records(bundles[:3] + bundles[4:]), fx)
        replay = BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(fx))
        outcome = run(ds, small_config(
            [Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10, backend=replay))
        assert outcome.ok
        (rep,) = outcome.reports
        assert (rep.n_windows, rep.n_parsed) == (10, 9)
        assert rep.parse_failure_rate == pytest.approx(0.1)
        assert rep.total_input_tokens == 9 * 5

    def test_http_error_costs_one_window(self, monkeypatch):
        monkeypatch.setenv(gw.API_KEY_ENV, "test-key")
        ds = varying_dataset()
        http = BackendConfig(kind=BackendKind.HTTP, endpoint_url="http://llm.example",
                             model_name="m", max_retries=1, parallelism=3)
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10,
                           backend=http)
        pairs = eval_windows(ds, cfg, 1)
        failing = bundles_for_run(ds, cfg)[6].user

        def fake_post(url, json=None, headers=None, timeout=None):
            if json["messages"][1]["content"] == failing:
                return FakeResponse(500, text="server error")
            return FakeResponse(200, ok_payload("[0]", it=7, ot=1))

        monkeypatch.setattr(gw.requests, "post", fake_post)
        outcome = run(ds, cfg)
        assert outcome.ok
        (rep,) = outcome.reports
        assert (rep.n_windows, rep.n_parsed) == (10, 9)
        kept = [w.truth[0] ** 2 for i, (_, w) in enumerate(pairs) if i != 6]
        assert rep.mean_mse == pytest.approx(sum(kept) / 9, rel=1e-12)

    def test_replay_cli_reports_the_other_windows(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text(
            "timestamp,v\n" + "".join(f"{600 * i},{(i % 13) / 4}\n" for i in range(106)),
            encoding="utf-8",
        )
        ds = load_csv(csv, CsvSchema(timestamp_column="timestamp"))
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10)
        bundles = bundles_for_run(ds, cfg)
        fx = tmp_path / "fx.jsonl"
        save_fixtures(fixture_records(bundles[1:]), fx)
        out = tmp_path / "r.json"
        rc = main([
            "replay", "--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
            "--stride", "1", "--max-windows", "10", "--fixtures", str(fx), "--out", str(out),
        ])
        assert rc == 0
        (rep,) = reports_from_json(out.read_text())
        assert (rep.n_windows, rep.n_parsed) == (10, 9)


class TestHttpTimeout:
    def test_timeout_costs_one_window(self, monkeypatch):
        """A timeout is retried with backoff and ends as that window's TransportError."""
        monkeypatch.setenv(gw.API_KEY_ENV, "test-key")
        ds = varying_dataset()
        http = BackendConfig(kind=BackendKind.HTTP, endpoint_url="http://llm.example",
                             model_name="m", max_retries=3, parallelism=3)
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10,
                           backend=http)
        failing = bundles_for_run(ds, cfg)[4].user
        sleeps = []

        def fake_post(url, json=None, headers=None, timeout=None):
            if json["messages"][1]["content"] == failing:
                raise gw.requests.Timeout("read timed out")
            return FakeResponse(200, ok_payload("[0]", it=7, ot=1))

        monkeypatch.setattr(gw.requests, "post", fake_post)
        monkeypatch.setattr(gw, "_sleep", sleeps.append)
        outcome = run(ds, cfg)
        assert outcome.ok
        (rep,) = outcome.reports
        assert (rep.n_windows, rep.n_parsed) == (10, 9)
        assert rep.total_input_tokens == 9 * 7
        assert len(sleeps) == http.max_retries - 1


class TestCompare:
    def test_self_comparison_zero(self):
        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        outcome = run(ds, small_config([Strategy.ZEROSHOT], horizons=(1, 3)))
        rows = compare_reports(outcome.reports, outcome.reports)
        assert all(imp == 0.0 for _, _, imp in rows)
        md = render_comparison_markdown(rows)
        assert "| Dataset | Horizon |" in md

    def test_no_overlap(self):
        from tsf.errors import NoOverlap

        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        a = run(ds, small_config([Strategy.ZEROSHOT], horizons=(1,))).reports
        b = run(ds, small_config([Strategy.ZEROSHOT], horizons=(3,))).reports
        with pytest.raises(NoOverlap):
            compare_reports(a, b)


class TestCli:
    def test_run_mock(self, tmp_path, capsys):
        csv = write_dataset_csv(tmp_path)
        out = tmp_path / "r.json"
        rc = main(
            [
                "run",
                "--dataset", str(csv),
                "--strategy", "reverse-patch",
                "--horizon", "3",
                "--backend", "mock-persistence",
                "--stride", "1",
                "--max-windows", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        reports = reports_from_json(out.read_text())
        assert len(reports) == 1
        assert reports[0].strategy == "reverse-patch"
        assert reports[0].mean_mse == 0.0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["backend_id"] == "mock-persistence"

    def test_http_without_api_key_fails_early(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TSF_API_KEY", raising=False)
        csv = write_dataset_csv(tmp_path)
        rc = main(
            [
                "run",
                "--dataset", str(csv),
                "--backend", "http",
                "--endpoint", "http://x",
                "--model", "m",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "TSF_API_KEY" in capsys.readouterr().err

    def test_compare_self(self, tmp_path, capsys):
        csv = write_dataset_csv(tmp_path, varying=True)
        out = tmp_path / "r.json"
        main(
            [
                "run", "--dataset", str(csv), "--strategy", "zeroshot",
                "--horizon", "1", "--stride", "1", "--max-windows", "3",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        rc = main(["compare", str(out), str(out)])
        assert rc == 0
        assert "0.00" in capsys.readouterr().out

    def test_config_file(self, tmp_path):
        csv = write_dataset_csv(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\n"
            f"dataset = {csv}\n"
            "strategy = zeroshot\n"
            "horizon = 2\n"
            "stride = 1\n"
            "max-windows = 4\n"
            "[descriptions]\n"
            "v = the total regional humidity\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        reports = reports_from_json(out.read_text())
        assert {r.strategy for r in reports} == {"zeroshot"}
        assert {r.horizon for r in reports} == {2}

    def test_flag_overrides_config_without_sys_argv(self, tmp_path, monkeypatch):
        """Explicit flags are read from the argv given to main, not sys.argv."""
        monkeypatch.setattr("sys.argv", ["tsf"])
        csv = write_dataset_csv(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[run]\ndataset = {csv}\nstrategy = zeroshot\nhorizon = 3\nstride = 1\n"
            "max-windows = 2\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        rc = main(["run", "--config", str(ini), "--horizon", "6", "--out", str(out)])
        assert rc == 0
        assert {r.horizon for r in reports_from_json(out.read_text())} == {6}

    @pytest.mark.parametrize("flag", [["--hor", "6"], ["--max-w", "3"]], ids=lambda f: f[0])
    def test_abbreviated_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        """A prefix of a flag would lose to the INI value it names; it exits 2."""
        csv = write_dataset_csv(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\ndataset = {csv}\nhorizon = 1\nmax-windows = 2\n", encoding="utf-8")
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(ini), *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        csv = write_dataset_csv(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\ndataset = {csv}\nout = {tmp_path / 'r.json'}\nhorizons = 6\n",
                       encoding="utf-8")
        rc = main(["run", "--config", str(ini)])
        assert rc == 2
        assert "unknown key 'horizons' in [run]" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_csv_output(self, tmp_path):
        csv = write_dataset_csv(tmp_path)
        out = tmp_path / "r.csv"
        rc = main(
            [
                "run", "--dataset", str(csv), "--strategy", "zeroshot",
                "--horizon", "1", "--stride", "1", "--max-windows", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().startswith("dataset,strategy,horizon")

    def test_replay_command_round_trip(self, tmp_path, capsys):
        csv = write_dataset_csv(tmp_path, value=3.25)
        ds = load_csv(csv, CsvSchema(timestamp_column="timestamp"))
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=3)
        bundles = bundles_for_run(ds, cfg)
        from tsf.llmgateway import Gateway

        g = Gateway(MOCK_P)
        records = [
            {
                "hash": bundle_hash(b),
                "text": g.complete(b).text,
                "input_tokens": 5,
                "output_tokens": 1,
                "latency_seconds": 0.5,
            }
            for b in bundles
        ]
        fx = tmp_path / "fx.jsonl"
        save_fixtures(records, fx)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                [
                    "replay",
                    "--dataset", str(csv),
                    "--strategy", "zeroshot",
                    "--horizon", "1",
                    "--stride", "1",
                    "--max-windows", "3",
                    "--fixtures", str(fx),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_short_row_exits_2_naming_row_and_column(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("timestamp,a,b\n0,1,2\n600,1.5\n", encoding="utf-8")
        rc = main(["run", "--dataset", str(csv), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "non-numeric value '' at row 3, column 'b'" in capsys.readouterr().err

    def test_record_rejects_out(self, tmp_path, monkeypatch, capsys):
        """Fixtures go to --fixtures; record writes no report, so --out is an error."""
        import tsf.cli as cli_mod

        recorded = []
        monkeypatch.setattr(cli_mod, "record_fixtures",
                            lambda bundles, backend, out: recorded.append(out))
        monkeypatch.setenv("TSF_API_KEY", "k")
        csv = write_dataset_csv(tmp_path)
        argv = ["record", "--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
                "--max-windows", "1", "--backend", "http", "--endpoint", "http://x",
                "--model", "m", "--fixtures", str(tmp_path / "fx.jsonl")]
        rc = main(argv + ["--out", str(tmp_path / "live.json")])
        assert rc == 2
        assert "--fixtures" in capsys.readouterr().err
        assert recorded == [] and not (tmp_path / "live.json").exists()
        assert main(argv) == 0
        assert recorded == [str(tmp_path / "fx.jsonl")]
