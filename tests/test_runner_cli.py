import ast
import concurrent.futures
import json
import os
import pathlib
import random
import re
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import replace
from unittest import mock

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import tsf
import tsf.llmgateway as gw
import tsf.neighbors as neighbors_mod
import tsf.prompting as prompting_mod
import tsf.runner as runner_mod
from tsf.cli import main
from tsf.dataset import CsvSchema, load_csv, window_starts
from tsf.errors import EmptyPool, SeriesTooShort
from tsf.evaluation import (
    CSV_COLUMNS,
    compare_reports,
    render_comparison_csv,
    render_comparison_markdown,
    render_csv,
    render_markdown,
    reports_from_json,
)
from tsf.llmgateway import BackendConfig, BackendKind, Gateway, bundle_hash, save_fixtures
from tsf.prompting import Strategy
from tsf.runner import (
    RunConfig,
    bundles_for_run,
    draw_starts,
    run,
)

from conftest import brute_force_neighbors, fresh_bundle, make_dataset
from test_gateway import BodyResponse, FakeResponse, ok_payload

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


HTTP_STACK = ["requests", "urllib3", "http.client", "concurrent.futures"]
FOOTPRINT = """
import json, sys, numpy
first, then, stack = json.loads(sys.argv[1])
base = [m for m in stack if m in sys.modules]
import tsf.cli

def main(argv):
    try:
        return tsf.cli.main(argv)
    except SystemExit as e:  # --help
        return e.code

codes = [main(argv) for argv in first]
before = [m for m in stack if m in sys.modules]
code = main(then)
print(json.dumps([base, codes, before, code, [m for m in stack if m in sys.modules]]))
"""


def footprint(first, then, stack, env=None):
    """In a fresh interpreter: the modules of `stack` that `import numpy` alone
    loads; then, after importing tsf.cli, the exit codes of the `first`
    invocations, the modules of `stack` loaded after them, the exit code of
    `then`, and the modules of `stack` loaded after it."""
    src = os.path.dirname(os.path.dirname(tsf.__file__))
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps([first, then, stack])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return (*json.loads(done.stdout.splitlines()[-1]), done.stderr)


def test_only_an_http_run_loads_the_http_stack(tmp_path):
    """In a fresh interpreter, the CLI's import, a mock run, a replay run and
    compare load neither requests nor the thread pool's module; an http run at
    --parallel 4 then loads both, and each refused request fails its window."""
    csv = tmp_path / "data.csv"
    csv.write_text("timestamp,v\n" + "".join(f"{600 * i},{(i % 13) / 4}\n" for i in range(106)),
                   encoding="utf-8")
    ds = load_csv(csv, CsvSchema(timestamp_column="timestamp"))
    cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10)
    fx = tmp_path / "fx.jsonl"
    save_fixtures(fixture_records(bundles_for_run(ds, cfg)), fx)
    with socket.socket() as s:  # a loopback port nothing listens on once it is closed
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    flags = ["--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
             "--stride", "1", "--max-windows", "10"]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    offline = [["run", *flags, "--out", a],
               ["replay", *flags, "--fixtures", str(fx), "--out", b],
               ["compare", a, b]]
    http = ["run", *flags, "--backend", "http", "--endpoint", f"http://127.0.0.1:{port}",
            "--model", "m", "--parallel", "4", "--retries", "1",
            "--out", str(tmp_path / "h.json")]
    _, codes, before, code, after, stderr = footprint(offline, http, HTTP_STACK,
                                                      env={"TSF_API_KEY": "x"})
    assert (codes, before) == ([0, 0, 0], [])
    assert code == 1 and after == HTTP_STACK
    assert stderr == ("FAILED zeroshot h=1: all 10 windows failed"
                      f" ({csv}, zeroshot, h=1): 10 failed:TransportError\n")


HASH_STACK = ["hashlib", "_hashlib"]  # _hashlib maps OpenSSL's libcrypto


def test_only_a_hashed_prompt_loads_hashlib(tmp_path):
    """In a fresh interpreter, the CLI's import, a mock run, compare and --help
    load no more of hashlib and _hashlib than `import numpy` alone does; a replay
    run then loads both, at its first hashed prompt, and scores its windows.
    numpy 2.4 loads neither, importing numpy.random lazily; numpy 1.x imports
    numpy.random eagerly, whose `secrets` import loads both through `hmac`."""
    csv = tmp_path / "data.csv"
    csv.write_text("timestamp,v\n" + "".join(f"{600 * i},{(i % 13) / 4}\n" for i in range(106)),
                   encoding="utf-8")
    ds = load_csv(csv, CsvSchema(timestamp_column="timestamp"))
    cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10)
    fx = tmp_path / "fx.jsonl"
    save_fixtures(fixture_records(bundles_for_run(ds, cfg)), fx)
    flags = ["--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
             "--stride", "1", "--max-windows", "10"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    unhashed = [["run", *flags, "--out", str(a)], ["compare", str(a), str(a)], ["--help"]]
    replay = ["replay", *flags, "--fixtures", str(fx), "--out", str(b)]
    base, codes, before, code, after, _ = footprint(unhashed, replay, HASH_STACK)
    assert (codes, before) == ([0, 0, 0], base)
    assert code == 0 and after == HASH_STACK
    (rep,) = reports_from_json(b.read_text(encoding="utf-8"))
    assert (rep.n_windows, rep.n_parsed) == (10, 10)


# named only outside the package: bench/workloads.py builds the replay-cli
# benchmark's fixture file from the bundles it lists
NAMED_OUTSIDE_PACKAGE = ["runner.bundles_for_run"]


def test_every_definition_named_in_the_package():
    """No top-level function or class of tsf is reached by tests alone: each is
    named in the package's source somewhere besides its own definition."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(tsf.__file__).parent.glob("*.py"))}
    named = defaultdict(set)  # name -> ids of the Name and Attribute nodes that name it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                named[node.id if isinstance(node, ast.Name) else node.attr].add(id(node))
    unnamed = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not named[node.name] - {id(n) for n in ast.walk(node)}]
    assert unnamed == NAMED_OUTSIDE_PACKAGE


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

    def test_parallelism_matches_sequential(self, monkeypatch):
        """Four http workers answering as persistence score what the sequential
        mock-persistence run scores."""
        FakeLlm(monkeypatch, persist=True)
        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        seq = run(ds, small_config([Strategy.ZEROSHOT], horizons=(2,)))
        par = run(ds, small_config([Strategy.ZEROSHOT], horizons=(2,), backend=http_backend(4)))
        assert par.ok and len(par.reports) == len(seq.reports) == 1
        for a, b in zip(seq.reports, par.reports):
            assert a.mean_mse == b.mean_mse
            assert a.n_windows == b.n_windows

    def test_many_workers_aggregate_every_cell_once(self, monkeypatch):
        """More http workers than cores, switching threads often: a lost update of
        a cell's count would drop or cut short that cell's report."""
        FakeLlm(monkeypatch, persist=True)
        ds = make_dataset({"a": [float(i % 7) for i in range(140)],
                           "b": [float(i % 9) / 4 for i in range(140)]})
        strategies = [Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT, Strategy.REVERSE_ORDERED_PI]
        seq = run(ds, small_config(strategies, horizons=(1, 2, 3), max_windows=8,
                                   backend=http_backend(1)))
        par_cfg = small_config(strategies, horizons=(1, 2, 3), max_windows=8,
                               backend=http_backend(16))
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
        assert timeless(par.reports) == timeless(seq.reports)

    def test_one_executor_per_run(self, monkeypatch):
        created = []

        class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingExecutor)
        FakeLlm(monkeypatch, persist=True)
        ds = make_dataset({"v": [float(i % 7) for i in range(140)]})
        cfg = small_config([Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT], horizons=(1, 3),
                           backend=http_backend(3))
        outcome = run(ds, cfg)
        assert outcome.ok and len(outcome.reports) == 4
        assert len(created) == 1

    @pytest.mark.parametrize("kind", [BackendKind.MOCK_PERSISTENCE, BackendKind.MOCK_LINEAR,
                                      BackendKind.REPLAY])
    def test_offline_runs_dispatch_on_the_calling_thread(self, kind, tmp_path, monkeypatch):
        """An offline backend never waits on I/O: at parallelism 16 the run starts
        no thread, dispatches every window on the calling thread, and reports what
        a run at parallelism 1 does."""
        fx = tmp_path / "fx.jsonl"
        save_fixtures(fixture_records(bundles_for_run(NEIGHBOR_DS, all_strategies_config())), fx)
        cfgs = [replace(all_strategies_config(), backend=BackendConfig(
            kind=kind, parallelism=p, fixture_path=str(fx))) for p in (1, 16)]
        one = run(NEIGHBOR_DS, cfgs[0])
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: started.append(t) or real_start(t))
        callers = []
        real_complete = Gateway.complete
        monkeypatch.setattr(Gateway, "complete", lambda g, b: callers.append(
            threading.get_ident()) or real_complete(g, b))
        many = run(NEIGHBOR_DS, cfgs[1])
        assert started == []
        assert len(callers) > 100 and set(callers) == {threading.get_ident()}
        assert many.ok and len(many.reports) == 27 and many.reports == one.reports

    def test_same_windows_at_every_horizon(self, monkeypatch):
        """136 points, stride 8: h=1 has 5 windows and h=12 has 4; keep 3."""
        ds = make_dataset({"a": [float(i % 7) for i in range(136)],
                           "b": [float(i % 5) for i in range(136)]})
        cfg = small_config([Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT], horizons=(1, 6, 12),
                           eval_stride=8, max_windows=3)
        assert [len(window_starts(ds, 96, h, 8)) for h in (1, 12)] == [5, 4]
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
            f"all 2 windows failed (synthetic, neighs, h={h}): 2 failed:EmptyPool" for h in (1, 3)
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
        """The draw is a seeded subsample of window_starts, and the plan scores
        each drawn (series id, start) against the values that follow it."""
        length = context_len + horizon + extra
        ds = make_dataset({"a": range(length), "b": [-v for v in range(length)]})
        cfg = small_config(
            [Strategy.ZEROSHOT], horizons=(horizon,), context_len=context_len,
            eval_stride=stride, max_windows=max_windows, seed=seed,
        )
        starts = window_starts(ds, context_len, horizon, stride)
        if len(starts) > max_windows:
            keep = sorted(random.Random(seed).sample(range(len(starts)), max_windows))
            starts = [starts[i] for i in keep]
        assert list(draw_starts(ds, cfg)) == list(starts)
        assert [(j.window_id, j.horizon, j.truth) for j in runner_mod._plan(ds, cfg)] == [
            (f"{s.id}:{start}", horizon,
             tuple(s.values[start + context_len : start + context_len + horizon].tolist()))
            for s in ds.series for start in starts]

    def test_too_short_series(self):
        ds = make_dataset({"a": range(50)})
        with pytest.raises(SeriesTooShort):
            draw_starts(ds, small_config([Strategy.ZEROSHOT]))

    @settings(max_examples=100, deadline=None)
    @given(max_windows=st.integers(1, 30), seed=st.integers(0, 2**32),
           stride=st.integers(1, 40), n_series=st.integers(1, 6))
    def test_one_draw_serves_every_series(self, max_windows, seed, stride, n_series):
        """The subsample is drawn once per plan, and every series keeps the
        starts that a draw of its own, with the same seed, keeps."""
        ds = make_dataset({f"s{j}": [float(i * (j + 1) % 13) for i in range(300)]
                           for j in range(n_series)})
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1, 4), context_len=24,
                           eval_stride=stride, max_windows=max_windows, seed=seed)
        starts = range(0, 300 - 24 - 4 + 1, stride)
        if len(starts) > max_windows:
            starts = [starts[i] for i in sorted(random.Random(seed).sample(range(len(starts)),
                                                                           max_windows))]
        draws = []
        real = runner_mod._subsample
        with mock.patch.object(runner_mod, "_subsample",
                               lambda *a: draws.append(a) or real(*a)):
            jobs = runner_mod._plan(ds, cfg)
        assert len(draws) == 1
        assert [j.window_id for j in jobs] == [
            f"{s.id}:{start}" for _ in cfg.horizons for s in ds.series for start in starts]


NEIGHBOR_DS = make_dataset({
    "b": [float(i % 17) for i in range(260)],
    "a": [float((3 * i) % 11) / 2 for i in range(260)],
})


class TestNeighborSearch:
    def test_one_search_per_plan(self, monkeypatch):
        """run and bundles_for_run each search once, over every window of the
        plan, each window once."""
        calls = []
        real_search = neighbors_mod.search

        def counting_search(dataset, targets, context_len, k=5, znorm=False):
            calls.append(list(targets))
            return real_search(dataset, targets, context_len, k, znorm)

        monkeypatch.setattr(neighbors_mod, "search", counting_search)
        cfg = small_config(
            [Strategy.NEIGHS, Strategy.PATCH_INSTRUCT_NEIGHS], horizons=(1, 2, 3),
            eval_stride=8, max_windows=6,
        )
        windows = sorted((s.id, start) for s in NEIGHBOR_DS.series
                         for start in draw_starts(NEIGHBOR_DS, cfg))
        outcome = run(NEIGHBOR_DS, cfg)
        assert outcome.reports
        assert [sorted(c) for c in calls] == [windows]
        calls.clear()
        bundles = bundles_for_run(NEIGHBOR_DS, cfg)
        assert [sorted(c) for c in calls] == [windows]
        # a window has candidates once a whole context fits before it
        searched = [w for w in windows if w[1] >= cfg.context_len]
        assert len(bundles) == len(searched) * len(cfg.strategies) * len(cfg.horizons)
        assert len(windows) > len(searched) > 1

    def test_no_search_without_neighbor_strategies(self, monkeypatch):
        monkeypatch.setattr(neighbors_mod, "search", None)  # a call would raise
        assert bundles_for_run(NEIGHBOR_DS, small_config([Strategy.ZEROSHOT]))

    @pytest.mark.parametrize("znorm", [False, True])
    def test_shared_search_equals_fresh_search(self, znorm, monkeypatch):
        """Every bundle of bundles_for_run and run, built from shared searches and
        shared prompt text, equals a fresh search and assemble for its job alone."""
        cfg = all_strategies_config(znorm=znorm, parallelism=4)
        fresh = []
        for strategy in cfg.strategies:
            for h in cfg.horizons:
                for s in NEIGHBOR_DS.series:
                    for start in draw_starts(NEIGHBOR_DS, cfg):
                        try:
                            fresh.append(fresh_bundle(cfg, NEIGHBOR_DS, (s.id, start), h, strategy))
                        except EmptyPool:
                            pass
        assert len({b.strategy for b in fresh}) == 9
        assert bundles_for_run(NEIGHBOR_DS, cfg) == fresh
        sent = dispatched_bundles(monkeypatch)
        run(NEIGHBOR_DS, cfg)
        assert Counter(sent) == Counter(fresh)


def all_strategies_config(znorm=False, parallelism=1):
    return small_config(
        list(Strategy), horizons=(1, 6, 12), eval_stride=8, max_windows=6, k=3,
        znorm_neighbors=znorm,
        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE, parallelism=parallelism),
    )


def http_backend(parallelism=1) -> BackendConfig:
    return BackendConfig(kind=BackendKind.HTTP, endpoint_url="http://llm.example",
                         model_name="m", parallelism=parallelism)


def timeless(reports) -> list:
    """The reports with their measured latency left out: it differs run to run."""
    return [replace(r, mean_latency_s=0.0) for r in reports]


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
    """The plan renders each piece of prompt text once per call, on the calling
    thread, and every job that shares a piece carries it."""

    @staticmethod
    def expected_renders(ds, cfg) -> Counter:
        """Per series, one call of the renderer, which renders each window the plan
        shows (every context, and the windows of every neighbor) once and formats
        each of their cells once; one neighbor block per window with neighbors; one
        system prompt per (strategy, horizon, series), and per start clock for
        meta-patch."""
        windows = [(s.id, start) for s in ds.series for start in draw_starts(ds, cfg)]
        shown = set(windows)
        blocks = entries = 0
        for w in windows:
            try:
                found = brute_force_neighbors(ds, w, cfg.context_len, cfg.k, cfg.znorm_neighbors)
            except EmptyPool:
                continue
            blocks += 1
            entries += len(found)
            shown |= {(sid, start) for sid, start, _ in found}
        assert blocks > 1 and len(windows) > blocks
        assert len(shown) < len(windows) + entries  # some windows are shown twice
        cells = {(sid, start + i) for sid, start in shown for i in range(cfg.context_len)}
        assert len(cells) < len(shown) * cfg.context_len  # and some windows overlap
        systems = {(s, h, sid,
                    int(ds.timestamps[start]) % 86400 if s is Strategy.META_TOKENS_PI else None)
                   for s in cfg.strategies for h in cfg.horizons for sid, start in windows}
        assert len(systems) > len(cfg.strategies) * len(cfg.horizons) * len(ds.series)
        return Counter(sequences=len(ds.series), window=len(shown), format_value=len(cells),
                       neighbor_block=blocks, system_prompt=len(systems))

    @staticmethod
    def count_renders(monkeypatch) -> list:
        """Calls of the prompting functions that build text, and each window the
        renderer returns as "window"."""
        calls = []  # list.append and list.extend are atomic, so workers may share it
        for name in ("render_sequences", "neighbor_block", "format_value", "system_prompt"):
            real = getattr(prompting_mod, name)

            def counting(*args, real=real, name=name):
                calls.append(name.removeprefix("render_"))
                out = real(*args)
                if name == "render_sequences":
                    calls.extend(["window"] * len(out))
                return out

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
        """16 http workers switching threads often: each piece of text is still
        rendered once, and every bundle dispatched is one a serial call builds."""
        FakeLlm(monkeypatch, persist=True)
        cfg = replace(all_strategies_config(), backend=http_backend(16))
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
        assert not t.is_alive() and out and out[0].ok
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
        truths = [ds.series[0].values[start + cfg.context_len].item()
                  for start in draw_starts(ds, cfg)]
        failing = bundles_for_run(ds, cfg)[6].user

        def fake_post(url, json=None, headers=None, timeout=None):
            if json["messages"][1]["content"] == failing:
                return FakeResponse(500, text="server error")
            return FakeResponse(200, ok_payload("[0]", it=7, ot=1))

        monkeypatch.setattr(requests, "post", fake_post)
        outcome = run(ds, cfg)
        assert outcome.ok
        (rep,) = outcome.reports
        assert (rep.n_windows, rep.n_parsed) == (10, 9)
        kept = [t ** 2 for i, t in enumerate(truths) if i != 6]
        assert rep.mean_mse == pytest.approx(sum(kept) / 9, rel=1e-12)

    def test_malformed_answer_costs_one_window(self, monkeypatch):
        """Among good answers, a 200 answer with an HTML body and one of JSON
        without content each cost their own window, as failed:MalformedAnswer,
        after one request each."""
        monkeypatch.setenv(gw.API_KEY_ENV, "test-key")
        ds = varying_dataset()
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=10,
                           backend=http_backend(parallelism=3))
        users = [b.user for b in bundles_for_run(ds, cfg)]
        bad = {users[2]: "<html><body>502 Bad Gateway</body></html>",
               users[7]: '{"choices": [{"message": {"role": "assistant"}}]}'}
        calls = Counter()

        def fake_post(url, json=None, headers=None, timeout=None):
            user = json["messages"][1]["content"]
            calls[user] += 1
            if user in bad:
                return BodyResponse(200, bad[user])
            return FakeResponse(200, ok_payload("[0]", it=7, ot=1))

        monkeypatch.setattr(requests, "post", fake_post)
        outcome = run(ds, cfg)
        assert outcome.ok
        (rep,) = outcome.reports
        assert (rep.n_windows, rep.n_parsed) == (10, 8)
        assert sorted(calls) == sorted(users) and set(calls.values()) == {1}
        gateway, jobs = Gateway(cfg.backend), runner_mod._plan(ds, cfg)
        assert [runner_mod._window_result(gateway, cfg, jobs[i]).parse_status
                for i in (2, 7)] == ["failed:MalformedAnswer"] * 2

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": "12", "completion_tokens": 1}, "prompt_tokens, completion_tokens",
        {"prompt_tokens": -5, "completion_tokens": 1},
        {"prompt_tokens": True, "completion_tokens": 1},
        {"prompt_tokens": 1.5, "completion_tokens": 1},
    ], ids=["string count", "string usage", "negative", "bool", "float"])
    def test_malformed_token_counts_cost_one_window(self, tmp_path, monkeypatch, usage):
        """An answer whose usage is not an object of non-negative int counts costs
        its own window, as failed:MalformedAnswer, and is not recorded; the run
        goes on and its totals count the other windows only."""
        monkeypatch.setenv(gw.API_KEY_ENV, "test-key")
        ds = varying_dataset()
        fx = tmp_path / "fx.jsonl"
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=3,
                           backend=replace(http_backend(), fixture_path=str(fx)))
        bad = bundles_for_run(ds, cfg)[1].user

        def fake_post(url, json=None, headers=None, timeout=None):
            payload = ok_payload("[0]", it=7, ot=1)
            if json["messages"][1]["content"] == bad:
                payload["usage"] = usage
            return FakeResponse(200, payload)

        monkeypatch.setattr(requests, "post", fake_post)
        outcome = run(ds, cfg)
        assert outcome.ok
        (rep,) = outcome.reports
        assert (rep.n_windows, rep.n_parsed) == (3, 2)
        assert (rep.total_input_tokens, rep.total_output_tokens) == (14, 2)
        assert len(fx.read_text(encoding="utf-8").splitlines()) == 2
        gateway = Gateway(replace(cfg.backend, fixture_path=None))
        assert (runner_mod._window_result(gateway, cfg, runner_mod._plan(ds, cfg)[1]).parse_status
                == "failed:MalformedAnswer")

    @pytest.mark.parametrize("lenient", [False, True])
    def test_wrong_count_answer(self, tmp_path, lenient):
        """Answers of h + 2 and h - 1 values, h = 3, among answers of h: strict, each
        costs its window as failed:WrongCount, its tokens still counted; lenient,
        each is ok:repaired and scored on its first h values, or on its values
        padded with the last one."""
        ds = varying_dataset()
        cfg = small_config([Strategy.ZEROSHOT], horizons=(3,), eval_stride=1, max_windows=4,
                           lenient=lenient)
        bundles = bundles_for_run(ds, cfg)
        answers = [[1.0, 2.0, 3.0], [0.25, 0.5, 1.0, 8.0, 9.0], [2.5, 0.75], [0.0, 0.5, 1.5]]
        fx = tmp_path / "fx.jsonl"
        save_fixtures([{"hash": bundle_hash(b), "text": str(a), "input_tokens": 10 + i,
                        "output_tokens": len(a), "latency_seconds": 0.5 * (i + 1)}
                       for i, (b, a) in enumerate(zip(bundles, answers))], fx)
        cfg = replace(cfg, backend=BackendConfig(kind=BackendKind.REPLAY, fixture_path=str(fx)))
        outcome = run(ds, cfg)
        assert outcome.ok
        (rep,) = outcome.reports
        gateway = Gateway(cfg.backend)
        statuses = [runner_mod._window_result(gateway, cfg, job).parse_status
                    for job in runner_mod._plan(ds, cfg)]
        values = ds.series[0].values
        truths = [values[s + 96:s + 99].tolist() for s in draw_starts(ds, cfg)]
        if lenient:
            assert statuses == ["ok", "ok:repaired", "ok:repaired", "ok"]
            scored = [0, 1, 2, 3]
            preds = [answers[0], [0.25, 0.5, 1.0], [2.5, 0.75, 0.75], answers[3]]
        else:
            assert statuses == ["ok", "failed:WrongCount", "failed:WrongCount", "ok"]
            scored = [0, 3]
            preds = [answers[0], None, None, answers[3]]
        assert (rep.n_windows, rep.n_parsed) == (4, len(scored))
        assert (rep.total_input_tokens, rep.total_output_tokens) == (46, 13)
        mse = [sum((p - t) ** 2 for p, t in zip(preds[i], truths[i])) / 3 for i in scored]
        mae = [sum(abs(p - t) for p, t in zip(preds[i], truths[i])) / 3 for i in scored]
        assert rep.mean_mse == pytest.approx(sum(mse) / len(scored), rel=1e-12)
        assert rep.mean_mae == pytest.approx(sum(mae) / len(scored), rel=1e-12)
        assert rep.mean_latency_s == pytest.approx(sum(0.5 * (i + 1) for i in scored)
                                                   / len(scored))

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
                raise requests.Timeout("read timed out")
            return FakeResponse(200, ok_payload("[0]", it=7, ot=1))

        monkeypatch.setattr(requests, "post", fake_post)
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
    def test_compare_refuses_several_strategies_per_key(self, tmp_path, capsys):
        """Reports keyed by (dataset, horizon) with two strategies each would pair
        one arbitrary report per side; compare names the key and exits 2."""
        csv = write_dataset_csv(tmp_path, varying=True)
        for name, strategies in (("a", ("zeroshot", "patch-instruct")),
                                 ("b", ("basic-patch", "meta-patch"))):
            flags = [a for s in strategies for a in ("--strategy", s)]
            assert main(["run", "--dataset", str(csv), *flags, "--horizon", "1", "--stride", "1",
                         "--max-windows", "3", "--out", str(tmp_path / f"{name}.json")]) == 0
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        err = capsys.readouterr().err
        assert "baseline has 2 reports for (" in err and "h=1): zeroshot, patch-instruct" in err

    @pytest.mark.parametrize("flag", ["--context-len", "--horizon", "--stride", "--k",
                                      "--max-windows", "--patch-window", "--patch-stride",
                                      "--parallel", "--timeout", "--retries"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("source", ["argv", "ini"])
    def test_counts_must_be_positive(self, tmp_path, capsys, flag, value, source):
        """A count of zero or less, given as a flag or as its [run] key, exits 2 naming
        the flag."""
        csv = write_dataset_csv(tmp_path, n=400)
        out = tmp_path / "r.json"
        argv = ["run", "--dataset", str(csv), "--strategy", "neighs", "--out", str(out)]
        if source == "argv":
            argv += [f"{flag}={value}"]
        else:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[run]\n{flag[2:]} = {value}\n", encoding="utf-8")
            argv += ["--config", str(ini)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and not out.exists()
        assert f"argument {flag}: '{value}' is not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["argv", "ini"])
    def test_temperature_must_be_finite_and_non_negative(self, tmp_path, capsys, value, source):
        """A temperature that is not a finite number >= 0, as a flag or as its [run]
        key, exits 2 naming the flag and writes no report."""
        csv = write_dataset_csv(tmp_path)
        out = tmp_path / "r.json"
        argv = ["run", "--dataset", str(csv), "--strategy", "zeroshot", "--out", str(out)]
        if source == "argv":
            argv += [f"--temperature={value}"]
        else:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[run]\ntemperature = {value}\n", encoding="utf-8")
            argv += ["--config", str(ini)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and not out.exists()
        assert (f"argument --temperature: '{value}' is not a finite number >= 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["0", "0.7"])
    def test_temperature_is_sent(self, tmp_path, monkeypatch, value):
        """0 and 0.7 pass, and reach every request body."""
        llm = FakeLlm(monkeypatch)
        sent = []
        monkeypatch.setattr(requests, "post", lambda url, **kw:
                            sent.append(kw["json"]["temperature"]) or llm(url, **kw))
        rc = main(["record", "--dataset", str(live_csv(tmp_path)), *RECORD_FLAGS,
                   "--temperature", value, "--fixtures", str(tmp_path / "fx.jsonl"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0 and sent == [float(value)] * 10

    def test_repeated_value_column_exits_2(self, tmp_path, capsys):
        """A header that names a value column twice is an error naming it, with
        exit 2, not a dataset of the first such column read twice; --features
        that names a column twice is a dataset with a repeated series id. So is
        a header that names the timestamp column twice, not a clock read from
        the first stamp column, and --features that names the timestamp column,
        not the clock forecast as a series."""
        csv = tmp_path / "dup.csv"
        csv.write_text("timestamp,a,a\n" + "".join(f"{600 * i},{i % 7},{i % 5}\n"
                                                   for i in range(200)), encoding="utf-8")
        stamps = tmp_path / "stamps.csv"
        stamps.write_text("timestamp,a,timestamp\n" + "".join(f"{600 * i},{i % 7},{99999 - i}\n"
                                                           for i in range(200)), encoding="utf-8")
        once = tmp_path / "once.csv"
        once.write_text("timestamp,a\n" + "".join(f"{600 * i},{i % 7}\n" for i in range(200)),
                        encoding="utf-8")
        for path, extra, column in ((csv, [], "a"), (once, ["--features", "a,a"], "a"),
                                    (stamps, [], "timestamp"),
                                    (once, ["--features", "timestamp,a"], "timestamp")):
            out = tmp_path / "r.json"
            assert main(["run", "--dataset", str(path), *extra, "--strategy", "zeroshot",
                         "--horizon", "1", "--out", str(out)]) == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"'{column}'" in err

    def test_missing_files_exit_2(self, tmp_path, capsys):
        """A missing dataset, replay fixture file or compare report is an error
        naming the file, with exit 2."""
        csv = write_dataset_csv(tmp_path)
        missing = str(tmp_path / "missing")
        for argv in (["run", "--dataset", missing],
                     ["replay", "--dataset", str(csv), "--fixtures", missing],
                     ["compare", missing, missing]):
            out = tmp_path / "r.json"
            assert main([*argv, "--out", str(out)]) == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and missing in err

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_unwritable_out_exits_2_before_dispatch(self, tmp_path, capsys, monkeypatch,
                                                    command):
        """An --out whose directory does not exist fails before the run: no
        window is dispatched and nothing is written."""
        sent = dispatched_bundles(monkeypatch)
        csv = write_dataset_csv(tmp_path)
        fx = tmp_path / "fx.jsonl"
        fx.write_text("", encoding="utf-8")
        out = tmp_path / "nodir" / "r.json"
        rc = main([command, "--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
                   "--max-windows", "2", "--fixtures", str(fx), "--out", str(out)])
        assert rc == 2 and sent == [] and not out.parent.exists()
        assert "nodir" in capsys.readouterr().err

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

    @pytest.mark.parametrize("body", [
        "max-windows = six", "horizon = 1, x", "strategy = bogus", "backend = bogus",
        "lenient = maybe", "lenient = on",
    ])
    def test_config_values_parse_as_flags(self, tmp_path, capsys, body):
        """A [run] value gets its flag's type and choices checks: a bad one exits 2
        naming its key, and booleans read as configparser reads them."""
        key = body.split(" = ")[0]
        csv = write_dataset_csv(tmp_path, n=200)
        keys = {"dataset": str(csv), "strategy": "zeroshot", "horizon": "1", "max-windows": "2",
                key: body.split(" = ")[1]}
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()),
                       encoding="utf-8")
        out = tmp_path / "r.json"
        try:
            rc = main(["run", "--config", str(ini), "--out", str(out)])
        except SystemExit as e:
            rc = e.code
        if body == "lenient = on":
            assert rc == 0
            assert json.loads((tmp_path / "r.json.manifest.json").read_text())["config"]["lenient"]
        else:
            assert rc == 2 and not out.exists()
            assert key in capsys.readouterr().err

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

    def test_out_suffix_picks_the_format(self, tmp_path):
        """--out r.md writes the Markdown table, r.csv the CSV_COLUMNS rows, and any
        other suffix, r.txt among them, JSON: each of the same reports."""
        csv = write_dataset_csv(tmp_path, varying=True)
        argv = ["run", "--dataset", str(csv), "--strategy", "zeroshot", "--strategy",
                "patch-instruct", "--horizon", "1", "--horizon", "3", "--stride", "1",
                "--max-windows", "3"]
        for name in ("r.json", "r.md", "r.csv", "r.txt"):
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        reports = reports_from_json((tmp_path / "r.json").read_text())
        assert len(reports) == 4
        assert (tmp_path / "r.md").read_bytes() == render_markdown(reports).encode()
        assert (tmp_path / "r.csv").read_bytes() == render_csv(reports).encode()
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
        assert (tmp_path / "r.txt").read_bytes() == (tmp_path / "r.json").read_bytes()

    def test_failed_cell_exits_1_and_writes_the_others(self, tmp_path, capsys):
        """No window of 140 rows has a whole earlier window as a neighbor: the neighs
        cell fails with a FAILED line on stderr and exit 1, and the zeroshot
        report is still written."""
        csv = write_dataset_csv(tmp_path, n=140, varying=True)
        out = tmp_path / "r.json"
        rc = main(["run", "--dataset", str(csv), "--name", "d", "--strategy", "zeroshot",
                   "--strategy", "neighs", "--horizon", "1", "--stride", "1",
                   "--max-windows", "2", "--out", str(out)])
        assert rc == 1
        printed = capsys.readouterr()
        assert printed.err == "FAILED neighs h=1: all 2 windows failed (d, neighs, h=1): 2 failed:EmptyPool\n"
        assert printed.out == f"wrote 1 reports to {out}\n"
        (rep,) = reports_from_json(out.read_text())
        assert (rep.strategy, rep.horizon, rep.n_windows, rep.n_parsed) == ("zeroshot", 1, 2, 2)

    def test_compare_out_writes_the_file_and_prints_nothing(self, tmp_path, capsys):
        """compare --out c.csv writes the CSV comparison, and --out c.md the Markdown."""
        csv = write_dataset_csv(tmp_path, varying=True)
        sides = []
        for backend in ("mock-persistence", "mock-linear"):
            sides.append(str(tmp_path / f"{backend}.json"))
            assert main(["run", "--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
                         "--horizon", "3", "--stride", "1", "--max-windows", "3",
                         "--backend", backend, "--out", sides[-1]]) == 0
        rows = compare_reports(*(reports_from_json(pathlib.Path(p).read_text()) for p in sides))
        capsys.readouterr()
        for name, render in (("c.csv", render_comparison_csv),
                             ("c.md", render_comparison_markdown)):
            assert main(["compare", *sides, "--out", str(tmp_path / name)]) == 0
            assert capsys.readouterr().out == ""
            assert (tmp_path / name).read_bytes() == render(rows).encode()

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


def live_csv(tmp_path, n=1000):
    """One series whose ten stride-96 windows all differ (period 13)."""
    p = tmp_path / "live.csv"
    p.write_text("timestamp,v\n" + "".join(f"{600 * i},{(i % 13) / 4}\n" for i in range(n)),
                 encoding="utf-8")
    return p


class FakeLlm:
    """A fake requests.post answering every prompt with "[1.25]", or with
    `persist` as the persistence mock does (the last context value, repeated
    over the horizon), and reported usage; the call numbered `fail_at` (from 1)
    gets an HTTP 500."""

    def __init__(self, monkeypatch, fail_at=None, persist=False):
        self.calls = 0
        self.fail_at = fail_at
        self.persist = persist
        self._lock = threading.Lock()
        monkeypatch.setenv(gw.API_KEY_ENV, "test-key")
        monkeypatch.setattr(requests, "post", self)

    def __call__(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.calls += 1
            n = self.calls
        if n == self.fail_at:
            return FakeResponse(500, text="server error")
        text = "[1.25]"
        if self.persist:
            user = json["messages"][1]["content"]
            last = user[: user.rfind(">")].rsplit(", ", 1)[-1].lstrip("<")
            horizon = int(re.search(r"Predict the next (\d+) values", user)[1])
            text = "[" + ", ".join([last] * horizon) + "]"
        return FakeResponse(200, ok_payload(text, it=7, ot=1))


RECORD_FLAGS = ["--strategy", "zeroshot", "--horizon", "1", "--endpoint", "http://llm.example",
                "--model", "m", "--retries", "1", "--parallel", "4"]


def read_records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestRecord:
    """tsf record is a live run over http that appends each answer to --fixtures."""

    def record(self, tmp_path, out="live.json", csv=None):
        return main(["record", "--dataset", str(csv or live_csv(tmp_path)), *RECORD_FLAGS,
                     "--fixtures", str(tmp_path / "fx.jsonl"), "--out", str(tmp_path / out)])

    def test_http_error_costs_one_window(self, tmp_path, monkeypatch):
        llm = FakeLlm(monkeypatch, fail_at=7)
        assert self.record(tmp_path) == 0
        assert llm.calls == 10
        records = read_records(tmp_path / "fx.jsonl")
        assert len(records) == 9 and len({r["hash"] for r in records}) == 9
        (rep,) = reports_from_json((tmp_path / "live.json").read_text())
        assert (rep.n_windows, rep.n_parsed) == (10, 9)
        manifest = json.loads((tmp_path / "live.json.manifest.json").read_text())
        assert manifest["backend_id"] == "http:m"

    def test_replay_reproduces_the_live_run(self, tmp_path, monkeypatch):
        FakeLlm(monkeypatch, fail_at=7)
        assert self.record(tmp_path) == 0
        rc = main(["replay", "--dataset", str(tmp_path / "live.csv"), *RECORD_FLAGS,
                   "--fixtures", str(tmp_path / "fx.jsonl"), "--out", str(tmp_path / "replayed.json")])
        assert rc == 0
        (live,) = reports_from_json((tmp_path / "live.json").read_text())
        (replayed,) = reports_from_json((tmp_path / "replayed.json").read_text())
        assert (replayed.backend_id, replayed.config["backend"]) == ("replay", "replay")
        assert replace(replayed, backend_id=live.backend_id,
                       config={**replayed.config, "backend": live.config["backend"]}) == live

    def test_one_pool_of_parallel_workers(self, tmp_path, monkeypatch):
        """--parallel 4 puts four requests in flight at once: the first four wait
        for each other, so four distinct threads dispatched them."""
        llm = FakeLlm(monkeypatch)
        together = threading.Barrier(4, timeout=30)
        lock = threading.Lock()
        arrived = []

        def post(*args, **kwargs):
            with lock:
                arrived.append(threading.get_ident())
                first = len(arrived) <= 4
            if first:
                together.wait()
            return llm(*args, **kwargs)

        monkeypatch.setattr(requests, "post", post)
        assert self.record(tmp_path) == 0
        assert len(arrived) == 10 and len(set(arrived[:4])) == 4
        assert len(read_records(tmp_path / "fx.jsonl")) == 10

    def test_many_workers_append_whole_records(self, tmp_path, monkeypatch):
        """16 workers switching threads often share one fixture file: it holds one
        whole record per prompt the run dispatched."""
        FakeLlm(monkeypatch)
        fx = tmp_path / "fx.jsonl"
        http = BackendConfig(kind=BackendKind.HTTP, endpoint_url="http://llm.example",
                             model_name="m", parallelism=16, fixture_path=str(fx))
        ds = load_csv(live_csv(tmp_path), CsvSchema(timestamp_column="timestamp"))
        cfg = small_config([Strategy.ZEROSHOT, Strategy.PATCH_INSTRUCT, Strategy.BASIC_PI],
                           horizons=(1,), eval_stride=8, max_windows=40, backend=http)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=lambda: out.append(run(ds, cfg)))
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive() and out[0].ok
        hashes = Counter(r["hash"] for r in read_records(fx))
        assert hashes == Counter(bundle_hash(b) for b in bundles_for_run(ds, cfg))
        assert sum(hashes.values()) == 120

    def test_answers_on_disk_before_an_escape(self, tmp_path, monkeypatch):
        """An exception that escapes the run after five answers leaves their five records."""
        llm = FakeLlm(monkeypatch)

        def post(*args, **kwargs):
            if llm.calls == 5:
                raise RuntimeError("process stopped")
            return llm(*args, **kwargs)

        monkeypatch.setattr(requests, "post", post)
        fx = tmp_path / "fx.jsonl"
        http = BackendConfig(kind=BackendKind.HTTP, endpoint_url="http://llm.example",
                             model_name="m", fixture_path=str(fx))
        ds = load_csv(live_csv(tmp_path), CsvSchema(timestamp_column="timestamp"))
        with pytest.raises(RuntimeError):
            run(ds, small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=96,
                                 max_windows=10, backend=http))
        records = read_records(fx)
        assert len(records) == 5
        assert all(set(r) == {"hash", "text", "input_tokens", "output_tokens", "latency_seconds"}
                   for r in records)

    def test_failed_plan_leaves_fixtures_untouched(self, tmp_path, monkeypatch, capsys):
        llm = FakeLlm(monkeypatch)
        fx = tmp_path / "fx.jsonl"
        fx.write_text("kept\n", encoding="utf-8")
        assert self.record(tmp_path, csv=live_csv(tmp_path, n=50)) == 2
        assert "has 50 points; needs 97" in capsys.readouterr().err
        assert fx.read_text(encoding="utf-8") == "kept\n" and llm.calls == 0

    def test_fixtures_required(self, tmp_path, monkeypatch, capsys):
        FakeLlm(monkeypatch)
        rc = main(["record", "--dataset", str(live_csv(tmp_path)), *RECORD_FLAGS,
                   "--out", str(tmp_path / "live.json")])
        assert rc == 2
        assert "--fixtures is required for record" in capsys.readouterr().err
        assert not (tmp_path / "live.json").exists()


class TestInterrupt:
    """An error that escapes a job of a live run, a Ctrl-C on the calling thread
    among them, stops every worker before its next job."""

    PARALLELISM = 4

    def interrupt(self, tmp_path, monkeypatch, error, on_caller):
        """Record 200 zeroshot windows over a fake transport that answers after
        2 ms, at parallelism 4, and raise `error` in place of the calling
        thread's 4th request (on_caller) or of a helper's 2nd. Returns the
        requests each thread sent after the raise; the fixture file holds one
        whole record per answer."""
        caller = threading.get_ident()
        lock = threading.Lock()
        sent = []  # the thread of each request, in order
        raised = []  # len(sent) at the raise

        def fake_http_complete(bundle, cfg):
            me = threading.get_ident()
            with lock:
                sent.append(me)
                fire = (not raised and (me == caller) == on_caller
                        and sent.count(me) == (4 if on_caller else 2))
                if fire:
                    raised.append(len(sent))
            if fire:
                raise error
            time.sleep(0.002)
            return gw.LlmResponse("[1.25]", 7, 1, 0.002, gw.TokenSource.REPORTED)

        monkeypatch.setattr(gw, "_http_complete", fake_http_complete)
        fx = tmp_path / "fx.jsonl"
        http = replace(http_backend(parallelism=self.PARALLELISM), fixture_path=str(fx))
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=1, max_windows=200,
                           backend=http)
        with pytest.raises(type(error)) as exc:
            run(varying_dataset(n=296), cfg)
        assert exc.value is error
        lines = fx.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == len(sent) - 1 and all(line.endswith("\n") for line in lines)
        assert all(set(json.loads(line)) == {"hash", "text", "input_tokens", "output_tokens",
                                             "latency_seconds"} for line in lines)
        return Counter(sent[raised[0]:])

    def test_ctrl_c_stops_the_helpers(self, tmp_path, monkeypatch):
        """After a KeyboardInterrupt on the calling thread's 4th request, at most
        parallelism - 1 more requests are sent, one per helper at most, and run
        raises it."""
        after = self.interrupt(tmp_path, monkeypatch, KeyboardInterrupt(), on_caller=True)
        assert sum(after.values()) <= self.PARALLELISM - 1 and set(after.values()) <= {1}
        assert threading.get_ident() not in after

    def test_helper_error_stops_the_calling_thread(self, tmp_path, monkeypatch):
        """A non-TsfError on a helper stops the calling thread's loop as well: at most
        parallelism - 1 more requests, one per worker at most, and run raises it."""
        after = self.interrupt(tmp_path, monkeypatch, RuntimeError("bug"), on_caller=False)
        assert sum(after.values()) <= self.PARALLELISM - 1 and set(after.values()) <= {1}


def _cut_last_line(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # a record an interrupted `tsf record` cut short


def _drop_text(lines):
    rec = json.loads(lines[1])
    del rec["text"]
    lines[1] = json.dumps(rec)


def _set(line, key, value):
    def edit(lines):
        lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), key: value})
    return edit


class TestReplayChecksFixtures:
    """tsf replay checks its fixture file as it reads it: a line that is not a
    record exits 2 with an error naming the file and the line, before any window
    is dispatched, and no report is written."""

    @pytest.mark.parametrize("edit, line, fault", [
        (_cut_last_line, 3, "not JSON"),
        (_drop_text, 2, "'text' is not a string"),
        (_set(3, "input_tokens", "12"), 3, "'input_tokens' is not an integer >= 0"),
        (_set(1, "output_tokens", True), 1, "'output_tokens' is not an integer >= 0"),
        (_set(2, "latency_seconds", float("inf")), 2,
         "'latency_seconds' is not a finite number >= 0"),
    ], ids=["truncated-last-line", "no-text", "string-count", "bool-count", "inf-latency"])
    def test_bad_line_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, edit, line, fault):
        csv = write_dataset_csv(tmp_path, n=300, varying=True)
        ds = load_csv(csv, CsvSchema(timestamp_column="timestamp"))
        cfg = small_config([Strategy.ZEROSHOT], horizons=(1,), eval_stride=96, max_windows=100)
        lines = [json.dumps(r, sort_keys=True) for r in fixture_records(bundles_for_run(ds, cfg))]
        assert len(lines) == 3
        edit(lines)
        fx = tmp_path / "fx.jsonl"
        fx.write_text("\n".join(lines) + "\n", encoding="utf-8")
        dispatched = []
        monkeypatch.setattr(Gateway, "complete", lambda self, b: dispatched.append(b))
        out = tmp_path / "r.json"
        rc = main(["replay", "--dataset", str(csv), "--strategy", "zeroshot", "--horizon", "1",
                   "--fixtures", str(fx), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: fixture file {fx}, line {line}: {fault}\n"
        assert not dispatched and not out.exists()
