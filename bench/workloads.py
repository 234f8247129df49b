"""The three offline workloads. Each drives the program only through its
public functions (``tsf.runner.run``, ``tsf.runner.bundles_for_run``,
``tsf.dataset.load_csv``, ``tsf.llmgateway.Gateway``) or its CLI
(``tsf.cli.main``).

A workload is prepared once (inputs written, oracles computed) by
``prepare.py`` in a process of its own, then unpickled, set up and passed
repeatedly in the measured process. ``setup`` is the program's work before
the first window can be dispatched; ``run_pass`` is one whole round of the
same operations and returns how many windows it attempted, how many were
scored ok, the wall time of the program calls, and the oracle problems
found (checked after the clock stops).
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import data
import oracle

# the program is reached through module attributes, so that the tracer's
# rebinding of these names is seen at call time
from tsf import cli, dataset, errors, llmgateway, prompting, runner

PARALLELISM = 2  # dispatch threads, as `--parallel 2`
NON_NEIGHBOR = ("zeroshot", "patch-instruct", "basic-patch", "nonoverlap-patch",
                "str-patch", "reverse-patch", "meta-patch")


@dataclass
class PassResult:
    attempted: int
    ok: int
    elapsed: float
    problems: list = field(default_factory=list)


def _schema():
    return dataset.CsvSchema(timestamp_column=data.TIMESTAMP_COLUMN)


def _window_index(window_id: str) -> tuple[int, int]:
    series_id, _, start = window_id.rpartition(":")
    return data.COLUMNS.index(series_id), int(start)


def _check_reports(reports, expected: dict, problems: list, label: str) -> int:
    """expected maps (strategy, horizon) -> (n_windows, mse, mae); returns the
    number of windows the reports count as parsed."""
    seen = {}
    for r in reports:
        seen[(r.strategy, r.horizon)] = r
    if set(seen) != set(expected) or len(reports) != len(expected):
        problems.append(f"{label}: report cells {sorted(seen)} != {sorted(expected)}")
    ok = 0
    for key, (n, mse, mae) in expected.items():
        r = seen.get(key)
        if r is None:
            continue
        ok += r.n_parsed
        if r.n_windows != n or r.n_parsed != n:
            problems.append(f"{label} {key}: n_windows={r.n_windows} n_parsed={r.n_parsed}, expected {n}")
        if r.mean_mse is None or not oracle.close(r.mean_mse, mse):
            problems.append(f"{label} {key}: mean_mse {r.mean_mse!r} != oracle {mse!r}")
        if r.mean_mae is None or not oracle.close(r.mean_mae, mae):
            problems.append(f"{label} {key}: mean_mae {r.mean_mae!r} != oracle {mae!r}")
    return ok


class _RunWorkload:
    """Set-up shared by the workloads that call ``runner.run`` directly: the
    dataset they load is the one their passes use."""

    pass_sets_up = False

    def setup(self) -> float:
        self.ds = None  # the previous dataset is freed before the next load
        start = perf_counter()
        ds = dataset.load_csv(self.csv_path, _schema(), name=self.name)
        llmgateway.Gateway(self.backend)
        elapsed = perf_counter() - start
        self.ds = ds
        return elapsed


class PlainMix(_RunWorkload):
    """Seven non-neighbor strategies x horizons {1, 6, 12}, every stride-96
    window, mock-persistence backend."""

    name = "plain-mix"
    rows = 500
    horizons = (1, 6, 12)

    def prepare(self, work: str, seed: int) -> None:
        q = data.weather_hundredths(self.rows, seed)
        values = data.as_values(q)
        self.csv_path = os.path.join(work, "plain.csv")
        data.write_csv(self.csv_path, q)
        self.backend = llmgateway.BackendConfig(
            kind=llmgateway.BackendKind.MOCK_PERSISTENCE, parallelism=PARALLELISM)
        self.cfg = runner.RunConfig(
            strategies=tuple(prompting.Strategy(s) for s in NON_NEIGHBOR),
            backend=self.backend,
            horizons=self.horizons,
            max_windows=10**9,
        )
        self.expected = {}
        n_feat = len(data.COLUMNS)
        for h in self.horizons:
            wins = oracle.all_windows(n_feat, self.rows, h)
            mse, mae = oracle.persistence_error(values, wins, h)
            for s in NON_NEIGHBOR:
                self.expected[(s, h)] = (len(wins), mse, mae)

    def run_pass(self, index: int) -> PassResult:
        start = perf_counter()
        outcome = runner.run(self.ds, self.cfg)
        elapsed = perf_counter() - start
        problems = [f"runner failure: {f}" for f in outcome.failures]
        ok = _check_reports(outcome.reports, self.expected, problems, self.name)
        attempted = sum(n for n, _, _ in self.expected.values())
        return PassResult(attempted, ok, elapsed, problems)


class NeighborMix(_RunWorkload):
    """neighs and patch-neighs x {1, 6}, plus neighs with z-normalisation at
    horizon 1, one window per series, replay backend.

    400 rows give 4 stride-96 windows per series. The runner's subsample,
    with its seed fixed at 7 for every benchmark seed, keeps the one that
    starts at row 192, so every search scans the same 97 x 21 earlier
    windows and the work per pass does not depend on the seed.

    The fixtures hold one persistence answer for each prompt of
    ``bundles_for_run`` whose neighbors the oracle checked. A prompt that
    ``run`` builds differently, by so much as one byte, has no fixture and
    raises ``ReplayMiss``, so the neighbor check covers the timed passes.
    """

    name = "neighbor-mix"
    rows = 400

    def prepare(self, work: str, seed: int) -> None:
        q = data.weather_hundredths(self.rows, seed)
        values = data.as_values(q)
        self.csv_path = os.path.join(work, "neighbor.csv")
        data.write_csv(self.csv_path, q)
        fixture_path = os.path.join(work, "neighbor-fixtures.jsonl")
        self.backend = llmgateway.BackendConfig(
            kind=llmgateway.BackendKind.REPLAY, fixture_path=fixture_path,
            parallelism=PARALLELISM)
        S = prompting.Strategy
        common = dict(backend=self.backend, max_windows=1, seed=7)
        self.cfgs = (
            runner.RunConfig(strategies=(S("neighs"), S("patch-neighs")),
                             horizons=(1, 6), **common),
            runner.RunConfig(strategies=(S("neighs"),), horizons=(1,),
                             znorm_neighbors=True, **common),
        )
        self.problems = []
        self.expected = []
        records = {}
        ds = dataset.load_csv(self.csv_path, _schema(), name=self.name)
        n_feat = len(data.COLUMNS)
        for cfg in self.cfgs:
            bundles = runner.bundles_for_run(ds, cfg)
            cells = {}
            for b in bundles:
                cells.setdefault((b.strategy.value, b.horizon), []).append(b)
            expected = {}
            for s in cfg.strategies:
                for h in cfg.horizons:
                    cell = cells.get((s.value, h), [])
                    if len(cell) != n_feat:
                        self.problems.append(
                            f"{s.value} h={h}: {len(cell)} bundles, expected one per feature")
                    wins = [_window_index(b.window_id) for b in cell]
                    if sorted(j for j, _ in wins) != list(range(n_feat)):
                        self.problems.append(f"{s.value} h={h}: not one window per feature")
                    mse, mae = oracle.persistence_error(values, wins, h)
                    expected[(s.value, h)] = (len(cell), mse, mae)
                    for b, (j, start) in zip(cell, wins):
                        for p in oracle.check_neighbors(
                                values, j, start, b.user, cfg.k, cfg.znorm_neighbors):
                            self.problems.append(f"{s.value} h={h} {b.window_id}: {p}")
                        last = q[j, start + oracle.CONTEXT_LEN - 1]
                        self._add_persistence_record(records, b, last)
            self.expected.append(expected)
        llmgateway.save_fixtures(records.values(), fixture_path)

    def _add_persistence_record(self, records: dict, bundle, last: int) -> None:
        """Answer the bundle with its last context value (in hundredths),
        repeated over the horizon, as the mock-persistence backend would."""
        text = "[" + ", ".join([_hundredths(last)] * bundle.horizon) + "]"
        key = llmgateway.bundle_hash(bundle)
        if key in records and records[key]["text"] != text:
            self.problems.append(f"{bundle.window_id}: one prompt, two persistence answers")
        records[key] = {
            "hash": key,
            "text": text,
            "input_tokens": (len(bundle.system) + len(bundle.user) + 3) // 4,
            "output_tokens": (len(text) + 3) // 4,
            "latency_seconds": 0.0,
        }

    def run_pass(self, index: int) -> PassResult:
        problems = list(self.problems) if index == 0 else []
        start = perf_counter()
        try:
            outcomes = [runner.run(self.ds, cfg) for cfg in self.cfgs]
        except errors.ReplayMiss as e:
            outcomes = []
            problems.append(f"run built a prompt that bundles_for_run did not: {e}")
        elapsed = perf_counter() - start
        ok = 0
        attempted = sum(n for expected in self.expected for n, _, _ in expected.values())
        for outcome, expected in zip(outcomes, self.expected):
            problems += [f"runner failure: {f}" for f in outcome.failures]
            ok += _check_reports(outcome.reports, expected, problems, self.name)
        return PassResult(attempted, ok, elapsed, problems)


class ReplayCli:
    """``tsf replay --lenient --parallel 2`` on the paper-sized table.

    A pass is one invocation against complete fixtures, writing a report in
    the format of the rotation, plus one invocation against fixtures that
    lack a single record. Today the replay miss escapes ``run`` and costs
    that invocation every window; those windows count as failed.
    """

    name = "replay-cli"
    pass_sets_up = True  # every invocation loads the CSV and fixtures itself
    rows = 52_696
    horizons = (1, 6)
    max_windows = 2
    formats = ("json", "csv", "md")
    dataset_name = "weather-synth"

    def prepare(self, work: str, seed: int) -> None:
        q = data.weather_hundredths(self.rows, seed)
        self.work = work
        self.seed = seed
        self.csv_path = os.path.join(work, "weather.csv")
        data.write_csv(self.csv_path, q)
        self.full_fixtures = os.path.join(work, "fixtures.jsonl")
        self.miss_fixtures = os.path.join(work, "fixtures-missing-one.jsonl")

        cfg = runner.RunConfig(
            strategies=tuple(prompting.Strategy(s) for s in NON_NEIGHBOR),
            backend=llmgateway.BackendConfig(
                kind=llmgateway.BackendKind.REPLAY, fixture_path=self.full_fixtures),
            horizons=self.horizons,
            max_windows=self.max_windows,
            seed=seed,
            lenient=True,
        )
        ds = dataset.load_csv(self.csv_path, _schema(), name=self.dataset_name)
        bundles = runner.bundles_for_run(ds, cfg)
        del ds
        hashes = [llmgateway.bundle_hash(b) for b in bundles]
        # Replay serves one answer per prompt, and windows can share a prompt
        # (an all-zero rain context; zeroshot names no feature). Each prompt
        # is answered with the truth of its first window, plus 0.5.
        first = {}
        for i, key in enumerate(hashes):
            first.setdefault(key, i)
        records = [self._record(i, bundles[i], key, q) for key, i in first.items()]
        llmgateway.save_fixtures(records, self.full_fixtures)
        # the last window whose prompt no other window shares loses its record
        counts = collections.Counter(hashes)
        missing = max(i for i, key in enumerate(hashes) if counts[key] == 1)
        llmgateway.save_fixtures(
            [r for r in records if r["hash"] != hashes[missing]], self.miss_fixtures)

        values = data.as_values(q)
        errors = {}  # (strategy, horizon) -> [(bundle index, mse, mae)]
        for i, (b, key) in enumerate(zip(bundles, hashes)):
            j, start = _window_index(b.window_id)
            src_j, src_start = _window_index(bundles[first[key]].window_id)
            end, src_end = start + oracle.CONTEXT_LEN, src_start + oracle.CONTEXT_LEN
            answer = (q[src_j, src_end : src_end + b.horizon] + 50) / 100.0
            err = answer - values[j, end : end + b.horizon]
            errors.setdefault((b.strategy.value, b.horizon), []).append(
                (i, float(np.mean(err * err)), float(np.mean(np.abs(err)))))

        per_cell = len(data.COLUMNS) * min(self.max_windows, min(
            oracle.windows_per_series(self.rows, h) for h in self.horizons))
        cells = [(s, h) for s in NON_NEIGHBOR for h in self.horizons]
        self.problems = [f"{key}: {len(errors.get(key, []))} bundles, expected {per_cell}"
                         for key in cells if len(errors.get(key, [])) != per_cell]
        self.expected = {key: _mean_errors(errors.get(key, [])) for key in cells}
        self.expected_missing = {
            key: _mean_errors([e for e in errors.get(key, []) if e[0] != missing])
            for key in cells}
        self.windows_per_invocation = len(bundles)
        self.backend = llmgateway.BackendConfig(
            kind=llmgateway.BackendKind.REPLAY, fixture_path=self.full_fixtures,
            parallelism=PARALLELISM)
        self.first_reports = {}

    @staticmethod
    def _record(index: int, bundle, key: str, q: np.ndarray) -> dict:
        """An answer of truth + 0.5 in an assumed live shape: patch
        strategies echo every overlapping 3-value patch of the context in
        natural order before ``Prediction:``, and every third answer
        carries two surplus values for lenient repair to trim. No recorded
        run backs the echo shape or the one-in-three share."""
        j, start = _window_index(bundle.window_id)
        end = start + oracle.CONTEXT_LEN
        h = bundle.horizon
        answer = [_hundredths(v + 50) for v in q[j, end : end + h]]
        if index % 3 == 0:
            answer += [_hundredths(v) for v in q[j, end - 2 : end]]
        pred = "[" + ", ".join(answer) + "]"
        if bundle.strategy.value == "zeroshot":
            text = f"The next values are {pred}."
        else:
            ctx = [_hundredths(v) for v in q[j, start:end]]
            patches = ", ".join(
                "[" + ", ".join(ctx[i : i + 3]) + "]" for i in range(len(ctx) - 2))
            text = (
                "I split the sequence into overlapping patches of three.\n"
                f"Patches: [{patches}]\n"
                "Following the trend within the last patches,\n"
                f"Prediction: {pred}"
            )
        return {
            "hash": key,
            "text": text,
            "input_tokens": (len(bundle.system) + len(bundle.user) + 3) // 4,
            "output_tokens": (len(text) + 3) // 4,
            "latency_seconds": 0.5 + (index % 7) / 10,
        }

    def argv(self, fixtures: str, out: str) -> list:
        argv = ["replay", "--dataset", self.csv_path, "--schema", data.TIMESTAMP_COLUMN,
                "--name", self.dataset_name]
        for s in NON_NEIGHBOR:
            argv += ["--strategy", s]
        for h in self.horizons:
            argv += ["--horizon", str(h)]
        argv += ["--fixtures", fixtures, "--max-windows", str(self.max_windows),
                 "--seed", str(self.seed), "--lenient", "--parallel", str(PARALLELISM),
                 "--out", out]
        return argv

    def setup(self) -> float:
        start = perf_counter()
        ds = dataset.load_csv(self.csv_path, _schema(), name=self.dataset_name)
        llmgateway.Gateway(self.backend)
        elapsed = perf_counter() - start
        del ds
        return elapsed

    def run_pass(self, index: int) -> PassResult:
        fmt = self.formats[index % len(self.formats)]
        good_out = os.path.join(self.work, f"report.{fmt}")
        miss_out = os.path.join(self.work, "missing-one.json")
        for path in (good_out, miss_out):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        good_argv = self.argv(self.full_fixtures, good_out)
        miss_argv = self.argv(self.miss_fixtures, miss_out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            good_rc = cli.main(good_argv)
            miss_rc = cli.main(miss_argv)
            elapsed = perf_counter() - start

        problems = list(self.problems) if index == 0 else []
        n = self.windows_per_invocation
        if good_rc != 0:
            problems.append(f"replay exited {good_rc}: {sink.getvalue().strip()}")
            good_ok = 0
        else:
            good_ok = self._check_good(fmt, good_out, good_argv, problems)
        miss_ok = self._check_missing(miss_rc, miss_out, problems)
        return PassResult(2 * n, good_ok + miss_ok, elapsed, problems)

    def _check_good(self, fmt: str, path: str, argv: list, problems: list) -> int:
        label = f"{self.name} .{fmt}"
        cells = _read_report(fmt, path)
        self.first_reports.setdefault(fmt, cells)
        ok = 0
        if set(cells) != set(self.expected):
            problems.append(f"{label}: cells {sorted(cells)} != {sorted(self.expected)}")
        for key, (n, mse, mae) in self.expected.items():
            row = cells.get(key)
            if row is None:
                continue
            tol = oracle.REL_TOL if fmt == "json" else 1e-5  # csv/md print 6 digits
            matched = oracle.close(row["mean_mse"], mse, tol) and oracle.close(row["mean_mae"], mae, tol)
            if not matched:
                problems.append(f"{label} {key}: mse/mae {row['mean_mse']}/{row['mean_mae']}")
            if fmt == "md":
                # Markdown carries no counts: a cell whose errors match counts
                # its windows as scored, although a cell whose answers all
                # err by 0.5 would also match with a window lost.
                ok += n if matched else 0
            else:
                if row["n_windows"] != n or row["n_parsed"] != n:
                    problems.append(f"{label} {key}: n_windows={row['n_windows']} n_parsed={row['n_parsed']}")
                ok += row["n_parsed"]
        problems += _disagreements(self.first_reports)
        problems += self._check_manifest(path + ".manifest.json", argv)
        return ok

    def _check_missing(self, rc: int, path: str, problems: list) -> int:
        """Windows the invocation with one missing record still scored."""
        if not os.path.exists(path):
            if rc == 0:
                problems.append("missing-record replay exited 0 without a report")
            return 0
        cells = _read_report("json", path)
        if set(cells) != set(self.expected_missing):
            problems.append(f"missing-record replay: cells {sorted(cells)}")
        for key, (n, mse, mae) in self.expected_missing.items():
            row = cells.get(key)
            if row is None:
                continue
            if row["n_parsed"] != n:
                problems.append(f"missing-record replay {key}: n_parsed={row['n_parsed']}, expected {n}")
            if not oracle.close(row["mean_mse"], mse) or not oracle.close(row["mean_mae"], mae):
                problems.append(f"missing-record replay {key}: mse/mae {row['mean_mse']}/{row['mean_mae']}")
        return sum(row["n_parsed"] for row in cells.values())

    def _check_manifest(self, path: str, argv: list) -> list:
        try:
            with open(path, encoding="utf-8") as f:
                manifest = json.load(f)
        except (OSError, ValueError) as e:
            return [f"manifest {path}: {e}"]
        config = manifest.get("config", {})
        want = {
            "strategies": [argv[i + 1] for i, a in enumerate(argv) if a == "--strategy"],
            "horizons": [int(argv[i + 1]) for i, a in enumerate(argv) if a == "--horizon"],
            "max_windows": self.max_windows,
            "seed": self.seed,
            "lenient": True,
            "backend": "replay",
            "context_len": oracle.CONTEXT_LEN,
            "eval_stride": oracle.STRIDE,
        }
        problems = [f"manifest {k}={config.get(k)!r}, argv says {v!r}"
                    for k, v in want.items() if config.get(k) != v]
        if manifest.get("dataset") != self.dataset_name:
            problems.append(f"manifest dataset {manifest.get('dataset')!r}")
        return problems


def _mean_errors(errors: list) -> tuple[int, float, float]:
    """(window count, mean MSE, mean MAE) over (index, mse, mae) entries."""
    n = len(errors)
    return (n, sum(e[1] for e in errors) / n, sum(e[2] for e in errors) / n) if n else (0, 0.0, 0.0)


def _hundredths(v) -> str:
    v = int(v)
    sign = "-" if v < 0 else ""
    v = abs(v)
    return f"{sign}{v // 100}.{v % 100:02d}"


def _read_report(fmt: str, path: str) -> dict:
    """(strategy, horizon) -> row of the report written in `fmt`."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    cells = {}
    if fmt == "json":
        for r in json.loads(text):
            cells[(r["strategy"], r["horizon"])] = {
                k: r[k] for k in ("n_windows", "n_parsed", "mean_mse", "mean_mae")}
    elif fmt == "csv":
        for r in csv.DictReader(io.StringIO(text)):
            cells[(r["strategy"], int(r["horizon"]))] = {
                "n_windows": int(r["n_windows"]), "n_parsed": int(r["n_parsed"]),
                "mean_mse": float(r["mean_mse"]), "mean_mae": float(r["mean_mae"])}
    else:
        lines = [ln.strip().strip("|").split("|") for ln in text.splitlines() if ln.startswith("|")]
        header = [c.strip() for c in lines[0]]
        for row in lines[2:]:
            row = [c.strip() for c in row]
            for col, name in enumerate(header):
                if name.endswith(" MSE"):
                    strategy = name[: -len(" MSE")]
                    cells[(strategy, int(row[1]))] = {
                        "mean_mse": float(row[col]), "mean_mae": float(row[col + 1])}
    return cells


def _disagreements(reports: dict) -> list:
    """Every format written so far must agree with the json report."""
    base = reports.get("json")
    if base is None:
        return []
    problems = []
    for fmt, cells in reports.items():
        if set(cells) != set(base):
            problems.append(f".{fmt} and .json report different cells")
            continue
        for key, row in cells.items():
            for metric, value in row.items():
                if not oracle.close(value, base[key][metric], 1e-5):
                    problems.append(f".{fmt} {key} {metric}={value} but .json has {base[key][metric]}")
    return problems


WORKLOADS = {w.name: w for w in (PlainMix, NeighborMix, ReplayCli)}
