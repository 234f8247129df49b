"""Command-line entry point: run / compare / record / replay."""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from .dataset import CsvSchema, load_csv
from .errors import ConfigError, TsfError
from .evaluation import (
    compare_reports,
    emit_report,
    render_comparison_csv,
    render_comparison_markdown,
    reports_from_json,
)
from .llmgateway import API_KEY_ENV, BackendConfig, BackendKind, record_fixtures
from .prompting import Strategy
from .runner import (
    DEFAULT_HORIZONS,
    RunConfig,
    bundles_for_run,
    run,
    write_manifest,
)

STRATEGY_NAMES = [s.value for s in Strategy]


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--dataset", help="CSV dataset path")
    p.add_argument("--schema", default="timestamp", help="timestamp column name")
    p.add_argument("--features", help="comma-separated value columns (default: all)")
    p.add_argument("--name", help="dataset name (default: file path)")
    p.add_argument("--context-len", type=int, default=96)
    p.add_argument("--horizon", type=int, action="append", help="repeatable")
    p.add_argument("--stride", type=int, default=96, help="eval window stride")
    p.add_argument("--strategy", action="append", choices=STRATEGY_NAMES, help="repeatable")
    p.add_argument("--patch-window", type=int, default=3)
    p.add_argument("--patch-stride", type=int, default=1)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--backend", default="mock-persistence",
                   choices=[k.value for k in BackendKind])
    p.add_argument("--endpoint", help="base URL for the http backend")
    p.add_argument("--model", help="model name for the http backend")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--timeout", type=int, default=60)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--max-windows", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--znorm-neighbors", action="store_true")
    p.add_argument("--fixtures", help="fixture file (record/replay)")
    p.add_argument("--out", help="output report path")


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> dict:
    """Merge [run] section of the INI file under the flags given in argv;
    returns the [descriptions] section."""
    if not args.config:
        return {}
    cp = configparser.ConfigParser()
    if not cp.read(args.config):
        raise ConfigError(f"cannot read config file {args.config!r}")
    defaults = dict(cp["run"]) if cp.has_section("run") else {}
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, raw in defaults.items():
        attr = key.replace("-", "_")
        if attr in explicit or not hasattr(args, attr):
            continue
        current = getattr(args, attr)
        if attr in ("horizon", "strategy"):
            setattr(args, attr, [v.strip() for v in raw.split(",")])
        elif isinstance(current, bool):
            setattr(args, attr, raw.lower() in ("1", "true", "yes"))
        elif isinstance(current, int):
            setattr(args, attr, int(raw))
        elif isinstance(current, float):
            setattr(args, attr, float(raw))
        else:
            setattr(args, attr, raw)
    return dict(cp["descriptions"]) if cp.has_section("descriptions") else {}


def _backend_config(args, kind_override: str | None = None) -> BackendConfig:
    kind = BackendKind(kind_override or args.backend)
    if kind is BackendKind.HTTP:
        if not os.environ.get(API_KEY_ENV):
            raise ConfigError(f"{API_KEY_ENV} must be set for the http backend")
        if not (args.endpoint and args.model):
            raise ConfigError("--endpoint and --model are required for the http backend")
    if kind is BackendKind.REPLAY and not args.fixtures:
        raise ConfigError("--fixtures is required for the replay backend")
    return BackendConfig(
        kind=kind,
        endpoint_url=args.endpoint,
        model_name=args.model,
        temperature=args.temperature,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        parallelism=args.parallel,
        fixture_path=args.fixtures,
    )


def _load_dataset(args, descriptions: dict):
    if not args.dataset:
        raise ConfigError("--dataset is required")
    features = (
        tuple(f.strip() for f in args.features.split(",")) if args.features else None
    )
    schema = CsvSchema(
        timestamp_column=args.schema,
        value_columns=features,
        descriptions=descriptions,
    )
    return load_csv(args.dataset, schema, name=args.name)


def _run_config(args, backend: BackendConfig) -> RunConfig:
    horizons = tuple(int(h) for h in args.horizon) if args.horizon else DEFAULT_HORIZONS
    strategies = (
        tuple(Strategy(s) for s in args.strategy)
        if args.strategy
        else tuple(Strategy)
    )
    return RunConfig(
        strategies=strategies,
        backend=backend,
        horizons=horizons,
        context_len=args.context_len,
        eval_stride=args.stride,
        patch_window=args.patch_window,
        patch_stride=args.patch_stride,
        k=args.k,
        znorm_neighbors=args.znorm_neighbors,
        max_windows=args.max_windows,
        seed=args.seed,
        lenient=args.lenient,
    )


def _emit(reports, out: str) -> None:
    if out.endswith(".csv"):
        fmt = "csv"
    elif out.endswith(".md"):
        fmt = "markdown"
    else:
        fmt = "json"
    emit_report(reports, fmt, out)


def _cmd_run(args, argv: list[str], backend_kind=None) -> int:
    descriptions = _apply_config_file(args, argv)
    backend = _backend_config(args, backend_kind)
    dataset = _load_dataset(args, descriptions)
    cfg = _run_config(args, backend)
    outcome = run(dataset, cfg)
    out = args.out or "report.json"
    _emit(outcome.reports, out)
    write_manifest(cfg, dataset, out + ".manifest.json")
    print(f"wrote {len(outcome.reports)} reports to {out}")
    for f in outcome.failures:
        print(f"FAILED {f.strategy} h={f.horizon} {f.window_id}: {f.error}", file=sys.stderr)
    return 0 if outcome.ok else 1


def _cmd_record(args, argv: list[str]) -> int:
    if args.out:  # checked before the config file, whose out is for run and replay
        raise ConfigError("record writes no report: fixtures go to --fixtures, not --out")
    descriptions = _apply_config_file(args, argv)
    args.backend = "http"
    backend = _backend_config(args)
    if not args.fixtures:
        raise ConfigError("--fixtures output path is required for record")
    dataset = _load_dataset(args, descriptions)
    cfg = _run_config(args, backend)
    bundles = bundles_for_run(dataset, cfg)
    record_fixtures(bundles, backend, args.fixtures)
    print(f"recorded {len(bundles)} fixtures to {args.fixtures}")
    return 0


def _cmd_compare(args) -> int:
    with open(args.baseline, encoding="utf-8") as f:
        baseline = reports_from_json(f.read())
    with open(args.ours, encoding="utf-8") as f:
        ours = reports_from_json(f.read())
    rows = compare_reports(baseline, ours)
    text = (
        render_comparison_csv(rows)
        if args.out and args.out.endswith(".csv")
        else render_comparison_markdown(rows)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsf", description="LLM time-series forecasting harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the forecasting pipeline")
    _add_run_flags(p_run)

    p_record = sub.add_parser("record", help="record live http fixtures")
    _add_run_flags(p_record)

    p_replay = sub.add_parser("replay", help="rerun a recorded run offline")
    _add_run_flags(p_replay)

    p_cmp = sub.add_parser("compare", help="compare two report files")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("ours")
    p_cmp.add_argument("--out")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, argv)
        if args.command == "replay":
            return _cmd_run(args, argv, backend_kind="replay")
        if args.command == "record":
            return _cmd_record(args, argv)
        if args.command == "compare":
            return _cmd_compare(args)
    except TsfError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
