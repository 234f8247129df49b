import hashlib
import json
import random

import pytest

from tsf.errors import LengthMismatch, MismatchedRuns, NoParsedWindows, ZeroBaseline
from tsf.evaluation import (
    RunReport,
    WindowResult,
    aggregate,
    compare_reports,
    emit_report,
    improvement,
    mae,
    mse,
    render_comparison_csv,
    render_comparison_markdown,
    render_csv,
    render_markdown,
    reports_from_json,
    reports_to_json,
)


def result(window_id="w0", mse_=1.0, mae_=0.5, it=10, ot=2, lat=0.1, status="ok"):
    return WindowResult(
        window_id=window_id,
        forecast=(1.0,),
        truth=(2.0,),
        mse=mse_ if status == "ok" else None,
        mae=mae_ if status == "ok" else None,
        input_tokens=it,
        output_tokens=ot,
        latency_seconds=lat,
        parse_status=status,
    )


def report(**kw):
    base = dict(
        dataset="weather",
        strategy="patch-instruct",
        horizon=1,
        n_windows=2,
        n_parsed=2,
        mean_mse=0.0095,
        mean_mae=0.056,
        total_input_tokens=20,
        total_output_tokens=4,
        mean_input_tokens=10.0,
        mean_output_tokens=2.0,
        mean_latency_s=0.1,
        parse_failure_rate=0.0,
        template_version="1.0.0",
        backend_id="mock-persistence",
        config={},
    )
    base.update(kw)
    return RunReport(**base)


class TestMetrics:
    def test_mse_identity(self):
        assert mse([1, 2, 3], [1, 2, 3]) == 0

    def test_mse_hand_computed(self):
        assert mse([1, 2], [2, 4]) == 2.5

    def test_mse_scaling(self):
        base = mse([1, 2], [2, 4])
        assert mse([3, 6], [6, 12]) == pytest.approx(9 * base)

    def test_mae_identity(self):
        assert mae([1, 2], [1, 2]) == 0

    def test_mae_hand_computed(self):
        assert mae([1, 2], [2, 4]) == 1.5

    def test_mae_symmetric(self):
        assert mae([1, 5], [3, 2]) == mae([3, 2], [1, 5])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse([1], [1, 2])
        with pytest.raises(LengthMismatch):
            mae([1], [1, 2])

    def test_power_mean_inequality_random(self):
        rng = random.Random(5)
        for _ in range(200):
            h = rng.randint(1, 12)
            pred = [rng.uniform(-10, 10) for _ in range(h)]
            truth = [rng.uniform(-10, 10) for _ in range(h)]
            assert mae(pred, truth) ** 2 <= mse(pred, truth) + 1e-15


class TestAggregate:
    def agg(self, results):
        return aggregate(results, "ds", "zeroshot", 1, "1.0.0", "mock-persistence")

    def test_single_window(self):
        rep = self.agg([result()])
        assert rep.mean_mse == 1.0
        assert rep.mean_mae == 0.5
        assert rep.n_windows == rep.n_parsed == 1

    def test_order_independent(self):
        rs = [result(f"w{i}", mse_=float(i)) for i in range(5)]
        shuffled = rs[:]
        random.Random(1).shuffle(shuffled)
        assert self.agg(rs) == self.agg(shuffled)

    def test_mean(self):
        rep = self.agg([result("a", mse_=1.0), result("b", mse_=3.0)])
        assert rep.mean_mse == 2.0

    def test_failed_windows_excluded_from_means(self):
        rep = self.agg([result("a", mse_=1.0), result("b", status="failed:NoListFound")])
        assert rep.mean_mse == 1.0
        assert rep.n_parsed == 1
        assert rep.parse_failure_rate == 0.5

    def test_all_failed(self):
        with pytest.raises(NoParsedWindows):
            self.agg([result("a", status="failed:NoListFound")])

    def test_token_totals(self):
        rep = self.agg([result("a", it=10, ot=2), result("b", it=30, ot=4)])
        assert rep.total_input_tokens == 40
        assert rep.total_output_tokens == 6
        assert rep.mean_input_tokens == 20.0


class TestImprovement:
    def test_paper_cells(self):
        base = report(mean_mse=0.0095)
        ours = report(mean_mse=0.0014, strategy="patch-instruct")
        assert improvement(base, ours) == pytest.approx(85.26, abs=0.01)

    def test_equal_reports(self):
        assert improvement(report(), report()) == 0.0

    def test_worse_is_negative(self):
        assert improvement(report(mean_mse=1.0), report(mean_mse=2.0)) < 0

    def test_mismatched(self):
        with pytest.raises(MismatchedRuns):
            improvement(report(horizon=1), report(horizon=2))

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            improvement(report(mean_mse=0.0), report())


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        reports = [report(), report(strategy="zeroshot", horizon=3)]
        p = tmp_path / "r.json"
        emit_report(reports, "json", p)
        loaded = reports_from_json(p.read_text())
        assert loaded == reports

    def test_empty_markdown_has_headers(self):
        md = render_markdown([])
        assert md.splitlines()[0].startswith("| Dataset | Horizon")
        assert len(md.splitlines()) == 2

    def test_one_report_one_row(self):
        md = render_markdown([report()])
        assert len(md.splitlines()) == 3

    def test_csv_columns(self):
        csv_text = render_csv([report()])
        header = csv_text.splitlines()[0]
        assert header == "dataset,strategy,horizon,n_windows,n_parsed,mean_mse,mean_mae,mean_it,mean_ot,mean_latency_s"
        assert len(csv_text.splitlines()) == 2

    def test_json_deterministic(self):
        reports = [report()]
        assert reports_to_json(reports) == reports_to_json(reports)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "r.xml")


def cell(dataset, strategy, horizon, mse_, mae_, **kw):
    base = dict(dataset=dataset, strategy=strategy, horizon=horizon, n_windows=4, n_parsed=3,
                mean_mse=mse_, mean_mae=mae_, total_input_tokens=41, total_output_tokens=9,
                mean_input_tokens=10.25, mean_output_tokens=2.25, mean_latency_s=0.0125,
                parse_failure_rate=0.25, config={"seed": 0})
    base.update(kw)
    return report(**base)


# baseline is better, ours is better, a tie; a cell only one side has; a cell with no means
BASELINE = [
    cell("weather, 10 min", "zeroshot", 1, 0.012345678, 0.0876),
    cell("weather, 10 min", "zeroshot", 6, 0.5, 0.25),
    cell("traffic", "zeroshot", 12, 2.0, 1.0),
    cell("traffic", "zeroshot", 1, 0.75, 0.5),
]
OURS = [
    cell("traffic", "patch-instruct", 12, 2.5, 1.125),
    cell("weather, 10 min", "patch-instruct", 6, 0.5, 0.3333333333),
    cell("weather, 10 min", "patch-instruct", 1, 0.0098765, 0.07),
    cell("solar", "patch-instruct", 3, None, None, n_parsed=0, parse_failure_rate=1.0),
]


class TestRenderedBytes:
    """Every renderer's exact output on one fixed pair of report lists."""

    def test_markdown(self):
        assert render_markdown(BASELINE + OURS) == (
            "| Dataset | Horizon | patch-instruct MSE | patch-instruct MAE | zeroshot MSE | zeroshot MAE |\n"
            "| --- | --- | --- | --- | --- | --- |\n"
            "| solar | 3 |  |  |  |  |\n"
            "| traffic | 1 |  |  | 0.75 | 0.5 |\n"
            "| traffic | 12 | 2.5 | 1.125 | 2 | 1 |\n"
            "| weather, 10 min | 1 | 0.0098765 | 0.07 | 0.0123457 | 0.0876 |\n"
            "| weather, 10 min | 6 | 0.5 | 0.333333 | 0.5 | 0.25 |\n"
        )

    def test_csv(self):
        assert render_csv(BASELINE + OURS) == (
            "dataset,strategy,horizon,n_windows,n_parsed,mean_mse,mean_mae,mean_it,mean_ot,mean_latency_s\r\n"
            "solar,patch-instruct,3,4,0,,,10.25,2.25,0.0125\r\n"
            "traffic,patch-instruct,12,4,3,2.5,1.125,10.25,2.25,0.0125\r\n"
            "traffic,zeroshot,1,4,3,0.75,0.5,10.25,2.25,0.0125\r\n"
            "traffic,zeroshot,12,4,3,2,1,10.25,2.25,0.0125\r\n"
            '"weather, 10 min",patch-instruct,1,4,3,0.0098765,0.07,10.25,2.25,0.0125\r\n'
            '"weather, 10 min",patch-instruct,6,4,3,0.5,0.333333,10.25,2.25,0.0125\r\n'
            '"weather, 10 min",zeroshot,1,4,3,0.0123457,0.0876,10.25,2.25,0.0125\r\n'
            '"weather, 10 min",zeroshot,6,4,3,0.5,0.25,10.25,2.25,0.0125\r\n'
        )

    def test_json(self):
        # 3,746 bytes of sorted, indented JSON; pinned by digest
        text = reports_to_json(BASELINE + OURS)
        assert len(text) == 3746
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6ca87a2d575804b19009b7d5052e2c8d8b54efccdb8753392051409d43fbd2d4"
        )

    def test_comparison_markdown(self):
        assert render_comparison_markdown(compare_reports(BASELINE, OURS)) == (
            "| Dataset | Horizon | Baseline MSE | Baseline MAE | Ours MSE | Ours MAE | MSE improvement % |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| traffic | 12 | **2** | 1 | 2.5 | 1.125 | -25.00 |\n"
            "| weather, 10 min | 1 | 0.0123457 | 0.0876 | **0.0098765** | 0.07 | 20.00 |\n"
            "| weather, 10 min | 6 | 0.5 | 0.25 | 0.5 | 0.333333 | 0.00 |\n"
        )

    def test_comparison_csv(self):
        assert render_comparison_csv(compare_reports(BASELINE, OURS)) == (
            "dataset,horizon,baseline_mse,baseline_mae,ours_mse,ours_mae,mse_improvement_pct\r\n"
            "traffic,12,2.0,1.0,2.5,1.125,-25.00\r\n"
            '"weather, 10 min",1,0.012345678,0.0876,0.0098765,0.07,20.00\r\n'
            '"weather, 10 min",6,0.5,0.25,0.5,0.3333333333,0.00\r\n'
        )
