"""The observability layer: tracer, metrics, EXPLAIN, and the property
that instrumentation never changes evaluation results."""

import builtins
import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.errors import BottomError
from repro.obs import (
    NULL_TRACER,
    EvalMetrics,
    Observability,
    Tracer,
)
from repro.system import repl
from repro.system.session import Session

from conftest import agree
from expr_strategies import typed_exprs

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)

#: the five pipeline stages EXPLAIN must always cover
PIPELINE_STAGES = ("parse", "desugar", "typecheck", "optimize", "evaluate")


class TestTracer:
    def test_nested_spans_record_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", items=3):
                pass
            with tracer.span("sibling"):
                pass
        root = tracer.finish()
        (outer,) = root.children
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "sibling"]
        assert outer.children[0].meta == {"items": 3}
        assert outer.seconds >= outer.children[0].seconds >= 0.0

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        root = tracer.finish()
        assert root.find("b").name == "b"
        assert root.find("missing") is None
        names = [span.name for _, span in root.walk()]
        assert names == ["trace", "a", "b"]

    def test_span_error_annotated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        root = tracer.finish()
        assert root.children[0].meta["error"] == "RuntimeError"

    def test_to_dict_is_json_safe(self):
        tracer = Tracer()
        with tracer.span("stage", rules=2):
            pass
        tracer.finish()
        payload = json.loads(json.dumps(tracer.to_dict()))
        assert payload["children"][0]["name"] == "stage"
        assert payload["children"][0]["meta"] == {"rules": 2}

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            assert span is None
        NULL_TRACER.annotate(ignored=True)
        assert NULL_TRACER.finish() is None
        assert NULL_TRACER.to_dict() == {}
        assert NULL_TRACER.render() == ""
        assert not NULL_TRACER.enabled


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = EvalMetrics()
        metrics.on_node("Ext")
        metrics.on_node("Ext")
        metrics.on_node("Var")
        metrics.on_cells(12)
        metrics.on_index(20, 5, 9)
        metrics.on_bottom("division by zero")
        metrics.on_collection(4)
        assert metrics.node_evals == 3
        assert metrics.nodes_by_class == {"Ext": 2, "Var": 1}
        assert metrics.cells_materialized == 12
        assert metrics.index_groupbys == 1
        assert metrics.index_pairs == 9
        assert metrics.bottom_raises == 1
        assert metrics.max_collection_size == 4

    def test_to_dict_and_render(self):
        metrics = EvalMetrics()
        metrics.on_node("Sum")
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert payload["node_evals"] == 1
        assert "Sum" in metrics.render()

    def test_index_measures_max_group_and_path(self):
        metrics = EvalMetrics()
        metrics.on_index(20, 5, 9, max_group=3, sorted_path=True)
        metrics.on_index(4, 2, 4, max_group=2, sorted_path=False)
        assert metrics.index_groupbys == 2
        assert metrics.index_sorted == 1
        # the watermark is the measured largest group, not the old
        # ``pairs - groups + 1`` derived bound (which would claim 5)
        assert metrics.max_group_size == 3
        payload = metrics.to_dict()
        assert payload["index_sorted"] == 1
        assert payload["max_group_size"] == 3

    def test_join_counters(self):
        metrics = EvalMetrics()
        metrics.on_join(8, 392)
        metrics.on_join(2, 0)
        assert metrics.joins_hashed == 2
        assert metrics.join_pairs_matched == 10
        assert metrics.join_pairs_skipped == 392
        payload = metrics.to_dict()
        assert payload["joins_hashed"] == 2
        assert "hash joins" in metrics.render()

    def test_merge_folds_setops_counters(self):
        parent, worker = EvalMetrics(), EvalMetrics()
        parent.on_index(4, 2, 4, max_group=2, sorted_path=True)
        worker.on_index(6, 3, 7, max_group=4, sorted_path=False)
        worker.on_join(3, 5)
        parent.merge(worker)
        assert parent.index_sorted == 1
        assert parent.max_group_size == 4
        assert parent.joins_hashed == 1
        assert parent.join_pairs_matched == 3
        assert parent.join_pairs_skipped == 5


class TestObservabilitySwitch:
    def test_disabled_hands_out_nulls(self):
        obs = Observability()
        assert not obs.enabled
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is None

    def test_enable_reset_disable(self):
        obs = Observability()
        obs.enable()
        first_tracer, first_metrics = obs.tracer, obs.metrics
        assert obs.enabled and first_tracer.enabled
        obs.reset()
        assert obs.tracer is not first_tracer
        assert obs.metrics is not first_metrics
        obs.disable()
        assert obs.tracer is NULL_TRACER and obs.metrics is None


class TestSessionProfile:
    def test_profile_covers_all_pipeline_stages(self, session):
        outputs = session.run(
            ":profile summap(fn \\x => x * x)!(gen!6);"
        )
        report = outputs[-1].explain
        assert report is not None
        for stage in PIPELINE_STAGES:
            span = report.span(stage)
            assert span is not None, f"missing span {stage}"
            assert span.seconds >= 0.0
        # the optimize span nests one child per optimizer phase
        optimize = report.span("optimize")
        child_names = {child.name for child in optimize.children}
        assert {"phase:normalize", "phase:bounds",
                "phase:cleanup", "phase:motion"} <= child_names

    def test_profile_reports_rule_firings_with_timings(self, session):
        report = session.explain("summap(fn \\x => x + 1)!(gen!4);")
        normalize = report.phase_stats["normalize"]
        assert normalize.applications >= 1
        assert normalize.by_rule.get("beta", 0) >= 1
        assert normalize.seconds > 0.0
        assert normalize.time_by_rule["beta"] >= 0.0
        assert normalize.attempts > 0

    def test_profile_reports_evaluator_counters(self, session):
        report = session.explain(
            "[[i * j | \\i < 3, \\j < 4]];"
        )
        assert report.metrics.node_evals > 0
        assert report.metrics.cells_materialized == 12
        assert report.metrics.nodes_by_class.get("Tabulate", 0) == 1

    def test_profile_counts_index_groupby_sizes(self, session):
        report = session.explain("index!{(0, 10), (0, 20), (2, 30)};")
        assert report.metrics.index_groupbys == 1
        assert report.metrics.index_pairs == 3
        assert report.metrics.index_groups == 2
        assert report.metrics.index_cells == 3

    def test_profile_value_matches_plain_run(self, session):
        plain = session.query_value("summap(fn \\x => x)!(gen!10);")
        report = session.explain("summap(fn \\x => x)!(gen!10);")
        assert report.value == plain
        assert report.has_value

    def test_profile_restores_disabled_observability(self, session):
        assert not session.env.obs.enabled
        session.run(":profile 1 + 1;")
        assert not session.env.obs.enabled
        assert session.env.obs.tracer is NULL_TRACER

    def test_profile_preserves_callers_instruments(self, session):
        # a caller that already instrumented the session must get its
        # own tracer and accumulated counters back, not fresh ones
        obs = session.env.obs
        obs.enable()
        session.query_value("summap(fn \\x => x)!(gen!4);")
        tracer, metrics = obs.tracer, obs.metrics
        counted = metrics.node_evals
        assert counted > 0
        session.run(":profile 1 + 1;")
        assert obs.enabled
        assert obs.tracer is tracer
        assert obs.metrics is metrics
        assert obs.metrics.node_evals == counted

    def test_profile_render_sections(self, session):
        report = session.explain("summap(fn \\x => x)!(gen!3);")
        text = report.render()
        assert "== optimized core ==" in text
        assert "== pipeline spans ==" in text
        assert "== optimizer rule firings ==" in text
        assert "== evaluator counters ==" in text
        assert "sum{" in text  # the optimized core via the printer

    def test_profile_json_export_schema(self, session):
        report = session.explain("summap(fn \\x => x)!(gen!3);")
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) >= {"source", "type", "core",
                                "spans", "phases", "metrics"}
        assert payload["phases"]["normalize"]["applications"] >= 1
        assert "seconds" in payload["phases"]["normalize"]
        assert payload["metrics"]["node_evals"] > 0
        span_names = {c["name"] for c in payload["spans"]["children"]}
        assert "parse" in span_names

    def test_profile_of_val_declaration_binds(self, session):
        outputs = session.run(":profile val \\ten = summap(fn \\x => 1)!(gen!10);")
        assert outputs[-1].explain is not None
        assert session.query_value("ten;") == 10

    def test_explain_counts_nodes_of_generated_code(self):
        session = Session()
        report = session.explain("summap(fn \\x => x * x)!(gen!6);")
        assert report.metrics.node_evals > 0
        assert report.value == 55

    def test_explain_with_optimizer_off_still_traces(self):
        session = Session(optimize=False)
        report = session.explain("1 + 2;")
        assert report.span("evaluate") is not None
        assert report.span("optimize") is None
        assert report.value == 3


class TestReplProfile:
    def _drive(self, monkeypatch, capsys, lines):
        feed = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(feed)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr(builtins, "input", fake_input)
        repl.main([])
        return capsys.readouterr().out

    def test_profile_command_prints_report(self, monkeypatch, capsys):
        out = self._drive(monkeypatch, capsys,
                          [":profile summap(fn \\x => x)!(gen!4);"])
        assert "== pipeline spans ==" in out
        assert "== evaluator counters ==" in out
        assert "val it = 6" in out


@pytest.mark.slow
class TestInstrumentationIsPure:
    """Tracing/metrics hooks must never change evaluation results."""

    @given(pair=typed_exprs())
    @_SETTINGS
    def test_probed_engine_agrees_with_reference(self, pair):
        expr, _ = pair
        metrics = EvalMetrics()
        agree(expr, probe=metrics)
        assert metrics.node_evals > 0

    def test_bottom_counted_once_not_per_ancestor(self):
        # a ⊥ three levels deep propagates through strict parents but
        # must be counted as ONE raise
        expr = ast.Arith(
            "+", ast.NatLit(1),
            ast.Arith("+", ast.NatLit(1),
                      ast.Arith("/", ast.NatLit(1), ast.NatLit(0))),
        )
        metrics = EvalMetrics()
        with pytest.raises(BottomError):
            CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.bottom_raises == 1
