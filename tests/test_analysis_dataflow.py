"""Block-dataflow analyzer: the DAG proves barrier slack, DF rules catch
seeded hazards, and a recorded run replays cleanly against the static DAG.

The acceptance contract (ISSUE 9): at ``n=8 nb=2 m0=2`` the two depth-1 LU
subtrees are barrier-independent, the static critical path (point-to-point
edges) is strictly shorter than the barrier schedule (stages + global
barriers), zero DF hazards fire, and the telemetry replay cross-check
passes on a recorded trace.
"""

from __future__ import annotations

import pytest

from repro import InversionConfig
from repro.analysis import (
    Severity,
    build_block_dag,
    build_model,
    lint_dataflow,
    lint_model,
    render_barrier_slack,
    render_text,
    replay_spans,
    sibling_reports,
)
from repro.analysis.cli import main as lint_main

ACCEPTANCE = dict(n=8, nb=2, m0=2)


def acceptance_model():
    return build_model(8, InversionConfig(nb=2, m0=2))


def rule_ids(findings):
    return {f.rule for f in findings}


# -- DAG structure -----------------------------------------------------------------


def test_block_dag_structure_at_acceptance_config():
    model = acceptance_model()
    dag = build_block_dag(model)
    assert dag.stages == [s.name for s in model.steps]
    # Every write has a producer; nothing read comes from outside the plan.
    assert set(dag.producers) == {p for s in model.steps for p in s.writes}
    assert dag.external_reads == set()
    # Master phases are single-task stages; job phases carry m0 slots.
    assert dag.task_counts["write-input"] == 1
    assert dag.task_counts["lu:/Root[map]"] == model.config.m0


def test_block_dag_is_exposed_on_the_model():
    model = acceptance_model()
    dag = model.block_dag()
    reference = build_block_dag(model)
    assert dag.stages == reference.stages
    assert dag.producers == reference.producers
    assert dag.deps == reference.deps


def test_lint_pipeline_replays_the_steps_once(monkeypatch):
    """The plan rules (PL003-PL005) and the DF defect rules read one block
    DAG: each ``lint_pipeline`` call builds it exactly once."""
    import sys

    from repro.analysis import dataflow, lint_pipeline

    calls = []
    original = dataflow.build_block_dag

    def counted(model):
        calls.append(model)
        return original(model)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.analysis") and hasattr(module, "build_block_dag"):
            monkeypatch.setattr(module, "build_block_dag", counted)
    for n, config in ((8, InversionConfig(nb=2, m0=2)), (256, InversionConfig(nb=64))):
        calls.clear()
        lint_pipeline(n, config)
        assert len(calls) == 1


def test_plan_and_dataflow_rules_read_the_same_late_reads():
    """A producer moved after its consumer: PL003 reports each late read the
    DAG records, DF002 the steps whose late reads have a producer."""
    model = build_model(256, InversionConfig(nb=64))
    first = next(i for i, s in enumerate(model.steps) if s.name.startswith("lu:"))
    model.steps.insert(1, model.steps.pop(first))
    dag = build_block_dag(model)
    pl003 = [f for f in lint_model(model, dag) if f.rule == "PL003"]
    assert len(pl003) == sum(len(reads) for reads in dag.late_reads.values()) > 0
    assert {f.location for f in pl003} == set(dag.late_reads)
    df002 = {f.location for f in lint_dataflow(model, dag) if f.rule == "DF002"}
    assert df002 and df002 <= set(dag.late_reads)


def test_edges_aggregate_paths_per_step_pair():
    dag = acceptance_model().block_dag()
    edges = dag.edges()
    assert all(edge.src != edge.dst for edge in edges)
    for edge in edges:
        assert dag.stage_of(edge.src) < dag.stage_of(edge.dst)
        assert set(edge.paths) == dag.edge_paths(edge.src, edge.dst)
    # Aggregation: one edge record per (src, dst) pair.
    pairs = [(e.src, e.dst) for e in edges]
    assert len(pairs) == len(set(pairs))


def test_pipeline_is_a_dependency_chain():
    """The in-order schedule IS the data-dependency order: with barriers
    replaced by block edges, no stage can start any earlier."""
    dag = acceptance_model().block_dag()
    levels = dag.asap()
    assert levels == {name: i for i, name in enumerate(dag.stages)}
    chain = dag.critical_path()
    assert len(chain) == len(dag.stages)
    assert chain[0] == "write-input" and chain[-1] == "collect-output"


def test_critical_path_strictly_shorter_than_barrier_schedule():
    """14 point-to-point edges vs 15 stages + 14 global barriers."""
    dag = acceptance_model().block_dag()
    stages = len(dag.stages)
    cp_edges = len(dag.critical_path()) - 1
    sync_points = stages + (stages - 1)
    assert cp_edges == stages - 1 == 14
    assert cp_edges < sync_points == 29


def test_max_width_is_m0_at_acceptance_config():
    dag = acceptance_model().block_dag()
    assert dag.max_width() == 2


def test_find_cycle_none_on_clean_plan():
    assert acceptance_model().block_dag().find_cycle() is None


# -- sibling-subtree independence (DF001) ------------------------------------------


def test_sibling_subtrees_exchange_no_direct_blocks():
    model = acceptance_model()
    reports = sibling_reports(model)
    # d=2 full tree: 3 internal nodes (root + two depth-1 children).
    assert len(reports) == 3
    assert sorted(r.depth for r in reports) == [1, 2, 2]
    for r in reports:
        assert r.independent, r.cross_edges
        assert r.child1_steps and r.child2_steps
    root = next(r for r in reports if r.parent_dir == "/Root")
    assert root.child1_dir == "/Root/A1"
    assert root.child2_dir == "/Root/OUT"
    assert root.parent_job == "lu:/Root"


def test_structural_findings_are_info_only():
    model = acceptance_model()
    df = lint_dataflow(model, structural=True)
    assert rule_ids(df) == {"DF001", "DF005"}
    assert all(f.severity == Severity.INFO for f in df)
    assert sum(1 for f in df if f.rule == "DF001") == 3
    summary = next(f for f in df if f.rule == "DF005")
    assert "14 point-to-point edges" in summary.message
    assert "29 sync points" in summary.message


def test_seeded_cross_subtree_edge_breaks_independence():
    model = acceptance_model()
    cross = sorted(model.find_step("master-lu:/Root/A1/A1").writes)[0]
    model.find_step("master-lu:/Root/OUT/A1").reads.add(cross)
    reports = {r.parent_dir: r for r in sibling_reports(model)}
    assert not reports["/Root"].independent
    locations = {
        f.location for f in lint_dataflow(model, structural=True)
        if f.rule == "DF001"
    }
    assert "/Root" not in locations


# -- defect rules on clean plans ---------------------------------------------------


@pytest.mark.parametrize(
    "n, config",
    [
        (8, InversionConfig(nb=2, m0=2)),
        (256, InversionConfig(nb=64)),
        (256, InversionConfig(nb=64, separate_files=False)),
        (256, InversionConfig(nb=64, block_wrap=False)),
        (256, InversionConfig(nb=64, output_commit=False)),
        (48, InversionConfig(nb=64)),      # single-leaf plan
        (129, InversionConfig(nb=32)),     # non-full tree
    ],
)
def test_clean_plans_have_zero_df_hazards(n, config):
    findings = lint_dataflow(build_model(n, config))
    assert findings == [], render_text(findings)


# -- seeded defects ----------------------------------------------------------------


def test_read_of_later_stage_write_is_df002():
    model = acceptance_model()
    model.find_step("lu:/Root[map]").reads.add(model.layout.final_path(0))
    findings = [f for f in lint_dataflow(model) if f.rule == "DF002"]
    assert findings and findings[0].severity == Severity.ERROR
    assert "invert-final[reduce]" in findings[0].message


def test_dead_block_is_df003():
    model = acceptance_model()
    model.find_step("partition[map]").writes.add("/Root/dead.bin")
    findings = [f for f in lint_dataflow(model) if f.rule == "DF003"]
    assert len(findings) == 1
    assert "/Root/dead.bin" in findings[0].message
    assert findings[0].severity == Severity.WARNING


def test_commit_manifests_are_exempt_from_df003():
    """Manifests are write-only by design (read only on crash-resume)."""
    model = acceptance_model()
    assert model.manifest_writes  # output_commit defaults on
    dag = model.block_dag()
    assert all(not dag.consumers.get(p) for p in model.manifest_writes)
    assert lint_dataflow(model, dag) == []


def test_same_stage_round_trip_is_df004():
    model = acceptance_model()
    step = model.find_step("lu:/Root[map]")
    step.reads.add(sorted(step.writes)[0])
    assert "DF004" in rule_ids(lint_dataflow(model))


def test_reciprocal_reads_are_a_df006_cycle():
    model = acceptance_model()
    out_path = sorted(model.find_step("lu:/Root[reduce]").writes)[0]
    model.find_step("lu:/Root[map]").reads.add(out_path)
    findings = [f for f in lint_dataflow(model) if f.rule == "DF006"]
    assert findings and " -> " in findings[0].message
    assert model.block_dag().find_cycle() is not None


def test_map_reading_own_reduce_output_is_df007():
    model = acceptance_model()
    model.find_step("invert-final[map]").reads.add(model.layout.final_path(0))
    assert "DF007" in rule_ids(lint_dataflow(model))


# -- barrier-slack report ----------------------------------------------------------


def test_render_barrier_slack_names_the_removable_barriers():
    model = acceptance_model()
    report = render_barrier_slack(model)
    assert "15 stages + 14 global barriers = 29 sync points" in report
    assert "14 point-to-point edges" in report
    assert "max width        : 2 tasks" in report
    assert report.count("-> removable") == 3
    assert "/Root/A1 <-> /Root/OUT" in report
    assert "critical path chain:" in report
    assert "write-input -> partition[map]" in report


def test_render_barrier_slack_flags_coupled_siblings():
    model = acceptance_model()
    cross = sorted(model.find_step("master-lu:/Root/A1/A1").writes)[0]
    model.find_step("master-lu:/Root/OUT/A1").reads.add(cross)
    report = render_barrier_slack(model)
    assert "NOT removable" in report


# -- static-vs-dynamic replay (DF008) ----------------------------------------------


@pytest.fixture(scope="module")
def recorded_spans(tmp_path_factory):
    from repro.telemetry.cli import run_traced_inversion
    from repro.telemetry.exporters import read_jsonl

    jsonl = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    run_traced_inversion(seed=0, jsonl=str(jsonl), **ACCEPTANCE)
    return read_jsonl(str(jsonl))


def test_recorded_trace_replays_cleanly(recorded_spans):
    model = acceptance_model()
    findings, stats = replay_spans(model, recorded_spans)
    assert findings == [], render_text(findings)
    # The read records folded into the spans replay to the same counts the
    # per-read spans gave before folding.
    assert (stats.total_reads, stats.attributed, stats.matched) == (74, 74, 74)
    assert len(stats.observed_edges) == 56
    assert stats.commit_internal == stats.export == stats.unattributed == 0
    # Every observed edge is a (modeled step, modeled read) pair.
    reads_of = {s.name: s.reads for s in model.steps}
    for step, path in stats.observed_edges:
        assert path in reads_of[step]


def test_dropped_model_read_is_df008_on_replay(recorded_spans):
    model = acceptance_model()
    step = model.find_step("invert-final[map]")
    step.reads -= {
        model.layout.map_input_path(j) for j in range(model.config.m0)
    }
    findings, _ = replay_spans(model, recorded_spans)
    assert rule_ids(findings) == {"DF008"}
    assert all(f.severity == Severity.ERROR for f in findings)


def test_unmodeled_step_is_df008_on_replay(recorded_spans):
    model = acceptance_model()
    model.steps = [s for s in model.steps if s.name != "invert-final[map]"]
    findings, _ = replay_spans(model, recorded_spans)
    assert "DF008" in rule_ids(findings)
    assert any("no stage" in f.message for f in findings)


@pytest.mark.parametrize(
    "executor, schedule", [("processes", "barrier"), ("threads", "dataflow")]
)
def test_pool_and_dataflow_traces_replay_cleanly(tmp_path, executor, schedule):
    """The process pool's driver reads the namespace on the wave span before
    shipping a wave.  Those ``export`` reads belong to no step: they are
    counted apart, never reported as reads of a bare job name with no stage."""
    from repro.telemetry.cli import run_traced_inversion
    from repro.telemetry.exporters import read_jsonl

    jsonl = tmp_path / "spans.jsonl"
    run_traced_inversion(
        seed=0, jsonl=str(jsonl), executor=executor, schedule=schedule, **ACCEPTANCE
    )
    findings, stats = replay_spans(acceptance_model(), read_jsonl(str(jsonl)))
    assert findings == [], render_text(findings)
    assert stats.matched == stats.attributed > 0
    assert stats.unattributed == 0
    assert (stats.export > 0) == (executor == "processes")


def test_stray_read_on_a_wave_span_is_df008_on_replay(tmp_path):
    """Only ``export`` records skip the step check: a plain read folded into
    a wave span (driver-side pipeline I/O outside every task) walks up to the
    bare job name, which has no stage."""
    from repro.telemetry.cli import run_traced_inversion
    from repro.telemetry.exporters import read_jsonl
    from repro.telemetry.spans import SpanKind

    jsonl = tmp_path / "spans.jsonl"
    run_traced_inversion(seed=0, jsonl=str(jsonl), executor="threads", **ACCEPTANCE)
    spans = read_jsonl(str(jsonl))
    model = acceptance_model()
    wave = next(s for s in spans if s.kind is SpanKind.WAVE)
    path = model.layout.map_input_path(0)

    wave.io.append(("export", path, 8, 0.0))
    findings, stats = replay_spans(model, spans)
    assert findings == [] and stats.export == 1

    wave.io[-1] = ("read", path, 8, 0.0)
    findings, stats = replay_spans(model, spans)
    assert rule_ids(findings) == {"DF008"} and stats.export == 0
    assert any("no stage" in f.message for f in findings)


# -- CLI mode ----------------------------------------------------------------------


def test_cli_dataflow_report_exit_codes(capsys):
    assert lint_main(
        ["--dataflow", "--report", "--n", "8", "--nb", "2", "--m0", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "15 stages, 5 jobs" in out
    assert "-> removable" in out
    assert "DF001" in out and "DF005" in out
    # --report and --replay are refinements of --dataflow mode only.
    assert lint_main(["--report", "--n", "8", "--nb", "2"]) == 2
    assert lint_main(["--replay", "/tmp/x.jsonl", "--n", "8", "--nb", "2"]) == 2
    # Bad configurations are rejected exactly like plan mode rejects them.
    assert lint_main(["--dataflow", "--n", "0", "--nb", "2"]) == 2
    assert lint_main(["--dataflow", "--n", "8", "--nb", "2", "--m0", "3"]) == 2
    assert lint_main(
        ["--dataflow", "--replay", "/nonexistent.jsonl", "--n", "8", "--nb", "2"]
    ) == 2


def test_cli_dataflow_replay(tmp_path, capsys):
    from repro.telemetry.cli import run_traced_inversion

    jsonl = tmp_path / "spans.jsonl"
    run_traced_inversion(seed=0, jsonl=str(jsonl), **ACCEPTANCE)
    capsys.readouterr()
    assert lint_main(
        ["--dataflow", "--replay", str(jsonl),
         "--n", "8", "--nb", "2", "--m0", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "replay" in out and "matched the static DAG" in out
