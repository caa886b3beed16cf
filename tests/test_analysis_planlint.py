"""Plan/dataflow linter: clean pipelines pass, seeded defects are caught.

The acceptance contract: on an intact ``n=4096, nb=512`` plan the linter
reports zero error findings and confirms the ``2^d + 1`` job count without
executing a single job; each deliberately seeded defect (dropped
intermediate write, double-write, wrong job count, broken ``f1*f2 == m0``
grid, flipped transpose flag) produces the expected rule id.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import InversionConfig
from repro.analysis import (
    PreflightError,
    Severity,
    build_model,
    has_errors,
    lint_model,
    lint_pipeline,
    lint_plan,
    preflight_check,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.inversion.plan import intermediate_file_count, total_job_count
from repro.inversion.regions import Region


def rule_ids(findings):
    return {f.rule for f in findings}


# -- clean pipelines ---------------------------------------------------------------


def test_intact_4096_512_plan_is_clean():
    """The ISSUE's acceptance case: static validation, no job execution."""
    findings, model = lint_pipeline(4096, InversionConfig(nb=512))
    assert findings == []
    assert model.plan.depth == 3
    assert model.job_count == total_job_count(4096, 512) == 2**3 + 1 == 9
    assert model.job_names == model.plan.job_schedule()


@pytest.mark.parametrize(
    "n, config",
    [
        (256, InversionConfig(nb=64)),
        (256, InversionConfig(nb=64, separate_files=False)),
        (256, InversionConfig(nb=64, transpose_u=False)),
        (256, InversionConfig(nb=64, block_wrap=False)),
        (250, InversionConfig(nb=64, m0=2)),   # odd order, minimal cluster
        (300, InversionConfig(nb=64, m0=6)),   # non-square grid (3, 2)
        (48, InversionConfig(nb=64)),          # single-leaf plan
        (129, InversionConfig(nb=32)),         # non-full tree
    ],
)
def test_clean_configurations_produce_no_findings(n, config):
    findings, model = lint_pipeline(n, config)
    assert findings == [], render_text(findings)
    assert model.job_names == model.plan.job_schedule()


def test_model_counts_intermediate_files_like_section_61():
    """The model's separate factor-file count equals N(d) exactly."""
    config = InversionConfig(nb=64, m0=4)
    model = build_model(512, config)
    # d = 3: N(d) = 2^3 + 2 * (2^3 - 1) = 22 part files.
    assert intermediate_file_count(512, 64, 4) == 22
    assert lint_model(model) == []


def test_output_commit_off_means_no_manifest_paths():
    """With the two-phase commit disabled no manifests exist, so the model
    must not invent them — and PL009 stays silent either way."""
    config = InversionConfig(nb=64, output_commit=False)
    model = build_model(256, config)
    assert model.manifest_writes == set()
    findings = lint_model(model)
    assert "PL009" not in {f.rule for f in findings}
    assert findings == []
    # Contrast: with the commit on, one manifest per master phase and job.
    committed = build_model(256, InversionConfig(nb=64))
    n_master = sum(1 for s in committed.steps if s.kind == "master")
    assert len(committed.manifest_writes) == n_master + committed.job_count
    assert committed.all_writes() >= committed.manifest_writes


# -- seeded defects ----------------------------------------------------------------


def seeded_model():
    return build_model(512, InversionConfig(nb=64))


def test_dropped_intermediate_write_is_pl003():
    model = seeded_model()
    step = model.find_step("lu:/Root[reduce]")
    dropped = sorted(step.writes)[0]
    step.writes.discard(dropped)
    findings = lint_model(model)
    assert "PL003" in rule_ids(findings)
    assert any(dropped in f.message for f in findings if f.rule == "PL003")


def test_dropped_l2_write_also_breaks_nd_count():
    model = seeded_model()
    step = model.find_step("lu:/Root[map]")
    l2_path = sorted(p for p in step.writes if "/L2/" in p)[0]
    step.writes.discard(l2_path)
    ids = rule_ids(lint_model(model))
    assert "PL003" in ids  # the reduce phase reads it
    assert "PL008" in ids  # and the Section 6.1 count no longer matches


def test_double_write_is_pl004():
    model = seeded_model()
    model.find_step("partition[map]").writes.add(model.layout.input_path)
    assert "PL004" in rule_ids(lint_model(model))


def test_block_reading_past_its_file_is_pl002():
    model = seeded_model()
    nl = model.layout.of(model.plan.tree)
    first, *rest = nl.a3.blocks
    short = replace(first, file_rows=first.fr1 + first.rows - 1)
    nl.a3 = Region(nl.a3.rows, nl.a3.cols, (short, *rest))
    findings = [f for f in lint_model(model) if f.rule == "PL002"]
    assert len(findings) == 1
    assert f"{short.file_rows}x{short.file_cols} file" in findings[0].message


def test_missing_final_job_is_pl001():
    model = seeded_model()
    model.steps = [s for s in model.steps if s.job != "invert-final"]
    assert "PL001" in rule_ids(lint_model(model))


def test_bad_grid_factorization_is_pl007():
    model = seeded_model()
    model.grid = (3, 3)  # 9 != m0 = 4
    findings = [f for f in lint_model(model) if f.rule == "PL007"]
    assert findings and findings[0].severity == Severity.ERROR


def test_flipped_transpose_flag_is_pl006():
    model = seeded_model()
    model.config = replace(model.config, transpose_u=False)
    assert "PL006" in rule_ids(lint_model(model))


def test_job_touching_commit_paths_is_pl009():
    from repro.dfs.commit import manifest_path, staging_path

    model = seeded_model()
    step = model.find_step("lu:/Root[reduce]")
    step.reads.add(staging_path("attempt-bad", "/Root/lu/L2/L.0"))
    step.writes.add(manifest_path(model.config.root, "job:lu:/Root"))
    assert "PL009" in rule_ids(lint_model(model))


def test_orphaned_intermediate_is_pl005():
    model = seeded_model()
    model.find_step("partition[map]").writes.add("/Root/junk/never_read")
    findings = [f for f in lint_model(model) if f.rule == "PL005"]
    assert len(findings) == 1
    assert "/Root/junk/never_read" in findings[0].message
    assert findings[0].severity == Severity.WARNING


def test_misshaped_region_is_pl002():
    model = seeded_model()
    tree = model.plan.tree
    nl = model.layout.of(tree)
    # A3 must be n2 x n1 for L2' U1 = A3 to be conformable.
    nl.a3 = Region(tree.n2, tree.n1 + 1, ())
    assert "PL002" in rule_ids(lint_model(model))


# -- pre-flight integration ---------------------------------------------------------


def test_preflight_check_returns_validated_model():
    model = preflight_check(256, InversionConfig(nb=64))
    assert model.job_count == 5


def test_preflight_error_carries_findings():
    model = seeded_model()
    model.grid = (3, 3)
    findings = lint_model(model)
    err = PreflightError(findings)
    assert "PL007" in str(err)
    assert err.findings == findings


def _count_analyze_job(monkeypatch) -> list[str]:
    """Count ``purity.analyze_job`` calls through every binding a caller
    could reach it by."""
    import repro.analysis as analysis
    import repro.analysis.cli as analysis_cli
    import repro.analysis.purity as purity

    calls: list[str] = []
    original = purity.analyze_job

    def counted(conf):
        calls.append(conf.name)
        return original(conf)

    for module in (analysis, analysis_cli, purity):
        monkeypatch.setattr(module, "analyze_job", counted)
    return calls


@pytest.mark.parametrize("schedule", ["barrier", "dataflow"])
@pytest.mark.parametrize("n, nb, jobs", [(16, 8, 3), (32, 4, 9)])
def test_purity_runs_once_per_task_class_not_per_job(
    monkeypatch, n, nb, jobs, schedule
):
    """One pre-flight per run: the purity checker sees one representative
    conf per task class (partition, LU, final inversion), however many of
    the ``2^d + 1`` jobs the run launches."""
    import numpy as np

    from repro.inversion import MatrixInverter

    calls = _count_analyze_job(monkeypatch)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    with MatrixInverter(InversionConfig(nb=nb, m0=2, schedule=schedule)) as inverter:
        result = inverter.invert(a)
    assert result.num_jobs == jobs
    assert len(calls) == 3


def test_impure_pipeline_task_fails_preflight_before_any_job(monkeypatch):
    """The gate the per-job validators used to double: a pipeline task
    class gone impure is caught by the one pre-flight, before launch."""
    import random

    import numpy as np

    from repro.inversion import MatrixInverter
    from repro.inversion.invert_job import InvertMapper

    def impure_map(self, ctx, split):
        ctx.emit(split.index, random.random())

    monkeypatch.setattr(InvertMapper, "map", impure_map)
    a = np.eye(16) * 4.0
    with MatrixInverter(InversionConfig(nb=4, m0=2)) as inverter:
        with pytest.raises(PreflightError) as excinfo:
            inverter.invert(a)
        assert inverter.runtime.jobs_run() == 0
        assert inverter.runtime.dfs.list_files("/") == []
    assert "PU002" in {f.rule for f in excinfo.value.findings}
    assert "impure_map" in str(excinfo.value)


# -- rendering and CLI --------------------------------------------------------------


def test_render_text_and_json_roundtrip():
    model = seeded_model()
    model.grid = (3, 3)
    findings = lint_model(model)
    text = render_text(findings)
    assert "PL007" in text and "error" in text
    import json

    payload = json.loads(render_json(findings))
    assert payload[0]["rule"] == "PL007"
    assert payload[0]["severity"] == "error"


def test_cli_plan_mode_exit_codes(capsys):
    assert lint_main(["--n", "4096", "--nb", "512"]) == 0
    out = capsys.readouterr().out
    assert "9 jobs" in out and "2^d + 1 = 9" in out
    # m0 must be even: configuration rejected before linting.
    assert lint_main(["--n", "256", "--nb", "64", "--m0", "3"]) == 2
    assert lint_main(["--n", "0", "--nb", "64"]) == 2
    assert lint_main(["/nonexistent/pipeline.py"]) == 2


def test_cli_json_mode(capsys):
    assert lint_main(["--n", "256", "--nb", "64", "--json"]) == 0
    import json

    assert json.loads(capsys.readouterr().out) == []


def test_has_errors_and_ignore():
    model = seeded_model()
    model.grid = (3, 3)
    findings = lint_model(model)
    assert has_errors(findings)
    from repro.analysis import filter_ignored

    assert not has_errors(filter_ignored(findings, ["PL007"]))
