"""Chaos harness: schedules, nemesis mechanics, campaign invariants, CLI."""

import json
import pathlib
import random

import pytest

from repro import InversionConfig
from repro.chaos import (
    ChaosContext,
    CrashAtWrite,
    CrashDriver,
    DriverCrashError,
    FaultSchedule,
    KillDatanode,
    Nemesis,
    ReviveDatanode,
    builtin_schedules,
    campaign_matrix,
    run_campaign,
    run_schedule,
    schedule_by_name,
)
from repro.chaos.cli import main as chaos_main
from repro.chaos.schedule import DEADLINE_RETRY, FAST_BACKOFF
from repro.dfs import DFS, STAGING_ROOT, mirrored_path
from repro.inversion import MatrixInverter
from repro.mapreduce.job import JobConf, splits_for_workers

#: The crash sweep's 83 points at seed 0, ``[op, hook path]`` in order.
SWEEP_POINTS = pathlib.Path(__file__).parent / "golden" / "crash_sweep_points.json"


def _comparable(outcome):
    """Outcome dict minus wall-clock noise, for determinism comparisons."""
    d = outcome.to_dict()
    d.pop("wall_seconds")
    d.pop("backoff_seconds")
    return d


class TestSchedules:
    def test_battery_has_at_least_five_distinct_schedules(self):
        schedules = builtin_schedules(seed=0)
        names = [s.name for s in schedules]
        assert len(set(names)) == len(names) >= 5

    def test_combined_schedule_crashes_the_driver(self):
        combined = schedule_by_name("combined")
        assert combined.crashes_driver
        assert any(isinstance(e, KillDatanode) for e in combined.events)
        assert combined.retry is not None
        assert combined.retry.attempt_deadline is not None
        assert combined.make_task_faults(0) is not None

    def test_task_fault_factories_return_fresh_policies(self):
        flaky = schedule_by_name("flaky-tasks")
        assert flaky.make_task_faults(0) is not flaky.make_task_faults(0)

    def test_unknown_schedule_name(self):
        with pytest.raises(KeyError):
            schedule_by_name("does-not-exist")

    @pytest.mark.parametrize("policy", [FAST_BACKOFF, DEADLINE_RETRY])
    def test_backoff_delays_are_pinned(self, policy):
        # The schedules' exact retry sleeps: a change here moves every
        # campaign's backoff timing.
        assert [policy.delay_for(a, key="3:map:1") for a in range(1, 9)] == [
            0.0018677060848259616,
            0.0025559289242504,
            0.004752906147565904,
            0.013446659519673944,
            0.018488192823363513,
            0.012510591622560888,
            0.012158561565950179,
            0.01656208324398894,
        ]


class TestNemesis:
    def _conf(self, name="j"):
        return JobConf(name=name, mapper_factory=None, splits=splits_for_workers(1))

    def test_events_fire_at_their_job_index_once(self):
        dfs = DFS(num_datanodes=3)
        nemesis = Nemesis(
            (KillDatanode(at_job=1, node=0), ReviveDatanode(at_job=2, node=0)),
            dfs,
            seed=0,
        )
        nemesis(self._conf("a"))
        assert dfs.blocks.datanodes[0].alive
        nemesis(self._conf("b"))
        assert not dfs.blocks.datanodes[0].alive
        nemesis(self._conf("c"))
        assert dfs.blocks.datanodes[0].alive
        nemesis(self._conf("d"))  # nothing left to fire
        assert len(nemesis.ctx.log) == 2

    def test_crash_event_is_consumed_before_raising(self):
        dfs = DFS(num_datanodes=3)
        nemesis = Nemesis((CrashDriver(at_job=0),), dfs, seed=0)
        with pytest.raises(DriverCrashError):
            nemesis(self._conf())
        # The resumed driver sees the same hook; the crash must not re-fire.
        nemesis(self._conf())
        assert "driver crash" in nemesis.ctx.log[0]

    def test_skipped_indices_still_fire(self):
        # An event pinned to a job index the (resumed, shorter) pipeline
        # never reaches by count still fires at the next launch.
        dfs = DFS(num_datanodes=3)
        nemesis = Nemesis((KillDatanode(at_job=0, node=1),), dfs, seed=0)
        nemesis.jobs_seen = 3
        nemesis(self._conf())
        assert not dfs.blocks.datanodes[1].alive


class TestCampaign:
    def test_full_battery_is_green(self):
        report = run_campaign(seed=0)
        failures = {
            o.schedule: [inv.to_dict() for inv in o.invariants if not inv.ok]
            + ([o.error] if o.error else [])
            for o in report.outcomes
            if not o.ok
        }
        assert report.ok, failures
        assert len(report.outcomes) >= 5
        names = {inv.name for o in report.outcomes for inv in o.invariants}
        assert names == {
            "correctness",
            "job-accounting",
            "replication",
            "no-orphans",
        }

    def test_combined_crash_and_resume(self):
        outcome = run_schedule(schedule_by_name("combined"), seed=0)
        assert outcome.ok
        assert outcome.crashed_and_resumed
        assert any("driver crash" in e for e in outcome.events_log)
        assert outcome.attempts_timed_out > 0  # the hung tasks were abandoned
        assert outcome.repair_copies > 0  # the killed node's blocks re-homed

    def test_hung_task_schedule_times_out_instead_of_stalling(self):
        outcome = run_schedule(schedule_by_name("hung-task"), seed=0)
        assert outcome.ok
        assert outcome.attempts_timed_out > 0
        assert outcome.attempts_failed >= outcome.attempts_timed_out

    def test_datanode_kill_triggers_auto_repair(self):
        outcome = run_schedule(schedule_by_name("datanode-kill"), seed=0)
        assert outcome.ok
        assert outcome.repair_copies > 0

    def test_same_seed_same_outcome(self):
        schedule = schedule_by_name("kill-revive-corrupt")
        first = run_schedule(schedule, seed=5)
        second = run_schedule(schedule, seed=5)
        assert first.ok and second.ok
        assert _comparable(first) == _comparable(second)

    def test_failed_run_is_span_correlated_and_reproducible(self):
        # A permanent job failure: the outcome carries the run's trace id,
        # the failed job's span and (in the error text) every failed
        # attempt's span — identical on a second run of the same seed.
        from repro.mapreduce import FailAlways, RetryPolicy, TaskKind

        doomed = FaultSchedule(
            name="doomed-map",
            description="one partition mapper never succeeds",
            retry=RetryPolicy(max_attempts=2),
            task_faults=lambda seed: FailAlways(kind=TaskKind.MAP, task_index=1),
        )
        first = run_schedule(doomed, seed=3)
        second = run_schedule(doomed, seed=3)
        assert not first.ok
        assert first.trace_id == "chaos-doomed-map-seed3"
        assert first.error_span_id
        assert "[trace chaos-doomed-map-seed3]" in first.error
        assert first.error.count("(span ") == 2  # one per failed attempt
        assert _comparable(first) == _comparable(second)

    def test_resume_lands_in_the_crashed_runs_trace_tree(self, monkeypatch):
        from repro.chaos import campaign
        from repro.telemetry import SpanKind

        observations = []

        def recording_observe(**kwargs):
            observations.append(campaign_observe(**kwargs))
            return observations[-1]

        campaign_observe = campaign.observe
        monkeypatch.setattr(campaign, "observe", recording_observe)
        outcome = run_schedule(schedule_by_name("combined"), seed=0)
        assert outcome.ok and outcome.crashed_and_resumed
        (obs,) = observations  # one observation around the run and its resume
        assert {s.trace_id for s in obs.spans} == {outcome.trace_id}
        runs = sorted(
            (s for s in obs.spans if s.kind is SpanKind.RUN), key=lambda s: s.start
        )
        assert [r.attrs["resume"] for r in runs] == [False, True]
        assert runs[0].status == "error" and runs[1].status == "ok"
        by_id = {s.span_id: s for s in obs.spans}
        fsck_span = next(s for s in obs.spans if s.name == "resume-fsck")
        assert by_id[fsck_span.parent_id] is runs[1]

    def test_run_error_is_reported_not_raised(self):
        # A schedule whose events make the run impossible must produce a
        # red outcome, never an exception out of the harness.
        hopeless = FaultSchedule(
            name="kill-everything",
            description="no datanode survives",
            events=tuple(KillDatanode(at_job=0, node=i) for i in range(5)),
        )
        outcome = run_schedule(hopeless, seed=0)
        assert not outcome.ok
        assert outcome.error is not None


class TestCLI:
    def test_list(self, capsys):
        assert chaos_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "combined" in out

    def test_json_single_schedule(self, capsys):
        assert chaos_main(["--schedule", "baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["schedules"][0]["schedule"] == "baseline"
        assert {i["name"] for i in payload["schedules"][0]["invariants"]} == {
            "correctness",
            "job-accounting",
            "replication",
            "no-orphans",
        }

    def test_unknown_schedule_exits_2(self, capsys):
        assert chaos_main(["--schedule", "nope"]) == 2
        assert "unknown chaos schedule" in capsys.readouterr().err

    def test_text_report_single_schedule(self, capsys):
        assert chaos_main(["--schedule", "datanode-kill"]) == 0
        out = capsys.readouterr().out
        assert "campaign PASSED" in out
        assert "nemesis: before job 1" in out


class TestTornWriteSchedule:
    def test_torn_write_schedule_is_in_the_battery(self):
        names = {s.name for s in builtin_schedules(seed=0)}
        assert "torn-write" in names

    def test_torn_write_crashes_and_resumes_clean(self):
        outcome = run_schedule(schedule_by_name("torn-write"), seed=0)
        assert outcome.ok, [inv.to_dict() for inv in outcome.invariants]
        assert outcome.crashed_and_resumed
        # The torn pending files must not survive as orphans.
        assert all(inv.ok for inv in outcome.invariants)


class TestCrashPointSweep:
    def test_sweep_is_exhaustive_and_green(self):
        from repro.chaos import run_crash_point_sweep

        sweep = run_crash_point_sweep(seed=0)
        assert sweep.ok, sweep.format()
        # Every create and publish of the baseline run was crash-tested, and
        # the points are pinned as the fault hooks see them (a staged create
        # in its mirrored spelling): a change to the staging layout or to
        # the order of writes shows up here as a diff.
        assert sweep.num_points == 83
        pinned = json.loads(SWEEP_POINTS.read_text())
        assert [[p.point.op, p.point.path] for p in sweep.outcomes] == pinned
        assert all(p.crashed for p in sweep.outcomes)

    def test_crash_at_write_fires_on_the_staged_create(self):
        """A match string names a final path; the hook fires on that file's
        staged create, spelled ``/_tmp/<writer>/<final path>``, before it is
        published — the leaf's L factor is staged, its U factor is not."""
        dfs = DFS(num_datanodes=3, replication=2, seed=0)
        ctx = ChaosContext(dfs=dfs, rng=random.Random(0))
        CrashAtWrite(at_job=0, match="/OUT/ut.bin", op="create").apply(ctx)
        inverter = MatrixInverter(InversionConfig(nb=2, m0=2), dfs=dfs)
        with pytest.raises(DriverCrashError, match=r"at create /_tmp/[^/]+/Root/\S*OUT/ut\.bin$"):
            inverter.invert(campaign_matrix(8, 0))
        inverter.close()
        staged = [
            mirrored_path(path)
            for path in dfs.namenode.pending_files(STAGING_ROOT)
        ]
        assert any(path.endswith("/OUT/l.bin") for path in staged), staged
        assert not any(path.endswith("/OUT/ut.bin") for path in staged), staged
        assert not dfs.exists("/Root/OUT/ut.bin")

    def test_sweep_report_serializes(self):
        from repro.chaos import run_crash_point_sweep

        sweep = run_crash_point_sweep(seed=0)
        payload = sweep.to_dict()
        assert payload["ok"] is True
        assert payload["num_points"] == len(payload["points"])
        assert "PASSED" in sweep.format()
