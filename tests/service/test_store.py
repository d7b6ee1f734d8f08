"""Job model + durable store: state machine, persistence, transports."""

import json

import pytest

from repro.service import JobRecord, JobSpec, JobState, new_job_id
from repro.service.store import JobStore


def spec(**overrides):
    base = dict(program="repro.workloads.dining:dining_philosophers",
                factory_args=["2"], config={"strategy": "dfs"})
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpec:
    def test_validate_accepts_known_config(self):
        spec(config={"strategy": "icb", "max_executions": 10,
                     "seed": 7}).validate()

    def test_validate_rejects_unknown_config_key(self):
        with pytest.raises(ValueError, match="max_execution"):
            spec(config={"max_execution": 10}).validate()
        # A removed Checker option is as unknown as a typo.
        with pytest.raises(ValueError, match="snapshot_cache"):
            spec(config={"snapshot_cache": True}).validate()

    def test_validate_rejects_bad_priority(self):
        with pytest.raises(ValueError, match="priority"):
            spec(priority="urgent").validate()

    def test_validate_rejects_bad_program_spec(self):
        with pytest.raises(ValueError, match="factory"):
            spec(program="no-colon-here").validate()

    def test_validate_rejects_bad_stream(self):
        with pytest.raises(ValueError, match="stream"):
            spec(stream="firehose").validate()

    def test_round_trips_through_dict(self):
        original = spec(priority="smoke", client="ci", stream="decisions")
        assert JobSpec.from_dict(original.to_dict()) == original


class TestJobRecordStateMachine:
    def test_legal_lifecycle(self):
        record = JobRecord(id=new_job_id(), spec=spec())
        assert record.state is JobState.QUEUED
        record.transition(JobState.RUNNING)
        assert record.started_at is not None
        record.transition(JobState.DONE)
        assert record.finished_at is not None
        assert record.state.terminal

    def test_queued_can_cancel_or_fail(self):
        for target in (JobState.CANCELLED, JobState.FAILED):
            record = JobRecord(id=new_job_id(), spec=spec())
            record.transition(target)
            assert record.state is target

    def test_terminal_states_are_frozen(self):
        record = JobRecord(id=new_job_id(), spec=spec())
        record.transition(JobState.CANCELLED)
        with pytest.raises(ValueError, match="illegal transition"):
            record.transition(JobState.RUNNING)

    def test_queued_cannot_jump_to_done(self):
        record = JobRecord(id=new_job_id(), spec=spec())
        with pytest.raises(ValueError, match="illegal transition"):
            record.transition(JobState.DONE)

    def test_job_id_cannot_escape_the_jobs_dir(self):
        for bad in ("../evil", "a/b", ".hidden", "", "a\\b"):
            with pytest.raises(ValueError, match="invalid job id"):
                JobRecord(id=bad, spec=spec())

    def test_round_trips_through_dict(self):
        record = JobRecord(id=new_job_id(), spec=spec())
        record.transition(JobState.RUNNING)
        record.executions = 120
        record.quanta = 3
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_ids_sort_by_submission_time(self):
        a, b = new_job_id(), new_job_id()
        assert a != b
        assert a.split("-")[1] <= b.split("-")[1]


class TestJobStore:
    def test_create_save_load(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(id=new_job_id(), spec=spec())
        store.create(record)
        assert store.exists(record.id)
        loaded = store.load(record.id)
        assert loaded.to_dict() == record.to_dict()

    def test_create_twice_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(id=new_job_id(), spec=spec())
        store.create(record)
        with pytest.raises(ValueError, match="already exists"):
            store.create(record)

    def test_load_unknown_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            JobStore(tmp_path).load("job-nope")

    def test_jobs_iterates_sorted(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [new_job_id() for _ in range(3)]
        for job_id in reversed(ids):
            store.create(JobRecord(id=job_id, spec=spec()))
        assert [r.id for r in store.jobs()] == sorted(ids)

    def test_results_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.load_result("job-x") is None
        store.save_result("job-x", {"verdict": "pass", "executions": 42})
        assert store.load_result("job-x")["verdict"] == "pass"

    def test_record_write_is_atomic(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(id=new_job_id(), spec=spec())
        store.create(record)
        record.executions = 999
        store.save(record)
        assert not list(store.job_dir(record.id).glob("*.tmp"))
        assert store.load(record.id).executions == 999


class TestFilesystemTransport:
    def test_submission_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = new_job_id()
        store.drop_submission(spec(priority="smoke"), job_id)
        taken = store.take_submissions()
        assert len(taken) == 1
        assert taken[0]["id"] == job_id
        assert taken[0]["spec"]["priority"] == "smoke"
        assert store.take_submissions() == []  # inbox drained

    def test_corrupt_submission_is_skipped_not_fatal(self, tmp_path):
        store = JobStore(tmp_path)
        (store.inbox_dir / "bad.json").write_text("{not json")
        good = new_job_id()
        store.drop_submission(spec(), good)
        taken = store.take_submissions()
        assert [t["id"] for t in taken] == [good]

    def test_cancel_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        store.drop_cancel("job-a")
        store.drop_cancel("job-b")
        assert sorted(store.take_cancels()) == ["job-a", "job-b"]
        assert store.take_cancels() == []


class TestRecovery:
    def test_recover_returns_only_resumable_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        states = {
            JobState.QUEUED: new_job_id(),
            JobState.RUNNING: new_job_id(),
            JobState.DONE: new_job_id(),
            JobState.CANCELLED: new_job_id(),
        }
        for state, job_id in states.items():
            record = JobRecord(id=job_id, spec=spec())
            if state is not JobState.QUEUED:
                record.transition(JobState.RUNNING)
            if state.terminal:
                record.transition(state)
            store.create(record)
        resumable = {r.id for r in store.recover()}
        assert resumable == {states[JobState.QUEUED],
                             states[JobState.RUNNING]}

    def test_cleanup_job_deletes_checkpoint(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(id=new_job_id(), spec=spec())
        store.create(record)
        store.checkpoint_path(record.id).write_text(
            json.dumps({"format": 1, "state": {}}))
        store.cleanup_job(record.id)
        assert not store.checkpoint_path(record.id).exists()

    def test_stale_checkpoints_reported_for_terminal_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(id=new_job_id(), spec=spec())
        record.transition(JobState.RUNNING)
        record.transition(JobState.DONE)
        store.create(record)
        assert store.stale_checkpoints() == []
        store.checkpoint_path(record.id).write_text("{}")
        assert store.stale_checkpoints() == [
            store.checkpoint_path(record.id)]

    def test_sweep_terminal_jobs_by_age(self, tmp_path):
        store = JobStore(tmp_path)
        old = JobRecord(id=new_job_id(), spec=spec())
        old.transition(JobState.RUNNING)
        old.transition(JobState.DONE)
        old.finished_at = 100.0
        store.create(old)
        fresh = JobRecord(id=new_job_id(), spec=spec())
        fresh.transition(JobState.RUNNING)
        fresh.transition(JobState.DONE)
        fresh.finished_at = 950.0
        store.create(fresh)
        active = JobRecord(id=new_job_id(), spec=spec())
        store.create(active)
        removed = store.sweep_terminal_jobs(500.0, now=1000.0)
        assert removed == [old.id]
        assert not store.exists(old.id)
        assert store.exists(fresh.id)
        assert store.exists(active.id)
