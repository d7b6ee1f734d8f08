"""Service hardening: unwritable stores, corrupt records, orphan jobs.

The durable-state-is-the-authority invariant (service/store.py) only
holds if the server fails loudly when it cannot write, shrugs off
records another process tore, and re-adopts jobs a dead server left
``running``.
"""

import json
import os
import stat
import sys

import pytest

from repro.service import CheckServer, JobSpec, JobState
from repro.service.store import JobStore

SPEC = JobSpec(program="repro.workloads.dining:dining_philosophers",
               factory_args=["2"], config={"strategy": "dfs"})


def _read_only(path):
    path.chmod(stat.S_IRUSR | stat.S_IXUSR)


def _writable(path):
    path.chmod(stat.S_IRWXU)


class TestWritabilityProbe:
    def test_verify_writable_passes_on_a_normal_dir(self, tmp_path):
        JobStore(tmp_path / "svc").verify_writable()

    def test_verify_writable_raises_on_read_only_dir(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores permission bits")
        store = JobStore(tmp_path / "svc")
        _read_only(store.jobs_dir)
        try:
            with pytest.raises(OSError):
                store.verify_writable()
        finally:
            _writable(store.jobs_dir)

    def test_probe_leaves_no_droppings(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        store.verify_writable()
        assert list(store.jobs_dir.iterdir()) == []

    def test_server_boot_fails_loudly_on_unwritable_store(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores permission bits")
        store = JobStore(tmp_path / "svc")  # creates the layout
        _read_only(store.jobs_dir)
        try:
            with pytest.raises(OSError):
                CheckServer(tmp_path / "svc", fleet=1)
        finally:
            _writable(store.jobs_dir)

    def test_boot_fails_when_data_dir_is_a_file(self, tmp_path):
        """Root-proof variant: a path component that is a regular file
        blocks the store layout for any uid."""
        (tmp_path / "blocker").write_text("")
        with pytest.raises(OSError):
            CheckServer(tmp_path / "blocker" / "svc", fleet=1)

    def test_serve_cli_exits_nonzero_on_unwritable_store(self, tmp_path):
        import subprocess

        (tmp_path / "blocker").write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", str(tmp_path / "blocker" / "svc"),
             "--idle-exit", "1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "src")})
        assert proc.returncode == 2
        assert "not writable" in proc.stderr


class TestCorruptRecordQuarantine:
    def test_corrupt_job_json_is_quarantined_and_skipped(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        server = CheckServer(tmp_path / "svc", fleet=1)
        good = server.submit(SPEC)
        server.stop()

        bad_dir = store.jobs_dir / "zzzz-corrupt"
        bad_dir.mkdir()
        (bad_dir / "job.json").write_text('{"id": "zzzz-cor')  # torn

        records = list(store.jobs())
        assert [r.id for r in records] == [good.id]
        assert not (bad_dir / "job.json").exists()
        assert (bad_dir / "job.json.corrupt").read_text().startswith('{"id"')

    def test_server_boots_around_a_corrupt_record(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        bad_dir = store.jobs_dir / "zzzz-corrupt"
        bad_dir.mkdir()
        (bad_dir / "job.json").write_text("not json at all")

        server = CheckServer(tmp_path / "svc", fleet=1)
        try:
            record = server.submit(SPEC)
            server.run_until_idle(timeout=120)
            assert server.job(record.id).state is JobState.DONE
        finally:
            server.stop()


class TestOrphanRecovery:
    def _orphan(self, tmp_path, state):
        """A job a dead server left behind in ``state``."""
        server = CheckServer(tmp_path / "svc", fleet=1)
        record = server.submit(SPEC)
        server.stop()
        store = JobStore(tmp_path / "svc")
        payload = json.loads(store.record_path(record.id).read_text())
        payload["state"] = state
        store.record_path(record.id).write_text(json.dumps(payload))
        return record.id

    @pytest.mark.parametrize("state", ["queued", "running"])
    def test_orphaned_job_is_requeued_and_finished_on_boot(
            self, tmp_path, state):
        job_id = self._orphan(tmp_path, state)
        server = CheckServer(tmp_path / "svc", fleet=1)
        try:
            server.run_until_idle(timeout=120)
            record = server.job(job_id)
            assert record.state is JobState.DONE
            assert record.verdict == "pass"
        finally:
            server.stop()
        # The durable record agrees: nothing is stuck in ``running``.
        reloaded = JobStore(tmp_path / "svc").load(job_id)
        assert reloaded.state is JobState.DONE

    def test_recovered_job_with_a_removed_config_key_fails_cleanly(
            self, tmp_path):
        # A job queued by an older server may name a Checker option that
        # no longer exists; recovery skips submit-time validation, so the
        # quantum itself must fail the job instead of wedging a worker.
        job_id = self._orphan(tmp_path, "queued")
        store = JobStore(tmp_path / "svc")
        payload = json.loads(store.record_path(job_id).read_text())
        payload["spec"]["config"]["snapshot_cache"] = True
        store.record_path(job_id).write_text(json.dumps(payload))

        server = CheckServer(tmp_path / "svc", fleet=1)
        try:
            healthy = server.submit(SPEC)
            server.run_until_idle(timeout=120)
            record = server.job(job_id)
            assert record.state is JobState.FAILED
            assert "invalid checker config" in record.error
            assert "snapshot_cache" in record.error
            # The one worker moved on to the next job.
            assert server.job(healthy.id).state is JobState.DONE
        finally:
            server.stop()
        assert JobStore(tmp_path / "svc").load(job_id).state \
            is JobState.FAILED
