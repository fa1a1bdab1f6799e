"""Durable job store: journaling, replay, recovery, locking."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.errors import JournalError, ServeError
from repro.serve.protocol import JobSpec
from repro.serve.store import JobStore

LOG = "pattern 0 FAIL out0\n"


def make_spec(tag: str = "a", **overrides) -> JobSpec:
    base = dict(circuit="c17", datalog=LOG + f"# {tag}\n")
    base.update(overrides)
    return JobSpec(**base)


@pytest.fixture
def store(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl", fsync=False)
    store.open()
    yield store
    store.close()


class TestSubmit:
    def test_submit_journal_and_index(self, store):
        job, created = store.submit(make_spec())
        assert created and job.state == "submitted"
        assert store.get(job.job_id) is job
        assert store.counts()["submitted"] == 1

    def test_idempotent_by_fingerprint(self, store):
        first, created = store.submit(make_spec())
        again, created2 = store.submit(make_spec())
        assert created and not created2
        assert again is first
        # Nothing extra journaled for the duplicate.
        lines = store.path.read_text().splitlines()
        assert sum(1 for l in lines if '"kind":"job"' in l) == 1

    def test_distinct_specs_distinct_jobs(self, store):
        a, _ = store.submit(make_spec("a"))
        b, _ = store.submit(make_spec("b"))
        assert a.job_id != b.job_id
        assert len(store.jobs()) == 2


class TestTransitions:
    def test_lifecycle_to_done(self, store):
        job, _ = store.submit(make_spec())
        store.mark_running(job.job_id, attempt=1)
        assert job.state == "running" and job.attempts == 1
        store.mark_done(job.job_id, {"multiplets": []})
        assert job.state == "done" and job.report == {"multiplets": []}

    def test_terminal_states_are_sticky(self, store):
        job, _ = store.submit(make_spec())
        store.mark_cancelled(job.job_id)
        store.mark_done(job.job_id, {"x": 1})
        assert job.state == "cancelled" and job.report is None

    def test_failed_carries_error(self, store):
        job, _ = store.submit(make_spec())
        store.mark_failed(job.job_id, {"cause": "exception", "message": "boom"})
        assert job.state == "failed"
        assert job.error["cause"] == "exception"

    def test_unknown_job_raises(self, store):
        with pytest.raises(ServeError):
            store.mark_running("jnope", attempt=1)

    def test_a_terminal_state_is_published_with_its_report(self, tmp_path):
        # What a reader sees the moment the locked transition step ends: a
        # ``done`` without its report would be served, and harvested by a
        # coordinator, as a report of {}.
        seen = []

        class Observed(JobStore):
            def _transition(self, job_id, state, **extra):
                job = super()._transition(job_id, state, **extra)
                seen.append(job.status_dict())
                return job

        store = Observed(tmp_path / "jobs.jsonl", fsync=False)
        store.open()
        done, _ = store.submit(make_spec("done"))
        failed, _ = store.submit(make_spec("failed"))
        store.mark_done(done.job_id, {"multiplets": []})
        store.mark_failed(failed.job_id, {"cause": "exception"})
        store.close()
        published = [
            (job["state"], job.get("report"), job.get("error")) for job in seen
        ]
        assert published == [
            ("done", {"multiplets": []}, None),
            ("failed", None, {"cause": "exception"}),
        ]


class TestWaitTerminal:
    def test_waiters_wake_with_their_reports_under_contention(self, store):
        # More threads than cores and a tiny switch interval, so waits,
        # transitions and wake-ups interleave as tightly as they can; a
        # lost wake-up would hold its waiter to the timeout.
        jobs = [store.submit(make_spec(f"w{i}"))[0] for i in range(16)]
        seen = {}

        def wait(job):
            seen[job.job_id] = store.wait_terminal(job.job_id, 10).status_dict()

        def finish(job):
            store.mark_done(job.job_id, {"tag": job.job_id})

        threads = [threading.Thread(target=wait, args=(job,)) for job in jobs]
        threads += [threading.Thread(target=finish, args=(job,)) for job in jobs]
        started = time.monotonic()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() - started < 5
        settled = {
            job_id: (status["state"], status["report"])
            for job_id, status in seen.items()
        }
        assert settled == {job.job_id: ("done", {"tag": job.job_id}) for job in jobs}


class TestReplay:
    def test_replay_reconstructs_terminal_states(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        done, _ = store.submit(make_spec("done"))
        failed, _ = store.submit(make_spec("failed"))
        store.mark_running(done.job_id, 1)
        store.mark_done(done.job_id, {"candidates": [1]})
        store.mark_running(failed.job_id, 2)
        store.mark_failed(failed.job_id, {"cause": "diagnosis"})
        store.close()

        reopened = JobStore(path, fsync=False)
        recovered = reopened.open()
        assert recovered == []
        assert reopened.get(done.job_id).state == "done"
        assert reopened.get(done.job_id).report == {"candidates": [1]}
        assert reopened.get(failed.job_id).state == "failed"
        # Idempotency map survives the replay too.
        _, created = reopened.submit(make_spec("done"))
        assert not created
        reopened.close()

    def test_nonterminal_jobs_recover_as_submitted(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        queued, _ = store.submit(make_spec("queued"))
        running, _ = store.submit(make_spec("running"))
        store.mark_running(running.job_id, 1)
        store.close()

        reopened = JobStore(path, fsync=False)
        recovered = reopened.open()
        assert {j.job_id for j in recovered} == {queued.job_id, running.job_id}
        assert all(j.state == "submitted" and j.recovered for j in recovered)
        reopened.close()

        # A third open sees the journaled recovery markers and recovers again.
        third = JobStore(path, fsync=False)
        assert {j.job_id for j in third.open()} == {
            queued.job_id,
            running.job_id,
        }
        third.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        job, _ = store.submit(make_spec())
        store.mark_running(job.job_id, 1)
        store.close()
        # Simulate a kill mid-append of the terminal record.
        with path.open("a") as fh:
            fh.write('{"kind":"state","id":"%s","state":"do' % job.job_id)

        reopened = JobStore(path, fsync=False)
        recovered = reopened.open()
        assert [j.job_id for j in recovered] == [job.job_id]
        # The torn line was truncated away, so the journal stays parseable.
        for line in path.read_text().splitlines():
            json.loads(line)
        reopened.close()

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        store.submit(make_spec())
        store.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "{definitely not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            JobStore(path, fsync=False).open()

    def test_state_for_unknown_job_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"kind":"state","v":1,"id":"jghost","state":"done"}\n'
        )
        store = JobStore(path, fsync=False)
        assert store.open() == []
        assert store.jobs() == []
        store.close()


class TestLeases:
    """Raw lease journaling: the coordinator's durable dispatch table."""

    def test_grant_and_release_journal_and_index(self, store):
        job, _ = store.submit(make_spec())
        store.grant_lease(job.job_id, "w0", attempt=1)
        assert store.lease_images() == {
            job.job_id: {"node": "w0", "attempt": 1}
        }
        released = store.release_lease(job.job_id, "done")
        assert released == {"node": "w0", "attempt": 1}
        assert store.lease_images() == {}
        records = [
            json.loads(line)
            for line in store.path.read_text().splitlines()
            if json.loads(line)["kind"] == "lease"
        ]
        assert [r["op"] for r in records] == ["grant", "release"]
        assert records[1]["cause"] == "done"

    def test_release_without_lease_is_a_noop(self, store):
        job, _ = store.submit(make_spec())
        assert store.release_lease(job.job_id, "stale") is None
        # Nothing journaled for the no-op: takeover races stay harmless.
        assert all(
            json.loads(line)["kind"] != "lease"
            for line in store.path.read_text().splitlines()
        )

    def test_grant_for_unknown_job_raises(self, store):
        with pytest.raises(ServeError):
            store.grant_lease("jnope", "w0", attempt=1)

    def test_unreleased_leases_survive_replay(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        held, _ = store.submit(make_spec("held"))
        freed, _ = store.submit(make_spec("freed"))
        store.grant_lease(held.job_id, "w1", attempt=3)
        store.grant_lease(freed.job_id, "w0", attempt=1)
        store.release_lease(freed.job_id, "done")
        store.close()

        reopened = JobStore(path, fsync=False)
        reopened.open()
        assert reopened.lease_images() == {
            held.job_id: {"node": "w1", "attempt": 3}
        }
        reopened.close()

    def test_compaction_preserves_live_grants(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        job, _ = store.submit(make_spec())
        store.grant_lease(job.job_id, "w0", attempt=1)
        store.release_lease(job.job_id, "takeover_dead")
        store.grant_lease(job.job_id, "w1", attempt=2)
        store.compact()
        # The snapshot collapses grant/release/grant to one live grant.
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        leases = [r for r in records if r["kind"] == "lease"]
        assert leases == [
            {
                "kind": "lease",
                "v": 1,
                "id": job.job_id,
                "op": "grant",
                "node": "w1",
                "attempt": 2,
            }
        ]
        store.close()

        reopened = JobStore(path, fsync=False)
        reopened.open()
        assert reopened.lease_images() == {
            job.job_id: {"node": "w1", "attempt": 2}
        }
        reopened.close()

    def test_lease_for_unknown_job_is_skipped_on_replay(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"kind":"lease","v":1,"id":"jghost","op":"grant",'
            '"node":"w0","attempt":1}\n'
        )
        store = JobStore(path, fsync=False)
        assert store.open() == []
        assert store.lease_images() == {}
        store.close()

    def test_mark_resubmitted_requeues_a_dispatched_job(self, store):
        job, _ = store.submit(make_spec())
        store.mark_running(job.job_id, attempt=1)
        store.mark_resubmitted(job.job_id)
        assert job.state == "submitted"
        tail = json.loads(store.path.read_text().splitlines()[-1])
        assert tail["state"] == "submitted" and tail["requeued"] is True


class TestLocking:
    def test_second_writer_fails_fast(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        first = JobStore(path, fsync=False)
        first.open()
        second = JobStore(path, fsync=False)
        with pytest.raises(JournalError, match="locked"):
            second.open()
        first.close()
        # Lock released on close: now the second writer may take over.
        second.open()
        second.close()


class TestProbeWritable:
    def test_writable_when_open(self, store):
        assert store.probe_writable()

    def test_unwritable_when_directory_vanishes(self, tmp_path):
        nested = tmp_path / "sub"
        nested.mkdir()
        store = JobStore(nested / "jobs.jsonl", fsync=False)
        store.open()
        assert store.probe_writable()
        (nested / "jobs.jsonl").unlink()
        nested.rmdir()
        assert not store.probe_writable()
        store.close()

    def test_unwritable_when_closed(self, store):
        store.close()
        assert not store.probe_writable()
