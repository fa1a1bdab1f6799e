"""Trial journal: serialization exactness and corruption tolerance."""

from __future__ import annotations

import json

import pytest

from repro.campaign.driver import CampaignConfig
from repro.campaign.journal import (
    Journal,
    TrialRecord,
    config_fingerprint,
    outcome_from_dict,
    outcome_to_dict,
)
from repro.campaign.metrics import TrialOutcome
from repro.core.diagnose import DiagnosisConfig
from repro.errors import JournalError, TrialError


def make_outcome(**overrides) -> TrialOutcome:
    base = dict(
        circuit="rca4",
        method="xcover",
        k=2,
        families=("bridge", "stuckat"),
        recall_exact=1 / 3,
        recall_net=2 / 3,
        recall_near=0.7071067811865476,
        precision=0.1,
        resolution=7,
        success=False,
        n_failing_patterns=5,
        n_fail_atoms=9,
        uncovered_atoms=1,
        seconds=0.0123456789,
        best_multiplet_size=2,
        extra={"n_min_covers": 3.0, "oscillation_fallback": 1.0},
    )
    base.update(overrides)
    return TrialOutcome(**base)


class TestOutcomeSerialization:
    def test_roundtrip_is_exact(self):
        outcome = make_outcome()
        back = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(outcome)))
        )
        assert vars(back) == vars(outcome)

    def test_floats_survive_json_bit_for_bit(self):
        outcome = make_outcome(recall_near=0.1 + 0.2)  # classic non-exact sum
        back = outcome_from_dict(
            json.loads(json.dumps(outcome_to_dict(outcome)))
        )
        assert back.recall_near == outcome.recall_near

    def test_unknown_fields_ignored(self):
        payload = outcome_to_dict(make_outcome())
        payload["from_the_future"] = 42
        assert outcome_from_dict(payload).circuit == "rca4"


class TestTrialRecord:
    def test_ok_roundtrip(self):
        record = TrialRecord(
            circuit="rca4",
            trial=3,
            seed=2000009,
            status="ok",
            attempts=2,
            elapsed=0.5,
            outcomes=[make_outcome()],
            skip_reasons={"no_failures": 1},
        )
        back = TrialRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert back.key == record.key
        assert back.attempts == 2
        assert [vars(o) for o in back.outcomes] == [
            vars(o) for o in record.outcomes
        ]
        assert back.skip_reasons == {"no_failures": 1}

    def test_error_roundtrip(self):
        error = TrialError(
            "boom", circuit="rca4", trial=1, seed=7, cause="timeout", attempts=3
        )
        record = TrialRecord(
            circuit="rca4", trial=1, seed=7, status="error", error=error
        )
        back = TrialRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert back.error is not None
        assert back.error.cause == "timeout"
        assert back.error.attempts == 3
        assert back.error.is_transient

    def test_malformed_record_raises(self):
        with pytest.raises(JournalError, match="malformed"):
            TrialRecord.from_dict({"kind": "trial", "circuit": "x"})

    def test_unknown_status_raises(self):
        with pytest.raises(JournalError, match="unknown trial status"):
            TrialRecord.from_dict(
                {"circuit": "x", "trial": 0, "seed": 1, "status": "meh"}
            )


class TestJournalFile:
    def write(self, path, fingerprint="abc", records=()):
        journal = Journal(path)
        journal.start(fingerprint, resume=False)
        for record in records:
            journal.append(record)
        journal.close()
        return journal

    def record(self, trial=0, status="skipped"):
        return TrialRecord(
            circuit="rca4", trial=trial, seed=trial + 10, status=status
        )

    def test_load_keyed_by_circuit_seed_trial(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write(path, records=[self.record(0), self.record(1)])
        loaded = Journal(path).load("abc")
        assert set(loaded) == {("rca4", 10, 0), ("rca4", 11, 1)}

    def test_later_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        retried = self.record(0, status="error")
        retried.error = TrialError("x", cause="crash")
        self.write(path, records=[retried, self.record(0, status="skipped")])
        loaded = Journal(path).load("abc")
        assert loaded[("rca4", 10, 0)].status == "skipped"

    def test_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write(path, fingerprint="abc")
        with pytest.raises(JournalError, match="different campaign"):
            Journal(path).load("def")

    def test_missing_header_with_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(self.record(0).to_dict()) + "\n"
        )
        with pytest.raises(JournalError, match="no header"):
            Journal(path).load("abc")
        # Without a fingerprint to verify the load is permissive.
        assert len(Journal(path).load()) == 1

    def test_torn_tail_tolerated_and_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write(path, records=[self.record(0)])
        with path.open("a") as fh:
            fh.write('{"kind": "trial", "circuit": "rca4", "tri')  # no newline
        loaded = Journal(path).load("abc")
        assert len(loaded) == 1
        journal = Journal(path)
        journal.start("abc", resume=True)
        journal.append(self.record(1))
        journal.close()
        # The torn fragment is gone; both records parse cleanly.
        assert len(Journal(path).load("abc")) == 2

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write(path, records=[self.record(0)])
        content = path.read_text().splitlines()
        content.insert(1, "{garbage")
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            Journal(path).load("abc")

    def test_missing_file_loads_empty(self, tmp_path):
        assert Journal(tmp_path / "nope.jsonl").load("abc") == {}

    def test_start_fresh_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.write(path, records=[self.record(0), self.record(1)])
        journal = Journal(path)
        assert journal.start("abc", resume=False) == {}
        journal.close()
        assert Journal(path).load("abc") == {}

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(JournalError, match="not open"):
            Journal(tmp_path / "j.jsonl").append(self.record(0))


class TestConfigFingerprint:
    #: The fingerprint of the default alu8 k=2 xcover seed-1 campaign,
    #: which journals written by earlier versions carry.
    DEFAULT = "28c8a785359da916"

    @staticmethod
    def fingerprint(diagnosis_config):
        return config_fingerprint(
            CampaignConfig(
                circuit="alu8",
                k=2,
                seed=1,
                methods=("xcover",),
                diagnosis_config=diagnosis_config,
            )
        )

    def test_default_settings_keep_their_fingerprint(self):
        assert self.fingerprint(None) == self.DEFAULT
        assert self.fingerprint(DiagnosisConfig()) == self.DEFAULT

    def test_a_setting_off_its_default_changes_it(self):
        assert self.fingerprint(DiagnosisConfig(max_expansions=60)) != self.DEFAULT


class TestDurability:
    """Satellite hardening: per-record fsync, writer locks, torn tails."""

    def record(self, trial=0, status="skipped"):
        return TrialRecord(
            circuit="rca4", trial=trial, seed=trial + 10, status=status
        )

    def test_fsync_and_flush_modes_both_land_records(self, tmp_path):
        for fsync in (True, False):
            path = tmp_path / f"j_{fsync}.jsonl"
            journal = Journal(path, fsync=fsync)
            journal.start("abc", resume=False)
            journal.append(self.record(0))
            # Visible on disk before close in both modes (flush at least).
            assert len(Journal(path).load("abc")) == 1
            journal.close()

    def test_second_writer_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = Journal(path)
        first.start("abc", resume=False)
        second = Journal(path)
        with pytest.raises(JournalError, match="locked"):
            second.start("abc", resume=True)
        first.close()
        # The lock dies with the handle: a successor may resume.
        assert second.start("abc", resume=True) == {}
        second.close()

    def test_truncation_at_every_byte_of_the_final_line(self, tmp_path):
        """Kill -9 can land mid-append at any byte; every cut must heal.

        The final journal line is truncated at every possible offset.  A
        cut that leaves parseable JSON (only the newline was lost) keeps
        the record; any other cut drops exactly the torn fragment.  In
        both cases a resume-append converges back to the full journal.
        """
        path = tmp_path / "j.jsonl"
        journal = Journal(path, fsync=False)
        journal.start("abc", resume=False)
        journal.append(self.record(0))
        journal.append(self.record(1))
        journal.close()
        base = path.read_bytes()
        last_start = base.rstrip(b"\n").rfind(b"\n") + 1
        assert 0 < last_start < len(base)

        for cut in range(last_start, len(base)):
            path.write_bytes(base[:cut])
            fragment = base[last_start:cut]
            try:
                json.loads(fragment.decode())
                expected = 2  # complete record, missing only its newline
            except ValueError:
                expected = 1  # torn fragment: dropped, prior record intact
            loaded = Journal(path).load("abc")
            assert len(loaded) == expected, f"load after cut at byte {cut}"

            resumed = Journal(path, fsync=False)
            completed = resumed.start("abc", resume=True)
            assert len(completed) == expected, f"resume after cut {cut}"
            if expected == 1:
                resumed.append(self.record(1))
            resumed.close()
            final = Journal(path).load("abc")
            assert len(final) == 2, f"converged journal after cut {cut}"
            assert {k[2] for k in final} == {0, 1}

    def test_torn_tail_inside_a_compacted_store_rename_window(self, tmp_path):
        """A kill -9 can tear the first append *after* a compaction rename
        -- and the next crash can additionally strand a ``.compact``
        temporary.  Both artifacts together must heal at every cut: the
        compacted prefix is authoritative, the torn fragment is dropped
        (or kept when only its newline was lost), and the stray temporary
        is discarded.
        """
        from repro.serve.protocol import JobSpec
        from repro.serve.store import JobStore

        path = tmp_path / "jobs.jsonl"
        store = JobStore(path, fsync=False)
        store.open()
        done, _ = store.submit(
            JobSpec(circuit="c17", datalog="pattern 0 FAIL out0\n# a\n")
        )
        store.mark_running(done.job_id, 1)
        store.mark_done(done.job_id, {"multiplets": [["n22"]]})
        pending, _ = store.submit(
            JobSpec(circuit="c17", datalog="pattern 0 FAIL out0\n# b\n")
        )
        stats = store.compact()
        # The post-rename append that gets torn by the next kill -9.
        store.mark_running(pending.job_id, 1)
        store.close()
        full = path.read_bytes()
        tail_start = stats["after_bytes"]
        assert tail_start < len(full)

        tmp = tmp_path / "jobs.jsonl.compact"
        for cut in range(tail_start, len(full) + 1):
            path.write_bytes(full[:cut])
            # Strand a plausible partial temporary alongside the tear.
            tmp.write_bytes(full[: max(1, cut // 2)])
            fragment = full[tail_start:cut]
            try:
                json.loads(fragment.decode())
                expect_running = True  # only the newline was torn away
            except ValueError:
                expect_running = False

            reopened = JobStore(path, fsync=False)
            reopened.open(recover=False)
            try:
                healed_done = reopened.get(done.job_id)
                assert healed_done.state == "done", f"cut {cut}"
                assert healed_done.report == {"multiplets": [["n22"]]}
                healed_pending = reopened.get(pending.job_id)
                expected = "running" if expect_running else "submitted"
                assert healed_pending.state == expected, f"cut {cut}"
            finally:
                reopened.close()
            assert not tmp.exists(), f"stray temporary survived cut {cut}"
            # The healed journal parses end to end.
            for line in path.read_text().splitlines():
                json.loads(line)
