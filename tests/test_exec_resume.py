"""Resumable campaigns: journal round-trips, kill-mid-run fault
injection (``die_after``), and the headline acceptance check — a
killed-then-resumed campaign skips completed shards via the cache and
produces byte-identical results to an uninterrupted run."""

import json

import pytest

from repro.exec import (
    CampaignAborted,
    CampaignJournal,
    JournalError,
    ResultCache,
    load_journal,
    run_campaign,
)
from repro.exec.cache import canonical_text
from tests.exec_stub import calls


class TestJournal:
    def test_write_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin(
                ["fig3", "model-gap"],
                fast=True,
                cache_dir="/cache",
                code_version="abc123",
            )
            journal.plan("fig3", ["only"])
            journal.plan("model-gap", ["s0", "s1"])
            journal.outcome("fig3", "only", "inline", 1, 0.5)
            journal.outcome("model-gap", "s0", "pool", 2, 1.25)
        state = load_journal(path)
        assert state.names == ["fig3", "model-gap"]
        assert state.fast is True
        assert state.cache_dir == "/cache"
        assert state.code_version == "abc123"
        assert state.plans == {"fig3": ["only"], "model-gap": ["s0", "s1"]}
        assert state.completed == {"fig3": {"only"}, "model-gap": {"s0"}}
        assert state.planned_shards == 3
        assert state.completed_shards == 2
        assert state.ended is False
        assert "2 of 3 shard(s) done" in state.summary_line()
        assert "interrupted" in state.summary_line()

    def test_end_record_marks_complete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin(["fig3"], fast=True, cache_dir=None, code_version="v")
            journal.plan("fig3", ["only"])
            journal.outcome("fig3", "only", "inline", 1, 0.5)
            journal.end(1, 0, 0.5)
        state = load_journal(path)
        assert state.ended is True
        assert "complete" in state.summary_line()

    def test_torn_tail_is_tolerated(self, tmp_path):
        """A kill mid-append leaves a truncated last line, not a corrupt
        journal: everything before it must still parse."""
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin(["fig3"], fast=False, cache_dir=None, code_version="v")
            journal.plan("fig3", ["only"])
            journal.outcome("fig3", "only", "inline", 1, 0.5)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "outcome", "experiment": "fig3", "key": "on')
        state = load_journal(path)
        assert state.completed == {"fig3": {"only"}}
        assert state.ended is False

    def test_resume_records_are_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin(["fig3"], fast=False, cache_dir=None, code_version="v")
            journal.resume(0, 1)
            journal.resume(0, 1)
        state = load_journal(path)
        assert state.resumes == 2
        assert "2 prior resume(s)" in state.summary_line()

    def test_begin_record_with_backend_field_still_loads(self, tmp_path):
        # Journals once recorded a shard-placement spec in ``begin``.
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(
                {
                    "op": "begin",
                    "names": ["fig3"],
                    "fast": True,
                    "backend": "queuedir:/spool?workers=2",
                    "cache_dir": "/cache",
                    "code_version": "v",
                }
            )
            + "\n"
        )
        state = load_journal(path)
        assert (state.names, state.fast, state.cache_dir) == (["fig3"], True, "/cache")
        with CampaignJournal(path) as journal:
            journal.begin(["fig3"], fast=True, cache_dir=None, code_version="v")
        assert "backend" not in json.loads(path.read_text().splitlines()[1])

    def test_not_a_journal_raises(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("just some text\n")
        with pytest.raises(JournalError):
            load_journal(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError):
            load_journal(tmp_path / "absent.jsonl")


class TestKillResumeByteIdentity:
    """The acceptance criterion: kill a pooled campaign mid-run,
    resume it against the same cache, and the merged result must be
    byte-identical to an uninterrupted run — with the completed prefix
    served from cache, never re-executed."""

    NAMES = ["model-gap"]  # 4 shards under --fast

    def test_kill_then_resume(self, tmp_path):
        clean = run_campaign(self.NAMES, fast=True, jobs=1)
        reference = canonical_text(clean.executions[0].result)

        cache = ResultCache(tmp_path / "cache", code_version="test")
        journal_path = tmp_path / "j.jsonl"
        with CampaignJournal(journal_path) as journal:
            journal.begin(self.NAMES, True, str(cache.root), "test")
            with pytest.raises(CampaignAborted):
                run_campaign(
                    self.NAMES,
                    fast=True,
                    jobs=2,
                    cache=cache,
                    journal=journal,
                    die_after=2,
                )

        state = load_journal(journal_path)
        assert state.ended is False
        assert state.planned_shards == 4
        assert state.completed_shards == 2

        resumed_cache = ResultCache(tmp_path / "cache", code_version="test")
        with CampaignJournal(journal_path) as journal:
            journal.resume(state.completed_shards, state.planned_shards)
            resumed = run_campaign(
                self.NAMES, fast=True, jobs=2, cache=resumed_cache, journal=journal
            )

        # Every shard the killed run completed comes back from cache...
        assert resumed.cache_hits == 2
        telemetry = resumed.executions[0].telemetry()
        assert telemetry["cached"] == resumed.cache_hits
        # ...and the merged output is byte-identical to the clean run.
        assert canonical_text(resumed.executions[0].result) == reference

        state = load_journal(journal_path)
        assert state.ended is True
        assert state.completed_shards == 4
        assert state.resumes == 1


class TestAbortIsNotAShardFailure:
    """An exception from the outcome callback — here the ``die_after``
    abort — ends the campaign at once; it is never mistaken for a
    failed shard and retried."""

    def test_die_after_aborts_on_the_pool_without_rerunning(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setitem(
            runner.REGISTRY,
            "stub",
            {
                "module": "tests.exec_stub",
                "fast": {"counter_dir": str(tmp_path)},
                "description": "counted stub shards",
            },
        )
        journal_path = tmp_path / "j.jsonl"
        with CampaignJournal(journal_path) as journal:
            journal.begin(["stub"], True, None, "test")
            with pytest.raises(CampaignAborted) as aborted:
                run_campaign(["stub"], fast=True, jobs=2, journal=journal, die_after=3)
        assert (aborted.value.completed, aborted.value.planned) == (3, 5)
        # The third shard's outcome raised the abort: it ran once...
        assert calls(str(tmp_path / "2")) == 1
        # ...and every completed shard was journaled exactly once.
        records = [json.loads(line) for line in journal_path.read_text().splitlines()]
        keys = [record["key"] for record in records if record["op"] == "outcome"]
        assert keys == ["n=0", "n=1", "n=2"]


class TestEta:
    def test_eta_unknown_until_first_executed_shard(self, tmp_path):
        """Cache hits land in microseconds; extrapolating an ETA from
        them was the old ``eta=0s`` bug. A cached prefix must show
        ``eta=?`` until a shard actually executes."""
        cache = ResultCache(tmp_path / "cache", code_version="test")
        run_campaign(["model-gap"], fast=True, jobs=1, cache=cache)

        lines = []
        run_campaign(["model-gap"], fast=True, jobs=1, cache=cache, progress=lines.append)
        shard_lines = [line for line in lines if "-> cache" in line]
        assert len(shard_lines) == 4
        # All but the last shard line carry an ETA marker (remaining>0),
        # and every one of them is the honest "unknown", never 0s.
        assert all("eta=?" in line for line in shard_lines[:-1])
        assert not any("eta=0s" in line for line in lines)

    def test_eta_appears_once_shards_execute(self, tmp_path):
        lines = []
        run_campaign(["model-gap"], fast=True, jobs=1, progress=lines.append)
        assert any("eta=" in line and "eta=?" not in line for line in lines)


class TestRunnerResumeCli:
    """End-to-end over the CLI: --journal/--die-after abort with exit
    code 3, --resume replays with cache hits and finishes with 0."""

    def test_die_after_then_resume(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import runner

        monkeypatch.chdir(tmp_path)
        code = runner.main(
            [
                "campaign",
                "model-gap",
                "--fast",
                "--jobs",
                "1",
                "--cache-dir",
                "cache",
                "--journal",
                "j.jsonl",
                "--die-after",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "aborted after 2" in captured.err
        assert "--resume" in captured.err

        code = runner.main(
            ["campaign", "--resume", "j.jsonl", "--manifest", "m.json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Resume printed the journal's state before re-running.
        assert "2 of 4 shard(s) done" in captured.out
        assert "interrupted" in captured.out
        # The completed prefix was served from cache (never re-executed)
        # and showed the honest unknown-ETA marker while it drained.
        assert "eta=?" in captured.out
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["telemetry"]["shards"] == 4
        assert manifest["telemetry"]["cached"] == 2

        state = load_journal(tmp_path / "j.jsonl")
        assert state.ended is True
        assert state.resumes == 1
        assert state.completed_shards == 4

    def test_resume_rejects_no_cache(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import runner

        monkeypatch.chdir(tmp_path)
        (tmp_path / "j.jsonl").write_text("")
        code = runner.main(["campaign", "--resume", "j.jsonl", "--no-cache"])
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_resume_with_unreadable_journal_fails(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import runner

        monkeypatch.chdir(tmp_path)
        (tmp_path / "j.jsonl").write_text("not a journal\n")
        code = runner.main(["campaign", "--resume", "j.jsonl"])
        assert code == 2
        assert "journal" in capsys.readouterr().err
