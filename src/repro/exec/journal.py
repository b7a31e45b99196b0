"""Append-only campaign journal: the record that makes ``--resume`` work.

A campaign writes one JSONL journal (``--journal PATH``): a ``begin``
record with the campaign's arguments and cache configuration, a
``plan`` record per experiment naming every planned shard key, an
``outcome`` record per completed shard, and an ``end`` record when the
campaign finishes. Every record is flushed as it is appended, so a
campaign killed mid-run leaves a journal that is truncated, never
corrupt — later records are simply missing.

``--resume PATH`` replays the journal: the campaign re-runs with the
*recorded* arguments (experiment list, fast flag, cache directory —
overridable from the CLI) against the same result cache. Because the
exec engine caches every outcome as it lands,
shards the killed run completed come back as cache hits and only the
remainder executes; the deterministic plan-order merge then makes the
resumed output byte-identical to an uninterrupted run.

The journal is *advisory* for correctness — the cache alone guarantees
no completed shard re-executes — but it is the durable record of what
a campaign was (arguments, plans, per-shard history across resumes),
and the resume summary (``N of M shards already complete``) is read
from it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, TextIO, Union


class JournalError(RuntimeError):
    """The journal file cannot be read or is not a campaign journal."""


class CampaignJournal:
    """Append-only JSONL writer for one campaign (and its resumes).

    Opened in append mode: resuming a campaign appends a ``resume``
    record and continues the same file, so the full history of a
    campaign — original run, every crash, every resume — is one
    document in order.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[TextIO] = open(self.path, "a", encoding="utf-8")

    def _append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        record["ts"] = round(time.time(), 3)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def begin(
        self,
        names: Sequence[str],
        fast: bool,
        cache_dir: Optional[str],
        code_version: str,
    ) -> None:
        self._append(
            {
                "op": "begin",
                "names": list(names),
                "fast": fast,
                "cache_dir": cache_dir,
                "code_version": code_version,
                "pid": os.getpid(),
            }
        )

    def resume(self, completed: int, planned: int) -> None:
        self._append(
            {"op": "resume", "completed": completed, "planned": planned, "pid": os.getpid()}
        )

    def plan(self, experiment: str, keys: Sequence[str]) -> None:
        self._append({"op": "plan", "experiment": experiment, "shards": list(keys)})

    def outcome(
        self, experiment: str, key: str, source: str, attempts: int, wall_seconds: float
    ) -> None:
        self._append(
            {
                "op": "outcome",
                "experiment": experiment,
                "key": key,
                "source": source,
                "attempts": attempts,
                "wall": round(wall_seconds, 6),
            }
        )

    def end(self, shards: int, cached: int, wall_seconds: float) -> None:
        self._append(
            {"op": "end", "shards": shards, "cached": cached, "wall": round(wall_seconds, 6)}
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class JournalState:
    """What a parsed journal says about a campaign so far."""

    names: List[str] = field(default_factory=list)
    fast: bool = False
    cache_dir: Optional[str] = None
    code_version: str = ""
    #: experiment -> planned shard keys, in plan order.
    plans: Dict[str, List[str]] = field(default_factory=dict)
    #: experiment -> keys with at least one recorded outcome.
    completed: Dict[str, Set[str]] = field(default_factory=dict)
    ended: bool = False
    resumes: int = 0

    @property
    def planned_shards(self) -> int:
        return sum(len(keys) for keys in self.plans.values())

    @property
    def completed_shards(self) -> int:
        return sum(len(keys) for keys in self.completed.values())

    def summary_line(self) -> str:
        state = "complete" if self.ended else "interrupted"
        return (
            f"journal: {len(self.names)} experiment(s), "
            f"{self.completed_shards} of {self.planned_shards} shard(s) done, "
            f"{state}"
            + (f", {self.resumes} prior resume(s)" if self.resumes else "")
        )


def load_journal(path: Union[str, Path]) -> JournalState:
    """Parse a journal, tolerating a torn final line (killed mid-write).

    Unknown record fields are ignored, so journals written while the
    ``begin`` record still carried a ``backend`` spec load unchanged.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    state = JournalState()
    saw_begin = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a kill mid-append
        op = record.get("op")
        if op == "begin" and not saw_begin:
            saw_begin = True
            state.names = [str(name) for name in record.get("names", [])]
            state.fast = bool(record.get("fast", False))
            cache_dir = record.get("cache_dir")
            state.cache_dir = None if cache_dir is None else str(cache_dir)
            state.code_version = str(record.get("code_version", ""))
        elif op == "resume":
            state.resumes += 1
        elif op == "plan":
            state.plans[str(record["experiment"])] = [str(k) for k in record.get("shards", [])]
        elif op == "outcome":
            state.completed.setdefault(str(record["experiment"]), set()).add(str(record["key"]))
        elif op == "end":
            state.ended = True
    if not saw_begin:
        raise JournalError(f"{path} is not a campaign journal (no begin record)")
    return state
