"""``repro.exec`` — parallel campaign execution for the evaluation.

The paper's evaluation is embarrassingly parallel (independent per-seed
runs and per-configuration rows); this package turns that into wall
clock on one machine: a shard protocol experiments opt into
(`shards.py`), a fault-tolerant execution engine over one local
process pool with retry and sequential fallback (`workers.py`), a
content-addressed result cache keyed on parameters + code version
(`cache.py`), an append-only campaign journal that makes killed
campaigns resumable (`journal.py`), and the campaign orchestrator that
keeps parallel output byte-identical to sequential output
(`campaign.py`).

CLI surface: ``spider-repro run <id> --jobs N [--cache-dir PATH]
[--no-cache]`` and ``spider-repro campaign [ids|all] [--jobs N]
[--journal PATH] [--resume JOURNAL]``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache, canonical_text
    from repro.exec.campaign import (
        CampaignAborted,
        CampaignResult,
        ExperimentExecution,
        campaign_manifest,
        execute_experiment,
        run_campaign,
    )
    from repro.exec.journal import CampaignJournal, JournalError, load_journal
    from repro.exec.shards import Shard, ShardPlan, build_plan, invoke_shard, supports_sharding
    from repro.exec.workers import (
        SOURCE_CACHE,
        SOURCE_INLINE,
        SOURCE_POOL,
        ExecPolicy,
        ShardError,
        ShardOutcome,
        execute_shards,
    )

#: Export → the submodule that defines it. Resolved on first access
#: (PEP 562), so importing the shard vocabulary (``repro.exec.shards``),
#: as every shardable experiment does, loads neither the campaign
#: orchestrator nor the pool machinery.
_EXPORTS = {
    "ResultCache": "cache",
    "canonical_text": "cache",
    "CampaignAborted": "campaign",
    "CampaignResult": "campaign",
    "ExperimentExecution": "campaign",
    "campaign_manifest": "campaign",
    "execute_experiment": "campaign",
    "run_campaign": "campaign",
    "CampaignJournal": "journal",
    "JournalError": "journal",
    "load_journal": "journal",
    "Shard": "shards",
    "ShardPlan": "shards",
    "build_plan": "shards",
    "invoke_shard": "shards",
    "supports_sharding": "shards",
    "SOURCE_CACHE": "workers",
    "SOURCE_INLINE": "workers",
    "SOURCE_POOL": "workers",
    "ExecPolicy": "workers",
    "ShardError": "workers",
    "ShardOutcome": "workers",
    "execute_shards": "workers",
}

__all__ = [
    "CampaignAborted",
    "CampaignJournal",
    "CampaignResult",
    "ExecPolicy",
    "ExperimentExecution",
    "JournalError",
    "ResultCache",
    "SOURCE_CACHE",
    "SOURCE_INLINE",
    "SOURCE_POOL",
    "Shard",
    "ShardError",
    "ShardOutcome",
    "ShardPlan",
    "build_plan",
    "campaign_manifest",
    "canonical_text",
    "execute_experiment",
    "execute_shards",
    "invoke_shard",
    "load_journal",
    "run_campaign",
    "supports_sharding",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

