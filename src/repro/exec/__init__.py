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
