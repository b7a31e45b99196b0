"""Campaign orchestration: experiments → shard plans → merged results.

:func:`execute_experiment` is the exec-engine equivalent of
``runner.run_experiment``: it resolves an experiment id and parameter
overrides, builds a :class:`~repro.exec.shards.ShardPlan`, executes it
(pool / inline / cache per the :class:`~repro.exec.workers.ExecPolicy`),
and merges shard results deterministically.

:func:`run_campaign` fans the whole evaluation (or any subset) out over
one shared policy and cache, streams per-shard progress, and assembles
the aggregated campaign manifest (one PR-1 run manifest per experiment
plus campaign-level totals) for the report writer in ``repro.obs``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache
from repro.exec.journal import CampaignJournal
from repro.exec.shards import ShardPlan, build_plan
from repro.exec.workers import (
    SOURCE_CACHE,
    SOURCE_INLINE,
    SOURCE_POOL,
    ExecPolicy,
    ShardOutcome,
    execute_shards,
)
from repro.obs.spans import SPAN_EXPERIMENT, current_profiler


class CampaignAborted(RuntimeError):
    """The campaign stopped early on purpose (``--die-after`` fault
    injection). Everything completed so far is cached and journaled, so
    ``--resume`` picks up exactly where this raise left off."""

    def __init__(self, completed: int, planned: int):
        super().__init__(
            f"campaign aborted after {completed} of {planned} shard outcome(s) (--die-after)"
        )
        self.completed = completed
        self.planned = planned


@dataclass
class ExperimentExecution:
    """One experiment's merged result plus per-shard accounting."""

    name: str
    result: Dict
    plan: ShardPlan
    outcomes: List[ShardOutcome]
    parameters: Dict
    jobs: int
    wall_seconds: float

    @property
    def shards_total(self) -> int:
        return len(self.outcomes)

    def count(self, source: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.source == source)

    @property
    def cache_hits(self) -> int:
        return self.count(SOURCE_CACHE)

    def summary_line(self) -> str:
        by_source = "".join(
            f" {source}={self.count(source)}"
            for source in (SOURCE_INLINE, SOURCE_POOL)
            if self.count(source)
        ) or " executed=0"
        return (
            f"exec: {self.name} shards={self.shards_total} jobs={self.jobs}"
            f" cached={self.cache_hits}/{self.shards_total}"
            f"{by_source}"
            f" wall={self.wall_seconds:.2f}s"
        )

    @property
    def retries(self) -> int:
        """Attempts beyond the first, summed over executed shards."""
        return sum(
            max(0, outcome.attempts - 1)
            for outcome in self.outcomes
            if outcome.source != SOURCE_CACHE
        )

    def telemetry(self) -> Dict:
        """Execution telemetry for the run manifest: where shards came
        from, how often they retried, and where their time went."""
        return {
            "shards": self.shards_total,
            "cached": self.cache_hits,
            "pool": self.count(SOURCE_POOL),
            "inline": self.count(SOURCE_INLINE),
            "retries": self.retries,
            "wall_seconds": round(self.wall_seconds, 6),
            "worker_seconds": round(sum(o.worker_seconds for o in self.outcomes), 6),
            "queue_seconds": round(sum(o.queue_seconds for o in self.outcomes), 6),
            "shard_detail": [
                {
                    "key": outcome.shard.key,
                    "source": outcome.source,
                    "attempts": outcome.attempts,
                    "wall": round(outcome.wall_seconds, 6),
                    "worker": round(outcome.worker_seconds, 6),
                    "queue": round(outcome.queue_seconds, 6),
                }
                for outcome in self.outcomes
            ],
        }


def resolve_plan(
    name: str, fast: bool = False, overrides: Optional[Dict] = None
) -> Tuple[ShardPlan, Dict]:
    """Resolve an experiment id + overrides into ``(plan, parameters)``
    without executing anything.

    Split out of :func:`execute_experiment` so the campaign loop can
    pre-plan every experiment up front — knowing the total shard count
    is what makes honest progress/ETA lines possible.
    """
    from repro.experiments import runner  # runner imports us lazily; avoid a cycle

    entry = runner.REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown experiment: {name!r} (try 'list')")
    module = importlib.import_module(entry["module"])
    overrides = dict(overrides or {})
    runner._validate_overrides(name, module, overrides)
    kwargs = dict(entry["fast"]) if fast else {}
    kwargs.update(overrides)
    return build_plan(name, module, kwargs), kwargs


def execute_experiment(
    name: str,
    fast: bool = False,
    overrides: Optional[Dict] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[ExecPolicy] = None,
    on_outcome: Optional[Callable[[ShardOutcome], None]] = None,
    plan: Optional[ShardPlan] = None,
    parameters: Optional[Dict] = None,
) -> ExperimentExecution:
    """Run one experiment through the exec engine; returns its result
    dict (identical to ``run_experiment``'s) plus shard accounting.

    ``plan``/``parameters`` accept a pre-resolved :func:`resolve_plan`
    result so the campaign loop does not plan twice.
    """
    if plan is None:
        plan, parameters = resolve_plan(name, fast=fast, overrides=overrides)
    kwargs = dict(parameters or {})

    if policy is None:
        policy = ExecPolicy(jobs=jobs)
    else:
        policy.jobs = jobs

    started = time.perf_counter()
    outcomes = execute_shards(
        plan.module_name,
        plan.func_name,
        plan.shards,
        policy=policy,
        cache=cache,
        experiment=name,
        on_outcome=on_outcome,
    )
    result = plan.merge([outcome.result for outcome in outcomes])
    wall = time.perf_counter() - started
    return ExperimentExecution(
        name=name,
        result=result,
        plan=plan,
        outcomes=outcomes,
        parameters=kwargs,
        jobs=policy.jobs,
        wall_seconds=wall,
    )


@dataclass
class CampaignResult:
    """Everything a campaign produced, ready for reporting."""

    executions: List[ExperimentExecution] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1
    cache_stats: Optional[Dict[str, int]] = None

    @property
    def shards_total(self) -> int:
        return sum(execution.shards_total for execution in self.executions)

    @property
    def cache_hits(self) -> int:
        return sum(execution.cache_hits for execution in self.executions)

    def summary_line(self) -> str:
        cached = f" cached={self.cache_hits}/{self.shards_total}" if self.cache_stats else ""
        return (
            f"campaign: {len(self.executions)} experiments"
            f" shards={self.shards_total}{cached} jobs={self.jobs}"
            f" wall={self.wall_seconds:.2f}s"
        )

    def telemetry(self) -> Dict:
        """Campaign-level execution counters (per-experiment detail
        lives in each run manifest's own ``telemetry``)."""
        return {
            "shards": self.shards_total,
            "cached": self.cache_hits,
            "pool": sum(e.count(SOURCE_POOL) for e in self.executions),
            "inline": sum(e.count(SOURCE_INLINE) for e in self.executions),
            "retries": sum(e.retries for e in self.executions),
            "wall_seconds": round(self.wall_seconds, 6),
            "worker_seconds": round(
                sum(o.worker_seconds for e in self.executions for o in e.outcomes), 6
            ),
            "queue_seconds": round(
                sum(o.queue_seconds for e in self.executions for o in e.outcomes), 6
            ),
        }


def run_campaign(
    names: Sequence[str],
    fast: bool = False,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[ExecPolicy] = None,
    progress: Optional[Callable[[str], None]] = None,
    on_experiment: Optional[Callable[[ExperimentExecution], None]] = None,
    journal: Optional[CampaignJournal] = None,
    die_after: Optional[int] = None,
) -> CampaignResult:
    """Fan a list of experiments out through one shared policy/cache.

    ``progress`` receives one line per completed shard and per
    experiment boundary; ``on_experiment`` fires after each experiment
    merges (the CLI prints the paper report there).

    The whole campaign is planned up front (plans are pure, no
    simulation runs), so every shard line carries campaign-wide
    progress ``[done/total]`` and an ETA extrapolated from the observed
    per-shard rate — shown as ``eta=?`` until at least one shard has
    actually *executed* (cache hits land in microseconds and would
    extrapolate an absurd ETA for the real work remaining).

    ``journal`` receives plan/outcome records as they happen (see
    ``repro.exec.journal``); ``die_after`` aborts the campaign with
    :class:`CampaignAborted` after that many shard outcomes — fault
    injection for testing ``--resume``.
    """
    campaign = CampaignResult(jobs=jobs, cache_stats=None)
    started = time.perf_counter()
    profiler = current_profiler()

    plans = [resolve_plan(name, fast=fast) for name in names]
    shards_planned = sum(len(plan) for plan, _ in plans)
    done_total = 0
    executed_total = 0

    if journal is not None:
        for name, (plan, _) in zip(names, plans):
            journal.plan(name, [shard.key for shard in plan.shards])

    for position, (name, (plan, parameters)) in enumerate(zip(names, plans), start=1):
        if progress is not None:
            progress(
                f"[{position}/{len(names)}] {name}: {len(plan)} shard(s),"
                f" {shards_planned - done_total} of {shards_planned} left in campaign"
            )
        done = 0

        def on_outcome(outcome: ShardOutcome, name: str = name) -> None:
            nonlocal done, done_total, executed_total
            done += 1
            done_total += 1
            if outcome.source != SOURCE_CACHE:
                executed_total += 1
            if journal is not None:
                journal.outcome(
                    name,
                    outcome.shard.key,
                    outcome.source,
                    outcome.attempts,
                    outcome.wall_seconds,
                )
            if progress is not None:
                remaining = shards_planned - done_total
                eta = ""
                if remaining > 0:
                    # Extrapolate from *executed* shards only: cache
                    # hits land in microseconds, and dividing wall time
                    # by a done-count dominated by them is the old
                    # eta=0s bug. Until one shard has actually run there
                    # is nothing to extrapolate from, so say so.
                    elapsed = time.perf_counter() - started
                    if executed_total > 0 and elapsed > 0:
                        eta = f" eta={elapsed / executed_total * remaining:.0f}s"
                    else:
                        eta = " eta=?"
                progress(
                    f"  {name} shard {outcome.shard.key} -> {outcome.source}"
                    f" ({done} done, attempts={outcome.attempts},"
                    f" {outcome.wall_seconds:.2f}s)"
                    f" [{done_total}/{shards_planned}{eta}]"
                )
            if die_after is not None and done_total >= die_after:
                raise CampaignAborted(done_total, shards_planned)

        def run_one() -> ExperimentExecution:
            return execute_experiment(
                name,
                fast=fast,
                jobs=jobs,
                cache=cache,
                policy=policy,
                on_outcome=on_outcome,
                plan=plan,
                parameters=parameters,
            )

        if profiler is not None:
            with profiler.span(SPAN_EXPERIMENT, experiment=name, shards=len(plan)) as span:
                execution = run_one()
                span.add(cached=execution.cache_hits, retries=execution.retries)
        else:
            execution = run_one()
        campaign.executions.append(execution)
        if progress is not None:
            progress(f"  {execution.summary_line()}")
        if on_experiment is not None:
            on_experiment(execution)
    campaign.wall_seconds = time.perf_counter() - started
    campaign.cache_stats = cache.stats() if cache is not None else None
    if journal is not None:
        journal.end(campaign.shards_total, campaign.cache_hits, campaign.wall_seconds)
    return campaign


def campaign_manifest(
    campaign: CampaignResult, fast: bool, started_at: float, spans: Optional[object] = None
) -> Dict:
    """The aggregated obs manifest: per-experiment manifests + totals.

    Each experiment entry carries its shard telemetry; the campaign
    level carries the aggregated counters and, when a span profiler
    ran, the wall-time span tree under ``spans``.
    """
    from repro.obs.report import build_campaign_manifest, build_manifest

    manifests = [
        build_manifest(
            experiment=execution.name,
            parameters=execution.parameters,
            fast=fast,
            started_at=started_at,
            wall_seconds=execution.wall_seconds,
            jobs=execution.jobs,
            shards_total=execution.shards_total,
            shards_cached=execution.cache_hits,
            telemetry=execution.telemetry(),
        )
        for execution in campaign.executions
    ]
    manifest = build_campaign_manifest(
        manifests,
        started_at=started_at,
        wall_seconds=campaign.wall_seconds,
        jobs=campaign.jobs,
        shards_total=campaign.shards_total,
        shards_cached=campaign.cache_hits,
        cache_stats=campaign.cache_stats,
        telemetry=campaign.telemetry(),
    )
    if spans is not None:
        manifest["spans"] = spans.to_dict()
    return manifest
