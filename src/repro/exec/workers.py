"""Fault-tolerant shard execution over one local process pool.

Execution strategy, in order of preference:

1. **Cache** — shards whose key is already in the :class:`ResultCache`
   never execute at all; results are cached per-outcome as they land,
   so a killed run loses nothing that already finished (the basis of
   campaign ``--resume``).
2. **Process pool** — remaining shards fan out over a
   ``ProcessPoolExecutor`` of ``jobs`` workers through the picklable
   :func:`~repro.exec.shards.invoke_shard_timed` entry point. Each
   shard gets a per-shard timeout and a bounded number of retries with
   exponential backoff; a shard that keeps failing in the pool gets
   one final in-process attempt before the run is declared failed.
3. **In-process sequential** — used outright for ``jobs <= 1`` or a
   single pending shard (no pool overhead), and as the graceful
   degradation path when the pool refuses to start or dies
   (``BrokenExecutor``: a worker was OOM-killed or exited).

Whatever the path, outcomes are returned **in shard order**, never in
completion order — together with the experiments' pure ``merge`` this
makes parallel output byte-identical to sequential output.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.shards import Shard, invoke_shard, invoke_shard_timed
from repro.obs.spans import (
    SPAN_EXEC_CACHE,
    SPAN_EXEC_SHARD,
    SPAN_EXEC_SHARDS,
    current_profiler,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: How a shard's result was obtained.
SOURCE_CACHE = "cache"
SOURCE_POOL = "pool"
SOURCE_INLINE = "inline"


class ShardError(RuntimeError):
    """A shard failed on every attempt, including the in-process one."""

    def __init__(self, experiment: str, shard: Shard, attempts: int, cause: BaseException):
        super().__init__(
            f"experiment {experiment!r} shard {shard.key!r} failed after "
            f"{attempts} attempt(s): {cause!r}"
        )
        self.experiment = experiment
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


@dataclass
class ExecPolicy:
    """Knobs of the execution strategy."""

    jobs: int = 1
    #: Seconds a single pool attempt may take; ``None`` disables the
    #: timeout. A timed-out attempt counts as a failure and is retried
    #: (the stuck worker is abandoned at shutdown, not joined).
    shard_timeout: Optional[float] = None
    #: Retries *after* the first attempt, per shard.
    max_retries: int = 2
    #: Backoff before retry ``n`` is ``backoff_base * 2**(n-1)`` seconds.
    backoff_base: float = 0.25
    #: Injectable for tests; never called when ``backoff_base == 0``.
    sleep: Callable[[float], None] = field(default=time.sleep)

    def backoff(self, retry: int) -> float:
        return self.backoff_base * (2 ** max(retry - 1, 0))


@dataclass
class ShardOutcome:
    """One shard's result plus how it was obtained.

    ``wall_seconds`` is submit-to-result as seen by the orchestrator;
    ``worker_seconds`` is the time the shard function itself ran (in
    the worker process for pool shards); ``queue_seconds`` is the
    difference — queue wait plus IPC — clamped at zero. Cached shards
    report zero time.
    """

    shard: Shard
    result: object
    source: str
    attempts: int
    wall_seconds: float
    worker_seconds: float = 0.0
    queue_seconds: float = 0.0


def execute_shards(
    module_name: str,
    func_name: str,
    shards: Sequence[Shard],
    policy: Optional[ExecPolicy] = None,
    cache: Optional[ResultCache] = None,
    experiment: str = "",
    on_outcome: Optional[Callable[[ShardOutcome], None]] = None,
) -> List[ShardOutcome]:
    """Run every shard; returns outcomes in shard order.

    Raises :class:`ShardError` if any shard fails on all attempts —
    partial evaluations are worse than loud failures. Runs inline for
    ``jobs <= 1`` or a single pending shard, over a per-call process
    pool of ``min(jobs, pending)`` workers otherwise.

    With an ambient :class:`~repro.obs.spans.SpanProfiler` installed,
    the call is wrapped in an ``exec.shards`` span, the cache scan in
    an ``exec.cache`` span, and every outcome is recorded as a
    retroactive ``exec.shard`` span on its own ``shard:<key>`` lane.
    """
    policy = policy or ExecPolicy()
    profiler = current_profiler()
    outcomes: List[Optional[ShardOutcome]] = [None] * len(shards)

    def finish(index: int, outcome: ShardOutcome) -> None:
        outcomes[index] = outcome
        if cache is not None and outcome.source != SOURCE_CACHE:
            # Per-outcome, not end-of-run: a killed campaign keeps every
            # shard that finished, which is what --resume replays.
            cache.put(experiment, outcome.shard.key, outcome.shard.params, outcome.result)
        if profiler is not None:
            t1 = profiler.now()
            profiler.record(
                SPAN_EXEC_SHARD,
                t1 - outcome.wall_seconds,
                t1,
                key=outcome.shard.key,
                source=outcome.source,
                attempts=outcome.attempts,
                worker=round(outcome.worker_seconds, 6),
                queue=round(outcome.queue_seconds, 6),
                lane=f"shard:{outcome.shard.key}",
            )
        if on_outcome is not None:
            on_outcome(outcome)

    pending: List[int] = []

    def scan_cache() -> None:
        for index, shard in enumerate(shards):
            if cache is not None:
                hit, result = cache.get(experiment, shard.key, shard.params)
                if hit:
                    finish(index, ShardOutcome(shard, result, SOURCE_CACHE, 0, 0.0))
                    continue
            pending.append(index)

    def execute_pending() -> None:
        if not pending:
            return
        if policy.jobs <= 1 or len(pending) == 1:
            _run_inline(module_name, func_name, shards, pending, policy, experiment, finish)
            return
        # Imported here: it loads ``multiprocessing``, which a run that
        # never starts a pool should not pay for.
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=min(policy.jobs, len(pending)))
        except (OSError, ValueError):
            # The host refuses worker processes; degrade immediately.
            _run_inline(module_name, func_name, shards, pending, policy, experiment, finish)
            return
        try:
            _run_pool(pool, module_name, func_name, shards, pending, policy, experiment, finish)
        finally:
            # wait=False: a worker stuck past its shard timeout must not
            # stall the (already complete) run at shutdown.
            pool.shutdown(wait=False, cancel_futures=True)

    if profiler is not None:
        with profiler.span(SPAN_EXEC_SHARDS, experiment=experiment, shards=len(shards)) as span:
            with profiler.span(SPAN_EXEC_CACHE, experiment=experiment) as cache_span:
                scan_cache()
                cache_span.add(hits=len(shards) - len(pending), pending=len(pending))
            execute_pending()
            span.add(cached=len(shards) - len(pending))
    else:
        scan_cache()
        execute_pending()

    return [outcome for outcome in outcomes if outcome is not None]


# -- strategies ---------------------------------------------------------


def _run_inline(
    module_name: str,
    func_name: str,
    shards: Sequence[Shard],
    pending: Sequence[int],
    policy: ExecPolicy,
    experiment: str,
    finish: Callable[[int, ShardOutcome], None],
    prior_attempts: int = 0,
) -> None:
    """Sequential in-process execution with retry/backoff."""
    for index in pending:
        shard = shards[index]
        attempts = prior_attempts
        started = time.perf_counter()
        while True:
            attempts += 1
            attempt_started = time.perf_counter()
            try:
                result = invoke_shard(module_name, func_name, shard.params)
            except Exception as exc:
                if attempts - prior_attempts > policy.max_retries:
                    raise ShardError(experiment, shard, attempts, exc) from exc
                backoff = policy.backoff(attempts - prior_attempts)
                if backoff > 0:
                    policy.sleep(backoff)
                continue
            now = time.perf_counter()
            # Wall includes failed attempts and backoff; worker is the
            # successful attempt alone. No queue: nothing waited.
            finish(
                index,
                ShardOutcome(
                    shard,
                    result,
                    SOURCE_INLINE,
                    attempts,
                    now - started,
                    worker_seconds=now - attempt_started,
                ),
            )
            break


def _run_pool(
    pool: ProcessPoolExecutor,
    module_name: str,
    func_name: str,
    shards: Sequence[Shard],
    pending: Sequence[int],
    policy: ExecPolicy,
    experiment: str,
    finish: Callable[[int, ShardOutcome], None],
) -> None:
    """Pool execution with per-shard timeout, retry, and degradation.

    ``finish`` runs outside every ``try`` that classifies attempts: an
    exception from the outcome callback (a campaign abort, a journal
    write error) propagates as is, never as a failed shard to retry.
    """
    broken = False
    started: Dict[int, float] = {}
    futures: Dict[int, Future[Dict[str, Any]]] = {}

    def submit(index: int) -> None:
        """Submit one shard; flips ``broken`` instead of raising."""
        nonlocal broken
        started[index] = time.perf_counter()
        try:
            futures[index] = pool.submit(
                invoke_shard_timed, module_name, func_name, shards[index].params
            )
        except (BrokenExecutor, RuntimeError, OSError):
            broken = True

    def pooled(index: int, payload: Dict[str, Any], attempts: int) -> ShardOutcome:
        wall = time.perf_counter() - started[index]
        worker = payload["worker_seconds"]
        return ShardOutcome(
            shards[index],
            payload["result"],
            SOURCE_POOL,
            attempts,
            wall,
            worker_seconds=worker,
            queue_seconds=max(0.0, wall - worker),
        )

    for index in pending:
        submit(index)
        if broken:
            break

    for index in pending:
        attempts = 0
        while True:
            if broken:
                # The pool is gone. Work already in flight may still
                # have landed (the break was discovered later) — harvest
                # it without blocking before paying for an inline run.
                future = futures.pop(index, None)
                try:
                    payload = future.result(timeout=0) if future is not None else None
                except Exception:
                    payload = None
                if payload is not None:
                    finish(index, pooled(index, payload, attempts + 1))
                else:
                    # Attempts so far still count toward the reported total.
                    _run_inline(
                        module_name,
                        func_name,
                        shards,
                        [index],
                        policy,
                        experiment,
                        finish,
                        prior_attempts=attempts,
                    )
                break
            if index not in futures:
                submit(index)
                continue
            attempts += 1
            try:
                payload = futures[index].result(timeout=policy.shard_timeout)
            except BrokenExecutor:
                broken = True
                continue
            except Exception:
                # A timeout or the shard's own failure: that attempt is
                # abandoned (a stuck worker is left to shutdown).
                del futures[index]
            else:
                finish(index, pooled(index, payload, attempts))
                break
            if attempts > policy.max_retries:
                # Last resort before giving up: one in-process try.
                _run_inline(
                    module_name,
                    func_name,
                    shards,
                    [index],
                    replace(policy, max_retries=0),
                    experiment,
                    finish,
                    prior_attempts=attempts,
                )
                break
            backoff = policy.backoff(attempts)
            if backoff > 0:
                policy.sleep(backoff)
