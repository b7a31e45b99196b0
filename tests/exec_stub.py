"""Controllable shard functions for ``repro.exec`` tests.

A real module (not test-local lambdas) because worker processes import
shard functions by name. Cross-process state goes through small files:
attempts are serialized by the retry loop, so a byte-append counter is
race-free for our purposes.
"""

import os
import time


def bump(counter_path: str) -> int:
    """Append one byte; returns the new count (1-based call number)."""
    with open(counter_path, "ab") as handle:
        handle.write(b"x")
    return os.path.getsize(counter_path)


def calls(counter_path: str) -> int:
    try:
        return os.path.getsize(counter_path)
    except OSError:
        return 0


def shard_value(value=0):
    """The trivial shard: returns its input."""
    return value


def count_calls(counter_path: str, value=0):
    """Counts executions (across processes) and returns ``value``."""
    bump(counter_path)
    return value


def flaky(counter_path: str, fail_times: int, value=0):
    """Raises on the first ``fail_times`` calls, then succeeds."""
    call = bump(counter_path)
    if call <= fail_times:
        raise RuntimeError(f"transient failure #{call}")
    return value


def slow_first_attempt(counter_path: str, sleep_s: float, value=0):
    """Sleeps on the first call only — models a one-off stall."""
    if bump(counter_path) == 1:
        time.sleep(sleep_s)
    return value


def slow_unless_parent(parent_pid: int, sleep_s: float, value=0):
    """Sleeps in worker processes, returns immediately in-process.

    Exercises the timeout → retries-exhausted → inline-fallback path
    without the fallback itself paying the sleep.
    """
    if os.getpid() != parent_pid:
        time.sleep(sleep_s)
    return value


def die_unless_parent(parent_pid: int, value=0):
    """Kills any worker process it runs in (pool-death simulation)."""
    if os.getpid() != parent_pid:
        os._exit(17)
    return value


def die_later_unless_parent(parent_pid: int, die_after_s=None, value=0):
    """Kills its worker process ``die_after_s`` seconds in; with
    ``None`` (and always in-process) it just returns ``value``.

    Breaks a pool mid-run, after faster shards have already landed.
    """
    if die_after_s is not None and os.getpid() != parent_pid:
        time.sleep(die_after_s)
        os._exit(17)
    return value


# -- a stub experiment (shard protocol) for campaign-level tests ----------


def shards(counter_dir: str, count: int = 5):
    """``count`` shards, each counting its executions in its own file."""
    from repro.exec.shards import Shard

    return [
        Shard(key=f"n={i}", params={"counter_path": os.path.join(counter_dir, str(i)), "value": i})
        for i in range(count)
    ]


def run_shard(counter_path: str, value=0):
    return count_calls(counter_path, value)


def merge(results, **kwargs):
    return {"values": list(results)}
