"""The scenario-migration identity harness.

The experiment layer now builds every world through ``repro.scenario``.
This harness proves the refactor changed *nothing observable*: each
experiment's fast-mode result must stay byte-identical to the digests
recorded against the pre-refactor imperative assembly
(``tests/goldens/experiment-digests.json``). A digest here is the
SHA-256 of the canonical serialization of the experiment's result dict
— the exec cache's identity — so equality means equality of every
number in every row.

fig2 (no world at all) and fig6 (the DHCP centerpiece) run in the
default suite; the full sweep is ``-m slow``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.exec.cache import canonical_text
from repro.experiments.runner import REGISTRY, run_experiment
from repro.scenario.build import run_shard
from repro.scenario.registry import scenario

GOLDENS = Path(__file__).parent / "goldens" / "experiment-digests.json"
SCENARIO_GOLDENS = Path(__file__).parent / "goldens" / "scenario-digests.json"

with open(GOLDENS, encoding="utf-8") as _handle:
    _GOLDEN = json.load(_handle)

with open(SCENARIO_GOLDENS, encoding="utf-8") as _handle:
    _SCENARIO_GOLDEN = json.load(_handle)

assert _GOLDEN["fast"] is True, "identity goldens must be fast-mode digests"

#: Experiments cheap enough for the default (tier-1) run; the rest are
#: identical in kind, just slower, and run under ``-m slow``.
FAST_SUBSET = ("fig2", "fig6")


def digest_of(name: str) -> str:
    result = run_experiment(name, fast=True)
    return hashlib.sha256(canonical_text(result).encode()).hexdigest()


def test_goldens_cover_registered_experiments():
    unknown = sorted(set(_GOLDEN["digests"]) - set(REGISTRY))
    assert unknown == [], f"goldens reference unregistered experiments: {unknown}"


@pytest.mark.parametrize("name", FAST_SUBSET)
def test_fast_subset_digest_identity(name):
    assert digest_of(name) == _GOLDEN["digests"][name], (
        f"{name} drifted from the pre-refactor golden — a scenario-built "
        "world no longer reproduces the imperative assembly byte for byte"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", sorted(set(_GOLDEN["digests"]) - set(FAST_SUBSET))
)
def test_full_digest_identity(name):
    assert digest_of(name) == _GOLDEN["digests"][name]


@pytest.mark.parametrize("name", sorted(_SCENARIO_GOLDEN["digests"]))
def test_scenario_digest_identity(name):
    """Scenario runs must match digests recorded before the indexed medium.

    These goldens (``tests/goldens/scenario-digests.json``) were
    captured against the pre-index linear-scan ``Medium``; equality
    proves the per-channel/address indexes, memos, and position caches
    preserved every per-receiver RNG draw bit for bit.
    """
    spec = scenario(name, duration=_SCENARIO_GOLDEN["duration_s"])
    digest = hashlib.sha256(
        canonical_text(run_shard(spec.to_dict())).encode()
    ).hexdigest()
    assert digest == _SCENARIO_GOLDEN["digests"][name], (
        f"{name} drifted from the pre-index golden — the indexed medium "
        "no longer reproduces the linear-scan delivery byte for byte"
    )


@pytest.mark.parametrize("name", sorted(_SCENARIO_GOLDEN["kernel_identity"]))
def test_kernel_digest_identity(name):
    """The PHY delivery path must reproduce one pinned per-scenario digest.

    The ``kernel_identity`` goldens digest the shard result *minus*
    ``spec_digest``: they were recorded when the spec could spell out
    a delivery implementation, and every implementation had to match
    them byte for byte. The one remaining path still must (DESIGN.md
    §6.3); the generated-world sweep in ``tests/test_phy_kernel.py``
    covers the parameter space around it against the reference scan.
    """
    spec = scenario(name, duration=_SCENARIO_GOLDEN["duration_s"])
    shard = run_shard(spec.to_dict())
    shard.pop("spec_digest")
    digest = hashlib.sha256(canonical_text(shard).encode()).hexdigest()
    assert digest == _SCENARIO_GOLDEN["kernel_identity"][name], (
        f"{name} drifted from the kernel-identity golden — the PHY "
        "delivery path no longer matches the recorded run byte for byte"
    )
