"""Unit tests for named RNG streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.randomness import ParkedStream, RandomStreams


def test_same_name_returns_same_stream():
    streams = RandomStreams(seed=1)
    assert streams.get("phy") is streams.get("phy")


def test_different_names_are_independent_objects():
    streams = RandomStreams(seed=1)
    assert streams.get("phy") is not streams.get("dhcp")


def test_streams_reproducible_across_instances():
    a = RandomStreams(seed=9).get("tcp")
    b = RandomStreams(seed=9).get("tcp")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_seeds_differ():
    a = RandomStreams(seed=1).get("x")
    b = RandomStreams(seed=2).get("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_isolation_from_extra_draws():
    """Draws on one stream must not shift another stream's sequence."""
    streams_a = RandomStreams(seed=5)
    baseline = [streams_a.get("dhcp").random() for _ in range(3)]

    streams_b = RandomStreams(seed=5)
    for _ in range(100):
        streams_b.get("phy").random()  # unrelated activity
    assert [streams_b.get("dhcp").random() for _ in range(3)] == baseline


def test_fork_is_deterministic():
    a = RandomStreams(seed=3).fork(7).get("s")
    b = RandomStreams(seed=3).fork(7).get("s")
    assert a.random() == b.random()


def test_fork_differs_from_parent():
    parent = RandomStreams(seed=3)
    forked = parent.fork(1)
    assert parent.get("s").random() != forked.get("s").random()


def test_fork_salts_differ():
    root = RandomStreams(seed=3)
    assert root.fork(1).get("s").random() != root.fork(2).get("s").random()


def test_fork_namespace_disjoint_from_named_streams():
    """fork(1) must not reuse the seed of a stream *named* "fork:1".

    The two derivations used to hash the identical "{seed}:fork:1"
    string, silently correlating a forked family with an innocently
    named stream.
    """
    root = RandomStreams(seed=3)
    collided_seed = root._derive_seed("fork:1") & 0x7FFFFFFF
    assert root.fork(1).seed != collided_seed


def test_fork_namespace_disjoint_across_salts_and_names():
    root = RandomStreams(seed=11)
    named = {root._derive_seed(f"fork:{salt}") & 0x7FFFFFFF for salt in range(16)}
    forked = {root.fork(salt).seed for salt in range(16)}
    assert named.isdisjoint(forked)


def test_named_stream_derivation_unchanged():
    """Default-path seeds are stable across refactors: every recorded
    experiment output depends on them (the fork fix must not move
    them; the pinned value is from the original seed implementation)."""
    assert RandomStreams(seed=7)._derive_seed("phy") == 10326783612299810866


#: One call on a parked stream: a ``uniform(a, b)`` draw, or ``None``
#: for a ``park()``.
_calls = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    ),
    max_size=40,
)


@given(seed=st.integers(0, 2**64 - 1), calls=_calls)
@settings(max_examples=100, deadline=None)
def test_parked_stream_replays_plain_sequence(seed, calls):
    """Parking anywhere in a sequence of draws changes no value."""
    parked, plain = ParkedStream(seed), random.Random(seed)
    for call in calls:
        if call is None:
            parked.park()
            assert parked._live is None
        else:
            assert parked.uniform(*call) == plain.uniform(*call)
    assert parked.random() == plain.random()


def test_parked_stream_holds_no_state_until_drawn():
    stream = ParkedStream(3)
    assert stream._live is None
    stream.uniform(0, 1)
    assert stream._live is not None and stream.draws == 1
    stream.park()
    assert stream._live is None and stream.draws == 1


@pytest.mark.parametrize("method", ["gauss", "randint", "choice", "shuffle", "getstate"])
def test_parked_stream_rejects_unreplayable_methods(method):
    stream = ParkedStream(3)
    with pytest.raises(AttributeError, match="has no attribute"):
        getattr(stream, method)


def test_parked_stream_draws_what_get_would():
    parked = RandomStreams(seed=4).parked("ap:x")
    plain = RandomStreams(seed=4).get("ap:x")
    assert [parked.random() for _ in range(3)] == [plain.random() for _ in range(3)]


def test_parked_and_plain_streams_do_not_share_a_name():
    streams = RandomStreams(seed=4)
    assert streams.parked("ap:x") is streams.parked("ap:x")
    streams.get("phy")
    with pytest.raises(ValueError, match="created parked"):
        streams.get("ap:x")
    with pytest.raises(ValueError, match="created unparked"):
        streams.parked("phy")
