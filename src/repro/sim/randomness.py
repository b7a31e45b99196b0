"""Named, independently seeded random streams.

A single shared RNG makes simulations fragile: adding one draw in the
radio model would shift every subsequent draw in DHCP and TCP, changing
results for unrelated reasons. ``RandomStreams`` derives one
:class:`random.Random` per subsystem name from a root seed, so streams
are independent and stable as the codebase grows.

Per-entity streams (one per AP in a city-scale world) are *parked*:
:meth:`RandomStreams.parked` hands out a :class:`ParkedStream`, which
between uses keeps only its seed and draw count instead of a 2.5 KB
Mersenne Twister state.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional, Union


class ParkedStream:
    """A seeded stream that can drop its generator state between uses.

    It draws exactly the values of ``random.Random(seed)``. The
    generator is built on the first draw after :meth:`park`, and the
    counted draws are replayed into it. Replay is exact because both
    supported methods consume one ``random()`` each: CPython's
    ``uniform(a, b)`` is ``a + (b - a) * random()``. It has no other
    ``random.Random`` method (calling one raises ``AttributeError``):
    a draw the count could not replay would silently shift the
    sequence.

    >>> stream, plain = ParkedStream(5), random.Random(5)
    >>> first = stream.uniform(0, 1)
    >>> stream.park()
    >>> [first, stream.random()] == [plain.uniform(0, 1), plain.random()]
    True
    """

    __slots__ = ("seed", "draws", "_live")

    def __init__(self, seed: int):
        self.seed = seed
        self.draws = 0
        self._live: Optional[random.Random] = None

    def park(self) -> None:
        """Drop the generator state; the next draw rebuilds it."""
        self._live = None

    def _generator(self) -> random.Random:
        live = self._live
        if live is None:
            live = random.Random(self.seed)
            for _ in range(self.draws):
                live.random()
            self._live = live
        return live

    def random(self) -> float:
        value = self._generator().random()
        self.draws += 1
        return value

    def uniform(self, a: float, b: float) -> float:
        value = self._generator().uniform(a, b)
        self.draws += 1
        return value


class RandomStreams:
    """Factory of named, deterministic :class:`random.Random` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("phy")
    >>> b = streams.get("phy")
    >>> a is b
    True
    >>> streams.get("dhcp") is a
    False
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, Union[random.Random, ParkedStream]] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self._derive_seed(name))
            self._streams[name] = stream
        elif not isinstance(stream, random.Random):
            raise ValueError(f"stream {name!r} was created parked")
        return stream

    def parked(self, name: str) -> ParkedStream:
        """Return the parkable stream for ``name``, creating it on first use.

        It draws the same values :meth:`get` would for ``name``. Use it
        for per-entity streams that draw rarely; hot subsystem streams
        stay plain :class:`random.Random`, one Python frame cheaper per
        draw.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = ParkedStream(self._derive_seed(name))
            self._streams[name] = stream
        elif not isinstance(stream, ParkedStream):
            raise ValueError(f"stream {name!r} was created unparked")
        return stream

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, salt: int) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per run index).

        Forked roots hash in their own domain: :meth:`get` hashes
        ``{seed}:{name}`` (a decimal-digit prefix), fork hashes
        ``fork\\x1f{seed}\\x1f{salt}`` — no name can make the two
        strings coincide, so a stream literally named ``"fork:1"``
        never shares seed material with the family ``fork(1)`` derives.
        """
        digest = hashlib.sha256(f"fork\x1f{self.seed}\x1f{salt}".encode()).digest()
        return RandomStreams(seed=int.from_bytes(digest[:8], "big") & 0x7FFFFFFF)
