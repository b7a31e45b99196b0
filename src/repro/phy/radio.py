"""Radio hardware and the shared wireless medium.

``Medium`` is the broadcast domain: it owns all radios, serialises
transmissions per channel (a first-order stand-in for CSMA/CA — the
channel is a shared 11 Mbps pipe), and applies the propagation model's
per-receiver loss draw at delivery time.

``Radio`` models one half-duplex 802.11 card: it is tuned to exactly
one channel, can be made *deaf* for the duration of a hardware reset
(the Spider driver uses this to model channel-switch latency), and
hands received frames to whatever MAC entity registered ``on_receive``.

The medium is fully indexed so the delivery path does no linear work
over the fleet (DESIGN.md §6): an address→radio map, an
airtime memo, and a uniform-grid *spatial*
index (cell size = the propagation horizon, DESIGN.md §6.2) that
restricts broadcast fan-out to the sender's 3×3 cell neighbourhood
plus the channel's mobile radios, so per-frame cost scales with *local
density*, not world size. Static senders deliver from their channel's
static pair table; mobile senders walk the 3×3 snapshot. Both visit
receivers in registration order — the exact per-receiver RNG draw order
of the historical full-channel scan — which is what keeps every
experiment digest byte-identical (``tests/goldens/*.json``). That scan
survives only as the reference implementation in
``tests/phy_oracle.py``, which every identity test compares against.
Channel retunes must go through ``Radio.set_channel`` (never assign
``radio.channel`` directly), and simlint rule SL008 keeps linear scans
from creeping back in.

Simplifications (documented per DESIGN.md §6): no collision model —
per-channel FIFO serialisation approximates medium sharing; frames on
spectrally overlapping but unequal channels are not delivered (the
evaluation only uses the orthogonal channels 1/6/11, where this is
exact).
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import trace as tr
from repro.phy.channels import (
    DEFAULT_DATA_RATE_BPS,
    INTERFERENCE_OVERLAP,
    RATE_LADDER,
    frame_airtime,
)
from repro.phy.propagation import PropagationModel, combined_loss
from repro.sim.engine import Lane, Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import distance
from repro.world.mobility import MobilityModel, StaticMobility

_hypot = math.hypot
_reg_seq = attrgetter("reg_seq")

#: ``FrameType.DATA``, resolved on first use (importing ``mac.frames``
#: at module load would cycle through the package imports).
_DATA_FRAME_TYPE: Any = None


def _data_frame_type() -> Any:
    global _DATA_FRAME_TYPE
    if _DATA_FRAME_TYPE is None:
        from repro.mac.frames import FrameType

        _DATA_FRAME_TYPE = FrameType.DATA
    return _DATA_FRAME_TYPE


class Radio:
    """One 802.11 card attached to a (possibly mobile) node.

    Slotted: a city-scale world holds one per AP.
    """

    __slots__ = (
        "medium", "sim", "mobility", "channel", "name", "address", "on_receive",
        "deaf_until", "frames_sent", "frames_received", "frames_lost", "tx_airtime",
        "rx_airtime", "deaf_time", "last_rssi", "on_unicast_failure", "reg_seq",
        "_static", "_position_time", "_position_value", "_grid_cell", "_horizons", "_links",
    )

    def __init__(
        self,
        medium: "Medium",
        mobility: MobilityModel,
        channel: int,
        name: str = "radio",
        address: Optional[str] = None,
    ):
        self.medium = medium
        self.sim: Simulator = medium.sim
        self.mobility = mobility
        self.channel = channel
        self.name = name
        self.address = address if address is not None else name
        self.on_receive: Optional[Callable[[Any], None]] = None
        self.deaf_until: float = 0.0
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_lost = 0
        #: Accumulated airtime (s) spent transmitting / receiving /
        #: deaf in hardware resets — the inputs to the energy model.
        self.tx_airtime = 0.0
        self.rx_airtime = 0.0
        self.deaf_time = 0.0
        #: RSSI (dBm) of the most recently delivered frame; handlers may
        #: read this synchronously inside ``on_receive``, as a real
        #: driver reads the radiotap header.
        self.last_rssi: float = -100.0
        #: Invoked when a unicast frame exhausts its ARQ attempts (the
        #: hardware's TX-status "failed" report); APs use this to move
        #: the frame into the destination's power-save buffer.
        self.on_unicast_failure: Optional[Callable[[Any], None]] = None
        #: Registration sequence number, assigned by ``Medium.register``;
        #: the spatial index keeps radios sorted by it so delivery order
        #: (and the RNG draw order) matches the historical
        #: registration-ordered scan exactly.
        self.reg_seq: int = -1
        #: Per-timestamp position cache: mobile positions are pure
        #: functions of time, so within one instant every query (range
        #: check, rate pick, fan-out) reuses one computation. Radios on
        #: a (exactly) ``StaticMobility`` pin their position once per
        #: *registration* — ``Medium.register`` calls ``_repin`` — so
        #: the AP fleet never pays a position call again, and a radio
        #: re-registered with a replaced mobility never serves a stale
        #: pin to the fan-out snapshot.
        self._static = False
        self._position_time: Optional[float] = None
        self._position_value: Any = None
        #: Spatial-index cell assigned by ``Medium._index_add`` (static
        #: radios only); removal uses this stored key, so the index
        #: stays consistent even if the pin is refreshed in between.
        self._grid_cell: Optional[Tuple[int, int]] = None
        #: Reach horizons of a static sender (``Medium._deliver_static``):
        #: mobile receiver → ``(until, mobility)``, the time before
        #: which that receiver, under that mobility model, cannot be in
        #: range. None until the first out-of-range mobile is seen.
        self._horizons: Optional[Dict["Radio", Tuple[float, MobilityModel]]] = None
        #: Unicast link cache (``Medium._link``): destination address →
        #: ``(medium, address_epoch, target, dist, rate, base_loss,
        #: rssi)``; the last four are None unless both ends are static.
        #: None until the radio first sends a unicast frame.
        self._links: Optional[Dict[str, Tuple[Any, ...]]] = None
        medium.register(self)

    def _repin(self) -> None:
        """Refresh the static-position pin from the current mobility.

        Called on every ``Medium.register`` (including re-registration
        after ``unregister`` and partition handoff): the pin, the
        static flag, and the per-instant cache all restart from the
        mobility model the radio holds *now*.
        """
        self._static = type(self.mobility) is StaticMobility
        self._position_time = None
        self._position_value = self.mobility.position(0.0) if self._static else None
        self._horizons = None
        self._links = None

    def position(self):
        if self._static:
            return self._position_value
        now = self.sim.now
        if now != self._position_time:
            self._position_time = now
            self._position_value = self.mobility.position(now)
        return self._position_value

    @property
    def deaf(self) -> bool:
        """True while the card cannot send or receive (hardware reset)."""
        return self.sim.now < self.deaf_until

    def set_channel(self, channel: int) -> None:
        """Retune instantly. Drivers model reset latency via go_deaf().

        This is the *only* legal way to change ``self.channel``: the
        medium's spatial index is maintained here.
        """
        trace = self.sim.trace
        if trace is not None and channel != self.channel:
            trace.emit(tr.PHY_CHANNEL_SET, self.sim.now, radio=self.name, channel=channel)
        if channel != self.channel:
            self.medium._retune(self, self.channel, channel)
        self.channel = channel

    def go_deaf(self, duration: float) -> None:
        """Mark the card unable to send/receive for ``duration`` seconds."""
        new_until = self.sim.now + duration
        added = new_until - max(self.sim.now, self.deaf_until)
        if added > 0:
            self.deaf_time += added
        self.deaf_until = max(self.deaf_until, new_until)

    def transmit(self, frame: Any) -> bool:
        """Queue a frame for transmission on the current channel.

        Returns False (and drops the frame) if the card is deaf. The
        frame must expose ``size_bytes`` and ``rate_bps``. Unicast
        data frames get their rate re-picked here by the auto-rate
        controller — rates are a property of the link at transmit time,
        not of when the frame was queued.
        """
        if self.sim.now < self.deaf_until:
            return False
        medium = self.medium
        # Same predicate as the historical getattr chain, reordered so
        # the common non-data case (beacons, probes, ACK-less mgmt)
        # resolves on the first test.
        ftype = _DATA_FRAME_TYPE
        if ftype is None:
            ftype = _data_frame_type()
        if (
            getattr(frame, "type", None) is ftype
            and not frame.broadcast
            and (getattr(frame, "bufferable", False) or getattr(frame, "needs_ack", False))
        ):
            frame.rate_bps = medium.suggest_rate(self, frame.dst)
        self.frames_sent += 1
        airtime = medium.airtime(frame)
        self.tx_airtime += airtime
        medium.broadcast(self, frame, airtime=airtime)
        return True

    def _deliver(self, frame: Any, rssi: float = -100.0, airtime: Optional[float] = None) -> None:
        self.frames_received += 1
        self.rx_airtime += self.medium.airtime(frame) if airtime is None else airtime
        self.last_rssi = rssi
        if self.on_receive is not None:
            self.on_receive(frame)


class Medium:
    """The shared wireless broadcast domain.

    Index invariants (the determinism contract — see DESIGN.md §6).
    Broadcast fan-out draws per-receiver loss in *registration* order
    (``Radio.reg_seq`` ascending) no matter how often radios retune: bit
    for bit the order of the historical "scan all radios in registration
    order, filter by channel" loop (``tests/phy_oracle.py``).

    - ``_by_address[a]`` holds the registered radios with address
      ``a`` in registration order; unicast lookup takes the first
      entry that is not the sender, as the linear scan did.
    - ``_radios`` maps every registered radio to ``None`` in
      registration order (dict-as-ordered-set), making ``unregister``
      O(1).
    - ``_grid[c][(cx, cy)]`` (spatial index, DESIGN.md §6.2) holds the
      *static* radios of channel ``c`` whose pinned position falls in
      grid cell ``(cx, cy)``, each bucket sorted by ``reg_seq``; the
      cell edge is the propagation horizon, so every radio within
      range of a sender lies in the sender's 3×3 neighbourhood.
      ``_mobile[c]`` holds the channel's mobile radios (always
      visited — they may be anywhere at delivery time). Merging the
      neighbourhood with the mobile set and sorting by ``reg_seq``
      reproduces the registration-order scan exactly for every radio
      that can draw loss RNG; radios farther than one cell are
      provably out of range and never drew in the full scan either.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[PropagationModel] = None,
        streams: Optional[RandomStreams] = None,
        per_frame_overhead_s: float = 150e-6,
        max_arq_attempts: int = 4,
        adjacent_channel_loss: float = 0.25,
        stream_name: str = "phy",
    ):
        self.sim = sim
        self.propagation = propagation or PropagationModel()
        self._rng = (streams or RandomStreams()).get(stream_name)
        self.per_frame_overhead_s = per_frame_overhead_s
        self.max_arq_attempts = max_arq_attempts
        #: Extra loss probability per *busy* spectrally-overlapping
        #: channel at delivery time, scaled by overlap ((5−Δ)/5). This
        #: is why real deployments (and the paper) stick to the
        #: orthogonal 1/6/11: frames near an active channel 3 or 9 pay.
        self.adjacent_channel_loss = adjacent_channel_loss
        self._radios: Dict[Radio, None] = {}
        #: Tuples, not lists: almost every address has one radio.
        self._by_address: Dict[str, Tuple[Radio, ...]] = {}
        self._registrations = 0
        #: Bumped by every ``register``/``unregister``: the validity
        #: stamp of the unicast link cache (``_link``), since either can
        #: change which radio ``_first_with_address`` returns, or where
        #: a static radio is pinned.
        self._address_epoch = 0
        self._channel_busy_until: Dict[int, float] = {}
        #: Channels spectrally within 4 of some channel that has ever
        #: carried a transmission. A channel outside this set provably
        #: has zero interference loss (no overlapping channel is in the
        #: busy map at all), so the common all-orthogonal case — the
        #: paper's 1/6/11 deployments — skips the overlap sum
        #: entirely. Synced lazily from the busy map's key set (keys
        #: are never removed, so the key count is a faithful version).
        self._interference_prone: set = set()
        self._prone_synced_channels = 0
        #: channel → (busy-map size at build, [(other, weighted loss)])
        #: — the spectral-overlap pairs of a channel, in the busy map's
        #: *insertion* order (keys are never removed, so the map size
        #: is a faithful build version and the iteration order is
        #: append-only). Caching the pairs keeps ``interference_loss``
        #: from re-deriving overlaps per call; summing the cached list
        #: adds the same floats in the same order as the historical
        #: full-map walk, so the result stays bit-identical.
        self._overlap_pairs: Dict[int, Tuple[int, List[Tuple[int, float]]]] = {}
        #: (size_bytes, rate_bps) → airtime; frames are few-shaped, so
        #: this converges to a handful of entries per workload.
        self._airtime_memo: Dict[Tuple[int, float], float] = {}
        #: Spatial fan-out index. Cell edge = propagation horizon: any
        #: receiver within range differs from the sender by at most one
        #: cell per axis.
        self._cell_m = self.propagation.range_m
        self._grid: Dict[int, Dict[Tuple[int, int], List[Radio]]] = {}
        self._mobile: Dict[int, Dict[Radio, None]] = {}
        #: channel → sender cell → merged local snapshot: ``(radio, x,
        #: y)`` in registration order, with coordinates pre-resolved for
        #: static radios (``None`` means "mobile — ask at delivery
        #: time"). Invalidated whenever the channel's membership changes.
        self._local_cache: Dict[
            int, Dict[Tuple[int, int], List[Tuple[Radio, Optional[float], Optional[float]]]]
        ] = {}
        #: channel → static radio → its fan-out geometry, ``(reg_seq,
        #: radio, base_loss, rssi)`` per static radio in range, in
        #: registration order (``_fill_pairs``). Dropped whenever a
        #: static radio joins or leaves the channel.
        self._pair_tables: Dict[int, Dict[Radio, List[Tuple[int, Radio, float, float]]]] = {}
        #: channel → ``(reg_seq, radio)`` per mobile member, in
        #: registration order (``_mobile_pairs``). Dropped whenever a
        #: mobile radio joins or leaves the channel.
        self._mobile_lists: Dict[int, List[Tuple[int, Radio]]] = {}
        #: Cumulative transmit airtime per channel (s): the utilisation
        #: view the metrics registry snapshots as ``phy.airtime_s.ch*``.
        self.airtime_by_channel: Dict[int, float] = {}
        #: channel → its airtime FIFO (see ``broadcast``): the engine
        #: lanes of the frames that found the channel busy, broadcast
        #: class first, then unicast.
        self._air_lanes: Dict[int, Tuple[Lane, Lane]] = {}
        metrics = sim.metrics
        if metrics is not None:
            metrics.add_source(self._metrics_source)

    def _metrics_source(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "phy.frames_sent": sum(radio.frames_sent for radio in self._radios),
            "phy.frames_dropped": sum(radio.frames_lost for radio in self._radios),
            "phy.air_backlog": sum(
                len(lane) - 1 for lanes in self._air_lanes.values() for lane in lanes if lane
            ),
        }
        for channel, airtime in self.airtime_by_channel.items():
            out[f"phy.airtime_s.ch{channel}"] = airtime
        return out

    # -- registry maintenance -------------------------------------------

    def register(self, radio: Radio) -> None:
        """Add a radio; re-registering after unregister re-queues it last.

        Registration refreshes the radio's static-position pin
        (``Radio._repin``) *before* indexing, so a radio re-registered
        after ``unregister`` — possibly relocated under a new mobility
        model, or handed off from another partition's medium — is
        indexed (and snapshot) at its current position, never a stale
        cached one.
        """
        if radio in self._radios:
            return
        radio.reg_seq = self._registrations
        self._registrations += 1
        self._address_epoch += 1
        self._radios[radio] = None
        radio._repin()
        address = radio.address
        self._by_address[address] = self._by_address.get(address, ()) + (radio,)
        self._index_add(radio, radio.channel)
        self._invalidate(radio.channel, radio._static)

    def unregister(self, radio: Radio) -> None:
        if radio not in self._radios:
            return
        del self._radios[radio]
        self._address_epoch += 1
        self._index_remove(radio, radio.channel)
        self._invalidate(radio.channel, radio._static)
        address = radio.address
        peers = tuple(peer for peer in self._by_address.get(address, ()) if peer is not radio)
        if peers:
            self._by_address[address] = peers
        else:
            self._by_address.pop(address, None)

    def _retune(self, radio: Radio, old_channel: int, new_channel: int) -> None:
        """Move a radio's index entries between channels (``Radio.set_channel``)."""
        if radio not in self._radios:
            return  # unregistered radios may retune freely
        self._invalidate(old_channel, radio._static)
        self._invalidate(new_channel, radio._static)
        self._index_remove(radio, old_channel)
        self._index_add(radio, new_channel)

    def _invalidate(self, channel: int, static_member: bool) -> None:
        """Drop the channel's cached fan-out snapshots.

        ``static_member`` says which membership kind changed, so only
        that half of the static senders' fan-out is rebuilt: a mobile
        client retuning keeps the static pair table.
        """
        self._local_cache.pop(channel, None)
        if static_member:
            self._pair_tables.pop(channel, None)
        else:
            self._mobile_lists.pop(channel, None)

    def _index_add(self, radio: Radio, channel: int) -> None:
        """Insert into the spatial index, preserving per-bucket reg order.

        Static radios land in the grid cell of their pinned position
        (stored on the radio, so removal is exact); mobile radios join
        the channel's always-visited mobile set. Both structures keep
        ``reg_seq`` order so the fan-out merge stays a sort of already
        mostly-ordered runs.
        """
        if radio._static:
            position = radio._position_value
            cell = self._cell_m
            key = (int(position.x // cell), int(position.y // cell))
            radio._grid_cell = key
            bucket = self._grid.setdefault(channel, {}).setdefault(key, [])
            if bucket and bucket[-1].reg_seq > radio.reg_seq:
                insort(bucket, radio, key=_reg_seq)
            else:
                bucket.append(radio)
            return
        mobile = self._mobile.setdefault(channel, {})
        if mobile and next(reversed(mobile)).reg_seq > radio.reg_seq:
            mobile[radio] = None
            ordered = sorted(mobile, key=_reg_seq)
            mobile.clear()
            for entry in ordered:
                mobile[entry] = None
        else:
            mobile[radio] = None

    def _index_remove(self, radio: Radio, channel: int) -> None:
        """Remove from the spatial index (cell key stored at insertion)."""
        if radio._static:
            cells = self._grid.get(channel)
            if cells is None:
                return
            bucket = cells.get(radio._grid_cell)
            if bucket is not None and radio in bucket:
                bucket.remove(radio)
                if not bucket:
                    del cells[radio._grid_cell]
            return
        mobile = self._mobile.get(channel)
        if mobile is not None:
            mobile.pop(radio, None)

    def radios_on_channel(self, channel: int) -> List[Radio]:
        """Registered radios tuned to ``channel``, in registration order.

        An inspection helper, not a delivery path: it filters the full
        registry (simlint SL008 exempts it by name).
        """
        return [radio for radio in self._radios if radio.channel == channel]

    def _first_with_address(self, address: str, sender: Radio) -> Optional[Radio]:
        """First-registered radio with ``address`` that is not ``sender``."""
        for radio in self._by_address.get(address, ()):
            if radio is not sender:
                return radio
        return None

    def _link(self, sender: Radio, address: str) -> Optional[Tuple[Any, ...]]:
        """The unicast link from ``sender`` to ``address``, cached on the sender.

        ``(medium, address_epoch, target, dist, rate, base_loss, rssi)``
        or None when no other radio has the address. ``target`` is what
        ``_first_with_address`` returns; only ``register``/``unregister``
        can change that, and both bump the epoch the entry is stamped
        with. When both ends are static the entry also holds the link's
        geometry — distance, auto-rate, path loss (None out of range)
        and RSSI — computed by the same expressions the per-frame path
        uses, from positions pinned at registration (DESIGN.md §6.3). A
        mobile end leaves those four None: its geometry is per-frame.
        """
        links = sender._links
        if links is not None:
            link = links.get(address)
            if link is not None and link[1] == self._address_epoch and link[0] is self:
                return link
        target = self._first_with_address(address, sender)
        if target is None:
            return None
        if sender._static and target._static:
            dist = distance(sender.position(), target.position())
            propagation = self.propagation
            link = (
                self, self._address_epoch, target, dist, self._rate_at(dist),
                propagation.loss_probability(dist) if propagation.in_range(dist) else None,
                self.rssi_at(dist),
            )
        else:
            link = (self, self._address_epoch, target, None, None, None, None)
        if links is None:
            links = sender._links = {}
        links[address] = link
        return link

    # -- transmission ----------------------------------------------------

    def airtime(self, frame: Any) -> float:
        """Airtime including DIFS/backoff/ACK overhead approximation."""
        key = (frame.size_bytes, frame.rate_bps)
        cached = self._airtime_memo.get(key)
        if cached is None:
            cached = frame_airtime(key[0], key[1]) + self.per_frame_overhead_s
            self._airtime_memo[key] = cached
        return cached

    def broadcast(self, sender: Radio, frame: Any, airtime: Optional[float] = None) -> None:
        """Serialise the frame onto the channel and schedule deliveries.

        The channel is FIFO: the transmission starts when the channel
        frees up, and completes one airtime later. Receivers are
        evaluated at completion time (mobile nodes may have moved).
        ``airtime`` lets ``Radio.transmit`` pass its own memo lookup
        through instead of repeating it.

        A frame that finds the channel idle completes through an
        ordinary engine event. A frame that finds it busy joins the
        channel's airtime FIFO (DESIGN.md §6.1): one engine lane per
        delivery class, whose keys ``now + (end - now)`` strictly
        increase along the channel, so only each lane's head is on the
        event heap and the frame still completes exactly where
        ``sim.schedule`` would have put it.
        """
        channel = sender.channel
        if airtime is None:
            airtime = self.airtime(frame)
        self.airtime_by_channel[channel] = self.airtime_by_channel.get(channel, 0.0) + airtime
        sim = self.sim
        now = sim.now
        busy_until = self._channel_busy_until.get(channel, 0.0)
        start = busy_until if busy_until > now else now
        end = start + airtime
        self._channel_busy_until[channel] = end
        unacked = getattr(frame, "broadcast", False) or not getattr(frame, "needs_ack", False)
        delay = end - now
        if busy_until <= now:
            if unacked:
                sim.schedule(delay, self._deliver_broadcast, sender, frame, channel, airtime)
            else:
                sim.schedule(delay, self._deliver_unicast, sender, frame, channel, 1)
            return
        lanes = self._air_lanes.get(channel)
        if lanes is None:
            lanes = self._air_lanes[channel] = (
                sim.lane((self._deliver_broadcast, channel), self._deliver_broadcast, 4),
                sim.lane((self._deliver_unicast, channel), self._deliver_unicast, 4),
            )
        if unacked:
            lanes[0].push(delay, sender, frame, channel, airtime)
        else:
            lanes[1].push(delay, sender, frame, channel, 1)

    def channel_busy_until(self, channel: int) -> float:
        return self._channel_busy_until.get(channel, 0.0)

    @staticmethod
    def rssi_at(dist_m: float) -> float:
        """Log-distance path loss: ~-40 dBm at 10 m, -30 dB/decade."""
        return -40.0 - 30.0 * math.log10(max(dist_m, 1.0) / 10.0)

    def suggest_rate(self, sender: Radio, dst_address: str) -> float:
        """SNR-driven auto-rate: pick the data rate the link supports.

        Real senders track per-station rates from ACK feedback; the
        simulation uses the true distance as the SNR proxy. Unknown or
        out-of-range destinations get the top rate (the frame will be
        lost anyway).
        """
        link = self._link(sender, dst_address)
        if link is None:
            return DEFAULT_DATA_RATE_BPS
        if link[4] is not None:
            return link[4]
        return self._rate_at(distance(sender.position(), link[2].position()))

    def _rate_at(self, dist: float) -> float:
        """The ``RATE_LADDER`` rate for a link of ``dist`` metres."""
        fraction = dist / self.propagation.range_m
        for threshold, rate in RATE_LADDER:
            if fraction <= threshold:
                return rate
        return RATE_LADDER[-1][1]

    # -- interference ----------------------------------------------------

    def interference_loss(self, channel: int) -> float:
        """Extra loss from busy spectrally-overlapping channels.

        Channels not spectrally near any ever-active channel short-
        circuit to zero — exact, because a nonzero contribution needs a
        busy overlapping channel, and every channel that ever carried a
        frame marked its neighbours interference-prone. Prone channels
        sum the overlap pairs that are busy at ``sim.now``. Delivery
        asks once per completion, at the first receiver that draws
        (DESIGN.md §6.3).
        """
        if self.adjacent_channel_loss <= 0.0:
            return 0.0
        if channel not in self._interference_prone:
            busy = self._channel_busy_until
            if len(busy) == self._prone_synced_channels:
                return 0.0
            # New channels became active since the last sync: mark
            # their spectral neighbourhoods prone, then re-test.
            prone = self._interference_prone
            for active in busy:
                prone.update(near for near in range(active - 4, active + 5) if near != active)
            self._prone_synced_channels = len(busy)
            if channel not in prone:
                return 0.0
        now = self.sim.now
        busy = self._channel_busy_until
        cached = self._overlap_pairs.get(channel)
        if cached is None or cached[0] != len(busy):
            # (Re)derive the channel's spectral-overlap pairs from the
            # busy map's current key set, preserving its insertion
            # order so the float additions below run in exactly the
            # order the historical per-call walk used.
            loss = self.adjacent_channel_loss
            overlap_of = INTERFERENCE_OVERLAP.get
            pairs: List[Tuple[int, float]] = []
            for other in busy:
                if other == channel:
                    continue
                overlap = overlap_of((channel, other))
                if overlap is not None:
                    pairs.append((other, loss * overlap))
            cached = (len(busy), pairs)
            self._overlap_pairs[channel] = cached
        extra = 0.0
        for other, weighted in cached[1]:
            if busy[other] > now:
                extra += weighted
        return min(extra, 0.9)

    # -- delivery --------------------------------------------------------

    def _local_entries(
        self, channel: int, x: float, y: float
    ) -> List[Tuple[Radio, Optional[float], Optional[float]]]:
        """Spatial snapshot: the 3×3 cell neighbourhood of point ``(x, y)``.

        Static radios from the sender's cell and its eight neighbours
        plus every mobile radio on the channel, merged into ``reg_seq``
        order — exactly the subsequence of the full-channel scan
        (``tests/phy_oracle.py``) that can reach the RNG draw: a static
        radio outside the neighbourhood is farther than one cell edge
        (= the propagation horizon) on some axis, so the scan's range
        check skips it without drawing. Cached per (channel, sender
        cell); any membership change on the channel invalidates. Read
        by mobile senders only, and by a static sender whose frame
        completes after it left the channel.
        """
        cell = self._cell_m
        cx = int(x // cell)
        cy = int(y // cell)
        cache = self._local_cache.get(channel)
        if cache is None:
            cache = self._local_cache[channel] = {}
        entries = cache.get((cx, cy))
        if entries is None:
            local: List[Radio] = []
            cells = self._grid.get(channel)
            if cells is not None:
                for gx in (cx - 1, cx, cx + 1):
                    for gy in (cy - 1, cy, cy + 1):
                        bucket = cells.get((gx, gy))
                        if bucket:
                            local.extend(bucket)
            mobile = self._mobile.get(channel)
            if mobile:
                local.extend(mobile)
            local.sort(key=_reg_seq)
            entries = [
                (radio, radio._position_value.x, radio._position_value.y)
                if radio._static
                else (radio, None, None)
                for radio in local
            ]
            cache[cx, cy] = entries
        return entries

    def _deliver_broadcast(
        self, sender: Radio, frame: Any, channel: int, airtime: Optional[float] = None
    ) -> None:
        now = self.sim.now
        sender_pos = sender.position()
        sender_x = sender_pos.x
        sender_y = sender_pos.y
        frame_air = self.airtime(frame) if airtime is None else airtime
        if sender._static:
            # Static sender: the fan-out's static geometry is a constant
            # of the channel's static membership — deliver from the
            # channel's pair table, skipping the snapshot fetch. A
            # sender that left the channel (retuned or unregistered)
            # after its frame went out has no row, and walks the
            # snapshot below like a mobile sender.
            table = self._pair_tables.get(channel)
            if table is None:
                table = self._fill_pairs(channel)
            statics = table.get(sender)
            if statics is not None:
                self._deliver_static(
                    sender, frame, channel, now, sender_x, sender_y, frame_air, statics
                )
                return
        entries = self._local_entries(channel, sender_x, sender_y)
        if not entries:
            return
        propagation = self.propagation
        range_m = propagation.range_m
        # loss_probability returns the flat floor anywhere inside the
        # fringe; inlining that branch keeps the common case call-free.
        fringe_start = propagation.fringe_start_m
        base_floor = propagation.base_loss
        base_loss_at = propagation.loss_probability
        rssi_at = self.rssi_at
        draw = self._rng.random
        trace = self.sim.trace
        # Interference is asked for at the first receiver that draws:
        # no handler has run by then, so it equals the value at the
        # start of the fan-out.
        extra_loss: Optional[float] = None
        # The snapshot list is never mutated in place (handlers that
        # retune/register/unregister only *replace* it via cache
        # invalidation), so iterating it while handlers run is safe.
        # Channel/deafness are re-checked per radio at visit time,
        # exactly as the historical full scan did.
        for radio, x, y in entries:
            if radio is sender or radio.channel != channel or now < radio.deaf_until:
                continue
            if x is None:
                pos = radio.position()
                x = pos.x
                y = pos.y
            dx = sender_x - x
            # |dx| > range is a hypot-free reject: in the storefront-row
            # geometries most same-channel radios are far down the road.
            if dx > range_m or -dx > range_m:
                continue
            dist = _hypot(dx, sender_y - y)
            if dist > range_m:
                continue
            if extra_loss is None:
                extra_loss = self.interference_loss(channel)
            loss = (base_floor if dist <= fringe_start else base_loss_at(dist)) + extra_loss
            if draw() < (loss if loss < 1.0 else 1.0):
                radio.frames_lost += 1
                if trace is not None:
                    trace.emit(
                        tr.PHY_FRAME_DROP, now, channel=channel,
                        dst=radio.address, reason="loss",
                    )
                continue
            radio._deliver(frame, rssi_at(dist), frame_air)

    def _mobile_pairs(self, channel: int) -> List[Tuple[int, Radio]]:
        """Current mobile members of ``channel`` as ``(reg_seq, radio)``.

        Registration order (the spatial mobile set maintains it), so the
        pair-merge in ``_deliver_static`` can interleave these with the
        static pair table by ``reg_seq``. One list per channel, shared by
        every static sender until a mobile radio joins or leaves it.
        """
        mobile = self._mobile.get(channel)
        pairs = [(radio.reg_seq, radio) for radio in mobile] if mobile else []
        self._mobile_lists[channel] = pairs
        return pairs

    def _fill_pairs(self, channel: int) -> Dict[Radio, List[Tuple[int, Radio, float, float]]]:
        """The static pair table of ``channel``, filled in one pass.

        Maps every static radio on the channel to one ``(reg_seq,
        radio, base_loss, rssi)`` entry per *other* static radio within
        range, in registration order: the radios, and the path-loss and
        RSSI floats, that the per-entry loop of ``_deliver_broadcast``
        would compute per frame for that sender. Mobile members are
        delivery-time state and live in ``_mobile_pairs``.

        Members are visited in ``reg_seq`` order, and each one is paired
        only with the later members of its 3×3 cell neighbourhood (the
        only static radios that can be in range, §6.2). Each unordered
        pair is thus computed once, and its entry is appended to both
        rows: to the earlier member's row while that member is visited,
        and to the later member's row before that member is visited.
        So every row is in ``reg_seq`` order with no sort. Both ends get
        the same floats: ``x_a − x_b`` rounds to exactly ``−(x_b − x_a)``,
        ``math.hypot`` takes absolute values, and loss and RSSI depend
        only on the distance (DESIGN.md §6.3). Static positions are
        pinned at registration and any static join or leave drops the
        table (``_invalidate``), so a table is never stale.
        """
        cells = self._grid.get(channel, {})
        members = sorted((radio for bucket in cells.values() for radio in bucket), key=_reg_seq)
        table: Dict[Radio, List[Tuple[int, Radio, float, float]]] = {
            radio: [] for radio in members
        }
        propagation = self.propagation
        range_m = propagation.range_m
        fringe_start = propagation.fringe_start_m
        base_floor = propagation.base_loss
        base_loss_at = propagation.loss_probability
        rssi_at = self.rssi_at
        neighbourhoods: Dict[Tuple[int, int], List[Radio]] = {}
        for radio in members:
            key = radio._grid_cell
            near = neighbourhoods.get(key)
            if near is None:
                cx, cy = key
                near = []
                for gx in (cx - 1, cx, cx + 1):
                    for gy in (cy - 1, cy, cy + 1):
                        bucket = cells.get((gx, gy))
                        if bucket:
                            near.extend(bucket)
                near.sort(key=_reg_seq)
                neighbourhoods[key] = near
            seq = radio.reg_seq
            row = table[radio]
            x = radio._position_value.x
            y = radio._position_value.y
            for index in range(bisect_right(near, seq, key=_reg_seq), len(near)):
                other = near[index]
                position = other._position_value
                dx = x - position.x
                if dx > range_m or -dx > range_m:
                    continue
                dist = _hypot(dx, y - position.y)
                if dist > range_m:
                    continue
                base = base_floor if dist <= fringe_start else base_loss_at(dist)
                rssi = rssi_at(dist)
                row.append((other.reg_seq, other, base, rssi))
                table[other].append((seq, radio, base, rssi))
        self._pair_tables[channel] = table
        return table

    def _deliver_static(
        self,
        sender: Radio,
        frame: Any,
        channel: int,
        now: float,
        sender_x: float,
        sender_y: float,
        frame_air: float,
        statics: List[Tuple[int, Radio, float, float]],
    ) -> None:
        """Broadcast delivery for a static sender from its pair-table row.

        Byte-identical to the per-entry loop of ``_deliver_broadcast``:
        the row ``statics`` holds the same path-loss and RSSI floats
        that loop computes (same expressions, same operand order),
        channel and deafness are re-checked per visit exactly as it
        does, and mobile members — whose positions are delivery-time
        state — run its full per-visit body, merged back in
        registration (``reg_seq``) order so the RNG draw sequence is
        unchanged.

        A mobile receiver found out of range at distance ``d`` gets a
        *reach horizon* on the sender (DESIGN.md §6.3): it cannot come
        within ``range_m`` before ``now + (d - range_m - 1) /
        max_speed``, so until then it is skipped without evaluating its
        position. The full loop would reject it too, without a draw.
        """
        mobiles = self._mobile_lists.get(channel)
        if mobiles is None:
            mobiles = self._mobile_pairs(channel)
        draw = self._rng.random
        trace = self.sim.trace
        extra_loss: Optional[float] = None
        if not mobiles:
            for _row, radio, base, rssi in statics:
                if radio.channel != channel or now < radio.deaf_until:
                    continue
                if extra_loss is None:
                    extra_loss = self.interference_loss(channel)
                loss = base + extra_loss
                if draw() < (loss if loss < 1.0 else 1.0):
                    radio.frames_lost += 1
                    if trace is not None:
                        trace.emit(
                            tr.PHY_FRAME_DROP, now, channel=channel,
                            dst=radio.address, reason="loss",
                        )
                    continue
                radio._deliver(frame, rssi, frame_air)
            return
        propagation = self.propagation
        range_m = propagation.range_m
        fringe_start = propagation.fringe_start_m
        base_floor = propagation.base_loss
        base_loss_at = propagation.loss_probability
        rssi_at = self.rssi_at
        horizons = sender._horizons
        static_index = 0
        static_count = len(statics)
        mobile_index = 0
        mobile_count = len(mobiles)
        while static_index < static_count or mobile_index < mobile_count:
            if mobile_index >= mobile_count or (
                static_index < static_count
                and statics[static_index][0] < mobiles[mobile_index][0]
            ):
                _row, radio, base, rssi = statics[static_index]
                static_index += 1
                if radio.channel != channel or now < radio.deaf_until:
                    continue
                if extra_loss is None:
                    extra_loss = self.interference_loss(channel)
                loss = base + extra_loss
                dist = None
            else:
                _row, radio = mobiles[mobile_index]
                mobile_index += 1
                if radio is sender or radio.channel != channel or now < radio.deaf_until:
                    continue
                mobility = radio.mobility
                if horizons is not None:
                    held = horizons.get(radio)
                    if held is not None and now < held[0] and held[1] is mobility:
                        continue
                pos = radio.position()
                dx = sender_x - pos.x
                dist = _hypot(dx, sender_y - pos.y)
                if dx > range_m or -dx > range_m or dist > range_m:
                    speed = mobility.max_speed
                    if speed is not None and dist > range_m + 1.0:
                        if horizons is None:
                            horizons = sender._horizons = {}
                        horizons[radio] = (
                            now + (dist - range_m - 1.0) / speed if speed > 0.0 else math.inf,
                            mobility,
                        )
                    continue
                if extra_loss is None:
                    extra_loss = self.interference_loss(channel)
                loss = (base_floor if dist <= fringe_start else base_loss_at(dist)) + extra_loss
            if draw() < (loss if loss < 1.0 else 1.0):
                radio.frames_lost += 1
                if trace is not None:
                    trace.emit(
                        tr.PHY_FRAME_DROP, now, channel=channel,
                        dst=radio.address, reason="loss",
                    )
                continue
            radio._deliver(frame, rssi if dist is None else rssi_at(dist), frame_air)

    def _deliver_unicast(self, sender: Radio, frame: Any, channel: int, attempt: int) -> None:
        """Unicast with link-layer ARQ: retry on loss up to the cap.

        Each retry occupies another airtime on the channel, which is
        what makes a lossy fringe expensive, not just unreliable. The
        target and, for a static pair, the geometry come from the
        sender's link cache (``_link``); channel, deafness and
        interference are read per frame.
        """
        link = self._link(sender, frame.dst)
        if link is None:
            self._report_tx_failure(sender, frame)
            return  # destination gone
        target = link[2]
        if target.channel != channel or self.sim.now < target.deaf_until:
            self._report_tx_failure(sender, frame)
            return  # destination off-channel or deaf
        dist = link[3]
        if dist is None:
            dist = distance(sender.position(), target.position())
            if not self.propagation.in_range(dist):
                self._report_tx_failure(sender, frame)
                return
            draw = self._rng.random()
            loss = combined_loss(self.propagation, dist, self.interference_loss(channel))
            rssi = None
        else:
            base = link[5]
            if base is None:
                self._report_tx_failure(sender, frame)
                return  # static pair out of range
            draw = self._rng.random()
            # ``combined_loss`` with the path loss cached: same sum, same cap.
            loss = base + self.interference_loss(channel)
            if loss >= 1.0:
                loss = 1.0
            rssi = link[6]
        if draw < loss:
            target.frames_lost += 1
            trace = self.sim.trace
            if trace is not None:
                trace.emit(
                    tr.PHY_FRAME_DROP, self.sim.now, channel=channel,
                    dst=target.address, reason="loss", attempt=attempt,
                )
            if attempt < self.max_arq_attempts and sender.channel == channel and not sender.deaf:
                # 802.11 retries stay within the TXOP: the retry goes
                # out immediately, ahead of anything queued behind it —
                # re-entering the FIFO would reorder the stream.
                airtime = self.airtime(frame)
                busy_until = self._channel_busy_until.get(channel, 0.0)
                self._channel_busy_until[channel] = max(busy_until, self.sim.now + airtime)
                self.sim.schedule(
                    airtime, self._deliver_unicast, sender, frame, channel, attempt + 1
                )
            else:
                self._report_tx_failure(sender, frame)
            return
        target._deliver(frame, self.rssi_at(dist) if rssi is None else rssi)

    def _report_tx_failure(self, sender: Radio, frame: Any) -> None:
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.PHY_FRAME_DROP, self.sim.now, channel=sender.channel,
                dst=getattr(frame, "dst", None), reason="arq-exhausted",
            )
        if sender.on_unicast_failure is not None:
            sender.on_unicast_failure(frame)
