"""802.11 frame definitions.

Frames are small dataclasses carrying just what the simulation needs:
type, addressing, size (for airtime), rate, the power-management bit,
and an opaque L3 payload (a DHCP message or a TCP segment).

Sizes follow real 802.11b framing closely enough for airtime fidelity:
management frames are of the order of 30–130 bytes at the 1 Mbps basic
rate; data frames add a 34-byte MAC header around the payload at
11 Mbps.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.phy.channels import DEFAULT_DATA_RATE_BPS, MANAGEMENT_RATE_BPS

#: Broadcast destination address.
BROADCAST = "ff:ff:ff:ff:ff:ff"

_sequence = itertools.count()


class FrameType(enum.Enum):
    # Enum's default __hash__ is a Python-level call on the member
    # name; frame types key every dispatch-table lookup on the MAC hot
    # path, so use the C-level identity hash (members are singletons,
    # and Enum equality is already identity).
    __hash__ = object.__hash__

    BEACON = "beacon"
    PROBE_REQUEST = "probe-req"
    PROBE_RESPONSE = "probe-resp"
    AUTH_REQUEST = "auth-req"
    AUTH_RESPONSE = "auth-resp"
    ASSOC_REQUEST = "assoc-req"
    ASSOC_RESPONSE = "assoc-resp"
    DEAUTH = "deauth"
    NULL_DATA = "null"
    PS_POLL = "ps-poll"
    DATA = "data"


#: Representative on-air sizes (bytes, including MAC header + FCS).
MGMT_FRAME_SIZES = {
    FrameType.BEACON: 110,
    FrameType.PROBE_REQUEST: 68,
    FrameType.PROBE_RESPONSE: 110,
    FrameType.AUTH_REQUEST: 34,
    FrameType.AUTH_RESPONSE: 34,
    FrameType.ASSOC_REQUEST: 70,
    FrameType.ASSOC_RESPONSE: 40,
    FrameType.DEAUTH: 30,
    FrameType.NULL_DATA: 28,
    FrameType.PS_POLL: 20,
}

DATA_HEADER_BYTES = 34


@dataclass(slots=True)
class Frame:
    """One frame on the air."""

    type: FrameType
    src: str
    dst: str
    size_bytes: int
    rate_bps: float
    pm: bool = False  # 802.11 power-management bit
    payload: Any = None
    needs_ack: bool = True  # unicast link-layer ARQ eligibility
    #: Eligible for AP-side PSM/retry buffering. Join traffic (DHCP
    #: responses) is NOT: the paper's premise is that the join exchange
    #: "cannot be buffered using a PSM request" — miss it and it's gone.
    bufferable: bool = True
    seq: int = field(default_factory=_sequence.__next__)

    @property
    def broadcast(self) -> bool:
        return self.dst == BROADCAST

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.type.value} {self.src}->{self.dst} #{self.seq}>"


def mgmt_frame(frame_type: FrameType, src: str, dst: str, payload: Any = None) -> Frame:
    """Build a management frame at the basic rate."""
    size_bytes = MGMT_FRAME_SIZES.get(frame_type)
    if size_bytes is None:
        raise ValueError(f"{frame_type} is not a management frame type")
    return Frame(
        type=frame_type,
        src=src,
        dst=dst,
        size_bytes=size_bytes,
        rate_bps=MANAGEMENT_RATE_BPS,
        payload=payload,
        needs_ack=dst != BROADCAST,
    )


def beacon(src: str, payload: Any = None) -> Frame:
    return mgmt_frame(FrameType.BEACON, src, BROADCAST, payload)


def null_data(src: str, dst: str, pm: bool) -> Frame:
    """PSM announcement: null data frame with the PM bit set/cleared."""
    frame = mgmt_frame(FrameType.NULL_DATA, src, dst)
    frame.pm = pm
    return frame


def ps_poll(src: str, dst: str) -> Frame:
    return mgmt_frame(FrameType.PS_POLL, src, dst)


def data_frame(
    src: str,
    dst: str,
    payload: Any,
    payload_bytes: int,
    rate_bps: float = DEFAULT_DATA_RATE_BPS,
    pm: bool = False,
) -> Frame:
    """Build a data frame wrapping an L3 payload."""
    if payload_bytes < 0:
        raise ValueError("negative payload size")
    return Frame(
        type=FrameType.DATA,
        src=src,
        dst=dst,
        size_bytes=payload_bytes + DATA_HEADER_BYTES,
        rate_bps=rate_bps,
        pm=pm,
        payload=payload,
        needs_ack=dst != BROADCAST,
    )
