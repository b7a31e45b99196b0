"""Propagation and frame-loss model.

The analytical model assumes a circular Wi-Fi range (100 m in the
paper) and a flat message-loss probability ``h`` (10%). The simulated
medium keeps those two knobs and adds an edge roll-off: loss rises
smoothly from the floor towards 1 near the edge of range, which is what
produces the realistic "lossy fringe" that vehicular measurement
studies (Cabernet, CarTel) report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PropagationModel:
    """Distance → frame-loss probability.

    ``edge_start`` is the fraction of range where the fringe begins;
    inside it the loss is the flat floor ``base_loss``.

    The fringe geometry (``fringe_start_m``, ``fringe_span_m``) is
    precomputed once: every delivery consults it, and computing
    ``edge_start * range_m`` per frame would both cost and invite the
    formula to be re-derived (and drift) at call sites. This is the
    *single* home of the loss formula — the medium's delivery paths
    and the reference scan in ``tests/phy_oracle.py`` all defer to
    :meth:`loss_probability` / :func:`combined_loss`, and
    ``tests/test_phy_kernel.py`` pins their agreement.
    """

    range_m: float = 100.0
    base_loss: float = 0.10
    edge_start: float = 0.70
    #: Derived: distance where the fringe roll-off begins / its width.
    fringe_start_m: float = field(init=False, repr=False, compare=False)
    fringe_span_m: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.base_loss < 1:
            raise ValueError("base_loss must be in [0, 1)")
        if not 0 < self.edge_start <= 1:
            raise ValueError("edge_start must be in (0, 1]")
        if self.range_m <= 0:
            raise ValueError("range must be positive")
        self.fringe_start_m = self.edge_start * self.range_m
        self.fringe_span_m = self.range_m - self.fringe_start_m

    def in_range(self, dist_m: float) -> bool:
        return dist_m <= self.range_m

    def loss_probability(self, dist_m: float) -> float:
        """Per-frame loss probability at ``dist_m`` metres.

        Beyond range the frame is always lost. Within the fringe the
        loss interpolates quadratically from the floor to 1.
        """
        if dist_m > self.range_m:
            return 1.0
        if dist_m <= self.fringe_start_m:
            return self.base_loss
        fraction = (dist_m - self.fringe_start_m) / self.fringe_span_m
        return self.base_loss + (1.0 - self.base_loss) * fraction * fraction


def combined_loss(model: PropagationModel, dist_m: float, extra: float) -> float:
    """Delivery-time loss: path loss at ``dist_m`` plus interference.

    ``extra`` is the interference contribution
    (:meth:`repro.phy.radio.Medium.interference_loss`); the sum is
    capped at certainty. Every delivery path — broadcast, unicast ARQ,
    and the reference scan — owes its loss to this one composition, so
    the formula cannot fork.
    """
    loss = model.loss_probability(dist_m) + extra
    return loss if loss < 1.0 else 1.0
