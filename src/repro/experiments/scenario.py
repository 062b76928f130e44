"""The three experimental scenarios of Figure 2 (plus ablation variants).

* ``geth_unmodified`` — unmodified clients, READ-COMMITTED buyer reads,
  fee/arrival miner ordering (Section V-A).
* ``sereth_client`` — Sereth clients provide the READ-UNCOMMITTED view via
  HMS/RAA; miners are unmodified (Section V-B).
* ``semantic_mining`` — same client inputs as ``sereth_client`` but the
  miners also run HMS and order blocks semantically (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..clients.market import READ_COMMITTED, READ_UNCOMMITTED
from ..net.peer import GETH_CLIENT, SERETH_CLIENT

__all__ = [
    "Scenario",
    "GETH_UNMODIFIED",
    "SERETH_CLIENT_SCENARIO",
    "SEMANTIC_MINING",
]


@dataclass(frozen=True)
class Scenario:
    """How clients read state and how miners order blocks."""

    name: str
    client_kind: str
    """Which client software the peers run (``geth`` or ``sereth``)."""
    buyer_read_mode: str
    """Where buyers read (mark, price) from: committed storage or the HMS view."""
    semantic_mining: bool
    """Whether miners use the HMS-aware ordering policy."""
    semantic_miner_fraction: float = 1.0
    """Fraction of mining power running the semantic policy (ablation A1)."""

    def with_semantic_fraction(self, fraction: float) -> "Scenario":
        """A variant of this scenario with partial semantic-miner participation."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return replace(
            self,
            name=f"{self.name}_frac_{fraction:.2f}",
            semantic_mining=fraction > 0.0,
            semantic_miner_fraction=fraction,
        )


GETH_UNMODIFIED = Scenario(
    name="geth_unmodified",
    client_kind=GETH_CLIENT,
    buyer_read_mode=READ_COMMITTED,
    semantic_mining=False,
)

SERETH_CLIENT_SCENARIO = Scenario(
    name="sereth_client",
    client_kind=SERETH_CLIENT,
    buyer_read_mode=READ_UNCOMMITTED,
    semantic_mining=False,
)

SEMANTIC_MINING = Scenario(
    name="semantic_mining",
    client_kind=SERETH_CLIENT,
    buyer_read_mode=READ_UNCOMMITTED,
    semantic_mining=True,
)
