"""The paper's claims as reusable, per-experiment claim gates.

The protocol lives in :mod:`repro.api.experiment`: a
:class:`~repro.api.experiment.Claim` names a paper statement and checks it
against the experiment's analyzed :class:`~repro.api.frame.ResultFrame`.
Every registered experiment declares its claims here, so ``repro run
<experiment>`` / ``repro claims <experiment>`` gate on them — figure2's
headline numbers, the sequential history's η = 1.0, frontrunning's
structural no-overpayment, the attack matrix's Section V-B cell, and the
oracle comparison's latency gap.

The headline claims themselves:

* Abstract / Section VII: the READ-UNCOMMITTED view alone (client-only HMS)
  "increas[es] state throughput by a factor of five across the full range of
  tested read to write ratios".
* Section VII: semantic mining improves "transaction efficiency from less
  than 5 percent to over 80 percent in cases where state changes are
  frequent, more than an order of magnitude improvement".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..api.experiment import Claim
from ..api.frame import ResultFrame

__all__ = [
    "figure2_claims",
    "sequential_claims",
    "frontrunning_claims",
    "attack_matrix_claims",
    "oracle_claims",
    "ablation_claims",
]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratios(frame: ResultFrame) -> List[float]:
    return sorted(frame.unique("buys_per_set"))


def _improvement_factor(
    frame: ResultFrame, ratio: float, scenario: str, over: str = "geth_unmodified"
) -> Optional[float]:
    """How many times better ``scenario``'s mean η is than ``over`` at ``ratio``."""
    baseline = frame.mean("eta", scenario=over, buys_per_set=ratio)
    improved = frame.mean("eta", scenario=scenario, buys_per_set=ratio)
    if baseline is None or improved is None:
        return None
    if baseline <= 0:
        return float("inf") if improved > 0 else 1.0
    return improved / baseline


def figure2_claims() -> Tuple[Claim, ...]:
    """The paper's headline claims, checked from a figure2 frame
    (columns: ``scenario``, ``buys_per_set``, ``eta``, ``set_eta``)."""

    def client_improves(frame: ResultFrame):
        ratios = _ratios(frame)
        factors = [
            _improvement_factor(frame, ratio, "sereth_client") for ratio in ratios
        ]
        known = [factor for factor in factors if factor is not None]
        holds = bool(known) and all(factor > 1.0 for factor in known)
        measured = (
            f"{min(known):.1f}x – {max(known):.1f}x (mean {_mean(known):.1f}x)"
            if known
            else "no comparable cells"
        )
        detail = "factors per ratio: " + ", ".join(
            f"{ratio:g}:1 → {factor:.1f}x"
            for ratio, factor in zip(ratios, factors)
            if factor is not None
        )
        return holds, measured, detail

    def semantic_lifts(frame: ResultFrame):
        ratios = _ratios(frame)
        frequent = [ratio for ratio in ratios if ratio <= 2.0] or ratios[:1]
        geth_cells = [
            value
            for r in frequent
            if (value := frame.mean("eta", scenario="geth_unmodified", buys_per_set=r))
            is not None
        ]
        semantic_cells = [
            value
            for r in frequent
            if (value := frame.mean("eta", scenario="semantic_mining", buys_per_set=r))
            is not None
        ]
        if not geth_cells or not semantic_cells:
            return (
                False,
                "no comparable cells",
                "the claim needs both geth_unmodified and semantic_mining in the grid",
            )
        geth_low, semantic_low = _mean(geth_cells), _mean(semantic_cells)
        holds = semantic_low >= 0.7 and geth_low <= 0.20 and semantic_low > geth_low * 4
        return (
            holds,
            f"{geth_low:.1%} -> {semantic_low:.1%}",
            f"ratios considered frequent: {frequent}",
        )

    def gain_greatest_when_frequent(frame: ResultFrame):
        ratios = _ratios(frame)
        factors = [
            _improvement_factor(frame, ratio, "semantic_mining") for ratio in ratios
        ]
        measured = ", ".join(
            f"{ratio:g}:1 → {factor:.1f}x"
            for ratio, factor in zip(ratios, factors)
            if factor is not None
        )
        if len(factors) <= 2 or any(factor is None for factor in factors):
            return True, measured, "fewer than three ratios: ordering is vacuous"
        holds = max(factors[:2]) >= max(factors[2:])
        return holds, measured

    def sets_succeed(frame: ResultFrame):
        rates = [value for value in frame.column("set_eta") if value is not None]
        holds = bool(rates) and min(rates) >= 0.99
        return holds, f"{_mean(rates):.1%}" if rates else "no set transactions"

    return (
        Claim(
            name="READ-UNCOMMITTED view (client-only HMS) improves state throughput "
            "across the full ratio range",
            paper_value="~5x across the range 1:1 to 20:1",
            check=client_improves,
        ),
        Claim(
            name="Semantic mining raises efficiency from a few percent to most "
            "transactions succeeding when state changes are frequent",
            paper_value="<5% -> >80% (factor > 10) at 1-2 buys per set",
            check=semantic_lifts,
        ),
        Claim(
            name="Relative improvement is greatest where there are 1-2 buys per set",
            paper_value="largest gain at 1:1 and 2:1",
            check=gain_greatest_when_frequent,
        ),
        Claim(
            name="All price sets succeed (sent from the contract owner in nonce order)",
            paper_value="100%",
            check=sets_succeed,
        ),
    )


def sequential_claims() -> Tuple[Claim, ...]:
    """Section V's first quantitative test: a single-sender history is perfect."""

    def perfect_efficiency(frame: ResultFrame):
        rates: List[float] = []
        for row in frame.rows():
            reports = row["summary"]["reports"]
            for label in ("set", "buy"):
                rates.append(reports[label]["efficiency"])
                rates.append(reports[label]["success_rate"])
        holds = bool(rates) and min(rates) >= 1.0
        measured = f"min rate {min(rates):.3f} over {len(frame)} runs" if rates else "no runs"
        return holds, measured

    return (
        Claim(
            name="A sequential history commits perfectly: real-time order equals "
            "nonce order equals block order",
            paper_value="failure rate 0, eta = 1.0",
            check=perfect_efficiency,
        ),
    )


def frontrunning_claims() -> Tuple[Claim, ...]:
    """Section V-B: mark-bound offers make overpayment structurally impossible."""

    def never_overpaid(frame: ResultFrame):
        overpaid = sum(frame.column("overpaid"))
        audits = frame.column("audit_clean")
        holds = overpaid == 0 and all(audits)
        return (
            holds,
            f"{overpaid} overpaid fills, audit {'clean' if all(audits) else 'DIRTY'}",
        )

    def hms_view_helps(frame: ResultFrame):
        modes = frame.unique("victim_read_mode") if "victim_read_mode" in frame.column_names else []
        if "read_uncommitted" not in modes or "read_committed" not in modes:
            return True, "single read mode", "both read modes needed for the comparison"
        uncommitted = frame.mean("eta", victim_read_mode="read_uncommitted")
        committed = frame.mean("eta", victim_read_mode="read_committed")
        return (
            uncommitted >= committed,
            f"fill rate {committed:.1%} (committed) -> {uncommitted:.1%} (HMS view)",
        )

    return (
        Claim(
            name="No victim ever fills at terms it did not observe",
            paper_value="0 overpaid fills (structural)",
            check=never_overpaid,
        ),
        Claim(
            name="Reading the HMS view fills at least as many buys as committed reads",
            paper_value="linking buys to marks prevents the attack, not the fills",
            check=hms_view_helps,
        ),
    )


def attack_matrix_claims() -> Tuple[Claim, ...]:
    """The matrix generalization of Section V-B, gated per cell."""

    def hms_protects(frame: ResultFrame):
        cells = frame.filter(adversary="displacement", defense="semantic_mining")
        if len(cells) == 0:
            return True, "n/a", "displacement x semantic_mining not in the grid"
        harm = sum(cells.column("victim_harm"))
        submitted = sum(cells.column("victim_submitted"))
        return harm == 0, f"{harm}/{submitted} victim buys harmed"

    def structurally_sound(frame: ResultFrame):
        overpaid = sum(frame.column("overpaid"))
        audits = frame.column("audit_clean")
        holds = overpaid == 0 and all(audits)
        return holds, f"{overpaid} overpaid fills across {len(frame)} cells"

    return (
        Claim(
            name="Displacement causes zero victim harm under full HMS "
            "(semantic mining)",
            paper_value="Section V-B: frontrunning prevented",
            check=hms_protects,
        ),
        Claim(
            name="No cell shows an overpayment, under any attack",
            paper_value="mark-bound offers hold everywhere (auditor-verified)",
            check=structurally_sound,
        ),
    )


def oracle_claims() -> Tuple[Claim, ...]:
    """Section III-D: RAA answers locally; an oracle needs committed rounds."""

    def raa_is_faster(frame: ResultFrame):
        pairs = [
            (row["mean_raa_latency"], row["mean_oracle_latency"])
            for row in frame.rows()
            if row["mean_raa_latency"] is not None
        ]
        if not pairs:
            return False, "no RAA samples"
        # A run whose oracle never answered counts for RAA trivially.
        holds = all(oracle is None or raa < oracle for raa, oracle in pairs)
        raa_values = [raa for raa, _oracle in pairs]
        oracle_values = [oracle for _raa, oracle in pairs if oracle is not None]
        measured = f"RAA {_mean(raa_values):.4f}s vs oracle " + (
            f"{_mean(oracle_values):.1f}s" if oracle_values else "(never answered)"
        )
        return holds, measured

    return (
        Claim(
            name="RAA delivers intra-block data faster than an oracle round trip",
            paper_value=">= 1-2 block intervals for the oracle; immediate for RAA",
            check=raa_is_faster,
        ),
    )


def ablation_claims() -> Tuple[Claim, ...]:
    """Sanity gate shared by the one-dimensional ablation sweeps."""

    def efficiencies_are_rates(frame: ResultFrame):
        values = [value for value in frame.column("eta") if value is not None]
        holds = bool(values) and all(0.0 <= value <= 1.0 for value in values)
        return holds, f"{len(values)} points in [0, 1]" if values else "no points"

    return (
        Claim(
            name="Every ablation point is a well-formed efficiency",
            paper_value="eta in [0, 1] (sanity)",
            check=efficiencies_are_rates,
        ),
    )

