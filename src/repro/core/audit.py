"""Chain auditing: check a committed history against the paper's correctness notions.

Section IV argues HMS under sequential consistency; the related-work section
points at Selective Strict Serialization (SSS) — "some transactions are
strictly serialized and others are not, but are marked to the serialized
history" — as the correctness condition that matches how HMS treats the
market workload: the ``set`` operations form a strictly serialized chain of
marks, while ``buy`` operations are only *bound* to a position in that chain
by the mark they carry.

The :class:`ChainAuditor` holds the rules that check exactly that:

* per-sender nonce order is respected in every block (sequential consistency
  of each client's program order);
* every successful ``set`` extends the mark chain (its ``previous_mark`` is
  the mark in force at its position) and every failed one does not;
* every successful ``buy`` carries the mark and value in force at its
  position — i.e. it is correctly marked to the serialized history;
* the mark chain recorded on-chain is collision-free (no mark repeats).

An :class:`AuditCursor` applies them one block at a time as the chain
imports it (:attr:`Blockchain.audit_cursor
<repro.chain.chain.Blockchain.audit_cursor>`), carrying only the mark and
value in force and each sender's next nonce from block to block.  A workload
reads its report at the end of a run and replays nothing, so the audit also
holds on a retained chain whose early blocks are pruned.  The tests hold it
to a from-scratch replay of the finished chain (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chain.block import Block
from ..chain.transaction import Transaction
from ..crypto.addresses import Address
from ..encoding.hexutil import WORD_SIZE
from .hms.fpv import FPV, compute_mark, fpv_from_calldata

__all__ = ["AuditCursor", "AuditViolation", "AuditReport", "ChainAuditor"]


@dataclass(frozen=True)
class AuditViolation:
    """A single invariant violation found while auditing a chain."""

    kind: str
    block_number: int
    transaction_hash: bytes
    description: str


@dataclass
class AuditReport:
    """Outcome of one audit pass."""

    blocks_audited: int = 0
    sets_checked: int = 0
    buys_checked: int = 0
    successful_sets: int = 0
    successful_buys: int = 0
    violations: List[AuditViolation] = field(default_factory=list)
    mark_chain: List[bytes] = field(default_factory=list)
    """Every mark the contract's storage variable took on, in commit order."""

    @property
    def is_clean(self) -> bool:
        return not self.violations

    def violations_of_kind(self, kind: str) -> List[AuditViolation]:
        return [violation for violation in self.violations if violation.kind == kind]


class ChainAuditor:
    """Audits a committed chain for HMS / SSS invariants on one contract."""

    def __init__(
        self,
        contract_address: Address,
        set_selector: bytes,
        buy_selector: Optional[bytes] = None,
        initial_mark: Optional[bytes] = None,
        initial_value: bytes = b"\x00" * WORD_SIZE,
    ) -> None:
        self.contract_address = contract_address
        self.set_selector = set_selector
        self.buy_selector = buy_selector
        self.initial_mark = initial_mark
        self.initial_value = initial_value

    # -- internals --------------------------------------------------------------------

    def _audit_block(
        self,
        block: Block,
        report: AuditReport,
        current_mark: Optional[bytes],
        current_value: bytes,
        expected_nonces: Dict[Address, int],
    ) -> Tuple[Optional[bytes], bytes]:
        report.blocks_audited += 1
        for transaction, receipt in zip(block.transactions, block.receipts):
            # Sequential consistency: nonces from one sender never go backwards
            # or skip within the committed history.
            previous_nonce = expected_nonces.get(transaction.sender)
            if previous_nonce is not None and transaction.nonce < previous_nonce:
                report.violations.append(
                    AuditViolation(
                        kind="nonce_order",
                        block_number=block.number,
                        transaction_hash=transaction.hash,
                        description=(
                            f"nonce {transaction.nonce} after {previous_nonce} from the same sender"
                        ),
                    )
                )
            expected_nonces[transaction.sender] = max(
                transaction.nonce + 1, expected_nonces.get(transaction.sender, 0)
            )

            if transaction.to != self.contract_address:
                continue
            fpv = self._try_fpv(transaction)
            if fpv is None:
                continue
            if transaction.selector == self.set_selector:
                current_mark, current_value = self._audit_set(
                    block, transaction, receipt.success, fpv, report, current_mark, current_value
                )
            elif self.buy_selector is not None and transaction.selector == self.buy_selector:
                self._audit_buy(
                    block, transaction, receipt.success, fpv, report, current_mark, current_value
                )
        return current_mark, current_value

    @staticmethod
    def _try_fpv(transaction: Transaction) -> Optional[FPV]:
        try:
            return fpv_from_calldata(transaction.data)
        except ValueError:
            return None

    def _audit_set(
        self,
        block: Block,
        transaction: Transaction,
        success: bool,
        fpv: FPV,
        report: AuditReport,
        current_mark: Optional[bytes],
        current_value: bytes,
    ) -> Tuple[Optional[bytes], bytes]:
        report.sets_checked += 1
        matches_chain = current_mark is None or fpv.previous_mark == current_mark
        if success:
            report.successful_sets += 1
            if not matches_chain:
                report.violations.append(
                    AuditViolation(
                        kind="set_broke_chain",
                        block_number=block.number,
                        transaction_hash=transaction.hash,
                        description="a successful set did not reference the mark in force",
                    )
                )
            new_mark = compute_mark(fpv.previous_mark, fpv.value)
            if new_mark in report.mark_chain:
                report.violations.append(
                    AuditViolation(
                        kind="mark_collision",
                        block_number=block.number,
                        transaction_hash=transaction.hash,
                        description="the same mark appeared twice in the committed chain",
                    )
                )
            report.mark_chain.append(new_mark)
            return new_mark, fpv.value
        if matches_chain and current_mark is not None:
            report.violations.append(
                AuditViolation(
                    kind="set_wrongly_failed",
                    block_number=block.number,
                    transaction_hash=transaction.hash,
                    description="a set referencing the mark in force was recorded as failed",
                )
            )
        return current_mark, current_value

    def _audit_buy(
        self,
        block: Block,
        transaction: Transaction,
        success: bool,
        fpv: FPV,
        report: AuditReport,
        current_mark: Optional[bytes],
        current_value: bytes,
    ) -> None:
        report.buys_checked += 1
        correctly_marked = (
            current_mark is not None
            and fpv.previous_mark == current_mark
            and fpv.value == current_value
        )
        if success:
            report.successful_buys += 1
            if not correctly_marked:
                report.violations.append(
                    AuditViolation(
                        kind="buy_wrongly_succeeded",
                        block_number=block.number,
                        transaction_hash=transaction.hash,
                        description=(
                            "a successful buy did not carry the mark and value in force "
                            "at its position (lost-update protection breached)"
                        ),
                    )
                )
        elif correctly_marked:
            report.violations.append(
                AuditViolation(
                    kind="buy_wrongly_failed",
                    block_number=block.number,
                    transaction_hash=transaction.hash,
                    description="a correctly marked buy was recorded as failed",
                )
            )


class AuditCursor:
    """The audit of one chain so far, from genesis, advanced one imported
    block at a time.

    It holds the auditor's configuration, the report, and the state
    :meth:`ChainAuditor._audit_block` threads between blocks: the mark and
    value in force and each sender's next nonce.  Nothing in it points back
    at the chain that feeds it.
    """

    __slots__ = ("auditor", "report", "current_mark", "current_value", "expected_nonces")

    def __init__(self, auditor: ChainAuditor) -> None:
        self.auditor = auditor
        self.report = AuditReport()
        self.current_mark = auditor.initial_mark
        self.current_value = auditor.initial_value
        if self.current_mark is not None:
            self.report.mark_chain.append(self.current_mark)
        self.expected_nonces: Dict[Address, int] = {}

    def feed(self, block: Block) -> None:
        """Audit ``block``, the next one the chain appended."""
        self.current_mark, self.current_value = self.auditor._audit_block(
            block, self.report, self.current_mark, self.current_value, self.expected_nonces
        )
