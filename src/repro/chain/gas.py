"""Gas schedule and gas metering.

Gas accounting in this reproduction does not need to match mainnet prices
exactly — the experiments' outcomes depend on which transactions succeed,
not on fee markets — but the structure (intrinsic cost, per-calldata-byte
cost, storage write costs, out-of-gas failure) is kept so that the miner's
block gas limit and fee-priority ordering behave like the real system.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GasSchedule", "DEFAULT_GAS_SCHEDULE", "GasMeter", "OutOfGas"]


class OutOfGas(Exception):
    """Raised when a contract execution exceeds its gas limit."""


@dataclass(frozen=True)
class GasSchedule:
    """Cost constants, loosely modelled on the Ethereum yellow paper."""

    tx_base: int = 21_000
    calldata_zero_byte: int = 4
    calldata_nonzero_byte: int = 16
    storage_set: int = 20_000
    storage_update: int = 5_000
    storage_clear_refund: int = 4_800
    storage_read: int = 200
    log_base: int = 375
    log_topic: int = 375
    log_data_byte: int = 8
    keccak_base: int = 30
    keccak_word: int = 6
    call_value_transfer: int = 9_000
    contract_creation: int = 32_000
    compute_step: int = 3


DEFAULT_GAS_SCHEDULE = GasSchedule()
"""The price list used wherever no schedule is given (frozen, so shared)."""


class GasMeter:
    """Tracks gas consumption for one message execution."""

    def __init__(self, gas_limit: int, schedule: GasSchedule | None = None) -> None:
        if gas_limit <= 0:
            raise ValueError("gas limit must be positive")
        self.gas_limit = gas_limit
        self.schedule = schedule or DEFAULT_GAS_SCHEDULE
        self._used = 0
        self._refund = 0

    @property
    def used(self) -> int:
        """Gas consumed so far (refunds not yet applied)."""
        return self._used

    @property
    def remaining(self) -> int:
        return self.gas_limit - self._used

    def consume(self, amount: int, reason: str = "") -> None:
        """Charge ``amount`` gas, raising :class:`OutOfGas` on exhaustion."""
        if amount < 0:
            raise ValueError("cannot consume negative gas")
        if self._used + amount > self.gas_limit:
            self._used = self.gas_limit
            raise OutOfGas(f"out of gas{': ' + reason if reason else ''}")
        self._used += amount

    def refund(self, amount: int) -> None:
        """Record a refund (capped at half of gas used when finalized)."""
        if amount < 0:
            raise ValueError("cannot refund negative gas")
        self._refund += amount

    def finalize(self) -> int:
        """Return the net gas used after applying the capped refund."""
        capped_refund = min(self._refund, self._used // 2)
        return self._used - capped_refund

    def charge_storage_write(self, had_value: bool, clears_value: bool) -> None:
        """Charge for an SSTORE-like operation."""
        if clears_value and had_value:
            self.consume(self.schedule.storage_update, "storage clear")
            self.refund(self.schedule.storage_clear_refund)
        elif had_value:
            self.consume(self.schedule.storage_update, "storage update")
        else:
            self.consume(self.schedule.storage_set, "storage set")

    def charge_storage_read(self) -> None:
        self.consume(self.schedule.storage_read, "storage read")

    def charge_keccak(self, data_length: int) -> None:
        words = (data_length + 31) // 32
        self.consume(self.schedule.keccak_base + words * self.schedule.keccak_word, "keccak")

    def charge_log(self, topic_count: int, data_length: int) -> None:
        self.consume(
            self.schedule.log_base
            + topic_count * self.schedule.log_topic
            + data_length * self.schedule.log_data_byte,
            "log",
        )
