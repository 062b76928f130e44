"""The contract execution engine (the reproduction's "EVM interpreter").

The engine implements :class:`repro.chain.executor.TransactionExecutor` and
is shared by miners (building blocks), validators (replaying blocks), and
clients (making view/pure calls against their local peer's state).

Two call paths exist, mirroring the paper's Figure 1:

* :meth:`execute` — apply a signed transaction inside a block.  RAA is
  **never** consulted here: transaction calldata is covered by the sender's
  signature and rewriting it would make the block fail validation on other
  peers (the paper reports exactly this when "testing the limits of RAA").
* :meth:`call` — evaluate a view/pure function against local state without
  creating a transaction.  If the function declares RAA-augmentable
  arguments and the peer has an RAA provider attached, the provider may
  rewrite those arguments before evaluation (activities E2/R1–R3/E3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..chain.executor import BlockContext, TransactionExecutor
from ..chain.gas import DEFAULT_GAS_SCHEDULE, GasMeter, GasSchedule, OutOfGas
from ..chain.receipt import Receipt
from ..chain.state import WorldState
from ..chain.transaction import Transaction
from ..crypto.addresses import Address, contract_address
from ..encoding.abi import ABIError, FunctionABI
from ..encoding.rlp import RLPDecodingError, rlp_decode, rlp_encode
from .contract import Contract, ContractFunction
from .message import CallContext, Message, Revert
from .registry import ContractRegistry, default_registry
from .raa_interface import RAAProviderProtocol, RAARequest
from .storage import ContractStorage

__all__ = ["ExecutionEngine", "CallResult", "encode_deployment"]


def encode_deployment(code_name: str, constructor_data: bytes = b"") -> bytes:
    """Encode contract-creation calldata: the code name plus constructor data."""
    return rlp_encode([code_name.encode("utf-8"), constructor_data])


@dataclass
class CallResult:
    """Result of a view/pure call (no transaction was created)."""

    values: Tuple[object, ...]
    gas_used: int
    augmented_arguments: Optional[Tuple[object, ...]] = None
    """The post-RAA argument list, when augmentation occurred."""
    abi: Optional[FunctionABI] = field(default=None, repr=False, compare=False)
    """The called function's ABI, which :attr:`return_data` encodes with."""

    @property
    def return_data(self) -> bytes:
        """The ABI-encoded return values, encoded when read: in-process
        callers read :attr:`values`, and only the RPC layer ships bytes."""
        if self.abi is None or not self.abi.return_types:
            return b""
        return self.abi.encode_result(*self.values)


class ExecutionEngine(TransactionExecutor):
    """Executes transactions and static calls against a world state."""

    def __init__(
        self,
        registry: Optional[ContractRegistry] = None,
        gas_schedule: Optional[GasSchedule] = None,
        raa_provider: Optional[RAAProviderProtocol] = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.gas_schedule = gas_schedule or DEFAULT_GAS_SCHEDULE
        self.raa_provider = raa_provider

    # ------------------------------------------------------------------ execute

    def execute(
        self, state: WorldState, transaction: Transaction, block: BlockContext, index: int
    ) -> Receipt:
        """Apply a transaction, enforcing nonce, balance, gas, and rollback;
        return its receipt, stamped with ``block`` and ``index``."""
        sender = transaction.sender
        expected_nonce = state.get_nonce(sender)
        if transaction.nonce != expected_nonce:
            error = f"nonce mismatch: expected {expected_nonce}, got {transaction.nonce}"
            return Receipt(
                transaction.hash, False, 0, [], error, b"", block.number, index, block.timestamp
            )
        intrinsic = transaction.intrinsic_gas(self.gas_schedule)
        if intrinsic > transaction.gas_limit:
            state.increment_nonce(sender)
            error = "intrinsic gas exceeds gas limit"
            return Receipt(
                transaction.hash, False, 0, [], error, b"", block.number, index, block.timestamp
            )
        max_fee = transaction.gas_limit * transaction.gas_price
        if state.get_balance(sender) < transaction.value + max_fee:
            state.increment_nonce(sender)
            error = "insufficient balance for value + gas"
            return Receipt(
                transaction.hash, False, 0, [], error, b"", block.number, index, block.timestamp
            )

        state.increment_nonce(sender)
        gas_meter = GasMeter(transaction.gas_limit, self.gas_schedule)
        gas_meter.consume(intrinsic, "intrinsic")

        snapshot = state.snapshot()
        success = True
        error: Optional[str] = None
        return_data = b""
        logs = []
        try:
            state.subtract_balance(sender, transaction.value)
            if transaction.is_contract_creation:
                return_data = self._apply_creation(state, transaction, block, gas_meter)
            else:
                state.add_balance(transaction.to, transaction.value)
                return_data, logs = self._apply_message_call(
                    state, transaction, block, gas_meter
                )
        except Revert as revert:
            success = False
            error = revert.reason or "execution reverted"
        except OutOfGas as out_of_gas:
            success = False
            error = str(out_of_gas)
        except (ABIError, RLPDecodingError, KeyError, ValueError) as bad_call:
            success = False
            error = f"invalid call: {bad_call}"

        if success:
            state.commit(snapshot)
        else:
            state.revert(snapshot)
            logs = []

        gas_used = gas_meter.finalize() if success else gas_meter.used
        fee = gas_used * transaction.gas_price
        state.subtract_balance(sender, min(fee, state.get_balance(sender)))
        state.add_balance(block.miner, fee)

        return Receipt(
            transaction.hash, success, gas_used, logs, error, return_data,
            block.number, index, block.timestamp,
        )

    def _apply_creation(
        self,
        state: WorldState,
        transaction: Transaction,
        block: BlockContext,
        gas_meter: GasMeter,
    ) -> bytes:
        gas_meter.consume(self.gas_schedule.contract_creation, "contract creation")
        decoded = rlp_decode(transaction.data)
        if not isinstance(decoded, list) or len(decoded) != 2:
            raise Revert("malformed contract creation data")
        code_name = bytes(decoded[0]).decode("utf-8")
        if not self.registry.contains(code_name):
            raise Revert(f"unknown contract code {code_name!r}")
        new_address = contract_address(transaction.sender, transaction.nonce)
        if state.get_code(new_address) is not None:
            raise Revert("contract address collision")
        account = state.touch(new_address)
        account.code = code_name
        account.balance += transaction.value
        contract = self.registry.instantiate(code_name, new_address)
        message = Message(
            sender=transaction.sender,
            to=new_address,
            value=transaction.value,
            data=bytes(decoded[1]),
            gas=gas_meter.remaining,
        )
        context = CallContext(
            message=message, block=block, gas_meter=gas_meter, origin=transaction.sender
        )
        storage = ContractStorage(state, new_address, gas_meter)
        contract.constructor(context, storage)
        return new_address

    def _apply_message_call(
        self,
        state: WorldState,
        transaction: Transaction,
        block: BlockContext,
        gas_meter: GasMeter,
    ) -> Tuple[bytes, list]:
        recipient = transaction.to
        code_name = state.get_code(recipient)
        if code_name is None:
            # Plain value transfer to an externally-owned account.
            if transaction.value:
                gas_meter.consume(self.gas_schedule.call_value_transfer, "value transfer")
            return b"", []
        contract_class = self.registry.get(code_name)
        function = self._resolve_function(contract_class, transaction.data)
        arguments = function.abi.decode_arguments(transaction.data)
        contract = self.registry.instantiate(code_name, recipient)
        message = Message(
            sender=transaction.sender,
            to=recipient,
            value=transaction.value,
            data=transaction.data,
            gas=gas_meter.remaining,
            is_static=False,
        )
        context = CallContext(
            message=message, block=block, gas_meter=gas_meter, origin=transaction.sender
        )
        storage = ContractStorage(state, recipient, gas_meter, static=False)
        method = getattr(contract, function.method_name)
        result = method(context, storage, *arguments)
        return_data = self._encode_result(function, result)
        return return_data, context.logs

    # ------------------------------------------------------------------ static call

    def call(
        self,
        state: WorldState,
        contract_at: Address,
        function_name: str,
        arguments: Sequence[object],
        caller: Address,
        block: BlockContext,
        gas_limit: int = 1_000_000,
        allow_raa: bool = True,
    ) -> CallResult:
        """Evaluate a view/pure function against ``state`` without a transaction.

        This is the path a client uses for Sereth's ``mark``/``get`` functions;
        with an RAA provider attached, the provider fills the declared
        augmentable arguments (e.g. with the Hash-Mark-Set view of the pending
        pool) before the function body runs.
        """
        code_name = state.get_code(contract_at)
        if code_name is None:
            raise ValueError(f"no contract deployed at 0x{contract_at.hex()}")
        contract_class = self.registry.get(code_name)
        function = contract_class.function_by_name(function_name)
        if not function.view:
            raise ValueError(
                f"{function.signature} mutates state; use a transaction instead of a call"
            )
        arguments = tuple(arguments)
        augmented: Optional[Tuple[object, ...]] = None
        if allow_raa and self.raa_provider is not None and function.raa_arguments:
            request = RAARequest(
                contract_address=contract_at,
                function_name=function.method_name,
                function_signature=function.signature,
                arguments=arguments,
                augmentable_indices=function.raa_arguments,
                caller=caller,
                block=block,
            )
            provided = self.raa_provider.provide(request)
            if provided is not None:
                augmented = tuple(provided)
                arguments = augmented

        gas_meter = GasMeter(gas_limit, self.gas_schedule)
        contract = self.registry.instantiate(code_name, contract_at)
        message = Message(
            sender=caller, to=contract_at, value=0, data=b"", gas=gas_limit, is_static=True
        )
        context = CallContext(message=message, block=block, gas_meter=gas_meter, origin=caller)
        storage = ContractStorage(state, contract_at, gas_meter, static=True)
        method = getattr(contract, function.method_name)
        result = method(context, storage, *arguments)
        return CallResult(
            values=self._normalize_result(result),
            gas_used=gas_meter.used,
            augmented_arguments=augmented,
            abi=function.abi,
        )

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _resolve_function(contract_class, calldata: bytes) -> ContractFunction:
        if len(calldata) < 4:
            raise Revert("calldata is shorter than a function selector")
        selector = calldata[:4]
        table = contract_class.functions()
        if selector not in table:
            raise Revert(f"unknown function selector 0x{selector.hex()}")
        function = table[selector]
        if function.view:
            raise Revert(
                f"{function.signature} is a view/pure function and cannot be "
                "invoked by a transaction"
            )
        return function

    @staticmethod
    def _normalize_result(result: object) -> Tuple[object, ...]:
        if result is None:
            return ()
        if isinstance(result, tuple):
            return result
        if isinstance(result, list):
            return tuple(result)
        return (result,)

    def _encode_result(self, function: ContractFunction, result: object) -> bytes:
        values = self._normalize_result(result)
        if not function.abi.return_types:
            return b""
        return function.abi.encode_result(*values)
