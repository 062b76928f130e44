"""Contract registry: maps code names to contract classes.

Accounts store a code *name* rather than bytecode; the registry resolves
that name to the Python contract class at execution time.  All peers in an
experiment share one registry (analogous to all peers running the same EVM),
so replaying a block on any peer executes identical code.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..crypto.addresses import Address
from .contract import Contract

__all__ = ["ContractRegistry", "default_registry"]


class ContractRegistry:
    """Registry of deployable contract classes."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[Contract]] = {}

    def register(self, contract_class: Type[Contract]) -> Type[Contract]:
        """Register a contract class under its ``CODE_NAME``.

        Usable as a class decorator.  Re-registering the same class is a
        no-op; registering a different class under an existing name raises.
        """
        name = contract_class.CODE_NAME
        existing = self._classes.get(name)
        if existing is not None and existing is not contract_class:
            raise ValueError(f"a different contract is already registered as {name!r}")
        self._classes[name] = contract_class
        return contract_class

    def get(self, code_name: str) -> Type[Contract]:
        try:
            return self._classes[code_name]
        except KeyError:
            raise KeyError(f"no contract registered under code name {code_name!r}") from None

    def contains(self, code_name: str) -> bool:
        return code_name in self._classes

    def instantiate(self, code_name: str, address: Address) -> Contract:
        """Create a contract instance bound to ``address``."""
        return self.get(code_name)(address)

    def copy(self) -> "ContractRegistry":
        clone = ContractRegistry()
        clone._classes = dict(self._classes)
        return clone


_DEFAULT_REGISTRY = ContractRegistry()


def default_registry() -> ContractRegistry:
    """The process-wide registry used when none is supplied explicitly."""
    return _DEFAULT_REGISTRY
