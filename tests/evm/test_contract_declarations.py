"""Tests for the contract base class, function declarations, and the registry."""

import pytest

from repro.contracts.sereth import SerethContract
from repro.contracts.simple_storage import SimpleStorageContract
from repro.crypto.addresses import address_from_label, function_selector
from repro.evm.contract import Contract, contract_function
from repro.evm.registry import ContractRegistry, default_registry


class TestFunctionTable:
    def test_selectors_match_abi_signatures(self):
        table = SerethContract.functions()
        assert function_selector("set(bytes32[3])") in table
        assert function_selector("buy(bytes32[3])") in table
        assert function_selector("mark(bytes32[3])") in table

    def test_function_by_name(self):
        declared = SerethContract.function_by_name("set")
        assert declared.signature == "set(bytes32[3])"
        assert not declared.view

    def test_function_by_name_missing(self):
        with pytest.raises(KeyError):
            SerethContract.function_by_name("nonexistent")

    def test_view_flag_and_raa_arguments(self):
        mark = SerethContract.function_by_name("mark")
        assert mark.view
        assert mark.raa_arguments == (0,)
        set_function = SerethContract.function_by_name("set")
        assert set_function.raa_arguments == ()

    def test_raa_arguments_require_view(self):
        with pytest.raises(ValueError):

            class Broken(Contract):  # noqa: F841 - definition itself should fail
                CODE_NAME = "Broken"

                @contract_function(["bytes32"], raa_arguments=[0])
                def bad(self, context, storage, value):
                    return None

    def test_selectors_list_matches_table(self):
        assert set(SimpleStorageContract.selectors()) == set(SimpleStorageContract.functions())


class TestRegistry:
    def test_default_registry_has_shipped_contracts(self):
        registry = default_registry()
        for name in ("Sereth", "SimpleStorage", "TicketSale", "Oracle"):
            assert registry.contains(name)

    def test_instantiate_binds_address(self):
        address = address_from_label("somewhere")
        instance = default_registry().instantiate("Sereth", address)
        assert isinstance(instance, SerethContract)
        assert instance.address == address

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            default_registry().get("Unknown")

    def test_reregistering_same_class_is_noop(self):
        registry = ContractRegistry()
        registry.register(SerethContract)
        registry.register(SerethContract)
        assert registry.contains("Sereth")

    def test_conflicting_registration_rejected(self):
        registry = ContractRegistry()
        registry.register(SerethContract)

        class Impostor(Contract):
            CODE_NAME = "Sereth"

        with pytest.raises(ValueError):
            registry.register(Impostor)

    def test_copy_is_independent(self):
        registry = ContractRegistry()
        registry.register(SerethContract)
        clone = registry.copy()
        clone.register(SimpleStorageContract)
        assert clone.contains("SimpleStorage")
        assert not registry.contains("SimpleStorage")
