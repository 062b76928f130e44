"""``repro.record``: frozen slotted dataclasses built through slot descriptors.

The records built per transaction or per call keep every guarantee of the
``dataclass(frozen=True)`` they replaced: no field can be assigned, eq/hash/
repr, ``replace`` and pickling round-trip, and ``__post_init__`` validation
still runs.  What changes is that they carry no ``__dict__`` and their
``__init__`` stores each field with the slot's own descriptor.
"""

import pickle
from dataclasses import FrozenInstanceError, InitVar, field, fields, replace

import pytest

from repro.chain.errors import InvalidTransaction
from repro.chain.executor import BlockContext
from repro.chain.receipt import LogEntry
from repro.chain.transaction import Transaction
from repro.core.hms.fpv import AMV, FPV, HEAD_FLAG
from repro.core.hms.hash_mark_set import HMSView
from repro.core.hms.series import Series
from repro.crypto.addresses import address_from_label
from repro.evm.message import Message
from repro.evm.raa_interface import RAARequest
from repro.record import record
from repro.txpool.pool import PoolEntry

ALICE = address_from_label("alice")
BOB = address_from_label("bob")
WORD = b"\x07" * 32


def samples():
    transaction = Transaction(sender=ALICE, nonce=3, to=BOB, value=5, data=b"\x01\x02", submitted_at=1.5)
    block = BlockContext(number=4, timestamp=9.0, miner=BOB)
    amv = AMV(address=WORD, mark=b"\x01" * 32, value=b"\x02" * 32)
    return {
        "Transaction": transaction,
        "Message": Message(sender=ALICE, to=BOB, value=1, data=b"\x03", is_static=True),
        "BlockContext": block,
        "RAARequest": RAARequest(
            contract_address=BOB,
            function_name="mark",
            function_signature="mark(bytes32[3])",
            arguments=((WORD, WORD, WORD),),
            augmentable_indices=(0,),
            caller=ALICE,
            block=block,
        ),
        "AMV": amv,
        "FPV": FPV(flag=HEAD_FLAG, previous_mark=WORD, value=b"\x09" * 32),
        "PoolEntry": PoolEntry(transaction=transaction, arrival_time=2.25),
        "LogEntry": LogEntry(address=BOB, topics=(WORD,), data=b"\x04"),
        "HMSView": HMSView(amv=amv, source="committed", flag_for_next=HEAD_FLAG, series=Series([])),
    }


SAMPLES = samples()


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestConvertedRecords:
    def test_is_built_by_the_record_init(self, name):
        instance = SAMPLES[name]
        assert type(instance).__init__.__code__.co_filename == f"<record __init__ of {name}>"

    def test_every_field_refuses_assignment(self, name):
        instance = SAMPLES[name]
        for spec in fields(instance):
            with pytest.raises(FrozenInstanceError):
                setattr(instance, spec.name, getattr(instance, spec.name))
            with pytest.raises(FrozenInstanceError):
                delattr(instance, spec.name)

    def test_has_no_instance_dict(self, name):
        instance = SAMPLES[name]
        assert not hasattr(instance, "__dict__")
        with pytest.raises(FrozenInstanceError):
            instance.not_a_field = 1

    def test_replace_eq_and_hash(self, name):
        instance = SAMPLES[name]
        twin = replace(instance)
        assert twin == instance and twin is not instance
        assert repr(twin) == repr(instance)
        if name != "HMSView":  # its Series is a mutable dataclass: unhashable
            assert hash(twin) == hash(instance)

    def test_pickle_round_trips(self, name):
        instance = SAMPLES[name]
        restored = pickle.loads(pickle.dumps(instance))
        assert restored == instance
        for spec in fields(instance):
            if hasattr(instance, spec.name):
                assert getattr(restored, spec.name) == getattr(instance, spec.name), spec.name


class TestValidationStillFires:
    def test_negative_transaction_nonce(self):
        with pytest.raises(InvalidTransaction, match="nonce"):
            Transaction(sender=ALICE, nonce=-1, to=BOB)

    def test_replace_validates_too(self):
        with pytest.raises(InvalidTransaction, match="value"):
            replace(SAMPLES["Transaction"], value=-1)

    def test_short_fpv_word(self):
        with pytest.raises(ValueError, match="32 bytes"):
            FPV(flag=HEAD_FLAG, previous_mark=b"\x01" * 31, value=WORD)

    def test_transaction_derives_signature_and_hash_in_post_init(self):
        transaction = SAMPLES["Transaction"]
        assert transaction.signature_is_valid()
        assert replace(transaction, nonce=4, signature=b"").hash != transaction.hash
        assert transaction.hash is transaction.hash  # a slot, not recomputed


class TestDecorator:
    def test_signature_defaults_factories_and_keyword_only(self):
        @record
        class Sample:
            first: int
            second: str = "two"
            items: list = field(default_factory=list)
            hidden: int = field(default=7, init=False, compare=False)
            late: int = field(default=0, kw_only=True)

            def __post_init__(self):
                if self.first < 0:
                    raise ValueError("first must be non-negative")

        one, two = Sample(1), Sample(1)
        assert one == two and one.items is not two.items
        assert (one.second, one.hidden, one.late) == ("two", 7, 0)
        assert Sample(2, "x", [1], late=5) == Sample(first=2, second="x", items=[1], late=5)
        with pytest.raises(TypeError):
            Sample(1, "x", [], 5)  # ``late`` is keyword-only
        with pytest.raises(ValueError):
            Sample(-1)
        with pytest.raises(FrozenInstanceError):
            one.first = 2

    def test_init_var_is_refused_not_dropped(self):
        with pytest.raises(TypeError, match="cannot build"):

            @record
            class WithInitVar:
                value: int
                scale: InitVar[int] = 1

                def __post_init__(self, scale):
                    pass
