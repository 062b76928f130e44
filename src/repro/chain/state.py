"""World state: the mapping from addresses to accounts, with journaling.

The world state supports nested snapshots so that a failed transaction can
be rolled back while remaining *included* in the block — the behaviour the
paper calls out as the reason raw throughput overstates useful work.  A
state root (a deterministic commitment over all accounts) lets validating
peers check that replaying a block reproduces the miner's announced state.

States are copy-on-write.  :meth:`fork` is O(1): the child shares the
parent's account mapping and copies an account only when it is first
mutated, so the per-block "copy the whole world" cost the original
implementation paid (one deep dict copy per block build *and* per peer
validation) disappears.  The sharing protocol:

* every state is a frozen ``_base`` mapping (shared with its ancestors and
  siblings, never written) plus a private ``_overlay`` of accounts this
  state has created or rewritten;
* reads consult the overlay first, then the base;
* the first mutation of an account copies it into the overlay
  (:meth:`touch`), after which it is mutated in place;
* forking seals the overlay into a fresh merged base (O(accounts), paid
  once per sealed state no matter how many forks are taken) and hands the
  child the shared base with an empty overlay.

Because the base is frozen, an account object reachable from two states is
never mutated — which is also what lets :class:`~repro.chain.account.Account`
memoise its RLP encoding for the incremental :meth:`state_root`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from ..crypto.addresses import Address, is_address
from ..crypto.keccak import keccak256
from ..encoding.rlp import rlp_encode
from ..obs import runtime as _obs
from .account import Account
from .errors import UnknownAccount

__all__ = ["StateSnapshot", "WorldState", "live_state_stats"]

_LIVE_STATES: set = set()
"""A weak reference to every live WorldState, for the rss_stats accounting
hooks.  Each removes itself when its state dies, through the C-level
``set.discard``: states are forked four times per block, and a ``WeakSet``
would run two Python frames for each."""
_untrack_state = _LIVE_STATES.discard

_ABSENT = object()
"""Journal sentinel: the address had no overlay entry when first touched."""


class WorldState:
    """A journaled, copy-on-write account store.

    Snapshots are implemented by journaling overlay slots: each snapshot
    level records the overlay entry (or its absence) for every account first
    touched at that level, so ``revert`` is O(touched accounts).  The frozen
    base is never written, so reverting simply restores overlay slots.
    """

    __slots__ = ("_base", "_overlay", "_journal", "_root_cache", "__weakref__")

    def __init__(self, accounts: Optional[Dict[Address, Account]] = None) -> None:
        self._base: Dict[Address, Account] = dict(accounts or {})
        self._overlay: Dict[Address, Account] = {}
        self._journal: List[Dict[Address, object]] = []
        self._root_cache: Optional[bytes] = None
        _LIVE_STATES.add(weakref.ref(self, _untrack_state))

    # -- account access -----------------------------------------------------

    def _lookup(self, address: Address) -> Optional[Account]:
        account = self._overlay.get(address)
        if account is not None:
            return account
        return self._base.get(address)

    def account_exists(self, address: Address) -> bool:
        return address in self._overlay or address in self._base

    def get_account(self, address: Address) -> Account:
        """Return the account at ``address`` for READING, raising if absent.

        The returned object may be shared with other states; mutate accounts
        only through :meth:`touch` (or the ``set_*`` helpers), never directly.
        """
        account = self._lookup(address)
        if account is None:
            raise UnknownAccount(f"no account at 0x{address.hex()}")
        return account

    def _mutable_account(self, address: Address) -> Account:
        """The account at ``address``, owned by this state and journaled at
        the current snapshot level — the single copy-on-write choke point.

        An account is copied at most once per (fork, journal level): once
        privately owned and recorded, later touches mutate it in place.
        """
        overlay = self._overlay
        self._root_cache = None
        if self._journal:
            top = self._journal[-1]
            if address in top:
                return overlay[address]
            if address in overlay:
                prior = top[address] = overlay[address]
            else:
                top[address] = _ABSENT
                prior = self._base.get(address)
            account = prior.copy() if prior is not None else self._new_account(address)
            overlay[address] = account
            return account
        account = overlay.get(address)
        if account is None:
            prior = self._base.get(address)
            account = prior.copy() if prior is not None else self._new_account(address)
            overlay[address] = account
        return account

    @staticmethod
    def _new_account(address: Address) -> Account:
        if not is_address(address):
            raise ValueError("expected a 20-byte address")
        return Account()

    def get_or_create_account(self, address: Address) -> Account:
        """Return a mutable account at ``address``, creating one if needed."""
        return self.touch(address)

    def touch(self, address: Address) -> Account:
        """Return the account for mutation (copy-on-write + journaled)."""
        account = self._mutable_account(address)
        account.drop_encoding_cache()
        return account

    # -- balances and nonces -------------------------------------------------

    def get_balance(self, address: Address) -> int:
        account = self._lookup(address)
        return account.balance if account is not None else 0

    def set_balance(self, address: Address, balance: int) -> None:
        if balance < 0:
            raise ValueError("balance cannot be negative")
        self.touch(address).balance = balance

    def add_balance(self, address: Address, amount: int) -> None:
        if amount == 0 and self.account_exists(address):
            return  # nothing changes: skip the copy-on-write
        self.set_balance(address, self.get_balance(address) + amount)

    def subtract_balance(self, address: Address, amount: int) -> None:
        if amount == 0 and self.account_exists(address):
            return  # nothing changes: skip the copy-on-write
        balance = self.get_balance(address)
        if amount > balance:
            raise ValueError("balance would become negative")
        self.set_balance(address, balance - amount)

    def get_nonce(self, address: Address) -> int:
        account = self._lookup(address)
        return account.nonce if account is not None else 0

    def increment_nonce(self, address: Address) -> None:
        self.touch(address).nonce += 1

    # -- storage --------------------------------------------------------------

    def get_storage(self, address: Address, slot: bytes) -> bytes:
        account = self._lookup(address)
        if account is None:
            return b"\x00" * 32
        return account.get_storage(slot)

    def set_storage(self, address: Address, slot: bytes, value: bytes) -> None:
        self.touch(address).set_storage(slot, value)

    def set_code(self, address: Address, code: str) -> None:
        self.touch(address).code = code

    def get_code(self, address: Address) -> Optional[str]:
        account = self._lookup(address)
        return account.code if account is not None else None

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> int:
        """Open a new journal level and return its identifier."""
        self._journal.append({})
        return len(self._journal) - 1

    def revert(self, snapshot_id: int) -> None:
        """Undo all changes made since ``snapshot_id`` (inclusive of later ones)."""
        if snapshot_id < 0 or snapshot_id >= len(self._journal):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        overlay = self._overlay
        while len(self._journal) > snapshot_id:
            for address, prior in self._journal.pop().items():
                if prior is _ABSENT:
                    overlay.pop(address, None)
                else:
                    overlay[address] = prior
        self._root_cache = None

    def commit(self, snapshot_id: int) -> None:
        """Discard the journal level, folding changes into the level below."""
        if snapshot_id < 0 or snapshot_id >= len(self._journal):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        while len(self._journal) > snapshot_id:
            journal = self._journal.pop()
            if self._journal:
                parent = self._journal[-1]
                for address, previous in journal.items():
                    parent.setdefault(address, previous)

    # -- commitments ----------------------------------------------------------

    def _merged(self) -> Dict[Address, Account]:
        if not self._overlay:
            return self._base
        merged = dict(self._base)
        merged.update(self._overlay)
        return merged

    @property
    def known_root(self) -> Optional[bytes]:
        """The state root if it was computed and nothing was written since,
        else ``None``; never computes one.  Equal roots mean equal contents,
        so a reader may key a memo of its reads on it."""
        return self._root_cache

    def state_root(self) -> bytes:
        """Deterministic commitment over every account (address-sorted).

        The commitment bytes are identical to the pre-copy-on-write
        implementation; only the work is incremental — unchanged accounts
        reuse their memoised encodings and an unchanged state reuses the
        whole root.
        """
        root = self._root_cache
        if root is None:
            tracer = _obs.TRACER
            start = perf_counter() if tracer is not None else 0.0
            items = sorted(self._merged().items())
            root = keccak256(
                rlp_encode([[address, account.encode()] for address, account in items])
            )
            self._root_cache = root
            if tracer is not None:
                tracer.phase("trie_commit", start)
        return root

    # -- forking ---------------------------------------------------------------

    def _seal(self) -> None:
        """Fold the overlay into a fresh base so forks can share it.

        Paid once per sealed state regardless of how many forks are taken;
        ancestors holding references to the old base are unaffected because
        the merged mapping is a new dict.
        """
        if self._overlay:
            merged = dict(self._base)
            merged.update(self._overlay)
            self._base = merged
            self._overlay = {}

    def fork(self) -> "WorldState":
        """An O(1) copy-on-write child sharing this state's accounts.

        Mutating either state never affects the other: writes land in the
        writer's private overlay, copying the account first.  Forking a
        state with open snapshots falls back to a materialised deep copy
        (journals cannot be shared).
        """
        if self._journal:
            return WorldState(
                {address: account.copy() for address, account in self._merged().items()}
            )
        self._seal()
        child = WorldState.__new__(WorldState)
        child._base = self._base
        child._overlay = {}
        child._journal = []
        child._root_cache = self._root_cache
        _LIVE_STATES.add(weakref.ref(child, _untrack_state))
        return child

    def copy(self) -> "WorldState":
        """Alias of :meth:`fork` (kept for the pre-copy-on-write API)."""
        return self.fork()

    def accounts(self) -> Iterator[Tuple[Address, Account]]:
        """Iterate over (address, account) pairs (read-only)."""
        return iter(self._merged().items())

    def __len__(self) -> int:
        return len(self._merged())

    def __contains__(self, address: object) -> bool:
        return address in self._overlay or address in self._base

    # -- memory accounting -----------------------------------------------------

    def rss_stats(self) -> Dict[str, int]:
        """Size accounting for this state: account, memo, and slot counts.

        Shadowed base entries are not double-counted; ``encoded_memos``
        counts accounts currently holding a memoised RLP encoding (the
        per-account cache that retention is supposed to release).
        """
        base_accounts = len(self._base)
        overlay_accounts = len(self._overlay)
        encoded_memos = 0
        storage_slots = 0
        for account in self._merged().values():
            if "_encoded" in account.__dict__:
                encoded_memos += 1
            storage_slots += len(account.storage)
        return {
            "accounts": len(self),
            "base_accounts": base_accounts,
            "encoded_memos": encoded_memos,
            "overlay_accounts": overlay_accounts,
            "storage_slots": storage_slots,
        }


@dataclass(frozen=True)
class StateSnapshot:
    """A sealed observation of one state's memory footprint.

    What :attr:`Blockchain.last_snapshot` reports for a pruned chain, so
    tests can assert that pruning actually released per-account memos
    rather than merely hiding blocks.
    """

    block_number: int
    state_root: bytes
    accounts: int
    base_accounts: int
    overlay_accounts: int
    encoded_memos: int
    storage_slots: int

    @classmethod
    def capture(
        cls, state: "WorldState", block_number: int, state_root: bytes
    ) -> "StateSnapshot":
        stats = state.rss_stats()
        return cls(
            block_number=block_number,
            state_root=state_root,
            accounts=stats["accounts"],
            base_accounts=stats["base_accounts"],
            overlay_accounts=stats["overlay_accounts"],
            encoded_memos=stats["encoded_memos"],
            storage_slots=stats["storage_slots"],
        )


def live_state_stats() -> Dict[str, int]:
    """Process-wide accounting over every live :class:`WorldState`.

    Distinct frozen bases are counted once no matter how many forks share
    them — the number of distinct bases is exactly the quantity retention
    bounds, because every evicted apply-cache template releases one.
    """
    states = [state for state in (ref() for ref in list(_LIVE_STATES)) if state is not None]
    bases: Dict[int, Dict[Address, Account]] = {}
    overlay_accounts = 0
    for state in states:
        bases[id(state._base)] = state._base
        overlay_accounts += len(state._overlay)
    distinct_accounts: Dict[int, Account] = {}
    for base in bases.values():
        for account in base.values():
            distinct_accounts[id(account)] = account
    encoded_memos = sum(
        1 for account in distinct_accounts.values() if "_encoded" in account.__dict__
    )
    return {
        "base_accounts": sum(len(base) for base in bases.values()),
        "distinct_accounts": len(distinct_accounts),
        "distinct_bases": len(bases),
        "encoded_memos": encoded_memos,
        "live_states": len(states),
        "overlay_accounts": overlay_accounts,
    }
