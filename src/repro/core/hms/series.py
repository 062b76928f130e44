"""SERIES and DEEPESTBRANCH — Algorithm 3: build the DAG and take its longest branch.

``build_series`` links every node whose ``mark`` equals another node's
``previous_mark`` (predecessor → successor), then explores every head
candidate and returns the deepest path found.  The resolution rule —
"branches are resolved by taking the longest branch" — mirrors the
blockchain's own fork choice.

The traversal is iterative, so adversarially deep pools cannot blow the
Python recursion limit; the tests check it against a line-for-line recursive
transcription of DEEPESTBRANCH.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .node import TxNode

__all__ = ["Series", "build_series", "deepest_branch_iterative"]


@dataclass
class Series:
    """The serialized longest branch of the HMS DAG."""

    nodes: List[TxNode] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    @property
    def head(self) -> Optional[TxNode]:
        return self.nodes[0] if self.nodes else None

    @property
    def tail(self) -> Optional[TxNode]:
        return self.nodes[-1] if self.nodes else None

    @property
    def depth(self) -> int:
        return len(self.nodes)

    def marks(self) -> List[bytes]:
        return [node.mark for node in self.nodes]

    def transactions(self) -> List:
        return [node.transaction for node in self.nodes]

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def _link_nodes(nodes: Sequence[TxNode]) -> None:
    """The nested loop at Algorithm 3 lines 2-6: build the adjacency relations."""
    for node in nodes:
        node.detach()
    by_mark: Dict[bytes, List[TxNode]] = {}
    for node in nodes:
        by_mark.setdefault(node.mark, []).append(node)
    for successor in nodes:
        predecessors = by_mark.get(successor.fpv.previous_mark, [])
        for predecessor in predecessors:
            if predecessor is successor:
                # A transaction cannot be its own predecessor (possible only if
                # previous_mark == keccak(previous_mark, value), i.e. a hash
                # fixed point; guarded for robustness).
                continue
            successor.previous = predecessor
            predecessor.successors.append(successor)
    # Keep successor exploration deterministic: order by arrival then hash.
    for node in nodes:
        node.successors.sort(key=lambda item: (item.arrival_time, item.transaction.hash))


def deepest_branch_iterative(head: TxNode) -> List[TxNode]:
    """Iterative deepest-branch search (explicit stack, no recursion limit)."""
    best_path: List[TxNode] = [head]
    # Stack holds (node, path-so-far); paths share list prefixes via copying at
    # push time, which is fine for the pool sizes HMS ever sees per block.
    stack: List[Tuple[TxNode, List[TxNode]]] = [(head, [head])]
    visited_guard = 0
    limit = 10_000_000
    while stack:
        visited_guard += 1
        if visited_guard > limit:  # pragma: no cover - defensive bound
            break
        node, path = stack.pop()
        if not node.successors:
            if len(path) > len(best_path):
                best_path = path
            continue
        for successor in node.successors:
            stack.append((successor, path + [successor]))
    return best_path


def build_series(
    nodes: Sequence[TxNode],
    search: Callable[[TxNode], List[TxNode]] = deepest_branch_iterative,
) -> Series:
    """SERIES (Algorithm 3): link the DAG, then take the deepest branch over
    all head candidates.

    When no node carries the head flag (e.g. the true head was just mined and
    removed from the pool) the paper's algorithm would return an empty series;
    like the reference implementation we fall back to treating nodes with no
    in-pool predecessor as provisional heads so that the view degrades
    gracefully instead of vanishing for a whole block interval.
    """
    node_list = list(nodes)
    if not node_list:
        return Series([])
    _link_nodes(node_list)

    head_candidates = [node for node in node_list if node.is_head_candidate]
    if not head_candidates:
        head_candidates = [node for node in node_list if node.previous is None]

    best: List[TxNode] = []
    for candidate in sorted(
        head_candidates, key=lambda item: (item.arrival_time, item.transaction.hash)
    ):
        path = search(candidate)
        if len(path) > len(best):
            best = path
    return Series(best)
