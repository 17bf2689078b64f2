"""Initial configurations and the enumeration Ω (Section 4.2).

An *initial configuration* is a port-labelled connected graph of size
at least 2 in which at least 2 nodes carry distinct positive integer
labels — node ``v`` labelled ``L`` means "agent ``L`` starts at ``v``".
``GatherUnknownUpperBound`` walks a fixed recursively-enumerable
ordering Ω = (phi_1, phi_2, ...) of all configurations, testing the
hypothesis "the real configuration is phi_h" one index at a time.

Two complete enumerations are provided:

* :class:`DovetailOmega` — the straightforward dovetail by *weight*
  ``W = n + max_label``: small graphs with small labels first.
* :class:`TwoNodeDenseOmega` — also complete, but schedules
  configurations of size >= 3 only at indices that are multiples of
  ``stride``.  Any fixed enumeration is admissible per the paper
  ("an arbitrarily fixed enumeration"); this one keeps runs with
  2-node networks and larger labels inside the feasibility envelope
  (executing even one size-3 hypothesis costs ``2**244`` moves, see
  :class:`repro.core.unknown_parameters.InfeasibleHypothesisError`).
"""

from __future__ import annotations

from itertools import combinations, permutations

from ..graphs.enumerate_graphs import iter_all_port_graphs
from ..graphs.generators import single_edge
from ..graphs.isomorphism import configurations_match
from ..graphs.port_graph import PortGraph


class OmegaLimit(RuntimeError):
    """The requested Ω index needs graphs our enumerator cannot list."""


class Configuration:
    """One labelled configuration phi_h."""

    __slots__ = ("graph", "labels", "_sorted_labels")

    def __init__(self, graph: PortGraph, labels: dict[int, int]) -> None:
        if graph.n < 2:
            raise ValueError("configurations have at least 2 nodes")
        if len(labels) < 2:
            raise ValueError("configurations have at least 2 labelled nodes")
        if len(set(labels.values())) != len(labels):
            raise ValueError("labels must be distinct")
        if any(v < 0 or v >= graph.n for v in labels):
            raise ValueError("labelled node out of range")
        if any(lab < 1 for lab in labels.values()):
            raise ValueError("labels are positive integers")
        self.graph = graph
        self.labels = dict(labels)
        self._sorted_labels = sorted(labels.values())

    @property
    def n(self) -> int:
        """Number of nodes (the paper's ``n_h``)."""
        return self.graph.n

    @property
    def k(self) -> int:
        """Number of labelled nodes / agents (the paper's ``k_h``)."""
        return len(self.labels)

    def label_values(self) -> list[int]:
        """Sorted agent labels in this configuration."""
        return list(self._sorted_labels)

    def has_label(self, label: int) -> bool:
        """Does an agent with this label exist in the configuration?"""
        return label in set(self.labels.values())

    def smallest_label(self) -> int:
        """The leader this configuration elects."""
        return self._sorted_labels[0]

    def central_node(self) -> int:
        """The starting node of the smallest label (the paper's v_h)."""
        smallest = self.smallest_label()
        for node, lab in self.labels.items():
            if lab == smallest:
                return node
        raise AssertionError("unreachable")  # pragma: no cover

    def node_of(self, label: int) -> int:
        """Starting node of the agent with ``label``."""
        for node, lab in self.labels.items():
            if lab == label:
                return node
        raise KeyError(label)

    def path_to_central(self, label: int) -> list[int]:
        """``path_h(L)``: lexicographically smallest shortest port path
        from the node labelled ``label`` to the central node."""
        return self.graph.shortest_path_ports(
            self.node_of(label), self.central_node()
        )

    def rank(self, label: int) -> int:
        """``rank_h(L)``: number of labels smaller than ``label``."""
        return sum(1 for lab in self._sorted_labels if lab < label)

    def matches(self, graph: PortGraph, labels: dict[int, int]) -> bool:
        """Is this the same configuration (up to port-preserving iso)?"""
        return configurations_match(self.graph, self.labels, graph, labels)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Configuration(n={self.n}, labels={self.labels})"


def _two_node_stream():
    """All 2-node configurations: label pairs (a, b), a < b, ordered by
    (b, a).  The 2-node graph is unique and symmetric, so one labelling
    per unordered pair enumerates all configurations up to iso."""
    edge = single_edge()
    b = 2
    while True:
        for a in range(1, b):
            yield Configuration(edge, {0: a, 1: b})
        b += 1


def _labelings(num_nodes: int, max_label: int):
    """Injective labelings of >= 2 nodes with labels in {1..max_label},
    the maximum label being used (so each (n, max_label) block is
    finite and every configuration appears in exactly one block)."""
    nodes = range(num_nodes)
    values = range(1, max_label + 1)
    for size in range(2, num_nodes + 1):
        for subset in combinations(nodes, size):
            for perm in permutations(values, size):
                if max(perm) != max_label:
                    continue
                yield dict(zip(subset, perm))


class DovetailOmega:
    """Complete enumeration ordered by weight ``W = n + max_label``.

    Within one weight, sizes ascend; within one size, graphs follow the
    deterministic order of
    :func:`repro.graphs.enumerate_graphs.iter_all_port_graphs` and
    labelings the order of :func:`_labelings`.
    """

    #: Largest graph size the exhaustive generator supports.
    MAX_GRAPH_SIZE = 4

    def __init__(self) -> None:
        self._configs: list[Configuration] = []
        self._next_weight = 4  # n = 2 plus max label 2
        self._graph_cache: dict[int, list[PortGraph]] = {}

    def _graphs(self, n: int) -> list[PortGraph]:
        if n > self.MAX_GRAPH_SIZE:
            raise OmegaLimit(
                f"Omega index requires enumerating graphs of size {n}; the "
                f"exhaustive generator supports size <= {self.MAX_GRAPH_SIZE}"
            )
        if n not in self._graph_cache:
            self._graph_cache[n] = list(iter_all_port_graphs(n))
        return self._graph_cache[n]

    def _extend(self) -> None:
        weight = self._next_weight
        self._next_weight += 1
        for n in range(2, weight - 1):
            max_label = weight - n
            if max_label < 2:
                continue
            for graph in self._graphs(n):
                for labeling in _labelings(n, max_label):
                    self._configs.append(Configuration(graph, labeling))

    def config(self, h: int) -> Configuration:
        """phi_h (1-based)."""
        if h < 1:
            raise ValueError("Omega indices start at 1")
        while len(self._configs) < h:
            self._extend()
        return self._configs[h - 1]

    def index_of(
        self, graph: PortGraph, labels: dict[int, int], limit: int = 10_000
    ) -> int | None:
        """Index of the configuration matching ``(graph, labels)``."""
        for h in range(1, limit + 1):
            try:
                candidate = self.config(h)
            except OmegaLimit:
                return None
            if candidate.matches(graph, labels):
                return h
        return None


class TwoNodeDenseOmega:
    """Complete enumeration that front-loads 2-node configurations.

    Index ``h`` maps to the 2-node stream unless ``h`` is a multiple of
    ``stride``, in which case it maps to the next configuration of size
    >= 3 from the dovetail order.  Both streams are exhaustive for
    their class, so every configuration occurs at a finite index.
    """

    def __init__(self, stride: int = 64) -> None:
        if stride < 2:
            raise ValueError("stride must be >= 2")
        self.stride = stride
        self._two: list[Configuration] = []
        self._two_gen = _two_node_stream()
        self._rest: list[Configuration] = []
        self._dovetail = DovetailOmega()
        self._dovetail_pos = 0

    def _two_node(self, i: int) -> Configuration:
        while len(self._two) < i:
            self._two.append(next(self._two_gen))
        return self._two[i - 1]

    def _rest_config(self, i: int) -> Configuration:
        while len(self._rest) < i:
            self._dovetail_pos += 1
            candidate = self._dovetail.config(self._dovetail_pos)
            if candidate.n >= 3:
                self._rest.append(candidate)
        return self._rest[i - 1]

    def config(self, h: int) -> Configuration:
        """phi_h (1-based)."""
        if h < 1:
            raise ValueError("Omega indices start at 1")
        if h % self.stride == 0:
            return self._rest_config(h // self.stride)
        return self._two_node(h - h // self.stride)

    def index_of(
        self, graph: PortGraph, labels: dict[int, int], limit: int = 10_000
    ) -> int | None:
        """Index of the configuration matching ``(graph, labels)``."""
        for h in range(1, limit + 1):
            try:
                candidate = self.config(h)
            except OmegaLimit:
                return None
            if candidate.matches(graph, labels):
                return h
        return None
