"""One owner for per-source preferred-path trees and the compiled graph.

The Theorem 3 (Cowen) and Observation 1 (destination-table) builders,
:func:`~repro.paths.dijkstra.all_pairs_preferred_weights` and the exact
oracle all need the generalized-Dijkstra tree of many sources of one
instance.  A :class:`TreeStore` compiles the graph once, builds each
tree once, and fills bulk requests in one sweep:

* a fill of at least :data:`BATCH_MIN_SOURCES` missing sources runs
  one :func:`~repro.paths.batch.batch_trees` sweep when numpy and the
  instance's batch plan admit it;
* smaller fills and ineligible instances run
  :func:`~repro.paths.dijkstra.preferred_path_tree` (the kernel) per
  source over the one compiled graph.

Every engine yields the same ``weight``/``parent`` maps, insertion order
included, so which engine filled a tree never shows in a scheme.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable

from repro.algebra.base import RoutingAlgebra
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry
from repro.paths.dijkstra import (
    PathTree,
    _check_tree_preconditions,
    preferred_path_tree,
)
from repro.paths.kernel import compile_graph

#: Smallest fill run as one batch sweep.  Measured at
#: n=256 (Barabási–Albert, shortest path, a 2-CPU x86 VM, medians of 150
#: fills): one source costs 3.4 ms as a one-lane batch sweep and 1.3 ms
#: on the kernel; four cost 3.6 ms batched and 3.1 ms on the kernel,
#: five 3.2 ms and 6.2 ms, eight 5.9 ms and 10.9 ms.
BATCH_MIN_SOURCES = 5


class TreeStore:
    """Per-source preferred-path trees of one ``(graph, algebra, attr)``.

    :meth:`trees` hands out :class:`~repro.paths.dijkstra.PathTree` views
    over the stored ``weight``/``parent`` maps (shared, never copied);
    :meth:`ensure_sources` fills a source set in bulk.  ``trees_built``
    counts actual builds (also emitted on the ``oracle.trees_built``
    telemetry counter).

    The store treats its graph as immutable: a holder that mutates the
    graph must drop the store or repair it
    (:meth:`repro.core.simulate.PreferredWeightOracle.invalidate_edge`).
    Thread-safe: builds take the store's lock with a double check.
    Picklable (the lock is dropped and recreated).
    """

    #: The per-source structure the store builds; the exact oracle
    #: subclass picks other engines for algebras Dijkstra cannot serve.
    engine = "dijkstra"

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                 *, unsafe: bool = False):
        self.graph = graph
        self.algebra = algebra
        self.attr = attr
        self.unsafe = unsafe
        self.trees_built = 0
        self._tables: Dict = {}
        self._parents: Dict = {}
        self._compiled = None
        #: Runs of the bulk sweep in progress, consumed by _build_table.
        self._batched: Dict = {}
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- the compiled graph -------------------------------------------------

    def _ensure_compiled(self):
        """The shared :class:`~repro.paths.kernel.CompiledGraph`.

        Compiled once per store (under the build lock the callers hold)
        and reused by every sweep.
        """
        if self._compiled is None:
            self._compiled = compile_graph(self.graph, self.attr)
        return self._compiled

    def compiled_graph(self):
        """The store's compiled graph."""
        with self._lock:
            return self._ensure_compiled()

    def adopt_compiled(self, compiled) -> None:
        """Install a pre-built compiled graph (spawn workers call this).

        The caller vouches that *compiled* was flattened from an
        identical graph and the same weight attribute.
        """
        if compiled is None or compiled.attr != self.attr:
            return
        with self._lock:
            if self._compiled is None:
                self._compiled = compiled

    # -- building -----------------------------------------------------------

    def _build_table(self, source) -> Dict:
        """target -> preferred weight of *source*, recording its parents.

        The one place a tree enters the store: it takes the source's run
        from the current bulk sweep when :meth:`ensure_sources` batched
        it, else runs one per-source sweep over the compiled graph.
        """
        tree = self._batched.pop(source, None)
        if tree is None:
            tree = preferred_path_tree(self.graph, self.algebra, source,
                                       attr=self.attr, unsafe=self.unsafe,
                                       compiled=self._ensure_compiled())
        # The parent map is what schemes route on and what surgical
        # invalidation tests tree edges against.
        self._parents[source] = tree.parent
        return tree.weight

    def _store_built(self, source) -> Dict:
        """Build and store *source*'s table; the caller holds the lock."""
        table = self._build_table(source)
        self._tables[source] = table
        self.trees_built += 1
        if _telemetry_enabled():
            _telemetry().counter("oracle.trees_built").inc()
        return table

    def _table_for(self, source) -> Dict:
        table = self._tables.get(source)
        if table is not None:
            return table
        with self._lock:
            table = self._tables.get(source)
            if table is None:
                table = self._store_built(source)
        return table

    def _batch_runs(self, missing) -> Dict:
        """``source -> KernelRun`` for *missing*, when one sweep should run.

        Empty unless at least :data:`BATCH_MIN_SOURCES` sources are
        missing and the instance admits a batch plan.  Sources absent
        from the graph are left for the per-source path to raise on.
        """
        if self.engine != "dijkstra":
            return {}
        compiled = self._ensure_compiled()
        missing = [s for s in missing if s in compiled.node_index]
        if len(missing) < BATCH_MIN_SOURCES:
            return {}
        from repro.paths import batch as _batch

        plan = _batch.batch_plan(compiled, self.algebra)
        if plan is None:
            return {}
        _check_tree_preconditions(self.algebra, self.unsafe)
        return dict(zip(missing, _batch.batch_trees(compiled, self.algebra,
                                                    missing, plan=plan)))

    def ensure_sources(self, sources: Iterable) -> None:
        """Build the trees of *sources* that are not stored yet (idempotent).

        The missing trees run as one bulk sweep when the fill is large
        enough and eligible (see :meth:`_batch_runs`), else one
        per-source sweep each.
        """
        ordered = list(dict.fromkeys(sources))
        if all(source in self._tables for source in ordered):
            return
        with self._lock:
            missing = [s for s in ordered if s not in self._tables]
            self._batched = self._batch_runs(missing)
            try:
                for source in missing:
                    self._store_built(source)
            finally:
                self._batched = {}

    def trees(self, sources: Iterable) -> Dict[object, PathTree]:
        """``source -> PathTree`` for *sources*, in first-appearance order."""
        ordered = list(dict.fromkeys(sources))
        self.ensure_sources(ordered)
        return {source: PathTree(source, self._tables[source],
                                 self._parents[source])
                for source in ordered}
