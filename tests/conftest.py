"""Shared fixtures: substitute a path engine or a pool start method.

No option selects a path engine; the code picks one.  Tests that compare
engines substitute the engine in-process instead, at the two points
where a :class:`~repro.paths.store.TreeStore` builds trees: bulk fills
of at least ``BATCH_MIN_SOURCES`` sources go to
:func:`~repro.paths.batch.batch_trees`, and everything else to
:func:`~repro.paths.dijkstra.preferred_path_tree` (the kernel).

No option selects the pool start method either: the parallel engine
uses ``fork`` where the platform has it.  Tests that exercise the spawn
path substitute :data:`repro.core.parallel.START_METHOD` in-process.
"""

import math
import multiprocessing
import os

import pytest

import repro
from repro.core import parallel
from repro.graphs.weighting import WEIGHT_ATTR
from repro.paths import batch, shortest_widest, store
from repro.paths.dijkstra import PathTree, preferred_path_tree, reference_tree


@pytest.fixture
def force_path_engine(monkeypatch):
    """``force(engine)`` makes every stored tree come from *engine*.

    * ``kernel`` — every tree per source through ``preferred_path_tree``;
    * ``batch`` — every tree through ``batch_trees`` (one-lane sweeps
      outside bulk fills); instances without a batch plan run the
      kernel, as a bulk fill would;
    * ``reference`` — every tree from ``reference_tree``, and the
      shortest-widest oracle from its seed sweeps;
    * ``""`` — leave the code's own choice in place.

    Returns a dict counting the trees each engine built, so a test can
    assert that the forced engine really ran.
    """
    calls = {"kernel": 0, "batch": 0, "reference": 0}

    def kernel(graph, algebra, root, attr=WEIGHT_ATTR, unsafe=False, *,
               compiled=None):
        calls["kernel"] += 1
        return preferred_path_tree(graph, algebra, root, attr, unsafe,
                                   compiled=compiled)

    def one_lane(graph, algebra, root, attr=WEIGHT_ATTR, unsafe=False, *,
                 compiled=None):
        plan = batch.batch_plan(compiled, algebra)
        if plan is None:
            return kernel(graph, algebra, root, attr, unsafe,
                          compiled=compiled)
        run = batch.batch_tree(compiled, algebra, root, plan=plan)
        return PathTree(root, run.weight, run.parent)

    def reference(graph, algebra, root, attr=WEIGHT_ATTR, unsafe=False, *,
                  compiled=None):
        calls["reference"] += 1
        return reference_tree(graph, algebra, root, attr, unsafe)

    def reference_widest(graph, source, attr=WEIGHT_ATTR, *, compiled=None):
        calls["reference"] += 1
        return shortest_widest._reference_widest(graph, source, attr)

    def reference_restricted(graph, source, min_capacity, attr, *,
                             compiled=None):
        return shortest_widest._reference_restricted(graph, source,
                                                     min_capacity, attr)

    batch_trees = batch.batch_trees

    def counted_batch_trees(compiled, algebra, roots, *args, **kwargs):
        runs = batch_trees(compiled, algebra, roots, *args, **kwargs)
        calls["batch"] += len(runs)
        return runs

    def force(engine):
        if engine not in ("", *calls):
            raise ValueError(f"unknown path engine {engine!r}")
        monkeypatch.setattr(batch, "batch_trees", counted_batch_trees)
        if engine == "kernel":
            monkeypatch.setattr(store, "BATCH_MIN_SOURCES", math.inf)
            monkeypatch.setattr(store, "preferred_path_tree", kernel)
        elif engine == "batch":
            monkeypatch.setattr(store, "BATCH_MIN_SOURCES", 1)
            monkeypatch.setattr(store, "preferred_path_tree", one_lane)
        elif engine == "reference":
            monkeypatch.setattr(store, "BATCH_MIN_SOURCES", math.inf)
            monkeypatch.setattr(store, "preferred_path_tree", reference)
            monkeypatch.setattr(shortest_widest, "widest_bottlenecks",
                                reference_widest)
            monkeypatch.setattr(shortest_widest, "_restricted_shortest",
                                reference_restricted)
        return calls

    return force


@pytest.fixture
def force_start_method(monkeypatch):
    """``force(method)`` makes the parallel pool start workers by *method*.

    Spawned children rebuild ``sys.path`` from the parent's; the
    ``PYTHONPATH`` entry for the in-tree package keeps them importable
    from an unusual launcher too.
    """

    def force(method):
        if method not in multiprocessing.get_all_start_methods():
            raise ValueError(f"unknown start method {method!r}")
        monkeypatch.setattr(parallel, "START_METHOD", method)
        if method == "spawn":
            src_dir = os.path.dirname(os.path.dirname(
                os.path.abspath(repro.__file__)))
            existing = os.environ.get("PYTHONPATH")
            monkeypatch.setenv("PYTHONPATH", src_dir + (
                os.pathsep + existing if existing else ""))

    return force


@pytest.fixture
def spawn_workers(force_start_method):
    """Run the test with spawn workers (the platform's non-fork path)."""
    force_start_method("spawn")
