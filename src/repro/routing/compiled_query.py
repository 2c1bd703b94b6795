"""Compiled query tables: evaluate a shard of pairs without the per-pair loop.

The seed evaluation loop calls :meth:`RoutingScheme.route` once per
(source, target) pair; every hop is a Python ``local_decision`` with dict
lookups and header objects.  PRs 5 and 9 vectorized tree *construction*,
which leaves this loop as the dominant cost of all-pairs sweeps.  This
module compiles a **built** scheme once into flat numpy int arrays and
then walks an entire shard of pairs per vectorized step.

Compilation (:func:`compile_query`) produces, per scheme family:

* a sorted-adjacency CSR over the scheme's graph (``adj_indptr`` /
  ``adj_next`` / ``adj_key``) — ports are 1-based ranks into each node's
  sorted neighbor list (exactly :class:`repro.routing.model.PortMap`), so
  ``adj_next[adj_indptr[u] + port - 1]`` resolves any forwarded port;
* **tree-routing** (:class:`TreeRoutingScheme`): the per-node DFS
  interval labels, parent/heavy hops pre-resolved to (next node, edge
  key), light depths, and each target's label (DFS number + light-port
  sequence) as a CSR;
* **cowen** (:class:`CowenScheme`): the direct cluster/landmark entries
  as one sorted ``u*n + t`` key array with pre-resolved next hops, plus
  the tree-routing columns of every landmark tree stacked into flat
  ``(|L|, n)`` arrays and each target's header (landmark slot, tree DFS,
  light ports);
* **destination-table** / **pair-table**: walk-free gather tables — the
  realized walk is a tree branch (resp. the installed path), so its hop
  count and weight key are known at compile time.

Realized weights ride the PR 9 integer-key capability: for algebras whose
keys are *exactly additive* (``integer_key_additive``) the key of a walk
is the sum of its edge keys, so the walk accumulates one int64 per pair
and decodes to a weight object only at emit.  Keys use the route loop's
hop budget (``4n + 8``), not the tree builders' ``n - 1``, because a
misrouted walk may take up to that many edges and the order-embedding
contract must hold for every realized weight.

Bit-identity contract
---------------------

:func:`evaluate_shard` reproduces the reference loop exactly: the same
routed/delivered/optimal counts, the same failure tuples in the same
order (including exception message strings), and the same stretch samples
in pair order.  Three mechanisms make that safe:

* optimality compares integer keys (``key(realized) == key(preferred)``),
  exact because the key map is an order embedding;
* failure strings the vectorized walk can prove (``"hop limit
  exceeded"``, the table schemes' missing-entry messages) are emitted
  natively with the reference's exact f-strings;
* any pair the walk cannot replicate bit-for-bit — a condition the
  reference would raise on, an endpoint outside the compiled tables, a
  premature tree delivery — is replayed through ``scheme.route`` one pair
  at a time, reproducing even exotic exception behavior.

The engine only runs when telemetry is off and no packet-trace capture is
active (:mod:`repro.routing.query_engine` gates this): traces and
per-pair histograms need hop-level fidelity only the reference loop has.

Spawn workers attach the parent's compiled tables zero-copy over
:mod:`repro.shared_arrays` (:func:`export_shared_query` /
:func:`attach_shared_query`): compiling them costs far more per worker
than starting one.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro import shared_arrays
from repro.exceptions import ReproError
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.pair_table import PairTableScheme
from repro.routing.query_engine import count_query_fallback, note_batch_shard
from repro.routing.tree_routing import TreeRoutingScheme
from repro.shared_arrays import np as _np
from repro.shared_arrays import numpy_available

__all__ = [
    "CompiledQuery",
    "attach_shared_query",
    "compile_query",
    "evaluate_shard",
    "export_shared_query",
    "numpy_available",
]


#: Per-pair walk outcome codes.
_PENDING = 0
_DELIVERED = 1
_HOP_LIMIT = 2
_ANOMALY = 3     # replay through scheme.route for exact reference behavior
_NO_ROUTE = 4    # table miss with a natively reproducible failure string

#: "No heavy child" sentinel: larger than any DFS number, so the heavy
#: interval test ``hdfs <= target_dfs <= hend`` can never pass.
_NO_DFS = 1 << 40

#: compile results memoized per scheme instance.  A module-level weak map
#: (not a scheme attribute) so numpy arrays and key closures never ride a
#: scheme pickle to spawn workers.  ``False`` caches "not compilable".
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class CompiledQuery:
    """Flat int arrays plus key codecs for one built scheme."""

    __slots__ = ("kind", "n", "nodes", "node_index", "identity_decode",
                 "key_fn", "decode", "arrays", "fingerprint", "shm_handles")

    def __init__(self, kind: str, nodes: List, node_index: Dict,
                 identity_decode: bool, key_fn, decode, arrays: Dict,
                 fingerprint: int = 0, shm_handles=None):
        self.kind = kind
        self.n = len(nodes)
        self.nodes = nodes
        self.node_index = node_index
        self.identity_decode = identity_decode
        self.key_fn = key_fn
        self.decode = decode
        self.arrays = arrays
        #: Table-size fingerprint at compile time; a mismatch on a later
        #: shard means the scheme was mutated and the cache is stale.
        self.fingerprint = fingerprint
        #: Attached shared-memory segments pinned for the arrays' lifetime
        #: (worker side only; the parent owns and unlinks the segments).
        self.shm_handles = shm_handles


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_query(scheme) -> Optional["CompiledQuery"]:
    """Compile *scheme* for vectorized evaluation; ``None`` if ineligible.

    Eligibility: numpy present, an undirected graph, an algebra with
    exactly-additive integer keys at the route loop's hop budget whose
    decode round-trips every edge weight, and one of the four supported
    scheme families (exact type match — a subclass may override the
    routing function, and bit-identity trumps coverage).  Results are
    memoized per scheme instance.
    """
    if not numpy_available():
        return None
    cached = _CACHE.get(scheme)
    if cached is not None:
        if cached is False:
            return None
        if cached.fingerprint == _table_fingerprint(scheme):
            return cached
        # Table sizes changed since compile (tests sabotage forwarding
        # state in place): recompile from the live tables.
    try:
        compiled = _compile(scheme)
    except Exception:
        # Any structural surprise (mutated tables, exotic node types,
        # key functions raising) means "fall back", never "crash".
        compiled = None
    try:
        _CACHE[scheme] = compiled if compiled is not None else False
    except TypeError:  # pragma: no cover - unweakrefable scheme
        pass
    return compiled


def _table_fingerprint(scheme) -> int:
    """A cheap size signature of the scheme's mutable forwarding state.

    Detects the realistic mutation pattern (entries dropped or added to a
    built scheme); swapping values in place without changing dict sizes
    still defeats the cache, so the contract is snapshot-at-compile for
    such exotic edits.
    """
    if type(scheme) is DestinationTableScheme:
        return sum(len(entries) for entries in scheme._next_hop.values())
    if type(scheme) is PairTableScheme:
        return sum(len(entries) for entries in scheme._entries.values())
    if type(scheme) is TreeRoutingScheme:
        return len(scheme._info) * 1000003 + len(scheme._labels)
    if type(scheme) is CowenScheme:
        return len(scheme.landmarks) * 1000003 + len(scheme.clusters)
    return 0


def _walk_codecs(algebra, n: int):
    """``(key_fn, decode)`` at the route loop's hop budget, or None.

    None unless the algebra's integer keys are exactly additive there.
    """
    walk_hops = 4 * n + 8
    if (algebra.integer_key_bound(walk_hops) is None
            or not algebra.integer_key_additive(walk_hops)):
        return None
    key_fn = algebra.integer_key_fn(walk_hops)
    decode = algebra.integer_key_weight_fn(walk_hops)
    if key_fn is None or decode is None:
        return None
    return key_fn, decode


def _compile(scheme) -> Optional["CompiledQuery"]:
    graph = scheme.graph
    if graph.is_directed():
        return None
    n = graph.number_of_nodes()
    if n == 0:
        return None
    codecs = _walk_codecs(scheme.algebra, n)
    if codecs is None:
        return None
    key_fn, decode = codecs

    nodes = list(graph.nodes())
    node_index = {node: i for i, node in enumerate(nodes)}

    # Sorted-adjacency CSR == the PortMap's port numbering: position
    # ``adj_indptr[u] + port - 1`` is the neighbor behind ``port`` at u.
    adj_indptr = [0]
    adj_next: List[int] = []
    adj_keys: List[int] = []
    edge_key: Dict[Tuple[int, int], int] = {}
    identity = True
    attr = scheme.attr
    for u in nodes:
        ui = node_index[u]
        for v in sorted(graph.neighbors(u)):
            weight = graph[u][v][attr]
            key = key_fn(weight)
            if not isinstance(key, int) or isinstance(key, bool) or key < 0:
                return None
            if decode(key) != weight:
                return None
            identity = identity and key == weight
            vi = node_index[v]
            edge_key[(ui, vi)] = key
            adj_next.append(vi)
            adj_keys.append(key)
        adj_indptr.append(len(adj_next))

    arrays = {
        "adj_indptr": _np.asarray(adj_indptr, dtype=_np.int64),
        "adj_next": _np.asarray(adj_next, dtype=_np.int64),
        "adj_key": _np.asarray(adj_keys, dtype=_np.int64),
    }

    if type(scheme) is CowenScheme:
        extra = _compile_cowen(scheme, nodes, node_index, edge_key)
    elif type(scheme) is TreeRoutingScheme:
        extra = _compile_tree(scheme, nodes, node_index, edge_key)
    elif type(scheme) is DestinationTableScheme:
        extra = _compile_destination(scheme, nodes, node_index, edge_key)
    elif type(scheme) is PairTableScheme:
        extra = _compile_pair(scheme, nodes, node_index, edge_key)
    else:
        return None
    if extra is None:
        return None
    kind, kind_arrays = extra
    arrays.update(kind_arrays)
    return CompiledQuery(kind=kind, nodes=nodes, node_index=node_index,
                         identity_decode=identity, key_fn=key_fn,
                         decode=decode, arrays=arrays,
                         fingerprint=_table_fingerprint(scheme))


def _tree_columns(tree_scheme: TreeRoutingScheme, nodes, node_index,
                  edge_key) -> Optional[Dict[str, "object"]]:
    """Per-node walk columns of one tree scheme, parent/heavy pre-resolved."""
    n = len(nodes)
    dfs = _np.full(n, -1, dtype=_np.int64)
    iend = _np.full(n, -2, dtype=_np.int64)       # (dfs<=x<=iend) never holds
    hdfs = _np.full(n, _NO_DFS, dtype=_np.int64)
    hend = _np.full(n, -1, dtype=_np.int64)
    pnext = _np.full(n, -1, dtype=_np.int64)
    pkey = _np.zeros(n, dtype=_np.int64)
    hnext = _np.full(n, -1, dtype=_np.int64)
    hkey = _np.zeros(n, dtype=_np.int64)
    ldepth = _np.zeros(n, dtype=_np.int64)
    ports = tree_scheme.ports
    for node, info in tree_scheme._info.items():
        i = node_index.get(node)
        if i is None:
            return None
        dfs[i] = info.dfs
        iend[i] = info.interval_end
        ldepth[i] = info.light_depth
        if info.parent_port is not None:
            j = node_index[ports.neighbor(node, info.parent_port)]
            pnext[i] = j
            pkey[i] = edge_key[(i, j)]
        if info.heavy_port is not None:
            j = node_index[ports.neighbor(node, info.heavy_port)]
            hnext[i] = j
            hkey[i] = edge_key[(i, j)]
            hdfs[i] = info.heavy_dfs
            hend[i] = info.heavy_end
    return {"dfs": dfs, "iend": iend, "hdfs": hdfs, "hend": hend,
            "pnext": pnext, "pkey": pkey, "hnext": hnext, "hkey": hkey,
            "ldepth": ldepth}


def _label_csr(labels: Dict, node_index, n):
    """Target labels as (dfs array, light-port CSR); dfs -1 = unlabeled."""
    hdr_dfs = _np.full(n, -1, dtype=_np.int64)
    seqs: List[Tuple[int, ...]] = [()] * n
    for node, (dfs_number, light_ports) in labels.items():
        i = node_index.get(node)
        if i is None:
            return None
        hdr_dfs[i] = dfs_number
        seqs[i] = tuple(light_ports)
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    for i, seq in enumerate(seqs):
        indptr[i + 1] = indptr[i] + len(seq)
    flat = _np.zeros(int(indptr[-1]), dtype=_np.int64)
    for i, seq in enumerate(seqs):
        if seq:
            flat[indptr[i]:indptr[i + 1]] = seq
    return hdr_dfs, indptr, flat


_TREE_COLS = ("dfs", "iend", "hdfs", "hend", "pnext", "pkey", "hnext",
              "hkey", "ldepth")


def _empty_direct():
    return {
        "direct_code": _np.zeros(0, dtype=_np.int64),
        "direct_next": _np.zeros(0, dtype=_np.int64),
        "direct_key": _np.zeros(0, dtype=_np.int64),
    }


def _compile_tree(scheme: TreeRoutingScheme, nodes, node_index, edge_key):
    n = len(nodes)
    cols = _tree_columns(scheme, nodes, node_index, edge_key)
    if cols is None:
        return None
    labels = _label_csr(scheme._labels, node_index, n)
    if labels is None:
        return None
    hdr_dfs, lp_indptr, lp_port = labels
    arrays = {f"t_{name}": cols[name] for name in _TREE_COLS}
    arrays.update(_empty_direct())
    arrays.update({
        "hdr_base": _np.zeros(n, dtype=_np.int64),
        "hdr_dfs": hdr_dfs,
        "hdr_lp_indptr": lp_indptr,
        "hdr_lp_port": lp_port,
    })
    return "tree", arrays


def _compile_cowen(scheme: CowenScheme, nodes, node_index, edge_key):
    n = len(nodes)
    landmarks = sorted(scheme.landmarks)
    slot = {landmark: k for k, landmark in enumerate(landmarks)}

    per_tree = []
    for landmark in landmarks:
        cols = _tree_columns(scheme._tree_schemes[landmark], nodes,
                             node_index, edge_key)
        if cols is None:
            return None
        per_tree.append(cols)
    arrays = {
        f"t_{name}": _np.concatenate([cols[name] for cols in per_tree])
        for name in _TREE_COLS
    }

    # Direct entries: one sorted u*n+t key per (node, cluster-or-landmark
    # target), the next hop pre-resolved along the target-rooted tree.
    entries = []
    for u in nodes:
        ui = node_index[u]
        for t in set(scheme.clusters[u]) | scheme.landmarks:
            if t == u:
                continue
            ti = node_index.get(t)
            if ti is None:
                return None
            vi = node_index.get(scheme._trees[t].parent.get(u))
            if vi is None:
                return None
            key = edge_key.get((ui, vi))
            if key is None:
                return None
            entries.append((ui * n + ti, vi, key))
    entries.sort()
    arrays["direct_code"] = _np.asarray([c for c, _, _ in entries],
                                        dtype=_np.int64)
    arrays["direct_next"] = _np.asarray([v for _, v, _ in entries],
                                        dtype=_np.int64)
    arrays["direct_key"] = _np.asarray([k for _, _, k in entries],
                                       dtype=_np.int64)

    # Per-target header: which landmark tree to walk (as a flat-array
    # base offset) and the target's label in it.
    hdr_base = _np.zeros(n, dtype=_np.int64)
    hdr_dfs = _np.full(n, -1, dtype=_np.int64)
    seqs: List[Tuple[int, ...]] = [()] * n
    for t in nodes:
        ti = node_index[t]
        landmark = scheme.landmark_of[t]
        hdr_base[ti] = slot[landmark] * n
        dfs_number, light_ports = scheme._tree_schemes[landmark]._labels[t]
        hdr_dfs[ti] = dfs_number
        seqs[ti] = tuple(light_ports)
    lp_indptr = _np.zeros(n + 1, dtype=_np.int64)
    for i, seq in enumerate(seqs):
        lp_indptr[i + 1] = lp_indptr[i] + len(seq)
    lp_port = _np.zeros(int(lp_indptr[-1]), dtype=_np.int64)
    for i, seq in enumerate(seqs):
        if seq:
            lp_port[lp_indptr[i]:lp_indptr[i + 1]] = seq
    arrays.update({"hdr_base": hdr_base, "hdr_dfs": hdr_dfs,
                   "hdr_lp_indptr": lp_indptr, "hdr_lp_port": lp_port})
    return "cowen", arrays


def _compile_destination(scheme: DestinationTableScheme, nodes, node_index,
                         edge_key):
    """Chain-walk ``_next_hop`` into per-(target, source) outcome tables.

    The *live* forwarding dicts are the source of truth (tests sabotage
    them post-build to exercise failure paths), so every walk outcome —
    delivery with its summed edge key, the exact node a missing entry
    strands the packet at, hop-limit loops — is resolved here with
    per-target memoized chain walks, O(n) per destination tree.
    """
    n = len(nodes)
    status = _np.zeros(n * n, dtype=_np.int64)
    keys = _np.zeros(n * n, dtype=_np.int64)
    fail = _np.full(n * n, -1, dtype=_np.int64)
    next_hop = scheme._next_hop
    for ti, t in enumerate(nodes):
        base = ti * n
        nxt = [-1] * n   # -1 = no entry, -2 = entry that is not a graph edge
        ekey = [0] * n
        for si, s in enumerate(nodes):
            hop = next_hop[s].get(t)
            if hop is None:
                continue
            vi = node_index.get(hop)
            step = edge_key.get((si, vi)) if vi is not None else None
            if step is None:
                nxt[si] = -2     # mutated table: replay those pairs
            else:
                nxt[si] = vi
                ekey[si] = step
        st = [_PENDING] * n
        ky = [0] * n
        fl = [-1] * n
        st[ti] = _DELIVERED
        for s0 in range(n):
            if st[s0] != _PENDING:
                continue
            chain: List[int] = []
            seen: Dict[int, int] = {}
            cur = s0
            while st[cur] == _PENDING:
                if cur in seen:
                    # A forwarding loop: the reference walks it until the
                    # 4n+8 decision budget runs out, then gives up.
                    for node in chain[seen[cur]:]:
                        st[node] = _HOP_LIMIT
                    break
                seen[cur] = len(chain)
                chain.append(cur)
                hop = nxt[cur]
                if hop == -1:
                    st[cur] = _NO_ROUTE
                    fl[cur] = cur
                    break
                if hop == -2:
                    st[cur] = _ANOMALY
                    break
                cur = hop
            for node in reversed(chain):
                if st[node] != _PENDING:
                    continue
                hop = nxt[node]
                downstream = st[hop]
                if downstream == _DELIVERED:
                    st[node] = _DELIVERED
                    ky[node] = ekey[node] + ky[hop]
                elif downstream == _NO_ROUTE:
                    st[node] = _NO_ROUTE
                    fl[node] = fl[hop]
                elif downstream == _HOP_LIMIT:
                    st[node] = _HOP_LIMIT
                else:
                    st[node] = _ANOMALY
        status[base:base + n] = st
        keys[base:base + n] = ky
        fail[base:base + n] = fl
    return "destination", {"dt_status": status, "dt_key": keys,
                           "dt_fail": fail}


def _compile_pair(scheme: PairTableScheme, nodes, node_index, edge_key):
    """Replay each installable pair through the *live* ``_entries`` dicts.

    Initiation only consults ``_entries[source]``, so the compiled
    universe is exactly the (s, t) keys present at their own source; a
    query outside it misses the sorted code table and strands at the
    source, which the evaluator emits natively.  Each installed pair is
    walked through the per-node entry dicts up to the route loop's 4n+8
    decision budget, so post-build mutations (dropped entries, loops)
    land on the same outcome the reference loop would reach.
    """
    n = len(nodes)
    max_hops = 4 * n + 8
    ports = scheme.ports
    entries = []
    for si, s in enumerate(nodes):
        for header in scheme._entries[s]:
            if not isinstance(header, tuple) or len(header) != 2:
                return None
            hs, t = header
            if hs != s or t == s:
                continue
            ti = node_index.get(t)
            if ti is None:
                return None
            cur = s
            key = 0
            state = _HOP_LIMIT
            fail_at = -1
            for _ in range(max_hops):
                if cur == t:
                    state = _DELIVERED
                    break
                port = scheme._entries[cur].get(header)
                if port is None:
                    state = _NO_ROUTE
                    fail_at = node_index[cur]
                    break
                try:
                    hop = ports.neighbor(cur, port)
                except Exception:
                    state = _ANOMALY   # mutated port: replay for the message
                    break
                step = edge_key.get((node_index[cur], node_index[hop]))
                if step is None:
                    state = _ANOMALY
                    break
                key += step
                cur = hop
            entries.append((si * n + ti, state, key, fail_at))
    entries.sort(key=lambda item: item[0])
    return "pair", {
        "pt_code": _np.asarray([e[0] for e in entries], dtype=_np.int64),
        "pt_status": _np.asarray([e[1] for e in entries], dtype=_np.int64),
        "pt_key": _np.asarray([e[2] for e in entries], dtype=_np.int64),
        "pt_fail": _np.asarray([e[3] for e in entries], dtype=_np.int64),
    }


# ---------------------------------------------------------------------------
# vectorized evaluation
# ---------------------------------------------------------------------------


def evaluate_shard(algebra, scheme, oracle, pairs):
    """Vectorized evaluation of *pairs*; ``None`` means "use the reference".

    Returns ``(routed, delivered, optimal, failures, samples)`` with
    failures and stretch samples in pair order, exactly as the reference
    loop in :func:`repro.core.simulate.route_shard` would produce them.
    The oracle is consulted once per pair in pair order (so lazy-oracle
    accounting matches the reference); pairs the vectorized walk cannot
    replicate bit-for-bit are replayed through ``scheme.route``.
    """
    if not numpy_available():
        count_query_fallback("numpy-missing", pairs=len(pairs))
        return None
    if algebra is not getattr(scheme, "algebra", None):
        count_query_fallback("algebra-mismatch", pairs=len(pairs))
        return None
    tables = compile_query(scheme)
    if tables is None:
        count_query_fallback("uncompilable", pairs=len(pairs))
        return None

    node_index = tables.node_index
    index_of = node_index.get
    routed_pairs: List[Tuple] = []
    preferred: List = []
    src: List[int] = []
    dst: List[int] = []
    from repro.algebra.base import is_phi
    for s, t in pairs:
        weight = oracle(s, t)
        if is_phi(weight):
            continue
        routed_pairs.append((s, t))
        preferred.append(weight)
        src.append(index_of(s, -1))
        dst.append(index_of(t, -1))

    routed = len(routed_pairs)
    note_batch_shard(len(pairs))
    if routed == 0:
        return 0, 0, 0, [], []

    s_arr = _np.asarray(src, dtype=_np.int64)
    t_arr = _np.asarray(dst, dtype=_np.int64)
    status = _np.zeros(routed, dtype=_np.int8)
    rkey = _np.zeros(routed, dtype=_np.int64)

    # route() short-circuits source == target before any table lookup, so
    # the pair delivers with the empty walk even off-graph.
    same = s_arr == t_arr
    status[same] = _DELIVERED
    unknown = (~same) & ((s_arr < 0) | (t_arr < 0))
    status[unknown] = _ANOMALY

    fail = _np.full(routed, -1, dtype=_np.int64)
    if tables.kind == "destination":
        _eval_destination(tables, s_arr, t_arr, status, rkey, fail)
    elif tables.kind == "pair":
        _eval_pair(tables, s_arr, t_arr, status, rkey, fail)
    else:
        _walk(tables, s_arr, t_arr, status, rkey)

    return _assemble(algebra, scheme, tables, routed_pairs, preferred,
                     status, rkey, fail)


def _eval_destination(tables, s_arr, t_arr, status, rkey, fail):
    arrays = tables.arrays
    alive = _np.nonzero(status == _PENDING)[0]
    if alive.size == 0:
        return
    flat = t_arr[alive] * tables.n + s_arr[alive]
    status[alive] = arrays["dt_status"][flat]
    rkey[alive] = arrays["dt_key"][flat]
    fail[alive] = arrays["dt_fail"][flat]


def _eval_pair(tables, s_arr, t_arr, status, rkey, fail):
    arrays = tables.arrays
    codes = arrays["pt_code"]
    alive = _np.nonzero(status == _PENDING)[0]
    if alive.size == 0:
        return
    if codes.size == 0:
        # No entry at the source: the first decision already raises.
        status[alive] = _NO_ROUTE
        fail[alive] = s_arr[alive]
        return
    want = s_arr[alive] * tables.n + t_arr[alive]
    pos = _np.minimum(_np.searchsorted(codes, want), codes.size - 1)
    hit = codes[pos] == want
    status[alive[hit]] = arrays["pt_status"][pos[hit]]
    rkey[alive[hit]] = arrays["pt_key"][pos[hit]]
    fail[alive[hit]] = arrays["pt_fail"][pos[hit]]
    status[alive[~hit]] = _NO_ROUTE
    fail[alive[~hit]] = s_arr[alive[~hit]]


def _walk(tables, s_arr, t_arr, status, rkey):
    """The shared tree/cowen walk: one vectorized step per packet decision.

    Replicates ``RoutingScheme.route`` exactly: ``4n + 8`` decisions per
    pair, a delivery consuming one decision, pairs still in flight after
    the budget marked ``hop limit exceeded``.  Per decision the cowen
    direct table is consulted first (one ``searchsorted`` over the sorted
    ``u*n + t`` keys), then the landmark/tree interval logic; any branch
    the reference would raise on marks the pair as an anomaly for exact
    per-pair replay.
    """
    arrays = tables.arrays
    n = tables.n
    adj_indptr = arrays["adj_indptr"]
    adj_next = arrays["adj_next"]
    adj_key = arrays["adj_key"]
    t_dfs = arrays["t_dfs"]
    t_iend = arrays["t_iend"]
    t_hdfs = arrays["t_hdfs"]
    t_hend = arrays["t_hend"]
    t_pnext = arrays["t_pnext"]
    t_pkey = arrays["t_pkey"]
    t_hnext = arrays["t_hnext"]
    t_hkey = arrays["t_hkey"]
    t_ldepth = arrays["t_ldepth"]
    direct_code = arrays["direct_code"]
    direct_next = arrays["direct_next"]
    direct_key = arrays["direct_key"]
    hdr_base = arrays["hdr_base"]
    hdr_dfs_all = arrays["hdr_dfs"]
    lp_indptr = arrays["hdr_lp_indptr"]
    lp_port = arrays["hdr_lp_port"]

    alive = _np.nonzero(status == _PENDING)[0]
    if alive.size == 0:
        return
    # An unlabeled target would crash the reference at initial_header —
    # replay those pairs rather than guessing.
    bad_header = hdr_dfs_all[t_arr[alive]] < 0
    status[alive[bad_header]] = _ANOMALY
    alive = alive[~bad_header]

    cur = s_arr.copy()
    for _ in range(4 * n + 8):
        if alive.size == 0:
            return
        here = cur[alive]
        tgt = t_arr[alive]
        done = here == tgt
        if done.any():
            status[alive[done]] = _DELIVERED
            keep = ~done
            alive = alive[keep]
            here = here[keep]
            tgt = tgt[keep]
            if alive.size == 0:
                return

        if direct_code.size:
            want = here * n + tgt
            pos = _np.minimum(_np.searchsorted(direct_code, want),
                              direct_code.size - 1)
            hit = direct_code[pos] == want
        else:
            pos = _np.zeros(here.size, dtype=_np.int64)
            hit = _np.zeros(here.size, dtype=bool)

        flat = hdr_base[tgt] + here
        own_dfs = t_dfs[flat]
        hdr_dfs = hdr_dfs_all[tgt]
        inner_deliver = hdr_dfs == own_dfs
        in_interval = (own_dfs <= hdr_dfs) & (hdr_dfs <= t_iend[flat])
        up = ~in_interval
        heavy = (in_interval & ~inner_deliver
                 & (t_hdfs[flat] <= hdr_dfs) & (hdr_dfs <= t_hend[flat]))
        light = in_interval & ~inner_deliver & ~heavy

        depth = t_ldepth[flat]
        seq_start = lp_indptr[tgt]
        seq_len = lp_indptr[tgt + 1] - seq_start
        bad_label = light & (depth >= seq_len)
        light_ok = light & ~bad_label
        if lp_port.size:
            lpos = seq_start + _np.minimum(depth,
                                           _np.maximum(seq_len - 1, 0))
            port = lp_port[_np.minimum(lpos, lp_port.size - 1)]
        else:
            port = _np.zeros(here.size, dtype=_np.int64)
        apos = adj_indptr[here] + port - 1
        bad_port = light_ok & ((port < 1) | (apos >= adj_indptr[here + 1]))
        if adj_next.size:
            apos = _np.clip(apos, 0, adj_next.size - 1)
            light_next = adj_next[apos]
            light_key = adj_key[apos]
        else:
            bad_port = bad_port | light_ok
            light_next = _np.full(here.size, -1, dtype=_np.int64)
            light_key = _np.zeros(here.size, dtype=_np.int64)

        tree_next = _np.where(up, t_pnext[flat],
                              _np.where(heavy, t_hnext[flat], light_next))
        tree_key = _np.where(up, t_pkey[flat],
                             _np.where(heavy, t_hkey[flat], light_key))
        anomaly = ~hit & (inner_deliver | (up & (t_pnext[flat] < 0))
                          | bad_label | bad_port)

        if direct_code.size:
            nxt = _np.where(hit, direct_next[pos], tree_next)
            key = _np.where(hit, direct_key[pos], tree_key)
        else:
            nxt = tree_next
            key = tree_key
        if anomaly.any():
            status[alive[anomaly]] = _ANOMALY
            keep = ~anomaly
            alive = alive[keep]
            nxt = nxt[keep]
            key = key[keep]
            if alive.size == 0:
                return
        cur[alive] = nxt
        rkey[alive] += key
    status[alive] = _HOP_LIMIT


def _assemble(algebra, scheme, tables, routed_pairs, preferred, status,
              rkey, fail):
    """Fold per-pair outcomes into reference-ordered counts and samples."""
    identity = tables.identity_decode
    decode = tables.decode
    key_fn = tables.key_fn
    kind = tables.kind
    nodes = tables.nodes
    delivered = 0
    optimal = 0
    failures: List[Tuple] = []
    samples: List[Tuple] = []
    status_list = status.tolist()
    rkey_list = rkey.tolist()
    fail_list = fail.tolist()
    for i, (s, t) in enumerate(routed_pairs):
        state = status_list[i]
        if state == _DELIVERED:
            realized_key = rkey_list[i]
            pref = preferred[i]
            delivered += 1
            if identity:
                samples.append((pref, realized_key))
                if pref == realized_key:
                    optimal += 1
            else:
                samples.append((pref, decode(realized_key)))
                if key_fn(pref) == realized_key:
                    optimal += 1
        elif state == _HOP_LIMIT:
            failures.append((s, t, "hop limit exceeded"))
        elif state == _NO_ROUTE:
            stuck = nodes[fail_list[i]]
            if kind == "destination":
                failures.append((s, t, f"no route from {stuck!r} to {t!r}"))
            else:
                failures.append(
                    (s, t,
                     f"no pair entry for {(s, t)!r} at node {stuck!r}"))
        else:  # _ANOMALY: replay the one pair for exact reference behavior
            count_query_fallback("pair-replay", pairs=1)
            try:
                result = scheme.route(s, t)
            except ReproError as exc:
                failures.append((s, t, str(exc)))
                continue
            if not result.delivered:
                failures.append((s, t, result.reason))
                continue
            delivered += 1
            realized = scheme.realized_weight(result)
            samples.append((preferred[i], realized))
            if algebra.eq(realized, preferred[i]):
                optimal += 1
    return len(routed_pairs), delivered, optimal, failures, samples


# ---------------------------------------------------------------------------
# zero-copy sharing of the query tables across worker processes
# ---------------------------------------------------------------------------


def export_shared_query(tables: Optional["CompiledQuery"]):
    """Export the compiled query arrays through :mod:`repro.shared_arrays`.

    Returns ``(handles, descriptor)``; the caller owns the handles and
    closes them with :func:`repro.shared_arrays.close` (``unlink=True``)
    once every consumer is done.  ``(None, None)`` when there are no
    tables or shared memory is unavailable.
    """
    if tables is None:
        return None, None
    handles, arrays = shared_arrays.export(tables.arrays)
    if handles is None:
        return None, None
    return handles, {"kind": tables.kind, "identity": tables.identity_decode,
                     "fingerprint": tables.fingerprint, "arrays": arrays}


def attach_shared_query(scheme, descriptor) -> bool:
    """Seed the compile cache for *scheme* from exported query tables.

    The key codecs come from the worker's own unpickled algebra, and the
    tables are adopted only when their fingerprint matches *scheme*.  The
    handles are pinned on the :class:`CompiledQuery` so the buffers
    outlive every view.  Returns False (attaching nothing) on any failure.
    """
    if not descriptor or descriptor["fingerprint"] != _table_fingerprint(scheme):
        return False
    graph = scheme.graph
    try:
        codecs = _walk_codecs(scheme.algebra, graph.number_of_nodes())
    except Exception:
        return False
    attached = shared_arrays.attach(descriptor["arrays"]) if codecs else None
    if attached is None:
        return False
    handles, arrays = attached
    nodes = list(graph.nodes())
    _CACHE[scheme] = CompiledQuery(
        kind=descriptor["kind"], nodes=nodes,
        node_index={node: i for i, node in enumerate(nodes)},
        identity_decode=descriptor["identity"], key_fn=codecs[0],
        decode=codecs[1], arrays=arrays,
        fingerprint=descriptor["fingerprint"], shm_handles=handles,
    )
    return True
