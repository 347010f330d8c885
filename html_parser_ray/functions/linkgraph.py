"""Link-graph layer: DOM-based href extraction, host-level edge
aggregation, and an integer-exact distributed PageRank.

The reference has no link operators (every operator is per-document,
SURVEY.md §2.4); this is a beyond-reference component a web-scale
pipeline needs: the host graph drives crawl prioritization and
quality-weighted sampling of a 100-TB corpus.

Scale shape:
  * ``LINKS`` — a DocStage projection over (url, html): one DOM parse per
    row under the default budgets, every ``<a href>`` in the tree
    (reference traversal semantics: walk over ALL elements,
    mod.ts:1684-1699 — hidden/template subtrees included), href resolved
    against the row url. A page that fails to parse gives one quarantine
    row (DocStage's contract). Only link strings leave the stage — html
    bytes never shuffle.
  * ``host_edges`` — per-batch partial combine of (src_host, dst_host)
    counts over the ok rows, then one small groupby; only host-pair rows
    shuffle (same idiom as urls.host_rollup).
  * ``pagerank`` — K synchronous power iterations over the (materialized
    once) edge list in exact int64 arithmetic, so the result is
    bit-reproducible and SQL-oracle-checkable:
        init      = scale // n_nodes
        base      = (15 * init) // 100                (damping 0.85)
        contrib_e = rank[src] * w // out_w[src]       (per edge)
        rank'[h]  = base + (85 * sum(contrib_e)) // 100
    Dangling-host mass (hosts with no out-edges) is dropped — the
    standard simplification; the SQL oracle does the same. Ranks live on
    the driver only up to ``broadcast_limit`` nodes (ray.put + vectorized
    per-batch lookup); beyond it every iteration runs as a distributed
    union + groupby with NO driver-side node table (the fallback a real
    100M-host web graph would use).
"""

from __future__ import annotations

import logging
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..htmlcore.dom import Element, Text
from ..htmlcore.extract import walk
from ..stages.extract import DocStage, Projection, ok_rows
from .urls import canonicalize_url

logger = logging.getLogger(__name__)

SCALE = 10**12

# RFC-3986 scheme: letter then letters/digits/+/-/. followed by ':'
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


def resolve_href(base_url: str, href: str) -> str:
    """Deterministic RFC-3986-style resolution of the href forms that
    occur on the web: absolute http(s), scheme-relative (//host/..),
    root-relative (/path), and path-relative. Fragments/queries ride
    along unchanged (canonicalization is a separate operator).

    Non-web schemes (mailto:, javascript:, tel:, data:, ...) return ""
    — the caller drops them — instead of being mangled into phantom
    path-relative edges; a RELATIVE href that merely CONTAINS '://' in
    its query (/redirect?to=http://x) resolves as the relative path it
    is rather than being taken verbatim as absolute."""
    href = href.strip()
    m = _SCHEME_RE.match(href)
    if m:
        scheme_l = href[: m.end() - 1].lower()
        return href if scheme_l in ("http", "https") else ""
    scheme, _, rest = base_url.partition("://")
    if href.startswith("//"):
        return f"{scheme}:{href}"
    host, _, path = rest.partition("/")
    if href.startswith("/"):
        return f"{scheme}://{host}{href}"
    # path-relative: resolve against the base path's directory
    base_dir = "/" + path[: path.rfind("/") + 1] if "/" in path else "/"
    return f"{scheme}://{host}{base_dir}{href}"


_ANCHOR_MAX = 200
_WS = re.compile(r"[ \t\n\r\f]+")


def _anchor_text(a_node) -> str:
    parts: list[str] = []
    stack = list(reversed(a_node.children))
    while stack:
        node = stack.pop()
        if isinstance(node, Text):
            parts.append(node.value)
        elif isinstance(node, Element):
            stack.extend(reversed(node.children))
    return _WS.sub(" ", "".join(parts)).strip()[:_ANCHOR_MAX]


def _links(tree, url: str) -> list[dict]:
    rows = []
    for node, _depth in walk(tree):
        if not isinstance(node, Element) or node.name != "a":
            continue
        href = next((v for k, v in node.attrs if k == "href"), None)
        if href is None:
            continue
        dst = resolve_href(url, href)
        if dst:              # mailto:/javascript:/... — no edge
            rows.append({"src_url": url, "href": href, "dst_url": dst,
                         "anchor": _anchor_text(node)})
    return rows


# one row per resolved <a href> of the page at the carried ``url``;
# ``anchor`` is the whitespace-normalized text content of the <a> subtree
# (cut to 200 chars), the relevance signal anchor-text aggregation feeds on
LINKS = Projection(pa.schema({
    "src_url": pa.string(), "href": pa.string(), "dst_url": pa.string(),
    "anchor": pa.string(),
}), _links, reads=("url",))


def extract_links(ds, batch_size: int = 16):
    """Dataset[url, html, ...] → Dataset[..., src_url, href, dst_url,
    anchor, status, error], one row per link and one quarantine row per
    page that fails to parse.

    A task map like extract_pages (stages/extract.py): no ``concurrency``
    cap, so Ray Data fuses it with neighbouring map stages and sizes it to
    the free CPUs. batch_size matches extract_pages' byte-aware 16-row
    bundles (each row is a full HTML parse)."""
    return ds.map_batches(DocStage(LINKS), batch_format="pyarrow",
                          batch_size=batch_size)


def host_edges(links_ds):
    """Dataset[src_url, dst_url, ...] → Dataset[src_host, dst_host,
    weight] — host-level edge list with parallel-edge counts of the
    ``status == "ok"`` rows. Partial combine per batch; only (host, host,
    count) rows shuffle."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        batch = ok_rows(batch)
        srcs = batch.column("src_url").to_pylist()
        dsts = batch.column("dst_url").to_pylist()
        counts: dict[tuple[str, str], int] = {}
        for s, d in zip(srcs, dsts):
            key = (canonicalize_url(s)[1], canonicalize_url(d)[1])
            counts[key] = counts.get(key, 0) + 1
        return pa.table({
            "src_host": pa.array([k[0] for k in counts], pa.string()),
            "dst_host": pa.array([k[1] for k in counts], pa.string()),
            "weight": pa.array(list(counts.values()), pa.int64()),
        })

    return (links_ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["src_host", "dst_host"])
            .aggregate(Sum("weight", alias_name="weight")))


def anchor_rollup(links_ds):
    """Dataset[dst_url, anchor, status, ...] → Dataset[(dst_host, anchor,
    n_links)] over the ``status == "ok"`` rows — anchor-term frequency per
    target host, the classic relevance/description signal for a crawled
    page (anchor text of in-links describes the TARGET).

    Same partial-combine idiom as host_edges: per-batch dict combine so
    only (host, anchor, count) rows shuffle — in-link anchor sets are
    heavy-tailed, and the partial combine absorbs the hot keys'
    within-batch mass before the groupby."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        batch = ok_rows(batch)
        dsts = batch.column("dst_url").to_pylist()
        anchors = batch.column("anchor").to_pylist()
        counts: dict[tuple[str, str], int] = {}
        for d, a in zip(dsts, anchors):
            key = (canonicalize_url(d)[1], a)
            counts[key] = counts.get(key, 0) + 1
        return pa.table({
            "dst_host": pa.array([k[0] for k in counts], pa.string()),
            "anchor": pa.array([k[1] for k in counts], pa.string()),
            "n_links": pa.array(list(counts.values()), pa.int64()),
        })

    return (links_ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["dst_host", "anchor"])
            .aggregate(Sum("n_links", alias_name="n_links")))


def _node_base(n_nodes: int, scale: int) -> tuple[int, int]:
    init = scale // n_nodes
    return init, (15 * init) // 100


class _PagerankShardImpl:
    """Actor holding one shard of the edge list as index-resolved,
    dst-sorted numpy arrays. Built ONCE (host searchsorted + sort +
    segment boundaries at init); each power iteration is then a single
    vectorized ``contrib(ranks)`` call returning the shard's sparse
    (dst_index, contribution_sum) pair — the shared-read-only-index case
    where a raw actor beats re-launching a Dataset pipeline per
    iteration."""

    def __init__(self, hosts: np.ndarray, out_w: np.ndarray, block_refs):
        import ray
        tbls = [t for t in ray.get(list(block_refs)) if t.num_rows]
        if not tbls:
            self._si = np.empty(0, np.int64)
            self._w = np.empty(0, np.int64)
            self._ow_si = np.empty(0, np.int64)
            self._uniq = np.empty(0, np.int64)
            self._starts = np.empty(0, np.int64)
            return
        edges = pa.concat_tables(tbls)
        src = np.array(edges.column("src_host").to_pylist(), dtype=object)
        dst = np.array(edges.column("dst_host").to_pylist(), dtype=object)
        w = edges.column("weight").to_numpy(zero_copy_only=False)
        si = np.searchsorted(hosts, src)
        di = np.searchsorted(hosts, dst)
        order = np.argsort(di, kind="stable")
        self._si = si[order]
        self._w = w[order].astype(np.int64)
        self._ow_si = out_w[self._si]
        di_sorted = di[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = di_sorted[1:] != di_sorted[:-1]
        self._uniq = di_sorted[first]
        self._starts = np.flatnonzero(first)

    def contrib(self, ranks: np.ndarray):
        if len(self._si) == 0:
            return self._uniq, np.empty(0, np.int64)
        c = ranks[self._si] * self._w // self._ow_si
        return self._uniq, np.add.reduceat(c, self._starts)


def pagerank(edges_ds, iters: int = 5, scale: int = SCALE,
             broadcast_limit: int = 10_000_000, num_partitions: int = 8):
    """Dataset[src_host, dst_host, weight] → Dataset[host, rank] after
    ``iters`` integer-exact power iterations (see module docstring for
    the update rule). Deterministic: same edges → bit-identical ranks.
    Overflow bound: rank ≤ scale, so rank·weight stays in int64 while
    max edge weight < 2^63/scale (~9.2M at the default scale=10^12 —
    lower `scale` for graphs with heavier parallel-edge counts)."""
    import ray
    from ray.data.aggregate import Sum

    edges = edges_ds.materialize()           # re-read every iteration

    # ONE fused shuffle computes the node table AND out-weights: every
    # src row contributes its weight, every dst row contributes 0, so
    # groupby(host).Sum gives (host, out_w) with dangling hosts at 0 —
    # previously two separate groupby jobs whose fixed cost dominated
    # small graphs (r3: ~2 s of the 4 s pagerank tail at sf0.1).
    _empty_nodes = pa.table({"host": pa.array([], pa.string()),
                             "out_w": pa.array([], pa.int64())})

    def node_partials(batch: pa.Table) -> pa.Table:
        # vectorized: stack (src, weight) over (dst, 0) and run one Arrow
        # hash-groupby per batch — the host_rollup idiom, no per-row loop
        import pyarrow.compute as pc
        if batch.num_rows == 0:   # empty groupby drops the schema
            return _empty_nodes
        src_t = pa.table({"host": batch.column("src_host"),
                          "out_w": pc.cast(batch.column("weight"),
                                           pa.int64())})
        dst_t = pa.table({"host": batch.column("dst_host"),
                          "out_w": pa.array(
                              np.zeros(batch.num_rows, dtype=np.int64))})
        agg = pa.TableGroupBy(pa.concat_tables([src_t, dst_t]),
                              "host").aggregate([("out_w", "sum")])
        return pa.table({"host": agg.column("host"),
                         "out_w": agg.column("out_w_sum")})

    node_ds = edges.map_batches(node_partials, batch_format="pyarrow") \
        .groupby("host").aggregate(Sum("out_w", alias_name="out_w")) \
        .materialize()
    n_nodes = node_ds.count()
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "host": pa.array([], pa.string()),
            "rank": pa.array([], pa.int64())}))
    init, base = _node_base(n_nodes, scale)

    if n_nodes > broadcast_limit:
        hosts_ds = node_ds.select_columns(["host"])
        out_w_ds = node_ds.map_batches(
            lambda b: b.rename_columns(["src_host", "out_w"]),
            batch_format="pyarrow")
        return _pagerank_distributed(edges, hosts_ds, out_w_ds, iters,
                                     init, base, num_partitions)

    # broadcast path: ranks live on the driver (n_nodes ≤ limit); the
    # edge list is indexed ONCE into per-shard sorted numpy arrays held
    # by a small actor pool, so each of the K iterations is P actor RPCs
    # running pure segment-sum kernels — no Dataset job, shuffle, or
    # driver-side groupby per iteration (the r3 verdict's K-driver-syncs
    # cost: 8.7–10 s at sf0.1 came almost entirely from K pipeline
    # launches, not the arithmetic).
    # stream the node table to the driver as Arrow blocks (ranks must
    # live driver-side on this path) and sort once in Arrow — no per-row
    # Python dicts. Driver RSS is dominated by the host-string objects:
    # ~100 B/host, so broadcast_limit=10M keeps the table around 1 GB;
    # larger graphs take the fully distributed fallback.
    import pyarrow.compute as pc
    node_tbl = pa.concat_tables(
        [t for t in ray.get(node_ds.to_arrow_refs()) if t.num_rows])
    order = pc.sort_indices(node_tbl,
                            sort_keys=[("host", "ascending")])
    node_tbl = node_tbl.take(order)
    hosts = np.array(node_tbl.column("host").to_pylist(), dtype=object)
    out_w = node_tbl.column("out_w").to_numpy(
        zero_copy_only=False).astype(np.int64)
    del node_tbl
    ranks = np.full(len(hosts), init, dtype=np.int64)

    hosts_ref = ray.put(hosts)
    ow_ref = ray.put(out_w)
    block_refs = edges.to_arrow_refs()
    n_edges = edges.count()
    # one shard actor per ~250k edges: a tiny graph pays for ONE actor
    # spawn, a 100-TB host graph fans out to the pool. Hard-capped at
    # half the cluster's CPUs — each shard holds a num_cpus=1 slot for
    # its lifetime, and a pool that outsizes the cluster leaves actors
    # pending forever with the driver's ray.get hung on them.
    cpu_cap = max(1, int(ray.cluster_resources().get("CPU", 2) * 0.5))
    n_actors = max(1, min(len(block_refs), 8, cpu_cap,
                          1 + n_edges // 250_000))
    shard_cls = ray.remote(num_cpus=1)(_PagerankShardImpl)
    shards = [
        shard_cls.remote(hosts_ref, ow_ref, block_refs[i::n_actors])
        for i in range(n_actors)
    ]
    try:
        for _ in range(iters):
            ranks_ref = ray.put(ranks)
            parts = ray.get([s.contrib.remote(ranks_ref)
                             for s in shards])
            acc = np.zeros(len(hosts), dtype=np.int64)
            for di, sums in parts:
                np.add.at(acc, di, sums)
            ranks = base + (85 * acc) // 100
    finally:
        for s in shards:
            ray.kill(s)

    return ray.data.from_arrow(pa.table({
        "host": pa.array(list(hosts), pa.string()),
        "rank": pa.array(ranks, pa.int64()),
    }))


def _pagerank_distributed(edges, hosts_ds, out_w_ds, iters: int,
                          init: int, base: int, num_partitions: int):
    """Fallback past broadcast_limit: ranks stay a Dataset; each
    iteration = one hash join (rank+out_w onto edges by src_host) + one
    contrib groupby + a zero-row union so rank-less hosts keep base.
    No driver-side node table at any point."""
    from ray.data.aggregate import Sum
    from .joins import hash_join

    # (host, out_w) per node; dangling hosts keep out_w=0 and never match
    # an edge's src side, so they only ever receive base.
    ranks = hosts_ds.map_batches(
        lambda b: pa.table({"host": b.column("host"),
                            "rank": pa.array(
                                np.full(b.num_rows, init, np.int64))}),
        batch_format="pyarrow")

    for _ in range(iters):
        joined = hash_join(
            edges, hash_join(ranks.map_batches(
                lambda b: b.rename_columns(["src_host", "rank"]),
                batch_format="pyarrow"), out_w_ds,
                on="src_host", num_partitions=num_partitions),
            on="src_host", num_partitions=num_partitions)

        def contrib(batch: pa.Table) -> pa.Table:
            rk = batch.column("rank").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            ow = batch.column("out_w").to_numpy(zero_copy_only=False)
            return pa.table({"host": batch.column("dst_host"),
                             "c": pa.array(rk * w // ow, pa.int64())})

        zero = hosts_ds.map_batches(
            lambda b: pa.table({"host": b.column("host"),
                                "c": pa.array(
                                    np.zeros(b.num_rows, np.int64))}),
            batch_format="pyarrow")
        ranks = (joined.map_batches(contrib, batch_format="pyarrow")
                 .union(zero).groupby("host")
                 .aggregate(Sum("c", alias_name="c"))
                 .map_batches(
                     lambda b: pa.table({
                         "host": b.column("host"),
                         "rank": pa.array(
                             base + 85 * b.column("c").to_numpy(
                                 zero_copy_only=False) // 100,
                             pa.int64())}),
                     batch_format="pyarrow"))

    return ranks
