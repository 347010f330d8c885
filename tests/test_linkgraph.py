"""Link-graph operator tests (functions/linkgraph.py): href resolution,
DOM link extraction, host-edge aggregation, integer-exact PageRank
(broadcast + distributed paths vs an independent pure-Python model)."""

import numpy as np
import pyarrow as pa
import pytest

from html_parser_ray.functions.linkgraph import (
    SCALE, _node_base, resolve_href)


# ---------------------------------------------------------------------------
# href resolution

@pytest.mark.parametrize("base,href,want", [
    ("http://a.com/d/5", "http://b.com/x", "http://b.com/x"),
    ("https://a.com/d/5", "//b.com/x", "https://b.com/x"),
    ("http://a.com/d/5", "/p/9", "http://a.com/p/9"),
    ("http://a.com/d/5", "9", "http://a.com/d/9"),
    ("http://a.com/d/sub/5", "x.html", "http://a.com/d/sub/x.html"),
    ("http://a.com", "x", "http://a.com/x"),          # no base path
    ("http://a.com/d/5", "  /p/1  ", "http://a.com/p/1"),   # strip
    ("http://a.com/d/5", "p?q=1#f", "http://a.com/d/p?q=1#f"),
])
def test_resolve_href(base, href, want):
    assert resolve_href(base, href) == want


# ---------------------------------------------------------------------------
# pure-Python PageRank model (independent of the Ray implementation)

def _model_pagerank(edge_list, iters, scale=SCALE):
    hosts = sorted({h for e in edge_list for h in e[:2]})
    init, base = _node_base(len(hosts), scale)
    ow = {}
    for s, _d, w in edge_list:
        ow[s] = ow.get(s, 0) + w
    rank = {h: init for h in hosts}
    for _ in range(iters):
        s = {h: 0 for h in hosts}
        for sh, dh, w in edge_list:
            s[dh] += rank[sh] * w // ow[sh]
        rank = {h: base + (85 * s[h]) // 100 for h in hosts}
    return rank


EDGES = [("a", "b", 2), ("b", "a", 1), ("a", "c", 1), ("d", "a", 3)]


def _edges_ds(ray, edge_list):
    return ray.data.from_arrow(pa.table({
        "src_host": pa.array([e[0] for e in edge_list], pa.string()),
        "dst_host": pa.array([e[1] for e in edge_list], pa.string()),
        "weight": pa.array([e[2] for e in edge_list], pa.int64()),
    }))


def test_pagerank_broadcast_matches_model(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import pagerank
    got = {r["host"]: r["rank"]
           for r in pagerank(_edges_ds(ray, EDGES), iters=4).take_all()}
    assert got == _model_pagerank(EDGES, 4)


def test_pagerank_distributed_matches_broadcast(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import pagerank
    ds = _edges_ds(ray, EDGES)
    want = {r["host"]: r["rank"] for r in pagerank(ds, iters=2).take_all()}
    got = {r["host"]: r["rank"]
           for r in pagerank(ds, iters=2, broadcast_limit=1,
                             num_partitions=2).take_all()}
    assert got == want == _model_pagerank(EDGES, 2)


def test_pagerank_dangling_and_sink_hosts(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import pagerank
    # c is a pure sink (no out-edges, mass dropped); d has no in-edges
    # (receives only base after iteration 1)
    edges = [("a", "c", 1), ("d", "c", 1)]
    got = {r["host"]: r["rank"]
           for r in pagerank(_edges_ds(ray, edges), iters=2).take_all()}
    model = _model_pagerank(edges, 2)
    assert got == model
    init, base = _node_base(3, SCALE)      # hosts: a, c, d
    assert got["a"] == base and got["d"] == base


def test_pagerank_empty_graph(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import pagerank
    assert pagerank(_edges_ds(ray, []), iters=3).take_all() == []


def test_pagerank_deterministic(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import pagerank
    a = pagerank(_edges_ds(ray, EDGES), iters=3).take_all()
    b = pagerank(_edges_ds(ray, EDGES), iters=3).take_all()
    assert sorted(map(str, a)) == sorted(map(str, b))


# ---------------------------------------------------------------------------
# extraction + host edges

def test_extract_links_and_host_edges(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import (
        extract_links, host_edges)
    htmls = [
        # two anchors (one relative), one href-less anchor ignored
        b"<html><body><a href='http://B.com/x'>l</a>"
        b"<a name='n'>no-href</a><a href='/p'>r</a></body></html>",
        # anchor inside a hidden div still counts (DOM semantics)
        b"<div hidden><a href='http://c.com/'>h</a></div>",
        # unclosed markup still parses (never quarantines the batch)
        b"<a href='//d.com/z'>tail",
        # a page that fails to parse is one quarantine row, never dropped
        None,
    ]
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array([f"http://a.com/d/{i}" for i in range(4)],
                        pa.string()),
        "html": pa.array(htmls, pa.binary()),
    }))
    links = extract_links(ds, batch_size=2).take_all()
    failed = [r for r in links if r["status"] != "ok"]
    assert [(r["url"], r["status"]) for r in failed] == \
        [("http://a.com/d/3", "error")]
    got = sorted((r["src_url"], r["href"], r["dst_url"]) for r in links)
    assert got == [
        ("", "", ""),
        ("http://a.com/d/0", "/p", "http://a.com/p"),
        ("http://a.com/d/0", "http://B.com/x", "http://B.com/x"),
        ("http://a.com/d/1", "http://c.com/", "http://c.com/"),
        ("http://a.com/d/2", "//d.com/z", "http://d.com/z"),
    ]

    edges = host_edges(
        extract_links(ds, batch_size=2)).take_all()
    got_e = sorted((r["src_host"], r["dst_host"], r["weight"])
                   for r in edges)
    # B.com canonicalizes to lowercase b.com; the failed page adds no edge
    assert got_e == [("a.com", "a.com", 1), ("a.com", "b.com", 1),
                     ("a.com", "c.com", 1), ("a.com", "d.com", 1)]


def test_pagerank_overflow_headroom():
    # documented bound: scale * max_weight must fit int64
    w_max = (2**63 - 1) // SCALE
    assert w_max > 9_000_000
    assert np.int64(SCALE) * np.int64(w_max) > 0


def test_anchor_text_extraction(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import extract_links
    html = (b"<html><body>"
            b"<a href='/x'>plain  text</a>"
            b"<a href='/y'><b>nested <i>markup</i></b> tail</a>"
            b"<a href='/z'></a>"
            b"<a href='/w'>\n  spaced\tout  \n</a>"
            b"</body></html>")
    tbl = pa.table({"url": pa.array(["http://h.example.com/p"], pa.string()),
                    "html": pa.array([html], pa.binary())})
    rows = extract_links(ray.data.from_arrow(tbl),
                         batch_size=4).take_all()
    by_href = {r["href"]: r["anchor"] for r in rows}
    assert by_href["/x"] == "plain text"
    assert by_href["/y"] == "nested markup tail"
    assert by_href["/z"] == ""
    assert by_href["/w"] == "spaced out"


def test_anchor_rollup_counts(ray_session):
    import ray
    from html_parser_ray.functions.linkgraph import anchor_rollup
    # the quarantine row of a failed page is not counted
    tbl = pa.table({
        "dst_url": pa.array(["http://a.example.com/1",
                             "http://a.example.com/2",
                             "http://b.example.com/1", ""], pa.string()),
        "anchor": pa.array(["home", "home", "docs", ""], pa.string()),
        "status": pa.array(["ok", "ok", "ok", "error"], pa.string()),
    })
    rows = sorted((r["dst_host"], r["anchor"], r["n_links"]) for r in
                  anchor_rollup(ray.data.from_arrow(tbl)).take_all())
    assert rows == [("a.example.com", "home", 2),
                    ("b.example.com", "docs", 1)]
