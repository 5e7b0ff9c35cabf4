"""graph6 codec against frozen bytes and the networkx implementation."""

import random

import networkx as nx
import pytest

from dwturan import Graph, complete_graph, graph6_decode, graph6_encode


def random_graph(n, p, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def test_k3_is_Bw():
    assert graph6_encode(complete_graph(3)) == "Bw"


def test_single_vertex_is_at():
    assert graph6_encode(Graph(1)) == "@"


def test_decode_header_prefix():
    assert graph6_decode(">>graph6<<Bw") == complete_graph(3)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_small(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(0, 12), rng.random(), rng)
    assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_large_order():
    # orders above 62 use the 3-byte length form
    rng = random.Random(99)
    g = random_graph(70, 0.1, rng)
    text = graph6_encode(g)
    assert text.startswith("~")
    assert graph6_decode(text) == g


def test_matches_networkx_encoder():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 25), rng.random(), rng)
        ours = graph6_encode(g)
        theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert ours == theirs


def test_decodes_networkx_output():
    rng = random.Random(6)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 25), rng.random(), rng)
        text = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert graph6_decode(text) == g


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("bad", [
    "",                # empty
    "B",               # truncated body for n=3
    "Bww",             # extra bytes
    "B\x1f",           # byte below 63
    "~B",              # truncated long order
])
def test_malformed_rejected(bad):
    with pytest.raises(ValueError):
        graph6_decode(bad)


def test_nonzero_padding_rejected():
    # n=2 needs 1 bit; 'w' = 111000 sets padding bits
    with pytest.raises(ValueError):
        graph6_decode("Aw")
