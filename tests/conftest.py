import json
import os
from pathlib import Path

import pytest
from hypothesis import settings

from branchrep import DirectedGraph, graph_from_json

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) draws every property's
# examples from a fixed seed, so a counterexample found there reproduces
# anywhere, and runs the oracle properties longer. Without it the run is
# hypothesis's default, randomised.
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def oracle_examples(local: int) -> int:
    """max_examples for an oracle property: ``local``, or the profile's if larger."""
    return max(local, settings.default.max_examples)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

EXAMPLE_GRAPH_PATH = FIXTURES / "example_graph.json"


@pytest.fixture(scope="session")
def example_graph() -> DirectedGraph:
    return graph_from_json(json.loads(EXAMPLE_GRAPH_PATH.read_text()))


def path_graph(n: int) -> DirectedGraph:
    """Directed path v1 -> v2 -> ... -> vn (edge ei: vi -> vi+1)."""
    doc = {
        "vertices": [f"v{i}" for i in range(1, n + 1)],
        "edges": [
            {"id": f"e{i}", "src": f"v{i}", "rng": f"v{i + 1}"} for i in range(1, n)
        ],
    }
    return graph_from_json(doc)


def star_graph(leaves: int, outward: bool) -> DirectedGraph:
    """Star with center c; edges point at the leaves iff outward."""
    doc = {
        "vertices": ["c"] + [f"l{i}" for i in range(1, leaves + 1)],
        "edges": [
            {
                "id": f"e{i}",
                "src": "c" if outward else f"l{i}",
                "rng": f"l{i}" if outward else "c",
            }
            for i in range(1, leaves + 1)
        ],
    }
    return graph_from_json(doc)


def single_edge_graph() -> DirectedGraph:
    return graph_from_json(
        {"vertices": ["u", "v"], "edges": [{"id": "e", "src": "u", "rng": "v"}]}
    )
