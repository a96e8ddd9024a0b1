"""The attention tests of ``test_gat.py`` again, with the backward pass's
transposed aggregates built in blocks of three nodes (``gat._NODE_BLOCK`` = 3);
at their sizes the column side is otherwise one block, so here the oracle,
finite-difference, equivariance, empty-row and locality checks also cover
gradients summed over several blocks."""

import numpy as np
import pytest

from slrl import gat

from test_gat import (  # noqa: F401  collected again under this module
    test_backward_locality,
    test_backward_matches_finite_differences,
    test_backward_zero_upstream,
    test_ell_pieces_of_a_hub_graph_match_oracle_and_finite_differences,
    test_empty_neighborhoods_backward_matches_finite_differences,
    test_empty_neighborhoods_forward_matches_oracle,
    test_forward_matches_transcription_oracle,
    test_locality_of_forward,
    test_permutation_equivariance,
    test_repeated_neighbor_and_empty_rows_match_oracle_and_finite_differences,
    test_stack_two_layers_shapes,
)


@pytest.fixture(autouse=True)
def three_node_blocks(monkeypatch):
    monkeypatch.setattr(gat, "_NODE_BLOCK", 3)


@pytest.mark.parametrize(
    "n, want",
    [(1, [(0, 1)]), (6, [(0, 3), (3, 6)]), (7, [(0, 3), (3, 7)]), (8, [(0, 3), (3, 6), (6, 8)])],
)
def test_blocks_take_a_one_node_remainder(n, want):
    # a node with its own loop, so that every block has a column piece
    adj = gat._Adjacency((np.arange(n + 1), np.arange(n)), n)
    assert [(start, stop) for start, stop, _ in adj.col_blocks] == want
    assert [nodes.tolist() for nodes, _, _ in adj.cols] == [list(range(*b)) for b in want]
