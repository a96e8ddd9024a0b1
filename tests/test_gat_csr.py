"""The attention tests of ``test_gat.py`` again, with every ELL piece cut to
two rows (``gat._PIECE_SLOTS`` = 2); at their sizes each width otherwise fits
in one piece, so here the oracle, finite-difference and equivariance checks
also cover rows split across pieces."""

import numpy as np
import pytest

from slrl import gat

from test_gat import (  # noqa: F401  collected again under this module
    test_alpha_row_sums_exposed_by_cache,
    test_attention_matches_eq_oracle,
    test_attention_rows_stochastic,
    test_backward_locality,
    test_backward_matches_finite_differences,
    test_backward_zero_upstream,
    test_empty_neighborhoods_alpha_row_sums,
    test_empty_neighborhoods_backward_matches_finite_differences,
    test_empty_neighborhoods_forward_matches_oracle,
    test_forward_matches_transcription_oracle,
    test_forward_single_forced_neighbor,
    test_forward_zero_weights_sigmoid_half,
    test_locality_of_forward,
    test_malformed_neighborhoods_raise_shape_error,
    test_permutation_equivariance,
    test_singleton_neighborhood_gives_unit_alpha,
    test_stack_two_layers_shapes,
    test_zero_weights_give_uniform_attention,
)


@pytest.fixture(autouse=True)
def two_row_pieces(monkeypatch):
    monkeypatch.setattr(gat, "_PIECE_SLOTS", 2)


def test_pieces_hold_two_rows():
    # five rows of one edge: no one-row remainder, so the last piece takes three
    pieces = gat._pieces(np.arange(6), np.arange(5), np.arange(5))
    assert [p[0].tolist() for p in pieces] == [[0, 1], [2, 3, 4]]
