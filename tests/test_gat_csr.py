"""The attention tests of ``test_gat.py`` again, with every graph on the ELL
side of ``gat._DENSE_MAX_N``; at their sizes they otherwise take the dense side."""

import numpy as np
import pytest

from slrl import gat
from slrl.gat import stack_forward

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
def csr_layout(monkeypatch):
    monkeypatch.setattr(gat, "_DENSE_MAX_N", 0)


def test_layout_is_csr():
    stack = gat.init_gat_stack(1, 3, 3, heads=1, seed=0)
    _, caches = stack_forward(stack, np.ones((2, 3)), (np.array([0, 1, 2]), np.array([0, 1])))
    assert isinstance(caches[0].adj, gat._SparseAdjacency)
