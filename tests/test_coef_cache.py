"""The Volterra coefficient cache is bounded by its byte cap."""

import numpy as np

from harmonic import spherical
from harmonic.density import make_real_hyperbolic
from harmonic.grids import make_grid

H3 = make_real_hyperbolic(2)
K = 12


def test_coefficient_cache_evicts_to_its_cap(monkeypatch):
    grids = [make_grid(2.0 + 0.5 * i, spacing=0.05) for i in range(6)]
    # room for about two and a half workspaces of the largest grid
    per_ws = (2 * K + 2) * (grids[-1].nodes.size + grids[-1].points.size) * 8
    cache = spherical._LRUCache(5 * per_ws // 2)
    monkeypatch.setattr(spherical, "_COEF_CACHE", cache)
    first = spherical.volterra_coefficients(H3, grids[0], K)
    for grid in grids[1:]:
        spherical.volterra_coefficients(H3, grid, K)
        assert cache.nbytes <= cache.max_bytes
    assert cache.nbytes == sum(ws.nbytes for ws in cache._entries.values())
    assert (H3.key, grids[0].signature) not in cache._entries
    assert len(cache._entries) < len(grids)
    again = spherical.volterra_coefficients(H3, grids[0], K)
    for name in ("point_values", "node_values", "point_derivs",
                 "node_derivs"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
    assert cache.nbytes <= cache.max_bytes


def test_growing_workspace_is_counted(monkeypatch):
    cache = spherical._LRUCache(2**30)
    monkeypatch.setattr(spherical, "_COEF_CACHE", cache)
    grid = make_grid(3.0, spacing=0.05)
    spherical.volterra_coefficients(H3, grid, 4)
    small = cache.nbytes
    spherical.volterra_coefficients(H3, grid, 9)
    (ws,) = cache._entries.values()
    assert len(ws.level_nodes) == 9
    assert cache.nbytes == ws.nbytes > small
