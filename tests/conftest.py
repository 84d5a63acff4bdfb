import hypothesis
import numpy as np
import pytest

from harmonic import spherical


hypothesis.settings.register_profile(
    "workbench",
    max_examples=25,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("workbench")


@pytest.fixture
def ode_rows(monkeypatch):
    """λ-row count of every φ-basis integration, starting from an empty cache."""
    rows = []
    real = spherical.phi_ode_values

    def counted(model, lams, r_points, **kw):
        rows.append(np.size(lams))
        return real(model, lams, r_points, **kw)

    monkeypatch.setattr(spherical, "phi_ode_values", counted)
    monkeypatch.setattr(spherical, "_BASIS_CACHE",
                        spherical._LRUCache(spherical.BASIS_CACHE_BYTES))
    return rows
