import math

import hypothesis
import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
    monkeypatch.setattr(spherical, "_CACHE",
                        spherical._LRUCache(spherical.CACHE_BYTES))
    return rows


def _dop853_rows(model, L, radii):
    """Reference (φ, φ_r, ∂φ/∂L, Φ, ∂Φ/∂L) rows by DOP853, independent of
    the piecewise series.

    L is a 1-d batch; radii are sorted, each row is (len(L), len(radii)).
    The ODE φ'' + (θ'/θ)φ' = Lφ, its L-derivative and Φ' = θφ, Ψ' = θ ∂φ/∂L
    are integrated at rtol 1e-12 from r0 = min(1e-3, 0.01/sqrt(max|L|)),
    started from φ ≈ 1 + A r² + B r⁴ (θ = r^n (1 + c2 r² + ...)), whose
    dropped r⁶ term is below 2e-15 relative there; Φ(r0) and Ψ(r0) are
    8-node Gauss-Legendre sums.  Radii up to r0 take the start polynomial.
    c2 is read off θ at ε = 1e-2, (θ(ε)/ε^n - 1)/ε²; its error of about
    c4·ε² moves the B·r0⁴ term by less than 1e-12.
    """
    L = np.asarray(L, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    M, n = L.size, model.n
    r0 = min(1e-3, 0.01 / math.sqrt(max(float(np.max(np.abs(L))), 1e-300)))
    eps = 1e-2
    c2 = (model.theta(eps) / eps**n - 1.0) / eps**2
    A = L / (2.0 * (n + 1))
    B = A * (L - 4.0 * c2) / (4.0 * (n + 3))
    A_L = 1.0 / (2.0 * (n + 1))
    B_L = (A_L * (L - 4.0 * c2) + A) / (4.0 * (n + 3))

    def start(r):
        r = np.asarray(r, dtype=float)[None, :]
        a, b, a_l, b_l = (np.reshape(c, (-1, 1)) for c in
                          np.broadcast_arrays(A, B, A_L, B_L))
        r2 = r * r
        return (1.0 + (a + b * r2) * r2, (2 * a + 4 * b * r2) * r,
                (a_l + b_l * r2) * r2, (2 * a_l + 4 * b_l * r2) * r)

    x, w = np.polynomial.legendre.leggauss(8)
    s = r0 * (x + 1) / 2
    wt = (r0 / 2) * w * model.theta(s)
    u_s, _, p_s, _ = start(s)
    y0 = np.concatenate([row[:, 0] for row in start([r0])]
                        + [u_s @ wt, p_s @ wt])

    def rhs(r, y):
        u, v, p, q = y[:M], y[M:2 * M], y[2 * M:3 * M], y[3 * M:4 * M]
        c, th = model.dlog_theta(r), model.theta(r)
        return np.concatenate([v, L * u - c * v, q, L * p + u - c * q,
                               th * u, th * p])

    far = radii > r0
    rows = [np.empty((M, radii.size), dtype=complex) for _ in range(6)]
    if np.any(~far):
        for row, val in zip(rows, start(radii[~far])):
            row[:, ~far] = val
        s = radii[~far][:, None] * (x + 1) / 2
        wt = radii[~far][:, None] / 2 * w * model.theta(s)
        u_s, _, p_s, _ = start(s.ravel())
        rows[4][:, ~far] = np.sum(u_s.reshape(M, *s.shape) * wt, axis=-1)
        rows[5][:, ~far] = np.sum(p_s.reshape(M, *s.shape) * wt, axis=-1)
    if np.any(far):
        sol = solve_ivp(rhs, (r0, radii[-1]), y0, method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=radii[far])
        assert sol.success, sol.message
        for i, row in enumerate(rows):
            row[:, far] = sol.y[i * M:(i + 1) * M]
    u, v, p, _, Phi, Psi = rows
    return {"phi": u, "dphi_dr": v, "dphi_dL": p, "Phi": Phi, "dPhi_dL": Psi}


@pytest.fixture(scope="session")
def dop853_rows():
    """The DOP853 reference rows (_dop853_rows)."""
    return _dop853_rows
