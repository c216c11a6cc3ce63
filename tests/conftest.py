import numpy as np
import pytest

import fracdrift.fgn as fgn
from fracdrift.models import build_distributed_model, build_pointwise_model, model_from_dict


@pytest.fixture
def heat3():
    """Three-mode heat truncation, H = 0.55 (fast regression workhorse)."""
    return build_distributed_model(d=1, m=1, n_modes=3, alpha=1.0, hurst=0.55)


@pytest.fixture
def heat3_singular():
    return build_distributed_model(d=1, m=1, n_modes=3, alpha=1.0, hurst=0.3)


@pytest.fixture
def pointwise8():
    """Eight-mode point-source model at the midpoint, H = 0.55."""
    return build_pointwise_model(y=0.5, n_modes=8, alpha=1.0, hurst=0.55)


@pytest.fixture
def single_mode():
    def make(a=1.0, alpha=1.0, hurst=0.55, phi=1.0):
        return custom([a], alpha, hurst, loadings=phi)

    return make


@pytest.fixture
def embedding_calls(monkeypatch):
    """Record the lag count of each circulant embedding call."""
    calls = []
    inner = fgn.circulant_embedding_eigs

    def counted(lags):
        calls.append(len(lags))
        return inner(lags)

    monkeypatch.setattr(fgn, "circulant_embedding_eigs", counted)
    return calls


def custom(eigenvalues, alpha, hurst, loadings=1.0):
    """A ``custom`` model with diagonal noise, built as the CLI builds it;
    a scalar loading applies to every mode."""
    loadings = np.broadcast_to(np.asarray(loadings, dtype=float), np.shape(eigenvalues))
    return model_from_dict({"kind": "custom", "alpha": alpha, "hurst": hurst,
                            "eigenvalues": list(eigenvalues),
                            "noise": {"kind": "diagonal", "loadings": loadings.tolist()}})


def assert_close(actual, expected, rtol, what=""):
    actual, expected = float(actual), float(expected)
    denom = max(abs(expected), 1e-300)
    rel = abs(actual - expected) / denom
    assert rel <= rtol, f"{what}: {actual!r} vs {expected!r} (rel {rel:.3g} > {rtol:g})"
