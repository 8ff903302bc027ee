"""Shared fixtures: cached tiny models and evaluators, plus the test-only
``test-mirror`` GEMM backend.

The zoo caches trained weights on disk (``$REPRO_CACHE``), so the first test
session trains the mini models (~10 s) and later sessions load instantly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization.evaluator import ModelEvaluator
from repro.dispatch.backends import (
    GemmBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.models.export import quantize_model
from repro.training.zoo import get_pretrained


class _MirrorBackend(GemmBackend):
    """Exact dummy: delegates the product to the numpy-f64 oracle.

    Registered at import, before any test module is collected, so the
    registry-driven parametrizations in ``tests/test_backends.py`` pick it
    up — proving a backend added from *outside* the package inherits the
    whole conformance contract — and so backend-switching tests (pinned
    campaigns, forked pool workers, shared-memory manifests) have a
    non-default backend that is always available.
    """

    name = "test-mirror"

    def product_int64(self, a_q, b_q, b_f64=None):
        return get_backend("numpy-f64").product_int64(a_q, b_q, b_f64=b_f64)


if _MirrorBackend.name not in backend_names():
    register_backend(_MirrorBackend())


@pytest.fixture(scope="session")
def opt_bundle():
    return get_pretrained("opt-mini")


@pytest.fixture(scope="session")
def llama_bundle():
    return get_pretrained("llama-mini")


@pytest.fixture(scope="session")
def opt_quant(opt_bundle):
    """Calibrated quantized OPT-style model (session-shared, read-mostly).

    Tests that attach injectors/protectors must detach afterwards; prefer
    the ``opt_evaluator`` fixture's run() which does so automatically.
    """
    calibration = [row for row in opt_bundle.source.sample_batch(2, 32, key="calibration")]
    return quantize_model(opt_bundle.state, opt_bundle.config, calibration=calibration)


@pytest.fixture(scope="session")
def llama_quant(llama_bundle):
    calibration = [row for row in llama_bundle.source.sample_batch(2, 32, key="calibration")]
    return quantize_model(llama_bundle.state, llama_bundle.config, calibration=calibration)


@pytest.fixture(scope="session")
def opt_evaluator(opt_bundle):
    return ModelEvaluator(opt_bundle, "perplexity")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
