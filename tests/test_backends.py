"""Cross-backend differential conformance suite (DESIGN.md section 11).

The contract is that every registered GEMM backend is exact. Each one —
plus the test-only ``test-mirror`` dummy from ``conftest.py``, proving
third-party backends inherit the whole contract, and forced
configurations of ``native`` (the portable C build, row-partitioned
threading) that the host's default build may never take — is held to
**bit-equality** with an independent int64 oracle and with the
``numpy-f64`` reference route:

- adversarial shapes: empty/1x1/ragged tiles, k straddling the native
  kernel's int32 accumulation block, stacked batched operands, full int8
  range incl. -128;
- overflow semantics pinned against ``wrap_int32``/``saturate_int32`` at
  wraparound-triggering magnitudes;
- seeded property-based fuzz (hypothesis when importable, seeded random
  shapes otherwise);
- engine-level end-to-end equality: logits, injector RNG counters,
  protector statistics, and cost columns, solo and lane-packed;
- registry selection and campaign key/provenance rules.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.abft.protectors import ClassicalABFT
from repro.campaigns.executor import evaluate_trial, run_campaign
from repro.campaigns.lanes import evaluate_lane_pack
from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec, Trial
from repro.campaigns.store import ResultStore
from repro.dispatch.backends import (
    GemmBackend,
    native,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.dispatch.backends.registry import (
    ENV_VAR,
    backend_names,
    register_backend,
)
from repro.errors.injector import ErrorInjector
from repro.errors.models import BitFlipModel
from repro.errors.sites import Component, SiteFilter
from repro.models.quantized import GemmExecutor
from repro.quant.gemm import INT32_MAX, gemm_int32, saturate_int32, wrap_int32

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The test-only exact backend registered by ``conftest.py``.
MIRROR = "test-mirror"


class _UnavailableBackend(GemmBackend):
    name = "test-unavailable"

    def available(self):
        return False

    def why_unavailable(self):
        return "always offline (test)"

    def product_int64(self, a_q, b_q, b_f64=None):  # pragma: no cover
        raise AssertionError("unavailable backend must never run")


class _NativeVariant(native.NativeBackend):
    """The ``native`` kernel under a forced configuration.

    ``portable`` compiles the kernel without ``-march=native``, so the
    portable C path runs even on AVX512-VNNI hosts. ``threads`` partitions
    the row dimension across that many threads on every multi-row product,
    ragged chunks included. Not registered: tests pass the instance.
    """

    def __init__(self, name, *, portable=False, threads=None):
        super().__init__()
        self.name = name
        self._portable = portable
        if threads is not None:
            self._n_threads = threads
            self._min_rows_per_thread = 1

    def _load(self):
        if not self._portable or self._checked:
            return super()._load()
        self._checked = True
        compiler = native._find_compiler()
        if os.environ.get(native.ENV_DISABLE) or compiler is None:
            self._error = "the portable build needs a C compiler"
            return None
        source = native.SOURCE_PATH.read_bytes()
        digest = native._source_digest(source, compiler)
        lib = native.build_dir() / f"gemm_int8-portable-{digest}.so"
        if not lib.exists():
            lib.parent.mkdir(parents=True, exist_ok=True)
            tmp = lib.with_name(f"{lib.name}.tmp.{os.getpid()}")
            cmd = [compiler, *native._BASE_FLAGS, "-o", str(tmp), str(native.SOURCE_PATH)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                self._error = proc.stderr[-500:]
                return None
            os.replace(tmp, lib)
        self._kernel = native._Kernel(lib, origin="portable")
        return self._kernel


NATIVE_VARIANTS = {
    v.name: v
    for v in (
        _NativeVariant("test-native-portable", portable=True),
        _NativeVariant("test-native-split3", threads=3),
        _NativeVariant("test-native-portable-split3", portable=True, threads=3),
    )
}


def _lookup(name):
    """A registered backend by name, or one of the native variants."""
    return NATIVE_VARIANTS.get(name) or get_backend(name)


def _available(name):
    backend = _lookup(name)
    if not backend.available():
        pytest.skip(f"{name} unavailable: {backend.why_unavailable()}")
    return backend


#: Registry snapshot at collection (the built-in backends + the mirror),
#: then the native variants, which are checked for availability per test.
ALL_BACKENDS = tuple(backend_names())
AVAILABLE_BACKENDS = tuple(n for n in ALL_BACKENDS if get_backend(n).available())
CONFORMANCE_BACKENDS = ALL_BACKENDS + tuple(NATIVE_VARIANTS)
ALTERNATE_BACKENDS = tuple(
    n for n in AVAILABLE_BACKENDS if n != "numpy-f64"
) + tuple(NATIVE_VARIANTS)


def _oracle_int32(a, b, wraparound=True):
    """Independent reference: int64 matmul + accumulator semantics."""
    exact = a.astype(np.int64) @ b.astype(np.int64)
    if (
        a.dtype == np.int8
        and b.dtype == np.int8
        and a.shape[-1] * 127 * 127 <= INT32_MAX
    ):
        return exact
    return wrap_int32(exact) if wraparound else saturate_int32(exact)


def _int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


# ------------------------------------------------------------- kernel level
#: The native kernel's int32 accumulation block (``KBLOCK`` in
#: ``csrc/gemm_int8.c``): partial sums widen to int64 at this boundary.
K_BLOCK = 32768

#: Adversarial shapes: degenerate dims, ragged tiles, and k values
#: straddling the accumulation block boundary.
SHAPES = [
    ((0, 4), (4, 3)),
    ((4, 0), (0, 3)),
    ((1, 1), (1, 1)),
    ((1, 7), (7, 1)),
    ((17, 33), (33, 9)),
    ((3, K_BLOCK - 1), (K_BLOCK - 1, 2)),
    ((3, K_BLOCK), (K_BLOCK, 2)),
    ((3, K_BLOCK + 1), (K_BLOCK + 1, 2)),
    ((5, 2 * K_BLOCK + 32), (2 * K_BLOCK + 32, 4)),
    ((2, 3, 8, 16), (2, 3, 16, 8)),
]


@pytest.mark.parametrize("name", CONFORMANCE_BACKENDS)
class TestKernelConformance:
    """Every backend == the int64 oracle, bit for bit, on every input."""

    def _backend(self, name):
        return _available(name)

    @pytest.mark.parametrize("a_shape,b_shape", SHAPES)
    def test_adversarial_shapes(self, name, a_shape, b_shape):
        backend = self._backend(name)
        rng = np.random.default_rng(hash((name, a_shape)) % (2**32))
        a, b = _int8(rng, a_shape), _int8(rng, b_shape)
        np.testing.assert_array_equal(
            backend.matmul_int32(a, b), _oracle_int32(a, b)
        )

    def test_full_int8_range_including_minus_128(self, name):
        backend = self._backend(name)
        codes = np.arange(-128, 128, dtype=np.int8)
        a = np.tile(codes, (4, 1))
        b = np.tile(codes[:, None], (1, 6))
        np.testing.assert_array_equal(
            backend.matmul_int32(a, b), _oracle_int32(a, b)
        )

    @pytest.mark.parametrize("wraparound", [True, False])
    def test_overflow_semantics_pinned(self, name, wraparound):
        """Saturation-boundary magnitudes: k·127² far beyond INT32_MAX with
        ±127 fill (quantizer-range codes, matching the bypass guard)."""
        backend = self._backend(name)
        k = 140_000
        a = np.full((2, k), 127, dtype=np.int8)
        a[1] = -127
        b = np.full((k, 3), 127, dtype=np.int8)
        b[:, 1] = -127
        got = backend.matmul_int32(a, b, wraparound=wraparound)
        expected = _oracle_int32(a, b, wraparound=wraparound)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype
        # the case must actually trigger overflow handling to mean anything
        exact = a.astype(np.int64) @ b.astype(np.int64)
        assert np.abs(exact).max() > INT32_MAX

    def test_b_f64_mirror_is_equivalent(self, name):
        backend = self._backend(name)
        rng = np.random.default_rng(11)
        a, b = _int8(rng, (9, 40)), _int8(rng, (40, 7))
        np.testing.assert_array_equal(
            backend.matmul_int32(a, b, b_f64=b.astype(np.float64)),
            backend.matmul_int32(a, b),
        )

    def test_matmul_f64_bypass_is_exact(self, name):
        """The bypass product must be the exact integer result in float64."""
        backend = self._backend(name)
        rng = np.random.default_rng(13)
        a, b = _int8(rng, (8, 64)), _int8(rng, (64, 5))
        got = backend.matmul_f64(a, b)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, (a.astype(np.int64) @ b.astype(np.int64)).astype(np.float64)
        )

    def test_fuzz_random_shapes(self, name):
        backend = self._backend(name)
        try:
            from hypothesis import given, settings, strategies as st

            @settings(max_examples=40, deadline=None)
            @given(
                m=st.integers(0, 9),
                k=st.one_of(
                    st.integers(0, 9),
                    st.sampled_from([K_BLOCK - 1, K_BLOCK, K_BLOCK + 1]),
                ),
                n=st.integers(0, 9),
                seed=st.integers(0, 2**31 - 1),
            )
            def check(m, k, n, seed):
                rng = np.random.default_rng(seed)
                a, b = _int8(rng, (m, k)), _int8(rng, (k, n))
                np.testing.assert_array_equal(
                    backend.matmul_int32(a, b), _oracle_int32(a, b)
                )

            check()
        except ImportError:  # pragma: no cover - hypothesis is in the image
            rng = np.random.default_rng(99)
            for _ in range(40):
                m, n = rng.integers(0, 10, size=2)
                k = int(
                    rng.choice(
                        [0, 1, 3, 8, K_BLOCK - 1, K_BLOCK, K_BLOCK + 1]
                    )
                )
                a, b = _int8(rng, (m, k)), _int8(rng, (k, n))
                np.testing.assert_array_equal(
                    backend.matmul_int32(a, b), _oracle_int32(a, b)
                )


class TestNativeVariants:
    """The forced native configurations take the routes they exist for."""

    def test_portable_variant_runs_the_portable_kernel(self):
        backend = _available("test-native-portable")
        assert backend._load().isa == 0
        assert "[portable]" in backend.kernel()

    def test_split_variant_partitions_ragged_rows(self, rng, monkeypatch):
        backend = _available("test-native-split3")
        kernel = backend._load()
        gemm_rows = kernel.gemm_rows
        spans = []

        def spy(a2d, packed, k, n, row0, row1, out):
            spans.append((row0, row1))
            gemm_rows(a2d, packed, k, n, row0, row1, out)

        monkeypatch.setattr(kernel, "gemm_rows", spy)
        a, b = _int8(rng, (17, 33)), _int8(rng, (33, 9))
        np.testing.assert_array_equal(
            backend.product_int64(a, b), _oracle_int32(a, b)
        )
        assert sorted(spans) == [(0, 6), (6, 12), (12, 17)]

    def test_builds_never_share_a_prepacked_weight(self, rng):
        """One weight buffer packed by the host build and by the portable
        build: each must get a panel in its own layout from the cache."""
        host = _available("native")
        portable = _available("test-native-portable")
        a, b = _int8(rng, (6, 40)), _int8(rng, (40, 20))
        b_f64 = b.astype(np.float64)
        expected = _oracle_int32(a, b)
        for backend in (host, portable, host):
            np.testing.assert_array_equal(
                backend.matmul_int32(a, b, b_f64=b_f64), expected
            )


class TestGemmInt32Delegation:
    """quant.gemm.gemm_int32 is a thin dispatcher over the registry."""

    def test_backend_argument_accepts_names_and_instances(self, rng):
        a, b = _int8(rng, (6, 20)), _int8(rng, (20, 4))
        expected = _oracle_int32(a, b)
        np.testing.assert_array_equal(gemm_int32(a, b), expected)
        np.testing.assert_array_equal(gemm_int32(a, b, backend=MIRROR), expected)
        np.testing.assert_array_equal(
            gemm_int32(a, b, backend=get_backend(MIRROR)), expected
        )


# ------------------------------------------------------------ registry level
class TestRegistry:
    def test_builtin_backends_are_the_oracle_and_native(self):
        builtin = [n for n in backend_names() if not n.startswith("test-")]
        assert builtin == ["numpy-f64", "native"]

    def test_duplicate_registration_rejected(self):
        mirror = type(get_backend(MIRROR))
        with pytest.raises(ValueError, match="already registered"):
            register_backend(mirror())
        register_backend(mirror(), replace=True)  # explicit wins

    def test_get_backend_unknown_name(self):
        with pytest.raises(KeyError, match="no-such-kernel"):
            get_backend("no-such-kernel")

    def test_resolve_default_and_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend().name == "numpy-f64"
        monkeypatch.setenv(ENV_VAR, MIRROR)
        assert resolve_backend().name == MIRROR
        assert resolve_backend("numpy-f64").name == "numpy-f64"  # explicit wins

    @pytest.mark.parametrize(
        "name", ["no-such-kernel", "numpy-int", "blocked", "auto"]
    )
    def test_resolve_unknown_falls_back_with_warning(self, name, caplog):
        """Unknown names — including the removed ``numpy-int``, ``blocked``
        and ``auto`` backends an old environment may still name — resolve
        to the exact default with a WARNING."""
        with caplog.at_level("WARNING", logger="repro.dispatch.backends"):
            backend = resolve_backend(name)
        assert backend.name == "numpy-f64"
        assert any(name in r.message for r in caplog.records)
        with pytest.raises(KeyError):
            resolve_backend(name, strict=True)

    def test_resolve_unavailable_falls_back_with_warning(self, caplog):
        offline = _UnavailableBackend()
        with caplog.at_level("WARNING", logger="repro.dispatch.backends"):
            backend = resolve_backend(offline)
        assert backend.name == "numpy-f64"
        assert any("always offline" in r.message for r in caplog.records)
        with pytest.raises(RuntimeError, match="always offline"):
            resolve_backend(offline, strict=True)

    def test_use_backend_restores_on_exit_and_error(self):
        ex = GemmExecutor(backend="numpy-f64")
        assert ex.backend.name == "numpy-f64"
        with use_backend(ex, MIRROR) as active:
            assert active.name == MIRROR and ex.backend is active
        assert ex.backend.name == "numpy-f64"
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend(ex, MIRROR):
                raise RuntimeError("boom")
        assert ex.backend.name == "numpy-f64"
        with use_backend(ex, None) as active:  # None = keep current
            assert active is ex.backend

    def test_executor_constructor_accepts_backend(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert GemmExecutor().backend.name == "numpy-f64"
        assert GemmExecutor(backend=MIRROR).backend.name == MIRROR
        mirror = get_backend(MIRROR)
        assert GemmExecutor(backend=mirror).backend is mirror


class TestSpawnPropagation:
    """$REPRO_GEMM_BACKEND reaches fresh interpreters (spawn workers).

    The probe registers its own copy of the mirror backend, as a plugin
    would, before building an executor from the environment.
    """

    PROBE = (
        "from repro.dispatch.backends import GemmBackend, register_backend\n"
        "from repro.models.quantized import GemmExecutor\n"
        "class Mirror(GemmBackend):\n"
        f"    name = {MIRROR!r}\n"
        "register_backend(Mirror())\n"
        "print(GemmExecutor().backend.name)\n"
    )

    def _spawn(self, env_value):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        if env_value is None:
            env.pop(ENV_VAR, None)
        else:
            env[ENV_VAR] = env_value
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_env_var_selects_backend_in_fresh_process(self):
        assert self._spawn(MIRROR) == MIRROR
        assert self._spawn(None) == "numpy-f64"

    def test_unknown_env_value_degrades_to_default(self):
        """Mixed-availability pools must degrade loudly, never answer wrong."""
        assert self._spawn("no-such-kernel") == "numpy-f64"


# ------------------------------------------------------------- engine level
def _trial(seed=0, method="none"):
    return Trial(
        model="opt-mini",
        task="perplexity",
        site=SiteSpec.only(components=["O"], stages=["prefill"]),
        error=ErrorSpec.bitflip(2e-3, bits=(30,)),
        method=method,
        seed=seed,
    )


#: TrialResult columns in the bit-exactness contract (elapsed_s / worker /
#: backend are telemetry and provenance, explicitly excluded).
RESULT_FIELDS = (
    "score", "degradation", "clean_score", "injected_errors", "gemm_calls",
    "cycles", "recovered_macs", "energy_j",
)


class TestEngineEquivalence:
    """Exact backends are interchangeable at the engine level, bit for bit."""

    def _forward(self, model, tokens, backend, seed=7):
        injector = ErrorInjector(
            BitFlipModel(2e-3, bits=(30,)),
            SiteFilter.only(components=[Component.O]),
            seed=seed,
        )
        protector = ClassicalABFT()
        model.attach(injector, protector)
        try:
            with use_backend(model.executor, backend):
                logits = model.forward_full(tokens)
        finally:
            model.attach(None, None)
        return logits, injector, protector

    @pytest.mark.parametrize("name", ALTERNATE_BACKENDS)
    def test_forward_full_logits_rng_and_protector(self, name, opt_quant):
        backend = _available(name)
        vocab = opt_quant.config.vocab_size
        tokens = np.stack([(np.arange(24) * (1 + i)) % vocab for i in range(2)])
        ref, ref_inj, ref_prot = self._forward(opt_quant, tokens, "numpy-f64")
        got, inj, prot = self._forward(opt_quant, tokens, backend)
        np.testing.assert_array_equal(ref, got)
        assert inj._call_index == ref_inj._call_index
        assert inj.stats.injected_errors == ref_inj.stats.injected_errors
        assert inj.stats.per_site_errors == ref_inj.stats.per_site_errors
        assert prot.stats.inspected == ref_prot.stats.inspected
        assert prot.stats.detected == ref_prot.stats.detected
        assert prot.stats.recovered == ref_prot.stats.recovered

    @pytest.mark.parametrize("name", ALTERNATE_BACKENDS)
    def test_trial_columns_solo_and_lane_packed(self, name, opt_evaluator):
        from repro.dispatch.cost import CostSpec

        backend = _available(name)
        trials = [_trial(seed=s) for s in (0, 1, 2)]
        cost = CostSpec()
        resident = opt_evaluator.model.executor.backend.name
        ref = [
            evaluate_trial(t, opt_evaluator, cost=cost, backend="numpy-f64")
            for t in trials
        ]
        solo = [
            evaluate_trial(t, opt_evaluator, cost=cost, backend=backend)
            for t in trials
        ]
        packed = evaluate_lane_pack(
            trials, opt_evaluator, cost=cost, backend=backend
        )
        for r, s, p in zip(ref, solo, packed):
            for field in RESULT_FIELDS:
                assert getattr(r, field) == getattr(s, field), field
                assert getattr(r, field) == getattr(p, field), field
        assert all(r.backend == name for r in solo + packed)
        # use_backend restored whatever backend the shared evaluator had
        # (the session default, which CI pins via $REPRO_GEMM_BACKEND).
        assert opt_evaluator.model.executor.backend.name == resident


# ------------------------------------------------------------ campaign level
class TestCampaignBackend:
    def test_exact_backend_never_changes_trial_keys(self):
        spec = CampaignSpec(
            name="k", models=("opt-mini",),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=(0, 1),
        )
        pinned = dataclasses.replace(spec, backend=MIRROR)
        assert [t.key for t in spec.expand()] == [t.key for t in pinned.expand()]
        assert [t.cell_label for t in spec.expand()] == [
            t.cell_label for t in pinned.expand()
        ]

    def test_unknown_backend_rejected_at_spec_validation(self):
        with pytest.raises(KeyError, match="no-such-kernel"):
            CampaignSpec(
                name="k", models=("opt-mini",),
                sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
                errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
                backend="no-such-kernel",
            )

    def test_spec_backend_round_trips_through_json(self):
        spec = CampaignSpec(
            name="k", models=("opt-mini",),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            backend=MIRROR,
        )
        assert CampaignSpec.from_dict(spec.to_dict()).backend == MIRROR

    @pytest.mark.parametrize("workers", [0, 2])
    def test_campaign_runs_under_pinned_backend(
        self, tmp_path, opt_bundle, workers
    ):
        """The selection reaches (forked pool) workers and lands in
        provenance — and the results dedup against the default-backend run
        (every backend is exact)."""
        spec = CampaignSpec(
            name="b", models=("opt-mini",),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=(0, 1), backend=MIRROR,
        )
        with ResultStore(tmp_path / "c") as store:
            report = run_campaign(spec, store, workers=workers)
            assert (report.executed, report.failed) == (2, 0)
            for record in store.records():
                assert record.result.backend == MIRROR
            unpinned = dataclasses.replace(spec, backend=None)
            assert run_campaign(unpinned, store, workers=0).cached == 2
