"""Pluggable GEMM backends behind the dispatch pipeline (DESIGN.md §11, §13).

Importing this package registers the two built-in backends:

- ``numpy-f64`` — the default float64-BLAS route (the exactness oracle),
- ``native`` — opt-in compiled C int8 kernel (``csrc/gemm_int8.c``) with
  prepacked weight panels; unavailable (and degraded past with a
  WARNING) on hosts without a C compiler or prebuilt extension.

Every registered backend is exact — bit-identical to ``numpy-f64`` on
every input — and is automatically run through the differential
conformance suite in ``tests/test_backends.py`` that enforces it.
"""

from repro.dispatch.backends.base import GemmBackend
from repro.dispatch.backends.native import NativeBackend
from repro.dispatch.backends.numpy_ref import NumpyF64Backend
from repro.dispatch.backends.prepack import PREPACK, PrepackCache
from repro.dispatch.backends.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    backend_names,
    close_all_backends,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
    use_backend,
)

register_backend(NumpyF64Backend())
register_backend(NativeBackend())

__all__ = [
    "GemmBackend",
    "NumpyF64Backend",
    "NativeBackend",
    "PREPACK",
    "PrepackCache",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "backend_names",
    "close_all_backends",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
    "use_backend",
]
