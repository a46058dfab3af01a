"""Pluggable execution backends for MegIS Step 2.

Two backends ship with the repository:

- ``python`` — the register-level reference loops (fidelity backend);
- ``numpy`` — columnar vectorized kernels over ``np.ndarray`` columns.

Both produce bit-identical results; select one per call site
(``MegisConfig(backend="numpy")``, ``IspStepTwo(..., backend="numpy")``,
``repro analyze --backend numpy``) or process-wide via
:func:`set_default_backend` (``python`` until something sets it).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from repro.backends.base import (
    BucketSlice,
    PhaseTimings,
    StepTwoBackend,
)
from repro.backends.numpy_backend import NumpyStepTwoBackend
from repro.backends.python_backend import PythonStepTwoBackend
from repro.backends.retrieval import IntColumn, RetrievalResult, column_to_list
from repro.backends.signatures import SignatureTable


def _paced_factory() -> StepTwoBackend:
    # Imported lazily so repro.backends.paced (which resolves its inner
    # backend through get_backend) never participates in an import cycle.
    from repro.backends.paced import PacedStepTwoBackend

    return PacedStepTwoBackend()


_BACKEND_CLASSES: Dict[str, Callable[[], StepTwoBackend]] = {
    PythonStepTwoBackend.name: PythonStepTwoBackend,
    NumpyStepTwoBackend.name: NumpyStepTwoBackend,
    "paced": _paced_factory,
}

#: Backends are stateless (columnar caches live on the database objects),
#: so one shared instance per name suffices.
_INSTANCES: Dict[str, StepTwoBackend] = {}

_default_backend: str = "python"


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends, alphabetical."""
    return tuple(sorted(_BACKEND_CLASSES))


def default_backend() -> str:
    """The process-wide default backend name."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Set the process-wide default; returns the previous default."""
    global _default_backend
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    previous = _default_backend
    _default_backend = name
    return previous


def get_backend(backend: Union[str, StepTwoBackend, None] = None) -> StepTwoBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to :func:`default_backend`.
    """
    if isinstance(backend, StepTwoBackend):
        return backend
    name = backend or _default_backend
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _BACKEND_CLASSES[name]()
    return _INSTANCES[name]


__all__ = [
    "BucketSlice",
    "IntColumn",
    "NumpyStepTwoBackend",
    "PhaseTimings",
    "PythonStepTwoBackend",
    "RetrievalResult",
    "SignatureTable",
    "StepTwoBackend",
    "available_backends",
    "column_to_list",
    "default_backend",
    "get_backend",
    "set_default_backend",
]
