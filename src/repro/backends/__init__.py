"""Pluggable execution backends for MegIS Step 2.

Two backends ship with the repository:

- ``python`` — the register-level reference loops (fidelity backend);
- ``numpy`` — columnar vectorized kernels over ``np.ndarray`` columns.

Both produce bit-identical results.  Every surface runs
:data:`DEFAULT_BACKEND` (``numpy``) unless a call site names another
(``MegisConfig(backend="python")``, ``IspStepTwo(..., backend="python")``,
``repro analyze --backend python``): the reference is the §4.3 / Fig 8
fidelity model and the bit-identity oracle, chosen by name only.
"""

from __future__ import annotations

from typing import Callable, Dict, Final, Tuple, Union

from repro.backends.base import (
    BucketSlice,
    PhaseTimings,
    StepTwoBackend,
    StepTwoResult,
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

#: The engine of every surface that is not handed one by name.
DEFAULT_BACKEND: Final = "numpy"


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends, alphabetical."""
    return tuple(sorted(_BACKEND_CLASSES))


def get_backend(backend: Union[str, StepTwoBackend] = DEFAULT_BACKEND) -> StepTwoBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, StepTwoBackend):
        return backend
    if backend not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        )
    if backend not in _INSTANCES:
        _INSTANCES[backend] = _BACKEND_CLASSES[backend]()
    return _INSTANCES[backend]


__all__ = [
    "DEFAULT_BACKEND",
    "BucketSlice",
    "IntColumn",
    "NumpyStepTwoBackend",
    "PhaseTimings",
    "PythonStepTwoBackend",
    "RetrievalResult",
    "SignatureTable",
    "StepTwoBackend",
    "StepTwoResult",
    "available_backends",
    "column_to_list",
    "get_backend",
]
