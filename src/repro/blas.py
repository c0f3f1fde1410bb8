"""Pin every loaded OpenBLAS to one thread.

``OPENBLAS_NUM_THREADS`` is read only when the library loads, so a
process that has already imported numpy and scipy calls each library's
own thread setter instead.  Two callers: the process pool's worker
initializer (a forked worker inherits the parent's BLAS threads) and
``repro``'s CLI entry point, unless the user set the variable.
"""

from __future__ import annotations

import ctypes
import logging
from typing import List

__all__ = ["loaded_openblas", "pin_blas_threads"]

logger = logging.getLogger(__name__)

#: Thread setters of numpy's ``libscipy_openblas64_`` and scipy's
#: ``libscipy_openblas``.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def loaded_openblas() -> List[ctypes.CDLL]:
    """Every OpenBLAS already mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in maps
                if "libscipy_openblas" in line
            }
    except OSError:
        return []
    return [ctypes.CDLL(path) for path in sorted(paths)]


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread.

    Never raises, so it is safe as a pool initializer (a raising
    initializer breaks the pool).
    """
    try:
        for library in loaded_openblas():
            for name in _OPENBLAS_SETTERS:
                setter = getattr(library, name, None)
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(1)
    except Exception:  # noqa: BLE001 — pinning is best effort
        logger.debug("could not pin BLAS threads", exc_info=True)
