"""Compatibility stub left where the incremental-compilation store was.

The benchmark's ``serve_mixed`` teardown still imports
:func:`reset_snapshot_stores` from this module, and the benchmark
directory changes only together with a refreeze of its baseline.  Delete
this module once that import is gone.
"""

__all__ = ["reset_snapshot_stores"]


def reset_snapshot_stores() -> None:
    """Do nothing: no snapshot store exists any more."""
