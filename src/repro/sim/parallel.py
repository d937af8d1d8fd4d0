"""Old import path of :func:`repro.results.run_digest`.

The benchmark harness (``perfbench/run.py``) and its tests still import
``run_digest`` from here; this module goes once they import it from
:mod:`repro.results`.
"""

from ..results import run_digest

__all__ = ["run_digest"]
