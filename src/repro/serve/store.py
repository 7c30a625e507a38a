"""The service's result store: :mod:`repro.core.store`, re-exported.

The evaluation service, the CLI, ``run_design``/``run_designs`` and
local sweeps share one :class:`ContentStore`; it lives in
:mod:`repro.core.store` so the flow can reach it.
"""

from ..core.store import ContentStore, StoreStats

__all__ = ["ContentStore", "StoreStats"]
