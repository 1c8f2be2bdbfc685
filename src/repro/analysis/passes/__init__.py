"""The concrete invariant passes, one module per rule."""

from typing import List

from ..framework import AnalysisPass
from .determinism import DeterminismPass
from .engine_contract import EngineContractPass
from .lock_discipline import LockDisciplinePass
from .metrics_parity import MetricsParityPass

__all__ = [
    "DeterminismPass",
    "EngineContractPass",
    "LockDisciplinePass",
    "MetricsParityPass",
    "all_passes",
]


def all_passes() -> List[AnalysisPass]:
    """Fresh instances of every registered pass, in reporting order."""
    return [
        EngineContractPass(),
        LockDisciplinePass(),
        DeterminismPass(),
        MetricsParityPass(),
    ]
