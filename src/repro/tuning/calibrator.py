"""Measured-cost calibration.

The cost model prices a query in abstract units by weighting the executor's
primitive-operation counters (instances retrieved, predicates evaluated,
pointer traversals, index lookups, rows output).  The hand-picked default
weights encode era-appropriate assumptions — I/O two orders of magnitude
above CPU — but nothing guarantees they match the machine the service is
actually running on.

:class:`CostCalibrator` closes that gap by regression: every execution
contributes one ``(counter vector, wall seconds)`` sample, and a ridge
regularized least-squares fit recovers per-operation weights denominated in
observed seconds.  The cost model holds one weight set for every engine, so
there is one reservoir and one fit: samples from every engine pool together.
The fitted weights are normalized so ``instance_retrieval == 1.0`` — the
cost model's contract is *relative* weights — and fill every
:class:`CostWeights` field.

Determinism: the sample reservoir uses Vitter's algorithm R driven by a
seeded generator, and the normal-equation solve is exact Gaussian
elimination, so identical observation streams yield identical weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from ..engine.cost_model import CostWeights
from ..engine.executor import ExecutionMetrics

#: The counter fields regressed on, in :class:`CostWeights` field order.
FEATURES: Tuple[str, ...] = (
    "instances_retrieved",
    "predicate_evaluations",
    "pointer_traversals",
    "index_lookups",
    "rows_output",
)

#: Fits explaining less of the wall-time variance than this are refused.
#: A noiseless clock over the differential-oracle workload fits at r² > 0.99
#: (``tests/tuning/test_calibration_convergence.py``); a served DB2 fit that
#: reached only 0.65 priced an index lookup at 136.7 instance retrievals,
#: where the hand weights put it at 1/20.  The floor sits between the two.
R_SQUARED_FLOOR = 0.9

#: The weight fields the fit produces, aligned with :data:`FEATURES` (in
#: :class:`CostWeights` field order: every field).
WEIGHT_FIELDS: Tuple[str, ...] = (
    "instance_retrieval",
    "predicate_evaluation",
    "pointer_traversal",
    "index_lookup",
    "result_construction",
)


def _features(metrics: ExecutionMetrics) -> Tuple[float, ...]:
    return tuple(float(getattr(metrics, name)) for name in FEATURES)


def _solve(matrix: List[List[float]], rhs: List[float]) -> Optional[List[float]]:
    """Gaussian elimination with partial pivoting; ``None`` when singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            for k in range(col, n + 1):
                a[row][k] -= factor * a[col][k]
    solution = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n] - sum(a[row][k] * solution[k] for k in range(row + 1, n))
        solution[row] = acc / a[row][row]
    return solution


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of one calibration fit."""

    sample_count: int
    weights: CostWeights
    #: Raw (seconds-denominated) weights before normalization.
    raw: Tuple[float, ...]
    #: Fraction of wall-time variance the fit explains (1.0 = perfect).
    r_squared: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for stats payloads."""
        return {
            "samples": self.sample_count,
            "r_squared": round(self.r_squared, 6),
            "weights": {
                field: getattr(self.weights, field)
                for field in WEIGHT_FIELDS
            },
        }


class CostCalibrator:
    """Accumulates execution samples and fits cost weights from them.

    Parameters
    ----------
    reservoir_size:
        Samples retained.  Once full, replacement follows
        seeded reservoir sampling, so the retained set stays a uniform
        sample of everything observed and old workload phases age out.
    min_samples:
        Fits are refused below this many samples (under-determined fits
        produce garbage weights).  A fit is also refused when its r² is
        below :data:`R_SQUARED_FLOOR`.
    ridge:
        Tikhonov regularization strength.  Query workloads produce heavily
        collinear counters (rows output tracks instances retrieved), and
        the ridge term keeps the solve stable without distorting the
        dominant weights.
    seed:
        Seeds the reservoir's generator; fits are exact, so the seed is
        the only source of variation between runs.
    """

    def __init__(
        self,
        reservoir_size: int = 256,
        min_samples: int = 24,
        ridge: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self.reservoir_size = reservoir_size
        self.min_samples = min_samples
        self.ridge = ridge
        self._random = Random(seed)
        self._samples: List[Tuple[Tuple[float, ...], float]] = []
        self._observed = 0
        self.fits = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, metrics: ExecutionMetrics, wall_time: float) -> None:
        """Record one execution's counters and wall-clock seconds."""
        if wall_time < 0:
            return
        sample = (_features(metrics), float(wall_time))
        self._observed += 1
        if len(self._samples) < self.reservoir_size:
            self._samples.append(sample)
        else:
            slot = self._random.randrange(self._observed)
            if slot < self.reservoir_size:
                self._samples[slot] = sample

    def sample_count(self) -> int:
        """Samples currently retained."""
        return len(self._samples)

    def observed_count(self) -> int:
        """Total executions ever observed."""
        return self._observed

    def ready(self) -> bool:
        """Whether enough samples are retained to attempt a fit."""
        return self.sample_count() >= self.min_samples

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def calibrate(self) -> Optional[CalibrationReport]:
        """Fit weights from the retained samples; ``None`` when not enough
        signal: too few samples, a singular solve, no positive weight, or
        an r² below :data:`R_SQUARED_FLOOR`."""
        samples = self._samples
        if len(samples) < self.min_samples:
            return None
        n = len(FEATURES)
        xtx = [[0.0] * n for _ in range(n)]
        xty = [0.0] * n
        for features, wall in samples:
            for i in range(n):
                xty[i] += features[i] * wall
                for j in range(n):
                    xtx[i][j] += features[i] * features[j]
        # Ridge term scaled per-feature (standardized ridge): each diagonal
        # grows in proportion to its own magnitude, so features counted in
        # thousands and features counted in tens are shrunk evenly.
        floor = max(xtx[i][i] for i in range(n)) or 1.0
        for i in range(n):
            xtx[i][i] = xtx[i][i] * (1.0 + self.ridge) + self.ridge * floor * 1e-9
        raw = _solve(xtx, xty)
        if raw is None:
            return None
        # Negative weights are artifacts of collinearity, not evidence that
        # an operation has negative cost; clip before normalizing.
        clipped = [max(0.0, w) for w in raw]
        anchor = clipped[0] if clipped[0] > 0 else max(clipped)
        if anchor <= 0:
            return None
        r_squared = self._r_squared(samples, raw)
        if r_squared < R_SQUARED_FLOOR:
            return None
        normalized = [w / anchor for w in clipped]
        self.fits += 1
        return CalibrationReport(
            sample_count=len(samples),
            weights=CostWeights(**dict(zip(WEIGHT_FIELDS, normalized))),
            raw=tuple(raw),
            r_squared=r_squared,
        )

    @staticmethod
    def _r_squared(
        samples: List[Tuple[Tuple[float, ...], float]], raw: List[float]
    ) -> float:
        mean = sum(wall for _, wall in samples) / len(samples)
        total = sum((wall - mean) ** 2 for _, wall in samples)
        residual = sum(
            (wall - sum(f * w for f, w in zip(features, raw))) ** 2
            for features, wall in samples
        )
        if total <= 0:
            return 1.0 if residual <= 1e-18 else 0.0
        return max(0.0, 1.0 - residual / total)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Sample counts for stats payloads."""
        return {
            "reservoir_size": self.reservoir_size,
            "fits": self.fits,
            "retained": len(self._samples),
            "observed": self._observed,
        }
