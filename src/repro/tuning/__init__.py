"""Self-tuning: closing the loop from measured executions back into the
optimizer's decision inputs.

The paper's optimizer consumes three kinds of knowledge that are fixed at
setup time in the base reproduction: the cost model's weights, the set of
indexed attributes, and the semantic constraints ("rules") worth applying.
This package makes all three *measured* quantities:

* :class:`~repro.tuning.calibrator.CostCalibrator` regresses
  :class:`~repro.engine.cost_model.CostWeights` from accumulated
  ``(ExecutionMetrics, wall_time)`` pairs, one fit for every engine, so
  estimated and measured costs are denominated in observed seconds rather
  than hand-picked constants;
* :class:`~repro.tuning.advisor.IndexAdvisor` watches which
  ``class.attribute`` pairs the workload's selective predicates actually
  touch and proposes creating (or retiring) secondary indexes;
* :class:`~repro.tuning.payoff.RulePayoffTracker` scores each semantic
  rule by how often the rewrites it produced actually won an A/B
  comparison against the unoptimized query, and demotes rules that never
  pay off.

:class:`~repro.tuning.manager.SelfTuningManager` bundles the three behind
one generation counter, the only version the tuning state has, so the
owning service can fold "the tuning state changed" into its cache epochs;
the service feeds it once per execution, and commits each weight swap and
index action through its write path, where the generation moves with the
change.  ``serve --self-tune`` switches all three on;
:class:`~repro.tuning.manager.TuningConfig` holds the switches and
thresholds a library caller can set.

Everything in this package is deterministic under a seed: the calibration
reservoir uses seeded reservoir sampling, A/B sampling is counter-based,
and the regression is exact, so two runs fed the same observations in the
same order produce identical weights, index actions and demotions.
"""

from .advisor import IndexAction, IndexAdvisor
from .calibrator import CalibrationReport, CostCalibrator
from .manager import SelfTuningManager, TuningConfig
from .payoff import RulePayoffTracker

__all__ = [
    "CalibrationReport",
    "CostCalibrator",
    "IndexAction",
    "IndexAdvisor",
    "RulePayoffTracker",
    "SelfTuningManager",
    "TuningConfig",
]
