"""Self-tuning: closing the loop from measured executions back into the
optimizer's decision inputs.

The paper's optimizer consumes knowledge that is fixed at setup time in
the base reproduction: the cost model's weights, the set of indexed
attributes, and the semantic constraints ("rules") worth applying.  The
weights stay fixed (the cost model is built with them); this package
makes the other two *measured* quantities:

* :class:`~repro.tuning.advisor.IndexAdvisor` watches which
  ``class.attribute`` pairs the workload's selective predicates actually
  touch and proposes creating (or retiring) secondary indexes;
* :class:`~repro.tuning.payoff.RulePayoffTracker` scores each semantic
  rule by how often the rewrites it produced actually won an A/B
  comparison against the unoptimized query, and demotes rules that never
  pay off.

:class:`~repro.tuning.manager.SelfTuningManager` bundles the two behind
one generation counter, the only version the tuning state has, so the
owning service can fold "the tuning state changed" into its cache epochs;
the service feeds it once per execution, and commits each index action
through its write path, where the generation moves with the change.
``serve --self-tune`` switches both on;
:class:`~repro.tuning.manager.TuningConfig` holds the switches and
thresholds a library caller can set.

Everything in this package is deterministic: advice and A/B sampling are
counter-based, so two runs fed the same observations in the same order
produce identical index actions and demotions.
"""

from .advisor import IndexAction, IndexAdvisor
from .manager import SelfTuningManager, TuningConfig
from .payoff import RulePayoffTracker

__all__ = [
    "IndexAction",
    "IndexAdvisor",
    "RulePayoffTracker",
    "SelfTuningManager",
    "TuningConfig",
]
