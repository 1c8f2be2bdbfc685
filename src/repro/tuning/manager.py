"""The self-tuning manager: one feedback loop, one generation counter.

:class:`SelfTuningManager` owns the three tuning components and presents
the service with a small surface:

* :meth:`observe_execution` — called after every service execution with
  the query; feeds the index advisor and counts executions, so when an
  advice pass is due is counter-based and deterministic;
* :meth:`due_advice` — polled by the service after every observed
  execution, with no store lock held, since acting on it commits a
  write;
* :meth:`should_sample_ab` — deterministic 1-in-N sampling of transformed
  queries for original-vs-optimized A/B execution;
* :meth:`observe_ab` — folds an A/B outcome into the rule payoff tracker;
* :attr:`generation` — bumped on **every externally visible tuning
  change** (index created/dropped, demotion set changed).  The service
  folds it into its cache epochs, so plans and cached results made under
  the old tuning state are never served as current.  An index action
  bumps it inside the service's write commit, in the same lock span as
  the change itself.

The manager is thread-safe: the service calls into it from executor
threads (observations) and from the mutation path (advice application),
and a single internal lock keeps the counters consistent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..query.query import Query
from .advisor import IndexAction, IndexAdvisor
from .payoff import RulePayoffTracker


@dataclass(frozen=True)
class TuningConfig:
    """Switches and thresholds of the self-tuning loop.

    ``serve --self-tune`` runs the defaults (every component on); a caller
    of :meth:`~repro.service.OptimizationService.enable_self_tuning`
    switches components off and moves thresholds through these fields.
    """

    auto_index: bool = True
    learn_rules: bool = True
    #: Executions between index-advice passes.
    advice_interval: int = 32
    #: One transformed query in this many is A/B executed.
    ab_interval: int = 8
    create_threshold: float = 16.0
    drop_threshold: float = 2.0
    decay_interval: int = 64
    min_cardinality: int = 64
    min_trials: int = 5
    demote_threshold: float = 0.25


class SelfTuningManager:
    """Bundles the index advisor and the payoff tracker for a service."""

    def __init__(self, config: Optional[TuningConfig] = None) -> None:
        self.config = config or TuningConfig()
        self.advisor = IndexAdvisor(
            create_threshold=self.config.create_threshold,
            drop_threshold=self.config.drop_threshold,
            decay_interval=self.config.decay_interval,
            min_cardinality=self.config.min_cardinality,
        )
        self.payoff = RulePayoffTracker(
            min_trials=self.config.min_trials,
            demote_threshold=self.config.demote_threshold,
        )
        self._lock = threading.Lock()
        self._executions = 0
        self._transformed = 0
        #: Bumped on every externally visible tuning change.
        self.generation = 0

    # ------------------------------------------------------------------
    # Observation hooks (called on the execute path)
    # ------------------------------------------------------------------
    def observe_execution(self, query: Query) -> None:
        """Count one execution and fold its query into the advisor."""
        with self._lock:
            self._executions += 1
            if self.config.auto_index:
                self.advisor.observe(query)

    def due_advice(self) -> bool:
        """Whether an index-advice pass is due at this point."""
        if not self.config.auto_index:
            return False
        with self._lock:
            return (
                self._executions > 0
                and self._executions % self.config.advice_interval == 0
            )

    # ------------------------------------------------------------------
    # Actions (called by the service under its own locks)
    # ------------------------------------------------------------------
    def advise(self, is_indexed, cardinality, indexable) -> List[IndexAction]:
        """Index actions the current heat justifies (see IndexAdvisor)."""
        with self._lock:
            return self.advisor.advise(is_indexed, cardinality, indexable)

    def index_applied(self, action: IndexAction) -> None:
        """Record an applied index action; bumps the generation."""
        with self._lock:
            self.advisor.applied(action)
            self.generation += 1

    # ------------------------------------------------------------------
    # Rule payoff (A/B)
    # ------------------------------------------------------------------
    def should_sample_ab(self) -> bool:
        """Deterministic 1-in-``ab_interval`` sampling of rewrites."""
        if not self.config.learn_rules:
            return False
        with self._lock:
            self._transformed += 1
            return self._transformed % self.config.ab_interval == 1

    def observe_ab(
        self,
        rules: List[Tuple[str, Tuple]],
        optimized_cost: float,
        original_cost: float,
    ) -> bool:
        """Fold one A/B outcome in; True when the demotion set changed.

        ``rules`` pairs each fired rule with the epoch tuple of its
        referenced classes (see :meth:`RulePayoffTracker.observe`).
        """
        won = optimized_cost < original_cost
        ratio = (
            original_cost / optimized_cost if optimized_cost > 0 else 1.0
        )
        with self._lock:
            changed = self.payoff.observe(rules, won, cost_ratio=ratio)
            if changed:
                self.generation += 1
            return changed

    def is_demoted(self, rule_name: str) -> bool:
        """Whether ``rule_name`` is currently demoted."""
        with self._lock:
            return self.payoff.is_demoted(rule_name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The ``tuning`` block of the service stats payload."""
        with self._lock:
            return {
                "enabled": {
                    "index": self.config.auto_index,
                    "rules": self.config.learn_rules,
                },
                "generation": self.generation,
                "executions_observed": self._executions,
                "advisor": self.advisor.snapshot(),
                "rules": self.payoff.snapshot(),
            }
