"""Learned rule profitability.

The optimizer applies every relevant semantic rule whose transformation the
profitability analyzer approves — but the analyzer reasons from *estimates*.
Rules whose rewrites look profitable on paper can consistently lose on the
real data (a "selective" introduced predicate that matches everything, an
index whose column is pathologically skewed).  :class:`RulePayoffTracker`
keeps the ground truth: sampled A/B executions compare the optimized query
against the original on measured cost, and each rule that fired in the
winning-or-losing rewrite has its per-rule counters updated.

Counters are keyed by the constraint repository's ``class_epochs`` for the
rule's referenced classes: when the underlying data changes the rules on
those classes (the epochs move), the accumulated evidence describes a
database that no longer exists, so the counters reset rather than demote a
rule on stale history.

A rule is **demoted** once it has ``min_trials`` trials with a win rate
below ``demote_threshold``; the owning service then filters it out of
optimization (it stays declared in the repository — demotion is a planner
decision, not a schema change).  Because epoch movement resets the
evidence, demotion is self-healing: after the data shifts, the rule gets a
fresh hearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass
class RuleRecord:
    """Evidence accumulated for one rule under one epoch of its classes."""

    epochs: Tuple = ()
    trials: int = 0
    wins: int = 0
    #: Hit-rate weighting: wins scaled by their measured cost ratio, so a
    #: rewrite that wins 10x counts for more than one that wins 1.01x.
    weighted_wins: float = 0.0

    @property
    def win_rate(self) -> float:
        """Fraction of trials the rule's rewrite won."""
        if self.trials == 0:
            return 1.0
        return self.wins / self.trials


class RulePayoffTracker:
    """Per-rule A/B outcome counters with epoch-keyed reset."""

    def __init__(
        self, min_trials: int = 5, demote_threshold: float = 0.25
    ) -> None:
        self.min_trials = max(1, min_trials)
        self.demote_threshold = demote_threshold
        self._records: Dict[str, RuleRecord] = {}
        self._demoted: Dict[str, int] = {}
        self.trials = 0
        self.demotions = 0
        self.reinstatements = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        rules: Iterable[Tuple[str, Tuple]],
        won: bool,
        cost_ratio: float = 1.0,
    ) -> bool:
        """Fold one A/B outcome into every rule that fired.

        ``rules`` pairs each fired rule's name with the current
        ``class_epochs`` tuple of *its* referenced classes (rules
        reference different class sets, so the epoch key is per-rule).
        ``won`` is whether the optimized execution beat the
        original on measured cost; ``cost_ratio`` is
        ``original / optimized`` (>1 for wins).  Returns True when the
        demotion set changed (the caller must then invalidate plan
        caches).
        """
        changed = False
        self.trials += 1
        for name, epochs in rules:
            record = self._records.get(name)
            if record is None or record.epochs != epochs:
                # Data moved under the rule: old evidence is void.
                record = RuleRecord(epochs=epochs)
                self._records[name] = record
                if name in self._demoted:
                    del self._demoted[name]
                    self.reinstatements += 1
                    changed = True
            record.trials += 1
            if won:
                record.wins += 1
                record.weighted_wins += max(1.0, cost_ratio)
            if (
                record.trials >= self.min_trials
                and record.win_rate < self.demote_threshold
            ):
                if name not in self._demoted:
                    self._demoted[name] = record.trials
                    self.demotions += 1
                    changed = True
            elif name in self._demoted:
                del self._demoted[name]
                self.reinstatements += 1
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_demoted(self, rule_name: str) -> bool:
        """Whether ``rule_name`` is currently demoted."""
        return rule_name in self._demoted

    def demoted(self) -> List[str]:
        """Currently demoted rules, sorted."""
        return sorted(self._demoted)

    def record(self, rule_name: str) -> RuleRecord:
        """The (possibly empty) evidence record for one rule."""
        return self._records.get(rule_name, RuleRecord())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Counters plus per-rule evidence, for stats payloads."""
        return {
            "trials": self.trials,
            "demotions": self.demotions,
            "reinstatements": self.reinstatements,
            "demoted": self.demoted(),
            "rules": {
                name: {
                    "trials": record.trials,
                    "wins": record.wins,
                    "win_rate": round(record.win_rate, 4),
                    "weighted_wins": round(record.weighted_wins, 3),
                }
                for name, record in sorted(self._records.items())
            },
        }
