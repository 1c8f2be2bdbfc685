"""The semantic query optimizer (the paper's contribution, end to end).

:class:`SemanticQueryOptimizer` strings the four components of Figure 3.1
together — initialization, update-transformation-queue, transformation and
query formulation — and measures each phase, because the phase timings are
exactly what the paper's Figure 4.1 reports (query transformation time,
excluding constraint retrieval I/O).

The optimizer can be driven from a
:class:`~repro.constraints.repository.ConstraintRepository` (the normal
setup: grouping, closure and relevance filtering all happen there) or from
an explicit constraint list (convenient in unit tests and in the baseline
comparison).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..constraints.groups import RetrievalStats
from ..constraints.horn_clause import SemanticConstraint
from ..constraints.predicate import Predicate
from ..constraints.repository import ConstraintRepository
from ..query.equivalence import structurally_equal
from ..query.query import Query
from ..schema.schema import Schema
from .formulation import FormulationResult, QueryFormulator
from .initialization import InitializationResult, initialize
from .profitability import IndexProbe, ProfitabilityAnalyzer
from .queue import PriorityTransformationQueue, TransformationQueue
from .tags import PredicateTag
from .trace import OptimizationTrace
from .transformation import TransformationEngine, TransformationStats

try:  # pragma: no cover - engine is always available in-tree
    from ..engine.cost_model import CostModel
except Exception:  # pragma: no cover
    CostModel = None  # type: ignore[assignment]


@dataclass
class OptimizerConfig:
    """Behavioural switches of the optimizer.

    Parameters
    ----------
    use_priority_queue:
        Use the Section 4 priority queue instead of the FIFO queue.
    transformation_budget:
        Optional cap on the number of transformations performed; most useful
        together with the priority queue.
    enable_class_elimination:
        Apply the class elimination rule during formulation.
    use_implication:
        Let query predicates satisfy constraint antecedents by implication
        (not just verbatim match) during initialization.
    record_access_statistics:
        Update the repository's access-frequency statistics on retrieval.
    """

    use_priority_queue: bool = False
    transformation_budget: Optional[int] = None
    enable_class_elimination: bool = True
    use_implication: bool = True
    record_access_statistics: bool = True


@dataclass
class PhaseTimings:
    """Wall-clock duration of each optimizer phase, in seconds."""

    retrieval: float = 0.0
    initialization: float = 0.0
    transformation: float = 0.0
    formulation: float = 0.0

    @property
    def total(self) -> float:
        """Total optimization time."""
        return (
            self.retrieval
            + self.initialization
            + self.transformation
            + self.formulation
        )

    @property
    def transformation_only(self) -> float:
        """The paper's "query transformation time": everything except retrieval."""
        return self.initialization + self.transformation + self.formulation


@dataclass
class OptimizationResult:
    """Everything produced by one optimizer run."""

    original: Query
    optimized: Query
    trace: OptimizationTrace
    predicate_tags: Dict[Predicate, PredicateTag]
    timings: PhaseTimings
    relevant_constraints: int
    distinct_predicates: int
    eliminated_classes: List[str] = field(default_factory=list)
    retained_optional: List[Predicate] = field(default_factory=list)
    discarded_optional: List[Predicate] = field(default_factory=list)
    discarded_redundant: List[Predicate] = field(default_factory=list)
    retrieval_stats: Optional[RetrievalStats] = None
    transformation_stats: Optional[TransformationStats] = None

    @property
    def was_transformed(self) -> bool:
        """Whether the optimized query differs from the original."""
        return not structurally_equal(self.original, self.optimized)

    @property
    def transformations_applied(self) -> int:
        """Number of transformations recorded in the trace."""
        return len(self.trace)

    def summary(self) -> str:
        """A short human-readable summary for logs and examples."""
        return (
            f"{self.relevant_constraints} relevant constraints, "
            f"{self.distinct_predicates} predicates, "
            f"{self.transformations_applied} transformations, "
            f"{len(self.eliminated_classes)} classes eliminated, "
            f"transformation time {self.timings.transformation_only * 1000:.2f} ms"
        )


class SemanticQueryOptimizer:
    """The four-phase semantic query optimization pipeline."""

    def __init__(
        self,
        schema: Schema,
        repository: Optional[ConstraintRepository] = None,
        constraints: Optional[Sequence[SemanticConstraint]] = None,
        cost_model: Optional["CostModel"] = None,
        config: Optional[OptimizerConfig] = None,
        index_probe: Optional[IndexProbe] = None,
    ) -> None:
        if repository is None and constraints is None:
            raise ValueError(
                "provide either a constraint repository or an explicit "
                "constraint list"
            )
        self.schema = schema
        self.repository = repository
        self.explicit_constraints = list(constraints) if constraints else None
        self.cost_model = cost_model
        self.config = config or OptimizerConfig()
        # Live index availability for transformation and profitability
        # decisions; the static schema is only the fallback (is_indexed).
        self.index_probe = index_probe
        # Optional predicate over retrieved constraints; a service wires a
        # rule-payoff tracker here so demoted rules sit out of
        # transformation without being undeclared from the repository.
        self.rule_filter: Optional[
            Callable[[SemanticConstraint], bool]
        ] = None

    # ------------------------------------------------------------------
    # Constraint retrieval
    # ------------------------------------------------------------------
    def _retrieve(self, query: Query):
        """Fetch the relevant constraints for ``query``."""
        if self.repository is not None:
            relevant, stats = self.repository.retrieve_relevant(
                query.classes,
                query_relationships=query.relationships,
                record_access=self.config.record_access_statistics,
            )
        else:
            assert self.explicit_constraints is not None
            relevant = [
                c
                for c in self.explicit_constraints
                if c.is_relevant_to(
                    query.referenced_classes(), query.relationships
                )
            ]
            stats = RetrievalStats(
                groups_touched=0,
                fetched=len(self.explicit_constraints),
                relevant=len(relevant),
            )
        if self.rule_filter is not None:
            relevant = [c for c in relevant if self.rule_filter(c)]
        return relevant, stats

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def optimize(self, query: Query) -> OptimizationResult:
        """Run the full pipeline on ``query`` and return the result."""
        query.validate(self.schema)
        timings = PhaseTimings()

        start = time.perf_counter()
        relevant, retrieval_stats = self._retrieve(query)
        timings.retrieval = time.perf_counter() - start

        start = time.perf_counter()
        init: InitializationResult = initialize(
            query,
            relevant,
            use_implication=self.config.use_implication,
            assume_relevant=True,
        )
        timings.initialization = time.perf_counter() - start

        start = time.perf_counter()
        queue: TransformationQueue = (
            PriorityTransformationQueue()
            if self.config.use_priority_queue
            else TransformationQueue()
        )
        engine = TransformationEngine(
            init.table,
            self.schema,
            queue=queue,
            transformation_budget=self.config.transformation_budget,
            index_probe=self.index_probe,
        )
        trace = engine.run()
        timings.transformation = time.perf_counter() - start

        start = time.perf_counter()
        analyzer = ProfitabilityAnalyzer(
            self.schema,
            cost_model=self.cost_model,
            index_probe=self.index_probe,
        )
        formulator = QueryFormulator(
            self.schema,
            analyzer=analyzer,
            enable_class_elimination=self.config.enable_class_elimination,
        )
        formulation: FormulationResult = formulator.formulate(
            query, init.table, trace=trace
        )
        timings.formulation = time.perf_counter() - start

        return OptimizationResult(
            original=query,
            optimized=formulation.query,
            trace=trace,
            predicate_tags=formulation.predicate_tags,
            timings=timings,
            relevant_constraints=len(init.constraints),
            distinct_predicates=init.table.predicate_count(),
            eliminated_classes=formulation.eliminated_classes,
            retained_optional=formulation.retained_optional,
            discarded_optional=formulation.discarded_optional,
            discarded_redundant=formulation.discarded_redundant,
            retrieval_stats=retrieval_stats,
            transformation_stats=engine.stats,
        )

    def optimize_all(self, queries: Iterable[Query]) -> List[OptimizationResult]:
        """Optimize a workload of queries."""
        return [self.optimize(query) for query in queries]
