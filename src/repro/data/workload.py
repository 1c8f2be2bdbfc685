"""Workload construction for the evaluation.

Bundles together everything one experiment run needs: the evaluation schema
and constraints, a generated database instance, a precompiled constraint
repository whose grouping has been warmed with access statistics, and the
40-query workload produced by the paper's path-enumeration procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..constraints.groups import GroupingPolicy
from ..constraints.horn_clause import SemanticConstraint
from ..constraints.repository import ConstraintRepository
from ..engine.cost_model import CostModel, CostWeights
from ..engine.statistics import DatabaseStatistics
from ..query.generator import GeneratorConfig, QueryGenerator
from ..query.query import Query
from ..schema.schema import Schema
from ..schema.statistics import AccessStatistics
from . import evaluation
from .generator import (
    TABLE_4_1_SPECS,
    DatabaseGenerator,
    DatabaseSpec,
    GeneratedDatabase,
)


@dataclass
class EvaluationSetup:
    """All the moving parts of one evaluation run, wired together."""

    schema: Schema
    constraints: List[SemanticConstraint]
    database: GeneratedDatabase
    repository: ConstraintRepository
    statistics: DatabaseStatistics
    cost_model: CostModel
    queries: List[Query] = field(default_factory=list)

    @property
    def store(self):
        """The generated object store."""
        return self.database.store


def constraint_selection_pool(
    constraints: Sequence[SemanticConstraint],
) -> Dict[str, List]:
    """Selective predicates appearing in constraints, grouped by class.

    The query generator biases workload predicates toward this pool so that
    the semantic constraints actually become applicable to the workload —
    mirroring the paper's setting, where the constraints describe the same
    application domain the test queries are drawn from.
    """
    pool: Dict[str, List] = {}
    for constraint in constraints:
        for predicate in constraint.predicates():
            if not predicate.is_selection:
                continue
            pool.setdefault(predicate.left.class_name, [])
            if predicate not in pool[predicate.left.class_name]:
                pool[predicate.left.class_name].append(predicate)
    return pool


def build_workload(
    schema: Schema,
    value_catalog,
    count: int = 40,
    seed: int = 7,
    config: Optional[GeneratorConfig] = None,
    constraints: Optional[Sequence[SemanticConstraint]] = None,
) -> List[Query]:
    """The paper's workload: ``count`` randomly chosen path queries."""
    preferred = constraint_selection_pool(constraints) if constraints else None
    generator = QueryGenerator(
        schema,
        value_catalog=value_catalog,
        config=config,
        seed=seed,
        preferred_predicates=preferred,
    )
    return generator.generate_workload(count=count)


def build_evaluation_setup(
    spec: DatabaseSpec = TABLE_4_1_SPECS["DB1"],
    query_count: int = 40,
    seed: int = 7,
    grouping_policy: GroupingPolicy = GroupingPolicy.LEAST_FREQUENT,
    constraints: Optional[Sequence[SemanticConstraint]] = None,
    generator_config: Optional[GeneratorConfig] = None,
    shard_count: int = 1,
) -> EvaluationSetup:
    """Build the full evaluation setup for one database instance.

    Parameters
    ----------
    spec:
        Which Table 4.1 database instance to generate.
    query_count:
        Number of workload queries (the paper uses 40).
    seed:
        Seed shared by the data generator and the query generator.
    grouping_policy:
        Constraint grouping policy for the repository.
    constraints:
        Override the evaluation constraint set (defaults to the 15
        constraints of :mod:`repro.data.evaluation`).
    generator_config:
        Override the query-generator configuration.
    shard_count:
        Hash-partition the generated store into this many shards (the
        parallel execution path runs one pipeline per shard).  The data is
        identical for every shard count.
    """
    schema = evaluation.build_evaluation_schema()
    constraint_list = (
        list(constraints)
        if constraints is not None
        else evaluation.build_evaluation_constraints()
    )
    database = DatabaseGenerator(schema, constraint_list, seed=seed).generate(
        spec, shard_count=shard_count
    )

    queries = build_workload(
        schema,
        database.value_catalog,
        count=query_count,
        seed=seed,
        config=generator_config,
        constraints=constraint_list,
    )

    # Warm the access statistics with the workload's class usage, so that
    # the least-frequently-accessed grouping policy has something to go on.
    access = AccessStatistics()
    for query in queries:
        access.record_query(query.classes)

    repository = ConstraintRepository(
        schema, policy=grouping_policy, statistics=access
    )
    repository.add_all(constraint_list)
    repository.precompile()

    statistics = database.store.statistics()
    cost_model = CostModel(schema, statistics, CostWeights())

    return EvaluationSetup(
        schema=schema,
        constraints=constraint_list,
        database=database,
        repository=repository,
        statistics=statistics,
        cost_model=cost_model,
        queries=queries,
    )


def build_all_setups(
    specs: Optional[Dict[str, DatabaseSpec]] = None,
    query_count: int = 40,
    seed: int = 7,
) -> Dict[str, EvaluationSetup]:
    """Build the evaluation setup for every Table 4.1 database instance."""
    specs = specs or TABLE_4_1_SPECS
    return {
        name: build_evaluation_setup(spec, query_count=query_count, seed=seed)
        for name, spec in specs.items()
    }
