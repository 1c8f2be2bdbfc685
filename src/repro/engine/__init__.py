"""Execution-engine substrate.

An in-memory object store with secondary indexes, database statistics, a
conventional cost model, a simple physical planner and an executor that
measures the primitive operations a query performs.  Together they play the
role the paper's relational DBMS played in its experiments: providing the
cost of executing the original and the semantically optimized query so the
two can be compared.
"""

from .instance import ObjectInstance
from .indexes import HashIndex, IndexManager, SortedIndex
from .storage import ObjectStore, ShardedObjectStore, StorageError, StoreShard
from .statistics import AttributeStatistics, DatabaseStatistics
from .modes import ExecutionMode, create_executor
from .plan import (
    FilterNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    TraverseNode,
    plan_predicates,
)
from .cost_model import CostEstimate, CostModel, CostWeights
from .planner import ConventionalPlanner, PlanningError
from .executor import ExecutionMetrics, ExecutionResult, QueryExecutor, ShardReport
from .compiled import compile_for_binding, compile_for_class
from .vectorized import BindingBatch, VectorizedExecutor
from .parallel import ParallelExecutor

__all__ = [
    "AttributeStatistics",
    "BindingBatch",
    "ConventionalPlanner",
    "CostEstimate",
    "CostModel",
    "CostWeights",
    "DatabaseStatistics",
    "ExecutionMetrics",
    "ExecutionMode",
    "ExecutionResult",
    "FilterNode",
    "HashIndex",
    "IndexManager",
    "ObjectInstance",
    "ObjectStore",
    "ParallelExecutor",
    "PlanNode",
    "PlanningError",
    "ProjectNode",
    "QueryExecutor",
    "QueryPlan",
    "ScanNode",
    "ShardReport",
    "ShardedObjectStore",
    "SortedIndex",
    "StorageError",
    "StoreShard",
    "TraverseNode",
    "VectorizedExecutor",
    "compile_for_binding",
    "compile_for_class",
    "create_executor",
    "plan_predicates",
]
