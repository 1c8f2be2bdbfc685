"""engine-contract: plan-node declarations and executor exhaustiveness.

Two sub-checks over the engine layer:

* ``node-declaration`` — every concrete :class:`PlanNode` subclass in
  ``engine/plan.py`` must declare ``required_columns`` in its own class
  body.  Inheriting the base-class default (no columns) silently is how a
  new node ships reading columns it never declared; the column contract
  must be a visible, reviewed decision per node.
* ``executor-coverage`` — the exhaustiveness matrix: all three executors
  (``executor.py``, ``vectorized.py``, ``parallel.py``) must handle every
  concrete node.  "Handle" means an ``isinstance`` dispatch on the node
  class, or delegation to an executor that does (the parallel engine
  inherits the vectorized engine's node set by instantiating it).  This
  fails the moment an aggregation node lands in one engine but not the
  others — before the byte-parity oracle ever runs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from ..astutils import class_defs, imported_names_from, own_methods, subclasses_of
from ..framework import AnalysisContext, AnalysisPass, Finding

PLAN_MODULE = "engine/plan.py"
NODE_ROOT = "PlanNode"
REQUIRED_DECLARATION = "required_columns"

#: The executor modules that must each cover the full node set, and the
#: executor class each one exports (used to resolve delegation).
EXECUTOR_MODULES = (
    "engine/executor.py",
    "engine/vectorized.py",
    "engine/parallel.py",
)
EXECUTOR_CLASSES = {
    "QueryExecutor": "engine/executor.py",
    "VectorizedExecutor": "engine/vectorized.py",
    "ParallelExecutor": "engine/parallel.py",
}


class EngineContractPass(AnalysisPass):
    rule = "engine-contract"
    description = (
        "every plan node declares required_columns, and "
        "all three executors dispatch on the full node set"
    )

    def run(self, context: AnalysisContext) -> Iterable[Finding]:
        plan = context.module(PLAN_MODULE)
        if plan is None:
            return []
        classes = class_defs(plan.tree)
        if NODE_ROOT not in classes:
            return []
        nodes = subclasses_of(classes, NODE_ROOT)
        findings: List[Finding] = []

        for name in sorted(nodes):
            node = nodes[name]
            if REQUIRED_DECLARATION not in own_methods(node):
                findings.append(
                    self.finding(
                        check="node-declaration",
                        file=PLAN_MODULE,
                        line=node.lineno,
                        symbol=f"{name}.{REQUIRED_DECLARATION}",
                        message=(
                            f"plan node {name} does not declare"
                            f" {REQUIRED_DECLARATION}() in its own body; the"
                            " column contract must be an explicit per-node"
                            " decision, not an inherited default"
                        ),
                    )
                )

        node_names = set(nodes)
        handled_cache: Dict[str, Set[str]] = {}
        for relpath in EXECUTOR_MODULES:
            if context.module(relpath) is None:
                continue
            handled = self._handled_nodes(
                context, relpath, node_names, handled_cache, set()
            )
            for missing in sorted(node_names - handled):
                findings.append(
                    self.finding(
                        check="executor-coverage",
                        file=relpath,
                        line=0,
                        symbol=missing,
                        message=(
                            f"executor module does not handle plan node"
                            f" {missing} (no isinstance dispatch and no"
                            " delegation to an executor that has one) —"
                            " the three engines must stay exhaustive over"
                            " the same node set"
                        ),
                    )
                )
        return findings

    def _handled_nodes(
        self,
        context: AnalysisContext,
        relpath: str,
        node_names: Set[str],
        cache: Dict[str, Set[str]],
        visiting: Set[str],
    ) -> Set[str]:
        """Node classes ``relpath`` dispatches on, delegation included."""
        if relpath in cache:
            return cache[relpath]
        if relpath in visiting:  # delegation cycle: count nothing twice
            return set()
        visiting.add(relpath)
        info = context.module(relpath)
        handled: Set[str] = set()
        if info is not None:
            for node in ast.walk(info.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    handled.update(
                        name
                        for name in self._type_names(node.args[1])
                        if name in node_names
                    )
            for delegate in self._delegates(info.tree, relpath):
                handled.update(
                    self._handled_nodes(
                        context, delegate, node_names, cache, visiting
                    )
                )
        visiting.discard(relpath)
        cache[relpath] = handled
        return handled

    @staticmethod
    def _type_names(node: ast.expr) -> List[str]:
        """Class names in an isinstance second argument (name or tuple)."""
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Tuple):
            return [e.id for e in node.elts if isinstance(e, ast.Name)]
        return []

    @staticmethod
    def _delegates(tree: ast.Module, relpath: str) -> Iterable[str]:
        """Executor modules this one delegates to (imports + instantiates)."""
        instantiated = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        for class_name, module in EXECUTOR_CLASSES.items():
            if module == relpath:
                continue
            module_stem = module.rsplit("/", 1)[-1][: -len(".py")]
            imported = imported_names_from(tree, module_stem)
            if class_name in imported.values() and any(
                local == class_name or original == class_name
                for local, original in imported.items()
                if local in instantiated
            ):
                yield module
