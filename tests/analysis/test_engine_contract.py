"""engine-contract: node declarations and the executor exhaustiveness matrix."""

import textwrap

from .conftest import checks_of, rules_of

VIOLATING = {
    "engine/plan.py": textwrap.dedent(
        '''
        class PlanNode:
            """Base node."""

            def required_columns(self):
                return ()


        class GoodNode(PlanNode):
            def required_columns(self):
                return ("cargo.desc",)


        class BadNode(PlanNode):
            """Inherits required_columns silently."""

            def explain(self):
                return "Bad"
        '''
    ),
    "engine/executor.py": textwrap.dedent(
        """
        from .plan import GoodNode


        class QueryExecutor:
            def run(self, node):
                if isinstance(node, GoodNode):
                    return []
                raise TypeError(node)
        """
    ),
}

CLEAN = {
    "engine/plan.py": textwrap.dedent(
        """
        class PlanNode:
            def required_columns(self):
                return ()


        class GoodNode(PlanNode):
            def required_columns(self):
                return ("cargo.desc",)


        class OtherNode(PlanNode):
            def required_columns(self):
                return ()
        """
    ),
    "engine/executor.py": textwrap.dedent(
        """
        from .plan import GoodNode, OtherNode


        class QueryExecutor:
            def run(self, node):
                if isinstance(node, (GoodNode, OtherNode)):
                    return []
                raise TypeError(node)
        """
    ),
    # The parallel engine has no isinstance dispatch of its own; it must
    # be credited through delegation to the executor it instantiates.
    "engine/vectorized.py": textwrap.dedent(
        """
        from .plan import GoodNode, OtherNode


        class VectorizedExecutor:
            def run(self, node):
                if isinstance(node, GoodNode):
                    return []
                if isinstance(node, OtherNode):
                    return []
                raise TypeError(node)
        """
    ),
    "engine/parallel.py": textwrap.dedent(
        """
        from .vectorized import VectorizedExecutor


        class ParallelExecutor:
            def __init__(self):
                self._local = VectorizedExecutor()

            def run(self, node):
                return self._local.run(node)
        """
    ),
}


def test_violating_fixture_trips_only_engine_contract(build_tree, run_all_passes):
    findings = run_all_passes(build_tree(VIOLATING))
    assert rules_of(findings) == {"engine-contract"}
    assert checks_of(findings) == {
        ("engine-contract", "node-declaration"),
        ("engine-contract", "executor-coverage"),
    }
    symbols = {f.symbol for f in findings}
    assert "BadNode.required_columns" in symbols
    assert "BadNode" in symbols  # executor.py does not dispatch on it


def test_clean_fixture_passes_with_delegation(build_tree, run_all_passes):
    assert run_all_passes(build_tree(CLEAN)) == []


def test_missing_declaration_names_each_method(build_tree, run_all_passes):
    files = dict(VIOLATING)
    files["engine/plan.py"] = files["engine/plan.py"].replace(
        "    def required_columns(self):\n"
        "        return ()\n",
        "    pass\n",
        1,
    )
    # Now even PlanNode's base methods are gone from BadNode's view; the
    # pass still only reasons about own-body declarations.
    findings = run_all_passes(build_tree(files))
    assert rules_of(findings) == {"engine-contract"}
