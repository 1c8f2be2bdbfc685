"""Transformation reads the store's live index set, as profitability does.

Whether a fired rule's consequent is indexed decides the tag it assigns
(Tables 3.1 and 3.2) and whether it is an index introduction.  The schema
records only the *declared* indexes; a runtime ``create_index`` or
``drop_index`` must steer transformation exactly as declaring (or not
declaring) that index would.  The oracle is an optimizer over a schema that
declares the store's index set, given no probe at all.
"""

import pytest

from repro.core import OptimizerConfig, SemanticQueryOptimizer
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.engine.cost_model import CostModel
from repro.schema import ObjectClass, Schema


@pytest.fixture(scope="module")
def setup():
    return build_evaluation_setup(TABLE_4_1_SPECS["DB4"], query_count=40, seed=7)


def _declaring(schema, class_name, attribute_name, indexed):
    """``schema`` with ``class_name.attribute_name`` declared (un)indexed."""
    classes = [
        ObjectClass(
            cls.name,
            tuple(
                attribute.with_index(indexed)
                if (cls.name, attribute.name) == (class_name, attribute_name)
                else attribute
                for attribute in cls.attributes
            ),
            cls.parent,
        )
        for cls in schema.classes()
    ]
    return Schema(classes, schema.relationships(), name=schema.name)


def _answers(setup, schema, index_probe):
    """Optimized text and trace of every workload query."""
    optimizer = SemanticQueryOptimizer(
        schema,
        constraints=setup.constraints,
        cost_model=CostModel(schema, setup.store.statistics()),
        config=OptimizerConfig(record_access_statistics=False),
        index_probe=index_probe,
    )
    answers = []
    for query in setup.queries:
        result = optimizer.optimize(query)
        trace = [
            (r.kind, r.constraint_name, str(r.predicate), r.new_tag, r.previous_tag)
            for r in result.trace.records
        ]
        answers.append((str(result.optimized), trace))
    return answers


@pytest.mark.parametrize(
    "class_name, attribute_name, indexed",
    [("vehicle", "capacity", True), ("driver", "clearance", False)],
)
def test_runtime_index_change_equals_declaring_it(
    setup, class_name, attribute_name, indexed
):
    store = setup.store
    declared = setup.schema.is_indexed(class_name, attribute_name)
    assert declared is not indexed
    before = _answers(setup, setup.schema, store.is_indexed)
    change, undo = (
        (store.create_index, store.drop_index)
        if indexed
        else (store.drop_index, store.create_index)
    )
    change(class_name, attribute_name)
    try:
        live = _answers(setup, setup.schema, store.is_indexed)
        oracle = _answers(
            setup, _declaring(setup.schema, class_name, attribute_name, indexed), None
        )
    finally:
        undo(class_name, attribute_name)
    assert live == oracle
    # The change reaches the optimizer's output on this workload.
    assert live != before
