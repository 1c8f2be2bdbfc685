"""Unit tests for the transformation table and queues."""

import pytest

from repro.constraints import Predicate, build_example_constraints
from repro.core import (
    CellTag,
    PredicateTag,
    PriorityTransformationQueue,
    QueueEntry,
    TransformationKind,
    TransformationQueue,
    TransformationTable,
)


def build_table():
    constraints = build_example_constraints()[:2]  # c1, c2
    p1 = Predicate.equals("vehicle.desc", "refrigerated truck")
    p2 = Predicate.equals("supplier.name", "SFI")
    p3 = Predicate.equals("cargo.desc", "frozen food")
    table = TransformationTable(constraints, [p1, p2, p3], [p1, p2])
    return table, constraints, (p1, p2, p3)


def test_table_structure():
    table, constraints, (p1, p2, p3) = build_table()
    assert table.constraint_count() == 2
    assert table.predicate_count() == 3
    assert table.constraint_names() == ["c1", "c2"]
    assert table.was_in_query(p1) and not table.was_in_query(p3)
    assert table.get("c1", p1) is CellTag.NOT_PRESENT


def test_cell_set_get_and_column():
    table, constraints, (p1, p2, p3) = build_table()
    table.set("c1", p1, CellTag.PRESENT_ANTECEDENT)
    table.set("c1", p3, CellTag.ABSENT_CONSEQUENT)
    table.set("c2", p3, CellTag.ABSENT_ANTECEDENT)
    assert table.get("c1", p1) is CellTag.PRESENT_ANTECEDENT
    assert table.column(p3) == {
        "c1": CellTag.ABSENT_CONSEQUENT,
        "c2": CellTag.ABSENT_ANTECEDENT,
    }
    assert set(table.row("c1")) == {p1.key(), p3.key()}
    with pytest.raises(KeyError):
        table.set("cX", p1, CellTag.IMPERATIVE)


def test_column_reads_in_constraint_order_and_agrees_with_row():
    constraints = build_example_constraints()
    names = [c.name for c in constraints]
    predicates = [p for c in constraints for p in c.predicates()]
    table = TransformationTable(constraints, predicates, [])
    shared = Predicate.equals("cargo.desc", "frozen food")
    tags = list(CellTag)
    # Cells set last row first: the column still reads in row order.
    for index, name in reversed(list(enumerate(names))):
        table.set(name, shared, tags[index % len(tags)])
    for constraint in constraints:
        for predicate in constraint.predicates():
            table.set(constraint.name, predicate, CellTag.PRESENT_ANTECEDENT)
    assert list(table.column(shared)) == names
    by_column = {}
    for predicate in table.predicates():
        column = table.column(predicate)
        assert list(column) == [name for name in names if name in column]
        for name, tag in column.items():
            assert table.get(name, predicate) is tag
            by_column[name, predicate.key()] = tag
    by_row = {
        (name, key): tag for name in names for key, tag in table.row(name).items()
    }
    assert by_row == by_column


def test_final_predicates_defaults_to_imperative():
    table, constraints, (p1, p2, p3) = build_table()
    finals = dict(table.final_predicates())
    assert finals[p1.normalized()] is PredicateTag.IMPERATIVE
    assert p3.normalized() not in finals  # never introduced


def test_final_predicates_after_classification():
    table, constraints, (p1, p2, p3) = build_table()
    table.set("c2", p2, CellTag.PRESENT_OPTIONAL)
    table.set("c1", p3, CellTag.PRESENT_OPTIONAL)
    finals = dict(table.final_predicates())
    assert finals[p2.normalized()] is PredicateTag.OPTIONAL
    assert finals[p3.normalized()] is PredicateTag.OPTIONAL  # introduced
    assert table.was_introduced(p3) and not table.was_introduced(p2)


def test_antecedents_all_present():
    table, constraints, (p1, p2, p3) = build_table()
    c1 = constraints[0]
    table.set("c1", p1, CellTag.ABSENT_ANTECEDENT)
    assert not table.antecedents_all_present(c1)
    table.set("c1", p1, CellTag.PRESENT_ANTECEDENT)
    assert table.antecedents_all_present(c1)


def test_render_contains_constraints_and_predicates():
    table, _constraints, (p1, _p2, _p3) = build_table()
    text = table.render()
    assert "c1" in text and "vehicle.desc" in text


def test_fifo_queue_order_and_dedup():
    queue = TransformationQueue()
    first = QueueEntry("c1", TransformationKind.RESTRICTION_ELIMINATION)
    second = QueueEntry("c2", TransformationKind.INDEX_INTRODUCTION)
    assert queue.push(first)
    assert not queue.push(QueueEntry("c1", TransformationKind.INDEX_INTRODUCTION))
    assert queue.push(second)
    assert len(queue) == 2 and queue.contains("c1")
    assert queue.pop().constraint_name == "c1"
    assert queue.pop().constraint_name == "c2"
    assert not queue
    with pytest.raises(IndexError):
        queue.pop()
    assert queue.enqueued_total == 2


def test_fifo_queue_discard():
    queue = TransformationQueue()
    queue.push(QueueEntry("c1", TransformationKind.RESTRICTION_ELIMINATION))
    queue.discard("c1")
    assert not queue.contains("c1") and len(queue) == 0


def test_priority_queue_serves_index_introduction_first():
    queue = PriorityTransformationQueue()
    queue.push(QueueEntry("slow", TransformationKind.RESTRICTION_INTRODUCTION))
    queue.push(QueueEntry("medium", TransformationKind.RESTRICTION_ELIMINATION))
    queue.push(QueueEntry("fast", TransformationKind.INDEX_INTRODUCTION))
    assert [entry.constraint_name for entry in queue.pending()] == [
        "fast",
        "medium",
        "slow",
    ]
    assert queue.pop().constraint_name == "fast"
    queue.discard("medium")
    assert queue.pop().constraint_name == "slow"
    with pytest.raises(IndexError):
        queue.pop()


def test_priority_queue_fifo_within_same_priority():
    queue = PriorityTransformationQueue()
    queue.push(QueueEntry("a", TransformationKind.RESTRICTION_ELIMINATION))
    queue.push(QueueEntry("b", TransformationKind.RESTRICTION_ELIMINATION))
    assert queue.pop().constraint_name == "a"
    assert queue.pop().constraint_name == "b"
