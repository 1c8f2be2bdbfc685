"""Unit tests for structural and answer equivalence."""

from repro.constraints import Predicate
from repro.query import Query, answers_match, results_equal, structurally_equal


def test_structural_equality_ignores_order():
    left = Query(
        projections=("cargo.desc", "vehicle.vehicle_no"),
        selective_predicates=(
            Predicate.equals("cargo.desc", "frozen food"),
            Predicate.equals("vehicle.desc", "van"),
        ),
        relationships=("collects",),
        classes=("cargo", "vehicle"),
    )
    right = Query(
        projections=("vehicle.vehicle_no", "cargo.desc"),
        selective_predicates=(
            Predicate.equals("vehicle.desc", "van"),
            Predicate.equals("cargo.desc", "frozen food"),
        ),
        relationships=("collects",),
        classes=("vehicle", "cargo"),
    )
    assert structurally_equal(left, right)


def test_structural_inequality_on_predicates():
    base = Query(
        classes=("cargo",),
        selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
    )
    other = base.with_selective_predicates(
        [Predicate.equals("cargo.desc", "textiles")]
    )
    assert not structurally_equal(base, other)


def test_results_equal_is_set_based():
    rows_a = [{"cargo.desc": "frozen food"}, {"cargo.desc": "frozen food"}]
    rows_b = [{"cargo.desc": "frozen food"}]
    assert results_equal(rows_a, rows_b, ["cargo.desc"])
    assert not results_equal(rows_a, [{"cargo.desc": "textiles"}], ["cargo.desc"])


def test_answers_match_on_generated_database(small_setup):
    query = small_setup.queries[0]
    assert answers_match(small_setup.schema, small_setup.store, query, query)


def test_class_elimination_may_return_fewer_duplicate_rows():
    """The paper's query on the ``--execute`` demo database: eliminating
    ``supplier`` drops the repeat of each row per matching supplier, so the
    optimized query returns 24 rows where the original returns 41.  Both
    hold the same 24 distinct rows, and answers are compared as sets."""
    from repro.constraints import ConstraintRepository, build_example_constraints
    from repro.core import SemanticQueryOptimizer
    from repro.data import DatabaseGenerator, DatabaseSpec
    from repro.engine import create_executor
    from repro.query import parse_query
    from repro.schema import build_example_schema

    schema = build_example_schema()
    constraints = build_example_constraints()
    repository = ConstraintRepository(schema)
    repository.add_all(constraints)
    query = parse_query(
        '(SELECT {vehicle.vehicle#, cargo.desc, cargo.quantity} { } '
        '{vehicle.desc = "refrigerated truck", supplier.name = "SFI"} '
        "{collects, supplies} {supplier, cargo, vehicle})"
    )
    optimized = SemanticQueryOptimizer(schema, repository=repository).optimize(query)
    assert optimized.eliminated_classes == ["supplier"]
    store = DatabaseGenerator(schema, constraints, seed=7).generate(
        DatabaseSpec("demo", class_cardinality=60, relationship_cardinality=90)
    ).store
    executor = create_executor(schema, store)
    original_rows = executor.execute(query).rows
    optimized_rows = executor.execute(optimized.optimized).rows

    def distinct(rows):
        return {tuple(row[name] for name in query.projections) for row in rows}

    assert (len(original_rows), len(optimized_rows)) == (41, 24)
    assert distinct(original_rows) == distinct(optimized_rows)
    assert len(distinct(original_rows)) == 24
    assert answers_match(schema, store, query, optimized.optimized)
