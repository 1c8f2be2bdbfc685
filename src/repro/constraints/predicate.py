"""Predicates over object-class attributes.

A predicate is an atomic comparison of the form ``class.attribute <op>
operand`` where the operand is either a constant (a *selective predicate*
such as ``vehicle.desc = "refrigerated truck"``) or another attribute
reference (a *join predicate* or an inter-class comparison such as
``greaterThanOrEqualTo(driver.licenseClass, vehicle.class)``).

Predicates are the shared currency of the whole system: queries contain them,
semantic constraints are built from them, the transformation table of the
optimizer is keyed by them, and the execution engine evaluates them against
object instances.  They are therefore immutable and hashable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)


class ComparisonOperator(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def symbol(self) -> str:
        """The textual symbol used when rendering the predicate."""
        return self.value

    def flipped(self) -> "ComparisonOperator":
        """The operator obtained by swapping the two operands."""
        flips = {
            ComparisonOperator.EQ: ComparisonOperator.EQ,
            ComparisonOperator.NE: ComparisonOperator.NE,
            ComparisonOperator.LT: ComparisonOperator.GT,
            ComparisonOperator.LE: ComparisonOperator.GE,
            ComparisonOperator.GT: ComparisonOperator.LT,
            ComparisonOperator.GE: ComparisonOperator.LE,
        }
        return flips[self]

    def negated(self) -> "ComparisonOperator":
        """The logical negation of this operator."""
        negations = {
            ComparisonOperator.EQ: ComparisonOperator.NE,
            ComparisonOperator.NE: ComparisonOperator.EQ,
            ComparisonOperator.LT: ComparisonOperator.GE,
            ComparisonOperator.LE: ComparisonOperator.GT,
            ComparisonOperator.GT: ComparisonOperator.LE,
            ComparisonOperator.GE: ComparisonOperator.LT,
        }
        return negations[self]

    def apply(self, left: Any, right: Any) -> bool:
        """Evaluate ``left <op> right``.

        Comparing values of incompatible types (e.g. a string against an
        integer with ``<``) returns ``False`` rather than raising, mirroring
        the permissive behaviour of a query engine evaluating a predicate on
        dirty data.
        """
        try:
            if self is ComparisonOperator.EQ:
                return bool(left == right)
            if self is ComparisonOperator.NE:
                return bool(left != right)
            if self is ComparisonOperator.LT:
                return bool(left < right)
            if self is ComparisonOperator.LE:
                return bool(left <= right)
            if self is ComparisonOperator.GT:
                return bool(left > right)
            return bool(left >= right)
        except TypeError:
            return False


# Parsing helpers for the textual operator aliases used in the paper
# ("equal", "greaterThanOrEqualTo", ...).
OPERATOR_ALIASES: Mapping[str, ComparisonOperator] = {
    "=": ComparisonOperator.EQ,
    "==": ComparisonOperator.EQ,
    "equal": ComparisonOperator.EQ,
    "eq": ComparisonOperator.EQ,
    "!=": ComparisonOperator.NE,
    "<>": ComparisonOperator.NE,
    "notEqual": ComparisonOperator.NE,
    "ne": ComparisonOperator.NE,
    "<": ComparisonOperator.LT,
    "lessThan": ComparisonOperator.LT,
    "lt": ComparisonOperator.LT,
    "<=": ComparisonOperator.LE,
    "lessThanOrEqualTo": ComparisonOperator.LE,
    "le": ComparisonOperator.LE,
    ">": ComparisonOperator.GT,
    "greaterThan": ComparisonOperator.GT,
    "gt": ComparisonOperator.GT,
    ">=": ComparisonOperator.GE,
    "greaterThanOrEqualTo": ComparisonOperator.GE,
    "ge": ComparisonOperator.GE,
}


def parse_operator(token: str) -> ComparisonOperator:
    """Resolve a textual operator alias to a :class:`ComparisonOperator`."""
    try:
        return OPERATOR_ALIASES[token]
    except KeyError:
        raise ValueError(f"unknown comparison operator {token!r}") from None


@dataclass(frozen=True, order=True)
class AttributeOperand:
    """An operand referring to ``class_name.attribute_name``."""

    class_name: str
    attribute_name: str

    @property
    def qualified_name(self) -> str:
        """``class.attribute`` notation."""
        return f"{self.class_name}.{self.attribute_name}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.qualified_name


Constant = Union[str, int, float, bool]
Operand = Union[AttributeOperand, Constant]


def attribute_operand(qualified_name: str) -> AttributeOperand:
    """Build an :class:`AttributeOperand` from ``class.attribute`` notation."""
    if "." not in qualified_name:
        raise ValueError(
            f"expected 'class.attribute' notation, got {qualified_name!r}"
        )
    class_name, attribute_name = qualified_name.split(".", 1)
    if not class_name or not attribute_name:
        raise ValueError(f"malformed attribute reference {qualified_name!r}")
    return AttributeOperand(class_name, attribute_name)


def _render_operand(operand: Operand) -> str:
    if isinstance(operand, AttributeOperand):
        return operand.qualified_name
    if isinstance(operand, str):
        return f'"{operand}"'
    return repr(operand)


@dataclass(frozen=True)
class Predicate:
    """An atomic comparison predicate.

    Parameters
    ----------
    left:
        The left operand, always an attribute reference.
    operator:
        The comparison operator.
    right:
        The right operand: either a constant or another attribute reference.

    The three values every layer keeps re-deriving from a predicate —
    :meth:`normalized`, :meth:`key` and :meth:`referenced_classes` — are
    computed once per object and kept in the ``_derived`` slot.  The slot
    is not a field: it is no part of ``==``, ``hash``, ``repr`` or the
    pickled form (:meth:`__reduce__` ships the three operands only), so a
    plan's pickle digest never depends on which memos happen to be filled.
    """

    # Slots, not a __dict__ (no ``slots=True`` on 3.9): ``_derived`` stays
    # unset until first use, and the object is smaller for it.
    __slots__ = ("left", "operator", "right", "_derived")

    left: AttributeOperand
    operator: ComparisonOperator
    right: Operand

    def __reduce__(self):
        return (Predicate, (self.left, self.operator, self.right))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def selection(
        qualified_attribute: str, operator: Union[str, ComparisonOperator], value: Constant
    ) -> "Predicate":
        """Build a selective predicate ``class.attr <op> constant``."""
        op = operator if isinstance(operator, ComparisonOperator) else parse_operator(operator)
        return Predicate(attribute_operand(qualified_attribute), op, value)

    @staticmethod
    def comparison(
        left_attribute: str,
        operator: Union[str, ComparisonOperator],
        right_attribute: str,
    ) -> "Predicate":
        """Build an attribute-to-attribute predicate (join or inter-class)."""
        op = operator if isinstance(operator, ComparisonOperator) else parse_operator(operator)
        return Predicate(
            attribute_operand(left_attribute), op, attribute_operand(right_attribute)
        )

    @staticmethod
    def equals(qualified_attribute: str, value: Constant) -> "Predicate":
        """Shorthand for an equality selective predicate."""
        return Predicate.selection(qualified_attribute, ComparisonOperator.EQ, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_join(self) -> bool:
        """Whether both operands are attribute references on *different* classes."""
        return (
            isinstance(self.right, AttributeOperand)
            and self.right.class_name != self.left.class_name
        )

    @property
    def is_selection(self) -> bool:
        """Whether the right operand is a constant."""
        return not isinstance(self.right, AttributeOperand)

    @property
    def constant(self) -> Optional[Constant]:
        """The constant operand of a selective predicate, else ``None``."""
        if isinstance(self.right, AttributeOperand):
            return None
        return self.right

    def _derive(self) -> Tuple[Optional["Predicate"], Tuple, FrozenSet[str]]:
        """Fill ``_derived``: ``(flipped form or None, key, referenced classes)``."""
        norm, flipped = self, None
        if isinstance(self.right, AttributeOperand):
            classes = frozenset((self.left.class_name, self.right.class_name))
            if self.right < self.left:
                norm = flipped = Predicate(
                    self.right, self.operator.flipped(), self.left
                )
            right_key: Tuple = (
                "attr", norm.right.class_name, norm.right.attribute_name
            )
        else:
            classes = frozenset((self.left.class_name,))
            right_key = ("const", type(self.right).__name__, self.right)
        key = (
            norm.left.class_name,
            norm.left.attribute_name,
            norm.operator.value,
            right_key,
        )
        if flipped is not None:
            # The flipped form is its own canonical orientation.  It holds
            # no reference back: a cycle would leave every such pair to the
            # cycle collector.
            object.__setattr__(flipped, "_derived", (None, key, classes))
        object.__setattr__(self, "_derived", (flipped, key, classes))
        return self._derived

    def referenced_classes(self) -> FrozenSet[str]:
        """The set of object-class names this predicate mentions."""
        try:
            return self._derived[2]
        except AttributeError:
            return self._derive()[2]

    def referenced_attributes(self) -> Tuple[AttributeOperand, ...]:
        """All attribute operands appearing in this predicate."""
        if isinstance(self.right, AttributeOperand):
            return (self.left, self.right)
        return (self.left,)

    def references_class(self, class_name: str) -> bool:
        """Whether this predicate mentions ``class_name``."""
        return class_name in self.referenced_classes()

    def references_attribute(self, qualified_name: str) -> bool:
        """Whether this predicate mentions the attribute ``class.attr``."""
        return any(
            op.qualified_name == qualified_name
            for op in self.referenced_attributes()
        )

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------
    def normalized(self) -> "Predicate":
        """A canonical orientation of the predicate.

        Attribute-to-attribute predicates are oriented so that the
        lexicographically smaller attribute appears on the left; selective
        predicates are returned unchanged.  Two predicates that express the
        same comparison therefore normalize to equal objects, which is what
        the transformation table keys on.
        """
        try:
            flipped = self._derived[0]
        except AttributeError:
            flipped = self._derive()[0]
        return self if flipped is None else flipped

    def negated(self) -> "Predicate":
        """The logical negation of the predicate."""
        return Predicate(self.left, self.operator.negated(), self.right)

    def substitute_class(self, old: str, new: str) -> "Predicate":
        """Return a copy with references to class ``old`` renamed to ``new``."""
        left = self.left
        if left.class_name == old:
            left = AttributeOperand(new, left.attribute_name)
        right = self.right
        if isinstance(right, AttributeOperand) and right.class_name == old:
            right = AttributeOperand(new, right.attribute_name)
        return Predicate(left, self.operator, right)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, binding: Mapping[str, Mapping[str, Any]]) -> bool:
        """Evaluate the predicate against a binding of classes to instances.

        ``binding`` maps each class name to a mapping of attribute name to
        value (e.g. an :class:`~repro.engine.instance.ObjectInstance`'s
        ``values``).  Missing classes or attributes evaluate to ``False``.
        """
        left_values = binding.get(self.left.class_name)
        if left_values is None or self.left.attribute_name not in left_values:
            return False
        left_value = left_values[self.left.attribute_name]

        if isinstance(self.right, AttributeOperand):
            right_values = binding.get(self.right.class_name)
            if (
                right_values is None
                or self.right.attribute_name not in right_values
            ):
                return False
            right_value = right_values[self.right.attribute_name]
        else:
            right_value = self.right
        return self.operator.apply(left_value, right_value)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return (
            f"{self.left.qualified_name} {self.operator.symbol} "
            f"{_render_operand(self.right)}"
        )

    def key(self) -> Tuple:
        """A hashable identity key for the normalized predicate."""
        try:
            return self._derived[1]
        except AttributeError:
            return self._derive()[1]


def partition_by_class(
    predicates: Iterable[Predicate], class_names: Iterable[str]
) -> Tuple[Dict[str, List[Predicate]], List[Predicate]]:
    """Split ``predicates`` into per-class lists and the cross-class rest.

    A predicate is *local* to the one class it mentions and lands in that
    class's list (order preserved); one that mentions several classes is
    evaluated at join level and lands in the second list.  A predicate
    local to a class outside ``class_names`` belongs to neither.  This is
    the one partition the cost model, the statistics and the planner share.
    """
    local: Dict[str, List[Predicate]] = {name: [] for name in class_names}
    cross: List[Predicate] = []
    for predicate in predicates:
        classes = predicate.referenced_classes()
        if len(classes) > 1:
            cross.append(predicate)
        else:
            (class_name,) = classes
            if class_name in local:
                local[class_name].append(predicate)
    return local, cross
