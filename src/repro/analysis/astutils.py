"""Shared AST plumbing for the invariant passes.

Small, syntactic helpers only — anything pass-specific (what counts as a
mutator, which iteration consumers are order-insensitive) stays in the
pass that owns the judgement.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None when the base isn't a Name.

    Call nodes in the middle of the chain (``a.b().c``) are looked
    through so lock helpers like ``self._lock.read()`` still resolve.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        else:
            return None


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    """Yield ``(qualname, def)`` for every function, nesting-aware.

    Methods get ``Class.method`` qualnames; nested defs join with ``.``.
    """

    def walk(node: ast.AST, prefix: str) -> Iterator[
        Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(tree, "")


def enclosing_function_index(
    tree: ast.Module,
) -> List[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    """Function list for symbol attribution, innermost resolvable by span."""
    return list(iter_functions(tree))


def symbol_at(
    functions: List[Tuple[str, "ast.FunctionDef | ast.AsyncFunctionDef"]],
    node: ast.AST,
) -> str:
    """Qualname of the innermost function containing ``node`` (or module)."""
    line = getattr(node, "lineno", 0)
    best = "<module>"
    best_span = None
    for qualname, func in functions:
        end = getattr(func, "end_lineno", func.lineno)
        if func.lineno <= line <= end:
            span = end - func.lineno
            if best_span is None or span <= best_span:
                best = qualname
                best_span = span
    return best


def class_defs(tree: ast.Module) -> Dict[str, ast.ClassDef]:
    """Top-level classes of a module, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def subclasses_of(
    classes: Dict[str, ast.ClassDef], root: str
) -> Dict[str, ast.ClassDef]:
    """Transitive same-module subclasses of ``root`` (excluding it)."""
    children: Dict[str, List[str]] = {name: [] for name in classes}
    for name, node in classes.items():
        for base in node.bases:
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name in children:
                children[base_name].append(name)
    result: Dict[str, ast.ClassDef] = {}
    frontier = list(children.get(root, []))
    while frontier:
        name = frontier.pop()
        if name in result:
            continue
        result[name] = classes[name]
        frontier.extend(children.get(name, []))
    return result


def own_methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Methods defined in the class's own body (not inherited)."""
    return {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def imported_names_from(tree: ast.Module, module_suffix: str) -> Dict[str, str]:
    """Names bound by ``from <...module_suffix> import a, b as c``.

    Maps local binding -> original name, for imports whose source module
    path ends with ``module_suffix`` (e.g. ``"protocol"``).
    """
    bound: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == module_suffix or module.endswith("." + module_suffix):
                for alias in node.names:
                    bound[alias.asname or alias.name] = alias.name
    return bound
