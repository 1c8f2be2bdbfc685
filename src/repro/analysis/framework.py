"""Core of the static invariant checker: findings, passes, the context.

The checker is a small AST-level analysis framework purpose-built for this
codebase's contracts.  It deliberately is *not* a general linter: each
:class:`AnalysisPass` encodes one invariant the runtime oracles enforce
dynamically (engine exhaustiveness, lock discipline, determinism,
metrics parity) so violations surface at review time instead of after a
300-schedule oracle run — the same compile-time use of integrity
constraints the source paper applies to queries.

The moving parts:

* :class:`AnalysisContext` — the parsed module set of one package tree
  (every ``*.py`` under a package root), plus a lightweight
  **import graph** mapping each module to the package-internal
  modules it imports.  Passes never read files themselves; they ask the
  context, which is what makes the whole checker runnable against the
  fixture trees in ``tests/analysis`` exactly as against ``src/repro``.
* :class:`Finding` — one violation: rule id, file:line, the symbol it
  anchors to, and a human message.  The ``(rule, check, file, symbol)``
  fingerprint is line-number-free, so baselined findings survive unrelated
  edits to the same file.
* :class:`AnalysisPass` — the pass interface; concrete passes live in
  :mod:`repro.analysis.passes`.
* :func:`run_analysis` — run passes over a context, split the findings
  against a :class:`~repro.analysis.baseline.Baseline`, and return an
  :class:`AnalysisReport`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Finding:
    """One static-analysis violation.

    ``rule`` is the pass id (e.g. ``"determinism"``); ``check`` names the
    specific sub-invariant (e.g. ``"set-iteration"``); ``symbol`` is the
    enclosing definition (``Class.method`` or a module-level name), which
    keeps the fingerprint stable as line numbers drift.
    """

    rule: str
    check: str
    file: str
    line: int
    symbol: str
    message: str

    @property
    def fingerprint(self) -> Tuple[str, str, str, str]:
        """Line-independent identity used for baseline matching."""
        return (self.rule, self.check, self.file, self.symbol)

    def location(self) -> str:
        """``file:line`` (line 0 means the finding is file-level)."""
        return f"{self.file}:{self.line}" if self.line else self.file


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed module of the analyzed package."""

    relpath: str
    path: Path
    tree: ast.Module
    source: str


class AnalysisContext:
    """The parsed package tree every pass runs against.

    Parameters
    ----------
    package_root:
        Directory of the package to analyze (the ``repro`` package dir).
    """

    def __init__(self, package_root: Path) -> None:
        self.package_root = Path(package_root)
        self.modules: Dict[str, ModuleInfo] = {}
        self._import_graph: Optional[Dict[str, Set[str]]] = None
        for path in sorted(self.package_root.rglob("*.py")):
            relpath = path.relative_to(self.package_root).as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:  # surfaced as a finding by run_analysis
                raise AnalysisError(
                    f"cannot parse {relpath}: {exc}"
                ) from None
            self.modules[relpath] = ModuleInfo(
                relpath=relpath, path=path, tree=tree, source=source
            )

    # ------------------------------------------------------------------
    # Module lookup
    # ------------------------------------------------------------------
    def module(self, relpath: str) -> Optional[ModuleInfo]:
        """The module at ``relpath`` (e.g. ``"engine/plan.py"``), if present."""
        return self.modules.get(relpath)

    def in_dir(self, prefix: str) -> List[ModuleInfo]:
        """Every module under ``prefix`` (e.g. ``"engine/"``), sorted."""
        return [
            info
            for relpath, info in sorted(self.modules.items())
            if relpath.startswith(prefix)
        ]

    # ------------------------------------------------------------------
    # Import graph
    # ------------------------------------------------------------------
    @property
    def import_graph(self) -> Dict[str, Set[str]]:
        """Package-internal imports: module relpath -> imported relpaths.

        Relative imports are resolved against the importing module's
        package; absolute imports are matched when their tail resolves to
        a module in the tree.  Imports of package ``__init__`` facades
        resolve to the facade file, so "who imports the engine at all"
        questions stay answerable.
        """
        if self._import_graph is None:
            self._import_graph = {
                relpath: self._imports_of(info)
                for relpath, info in self.modules.items()
            }
        return self._import_graph

    def importers_of(self, relpath: str) -> List[str]:
        """Modules whose import set contains ``relpath``, sorted."""
        return sorted(
            importer
            for importer, imported in self.import_graph.items()
            if relpath in imported
        )

    def _imports_of(self, info: ModuleInfo) -> Set[str]:
        package_parts = info.relpath.split("/")[:-1]
        resolved: Set[str] = set()
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package_parts[: len(package_parts) - (node.level - 1)]
                    module_parts = base + (
                        node.module.split(".") if node.module else []
                    )
                else:
                    module_parts = (node.module or "").split(".")
                target = self._resolve(module_parts)
                if target is not None:
                    resolved.add(target)
                else:
                    # ``from .package import module`` names modules in the
                    # import list rather than the dotted path.
                    for alias in node.names:
                        target = self._resolve(module_parts + [alias.name])
                        if target is not None:
                            resolved.add(target)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    target = self._resolve(alias.name.split("."))
                    if target is not None:
                        resolved.add(target)
        resolved.discard(info.relpath)
        return resolved

    def _resolve(self, parts: Sequence[str]) -> Optional[str]:
        """Map dotted-name parts onto a module relpath in this tree."""
        parts = [part for part in parts if part]
        if not parts:
            return None
        # Strip a leading package name matching the root directory name.
        if parts[0] == self.package_root.name:
            parts = parts[1:] or parts
        for candidate in (
            "/".join(parts) + ".py",
            "/".join(parts) + "/__init__.py",
        ):
            if candidate in self.modules:
                return candidate
        return None


class AnalysisError(Exception):
    """A configuration/parse problem that prevents analysis from running."""


class AnalysisPass:
    """Base class for concrete invariant passes.

    Subclasses set ``rule`` (the stable rule id findings carry) and
    ``description`` (one line for ``--list-rules`` and the docs) and
    implement :meth:`run`.
    """

    rule: str = ""
    description: str = ""

    def run(self, context: AnalysisContext) -> Iterable[Finding]:
        """Yield every violation of this pass's invariant in ``context``."""
        raise NotImplementedError

    def finding(
        self, check: str, file: str, line: int, symbol: str, message: str
    ) -> Finding:
        """Convenience constructor stamping this pass's rule id."""
        return Finding(
            rule=self.rule,
            check=check,
            file=file,
            line=line,
            symbol=symbol,
            message=message,
        )


@dataclass
class AnalysisReport:
    """The outcome of one analysis run.

    ``new`` are unbaselined findings (the gate: non-empty fails CI);
    ``baselined`` were matched — and silenced — by a baseline entry;
    ``stale_entries`` are baseline entries that matched nothing, reported
    so the baseline cannot silently rot.
    """

    findings: List[Finding] = field(default_factory=list)
    new: List[Finding] = field(default_factory=list)
    baselined: List[Tuple[Finding, "object"]] = field(default_factory=list)
    stale_entries: List["object"] = field(default_factory=list)
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the tree is clean modulo the baseline."""
        return not self.new


def run_analysis(
    context: AnalysisContext,
    passes: Sequence[AnalysisPass],
    baseline: Optional["object"] = None,
) -> AnalysisReport:
    """Run ``passes`` over ``context`` and split findings by the baseline."""
    findings: List[Finding] = []
    for analysis_pass in passes:
        findings.extend(analysis_pass.run(context))
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.check, f.symbol))
    report = AnalysisReport(
        findings=findings,
        rules_run=tuple(p.rule for p in passes),
    )
    if baseline is None:
        report.new = list(findings)
        return report
    new, baselined, stale = baseline.split(findings)
    report.new = new
    report.baselined = baselined
    report.stale_entries = stale
    return report
