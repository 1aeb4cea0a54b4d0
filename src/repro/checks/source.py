"""Source-tree model and AST visitor framework of the static-analysis pass.

The scanner turns a package directory into a list of :class:`SourceModule`
objects -- parsed AST, dotted module name, and the inline waivers found in the
file.  Rules program against this surface instead of re-reading files, so one
``hex-repro check`` run parses each module exactly once.

Waiver syntax
-------------
A finding is waived by a narrow inline comment on the offending line (or the
line directly above it)::

    from repro.obs import get_logger  # repro: allow-import[reason the edge is acceptable]

The tag (``import``, ``random``, ``wall-clock``, ``json-dumps``,
``float-eq``, ``schema-literal``) must match the rule being waived, and the
bracketed reason must be non-empty -- an empty reason keeps the finding *and*
adds a ``W001`` finding, so silent exceptions cannot accumulate.  Waivers that
cover nothing raise ``W002``, so stale exceptions are garbage-collected by the
gate itself.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

__all__ = [
    "WAIVER_PATTERN",
    "Waiver",
    "SourceModule",
    "RuleVisitor",
    "scan_package",
]

#: The inline waiver grammar: ``# repro: allow-<tag>[reason]``.
WAIVER_PATTERN = re.compile(
    r"#\s*repro:\s*allow-(?P<tag>[a-z][a-z-]*)\[(?P<reason>[^\]]*)\]"
)


@dataclass
class Waiver:
    """One inline waiver comment.

    ``used`` is flipped by the runner when a finding matches; unused waivers
    surface as ``W002`` findings so exceptions cannot outlive their cause.
    """

    tag: str
    reason: str
    line: int
    used: bool = False


@dataclass
class SourceModule:
    """One parsed source file of the scanned package.

    Attributes
    ----------
    path:
        Absolute path of the file.
    rel_path:
        Path relative to the scanned package root (POSIX separators); the
        ``path`` findings carry.
    module:
        Dotted module name rooted at the package (e.g.
        ``"repro.engines.base"``).
    source:
        The raw file contents.
    tree:
        The parsed :class:`ast.Module`.
    waivers:
        The inline waivers of the file, in line order.
    """

    path: Path
    rel_path: str
    module: str
    source: str
    tree: ast.Module
    waivers: List[Waiver] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, root: Path, package: str = "repro") -> "SourceModule":
        """Parse one file under ``root`` into a module model."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        rel = path.relative_to(root).as_posix()
        parts = rel[: -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join([package] + parts) if parts else package
        # Waivers are extracted from real COMMENT tokens, not raw lines, so
        # prose *about* the waiver syntax (docstrings, messages) never counts.
        waivers = [
            Waiver(
                tag=match.group("tag"),
                reason=match.group("reason").strip(),
                line=token.start[0],
            )
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
            for match in WAIVER_PATTERN.finditer(token.string)
        ]
        return cls(
            path=path,
            rel_path=rel,
            module=module,
            source=source,
            tree=tree,
            waivers=waivers,
        )

    # ------------------------------------------------------------------
    # waiver lookup
    # ------------------------------------------------------------------
    def waiver_at(self, line: int, tag: str) -> Optional[Waiver]:
        """The waiver covering a finding at ``line`` (same line or the one above).

        A same-line waiver wins over a line-above one, so stacked single-line
        waivers each cover their own line.
        """
        above = None
        for waiver in self.waivers:
            if waiver.tag != tag:
                continue
            if waiver.line == line:
                return waiver
            if waiver.line == line - 1 and above is None:
                above = waiver
        return above

    # ------------------------------------------------------------------
    # AST helpers shared by rules
    # ------------------------------------------------------------------
    def package_relative(self) -> str:
        """Module name relative to the package root (``""`` for the root)."""
        _, _, rest = self.module.partition(".")
        return rest

    def documentation_lines(self) -> Set[int]:
        """Line numbers covered by documentation string statements.

        Any bare string-expression statement counts (module, class and
        function docstrings, plus the trailing attribute-doc strings some
        modules use); rules matching string literals skip these so prose may
        mention artifact formats freely.
        """
        lines: Set[int] = set()
        for node in ast.walk(self.tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                end = node.end_lineno if node.end_lineno is not None else node.lineno
                lines.update(range(node.lineno, end + 1))
        return lines

    def repro_imports(self) -> Iterator[Tuple[int, str]]:
        """All project-internal imports as ``(line, dotted target)`` pairs.

        Handles the three idioms in use: ``import repro.x.y``,
        ``from repro.x.y import name`` and ``from repro import x`` (which
        targets the submodule ``repro.x``, not the root package).  Imports of
        the bare root package (``import repro``) yield ``"repro"``.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level != 0:
                    # Relative imports stay inside their own package and are
                    # resolved against the module's location.
                    base = self.module.rsplit(".", node.level)[0]
                    target = f"{base}.{node.module}" if node.module else base
                    yield node.lineno, target
                elif node.module == "repro":
                    for alias in node.names:
                        yield node.lineno, f"repro.{alias.name}"
                elif node.module is not None and node.module.startswith("repro."):
                    yield node.lineno, node.module


class RuleVisitor(ast.NodeVisitor):
    """Base class for AST-walking rules.

    Subclasses call :meth:`report` with the offending node; the collected
    ``(line, message)`` pairs are turned into findings (and filtered through
    waivers) by the rule body.  Keeping the visitor dumb -- no severity, no
    waiver logic -- means every rule reports through one code path in the
    runner.
    """

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.hits: List[Tuple[int, str]] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation at ``node``'s location."""
        self.hits.append((getattr(node, "lineno", 1), message))

    def run(self) -> List[Tuple[int, str]]:
        """Visit the module's tree and return the collected hits."""
        self.visit(self.module.tree)
        return self.hits


def scan_package(root: Path, package: str = "repro") -> List[SourceModule]:
    """Parse every ``*.py`` file under ``root`` into :class:`SourceModule` s.

    Files are visited in sorted order so findings -- and therefore the CLI
    output and the CI artifact -- are deterministic.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"not a package directory: {root}")
    return [
        SourceModule.load(path, root, package=package)
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
