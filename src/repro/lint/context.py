"""Module and project context shared by every lint rule.

The engine parses each file once and hands rules a
:class:`ModuleContext`: the AST with parent links, the dotted module
name, an import table (so ``from random import randint`` is as visible
as ``random.randint``), and a per-module class index. Cross-module rules
(the :class:`~repro.lint.rules.protocols.RecommenderProtocolRule`
subclass walk, the event-declaration check) read the aggregated
:class:`ProjectIndex` in their project-finish hook.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .findings import SuppressionTable

__all__ = [
    "MethodInfo",
    "ClassInfo",
    "ModuleContext",
    "ProjectIndex",
    "module_name_for",
]


def module_name_for(path: str) -> str:
    """Dotted module name for a file path, best effort.

    ``src/repro/core/pvp.py`` → ``repro.core.pvp``;
    ``benchmarks/bench_foo.py`` → ``benchmarks.bench_foo``; paths outside
    a recognised root fall back to the stem.
    """
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for root in ("repro", "benchmarks", "tests"):
        if root in parts:
            parts = parts[parts.index(root):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class MethodInfo:
    """Signature summary of one method definition."""

    name: str
    #: Positional parameter names (pos-only + regular), ``self`` included.
    positional: tuple[str, ...]
    #: How many trailing positional parameters have defaults.
    n_defaults: int
    #: Keyword-only parameter names *without* defaults.
    kwonly_required: tuple[str, ...]
    has_vararg: bool
    has_kwarg: bool
    decorators: tuple[str, ...]
    lineno: int

    @property
    def required_positional(self) -> tuple[str, ...]:
        """Positional parameters a caller must supply."""
        if self.n_defaults == 0:
            return self.positional
        return self.positional[: -self.n_defaults]

    @property
    def is_property(self) -> bool:
        return "property" in self.decorators

    @property
    def is_abstract(self) -> bool:
        return any("abstractmethod" in dec for dec in self.decorators)


@dataclass(frozen=True)
class ClassInfo:
    """One class definition as seen by the shared visitor."""

    name: str
    module: str
    path: str
    lineno: int
    #: Base-class names as written (dotted strings for attribute bases).
    bases: tuple[str, ...]
    decorators: tuple[str, ...]
    methods: dict[str, MethodInfo]
    #: Names assigned/annotated at class level (dataclass fields, attrs).
    class_attrs: tuple[str, ...]
    #: ``name -> annotation source`` for annotated class-level fields.
    field_annotations: dict[str, str]

    @property
    def base_names(self) -> tuple[str, ...]:
        """Base names reduced to their last dotted segment."""
        return tuple(base.rsplit(".", 1)[-1] for base in self.bases)


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _decorator_source(node: ast.expr) -> str:
    """Compact textual form of a decorator expression."""
    return ast.unparse(node)


def _method_info(node: ast.FunctionDef | ast.AsyncFunctionDef) -> MethodInfo:
    args = node.args
    positional = tuple(arg.arg for arg in args.posonlyargs + args.args)
    kwonly_required = tuple(
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is None
    )
    return MethodInfo(
        name=node.name,
        positional=positional,
        n_defaults=len(args.defaults),
        kwonly_required=kwonly_required,
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        decorators=tuple(
            _decorator_source(dec) for dec in node.decorator_list
        ),
        lineno=node.lineno,
    )


def _class_info(node: ast.ClassDef, module: str, path: str) -> ClassInfo:
    methods: dict[str, MethodInfo] = {}
    class_attrs: list[str] = []
    annotations: dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = _method_info(stmt)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            class_attrs.append(stmt.target.id)
            annotations[stmt.target.id] = ast.unparse(stmt.annotation)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    class_attrs.append(target.id)
    bases = tuple(
        name for name in (_dotted_name(base) for base in node.bases) if name
    )
    return ClassInfo(
        name=node.name,
        module=module,
        path=path,
        lineno=node.lineno,
        bases=bases,
        decorators=tuple(
            _decorator_source(dec) for dec in node.decorator_list
        ),
        methods=methods,
        class_attrs=tuple(class_attrs),
        field_annotations=annotations,
    )


class ModuleContext:
    """Everything a rule can know about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_name_for(path)
        self.lines = source.splitlines()
        self.suppressions = SuppressionTable(self.lines)
        #: child AST node -> parent AST node, for context queries.
        self.parents: dict[ast.AST, ast.AST] = {}
        #: alias -> module for plain imports (``import numpy as np``).
        self.imports: dict[str, str] = {}
        #: local name -> (module, original name) for from-imports.
        self.from_imports: dict[str, tuple[str, str]] = {}
        #: classes defined in this module, by name.
        self.classes: dict[str, ClassInfo] = {}
        #: module-level ``__all__`` entries, when statically evident.
        self.dunder_all: tuple[str, ...] = ()
        self._index()

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
            elif isinstance(node, ast.ClassDef):
                info = _class_info(node, self.module, self.path)
                self.classes[node.name] = info
        for stmt in self.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__all__"
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                names = []
                for element in stmt.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.append(element.value)
                self.dunder_all = tuple(names)

    # -- queries rules lean on --------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_class(self, node: ast.AST) -> ClassInfo | None:
        """The innermost class definition containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return self.classes.get(ancestor.name)
        return None

    def resolved_call_module(self, node: ast.expr) -> str | None:
        """The module a Name/Attribute chain points at, via imports.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random`` (the function name itself is dropped);
        ``randint`` with ``from random import randint`` resolves to
        ``random``. Returns None for locals.
        """
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.from_imports:
            module, original = self.from_imports[head]
            tail = dotted.replace(head, original, 1)
            prefix, _, _ = f"{module}.{tail}".rpartition(".")
            return prefix
        if head in self.imports:
            resolved = self.imports[head] + ("." + rest if rest else "")
            prefix, _, _ = resolved.rpartition(".")
            return prefix or resolved
        return None

    def in_domain(self, prefixes: tuple[str, ...]) -> bool:
        """True when this module lives under any dotted prefix."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


@dataclass
class ProjectIndex:
    """Aggregated view across every linted module."""

    modules: dict[str, ModuleContext] = field(default_factory=dict)

    def add(self, module: ModuleContext) -> None:
        self.modules[module.path] = module

    def all_classes(self) -> Iterator[ClassInfo]:
        for module in self.modules.values():
            yield from module.classes.values()

    def subclasses_of(self, root: str) -> list[ClassInfo]:
        """Transitive subclasses of ``root`` by base-name resolution.

        Name-based: a base written ``base.Recommender`` matches the root
        ``Recommender``. Good enough for a single cohesive package where
        class names are unique; rules treat the result as best-effort.
        """
        known = {info.name: info for info in self.all_classes()}
        result: dict[str, ClassInfo] = {}
        frontier = [root]
        while frontier:
            target = frontier.pop()
            for info in known.values():
                if info.name in result or info.name == root:
                    continue
                if target in info.base_names:
                    result[info.name] = info
                    frontier.append(info.name)
        return sorted(result.values(), key=lambda info: (info.path, info.lineno))

    def ancestors_of(self, info: ClassInfo) -> list[ClassInfo]:
        """Project-visible ancestor classes, nearest first (name-based)."""
        known = {cls.name: cls for cls in self.all_classes()}
        seen: list[ClassInfo] = []
        frontier = list(info.base_names)
        while frontier:
            name = frontier.pop(0)
            parent = known.get(name)
            if parent is None or parent in seen:
                continue
            seen.append(parent)
            frontier.extend(parent.base_names)
        return seen
