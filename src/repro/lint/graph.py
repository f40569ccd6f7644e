"""Whole-program symbol table, module summaries, and call graph.

Single-file rules see one AST at a time, which leaves a structural hole:
a ``sim/`` function that reaches ``time.time()`` *through a helper in
another module* is invisible to R002.  This module closes the hole by
summarizing every linted file into a compact, JSON-serializable
:class:`ModuleSummary` — import aliases, top-level definitions, one
:class:`FunctionSummary` per function/method with its outgoing calls,
direct nondeterminism sources, and purity-relevant operations — and
assembling the summaries into a :class:`ProjectIndex` whose call graph
is module-qualified: ``from x import y`` aliases and package
``__init__`` re-exports are resolved to the defining module.

The extractor is the linter's only nondeterminism classifier and its
only alias resolver.  Each module's import table
(:attr:`ModuleSummary.imports`, relative imports included) is built
once and read by every rule that names a library callee (R001, R002,
R007, R008 and the graph passes).  One walk over the whole module
records every source: those inside a summarized function feed R006's
taint, and those anywhere else (module level, class bodies, nested
classes, defs under ``if``/``try``) land in
:attr:`ModuleSummary.sources`.  R001 and R002 render that list, so the
single-file and whole-program passes cannot disagree on what a source
is.

Summaries are deliberately AST-free so the incremental lint cache
(:mod:`repro.lint.cache`) can persist them by content hash: an unchanged
file contributes its cached summary to the graph without being re-parsed,
while the graph passes (R006/R009, :mod:`repro.lint.project_rules`)
always run against the *current* project-wide summaries — editing one
module therefore re-analyzes its dependents' interprocedural findings
without re-parsing their files.

Everything is deterministic: summaries record source order, the index
iterates sorted structures, and resolution is purely syntactic (no
imports are executed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import ModuleInfo

__all__ = [
    "CallSite",
    "DIGEST_KEYWORDS",
    "REPLAY_SEGMENTS",
    "dotted_parts",
    "is_set_expr",
    "SEEDABLE_RNGS",
    "SourceSite",
    "ImpuritySite",
    "FunctionSummary",
    "ClassSummary",
    "Registration",
    "ModuleSummary",
    "ProjectIndex",
    "module_name_for",
    "summarize_module",
]

#: Replay-critical path segments; also the scope of R002.
REPLAY_SEGMENTS = frozenset({"sim", "exec", "faults"})

#: Function names that are digest-critical sinks wherever they appear.
_SINK_NAMES = frozenset(
    {
        "to_json",
        "cache_key",
        "_cache_key",
        "path_for",
        "summarize_trace",
        "summarize_streaming",
    }
)

#: Wall-clock reads (after alias expansion to a fully dotted name).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Process/thread identity and OS entropy reads no other rule covers.
_PROCESS_IDENTITY = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.urandom",
        "threading.get_ident",
        "threading.current_thread",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Direct file/console IO calls (for certificate purity, R009).
_IO_CALLS = frozenset(
    {
        "open",
        "print",
        "os.open",
        "os.fdopen",
        "os.write",
        "os.truncate",
        "os.unlink",
        "os.remove",
        "os.rename",
        "os.replace",
        "os.makedirs",
        "os.mkdir",
        "os.rmdir",
        "os.utime",
        "os.fsync",
        "tempfile.mkstemp",
        "tempfile.mkdtemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryDirectory",
    }
)

#: Pathlib-style IO method names (attribute calls on any receiver).
_IO_METHODS = frozenset(
    {"write_text", "write_bytes", "unlink", "touch", "mkdir", "rmdir"}
)

#: RNG constructions — even seeded ones are banned inside certificate
#: predicates: a predicate's verdict must be a pure function of its
#: arguments, never of a private random stream.
_RNG_CALLS = frozenset(
    {"random.Random", "random.SystemRandom", "random.seed"}
)

#: RNG constructors that replay when given a seed and draw OS entropy
#: without one.  Every other call into ``random``/``numpy.random`` uses
#: the process-global stream (or, for ``SystemRandom``, OS entropy).
SEEDABLE_RNGS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.MT19937",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)

#: Function-name keywords placing a function in digest/comparison scope
#: (R003's scope); unordered set iteration only counts as a taint
#: source inside these, so the interprocedural pass extends R003 rather
#: than second-guessing every set loop in the tree.
DIGEST_KEYWORDS = (
    "digest",
    "hash",
    "canonical",
    "encode",
    "pattern",
    "match",
    "compare",
)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a posix relpath (``src/`` prefix stripped).

    ``src/repro/exec/cache.py`` → ``repro.exec.cache``;
    ``pkg/__init__.py`` → ``pkg``.
    """
    parts = list(PurePosixPath(relpath.replace("\\", "/")).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    parts[-1] = stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-dotted exprs."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return tuple(parts)
    return None


def is_set_expr(node: ast.AST) -> bool:
    """A ``set``/``frozenset`` literal, comprehension, or constructor call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _call_source(dotted: str, unseeded: bool) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` if calling the imported ``dotted`` is a source."""
    if dotted in _WALL_CLOCK:
        return "wall-clock", f"{dotted}()"
    if dotted == "os.getenv":
        return "environment", "os.getenv()"
    if dotted in _PROCESS_IDENTITY:
        return "process-identity", f"{dotted}()"
    if dotted.rpartition(".")[0] in ("random", "numpy.random") and (
        unseeded or dotted not in SEEDABLE_RNGS
    ):
        return "unseeded-rng", f"{dotted}()"
    return None


@dataclass(frozen=True)
class CallSite:
    """One outgoing call, recorded as unresolved dotted parts."""

    parts: Tuple[str, ...]
    line: int
    col: int

    def as_dict(self) -> dict:
        return {"parts": list(self.parts), "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, raw: dict) -> "CallSite":
        return cls(tuple(raw["parts"]), int(raw["line"]), int(raw["col"]))


@dataclass(frozen=True)
class SourceSite:
    """One direct nondeterminism source, in a function or at module scope."""

    kind: str  #: wall-clock | environment | process-identity | unseeded-rng | set-order
    detail: str  #: the resolved callee, e.g. ``"datetime.datetime.now()"``
    line: int
    col: int
    written: str = ""  #: the callee as written, e.g. ``"DT.now"`` (``""`` for set-order)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "line": self.line,
            "col": self.col,
            "written": self.written,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SourceSite":
        return cls(
            str(raw["kind"]),
            str(raw["detail"]),
            int(raw["line"]),
            int(raw["col"]),
            str(raw["written"]),
        )


@dataclass(frozen=True)
class ImpuritySite:
    """One purity violation (IO, global mutation, RNG construction)."""

    kind: str  #: io | global-mutation | rng-construction
    detail: str
    line: int
    col: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "line": self.line,
            "col": self.col,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ImpuritySite":
        return cls(
            str(raw["kind"]), str(raw["detail"]), int(raw["line"]), int(raw["col"])
        )


@dataclass
class FunctionSummary:
    """Everything the graph passes need to know about one function."""

    qname: str  #: module-qualified, e.g. ``repro.exec.cache.ResultCache.put``
    name: str  #: bare name, e.g. ``put``
    cls: str  #: enclosing class name, or ``""`` for module-level functions
    line: int
    calls: List[CallSite] = field(default_factory=list)
    sources: List[SourceSite] = field(default_factory=list)
    impurities: List[ImpuritySite] = field(default_factory=list)
    sink: str = ""  #: non-empty = digest-critical, with the reason

    def as_dict(self) -> dict:
        return {
            "qname": self.qname,
            "name": self.name,
            "cls": self.cls,
            "line": self.line,
            "calls": [call.as_dict() for call in self.calls],
            "sources": [source.as_dict() for source in self.sources],
            "impurities": [imp.as_dict() for imp in self.impurities],
            "sink": self.sink,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FunctionSummary":
        return cls(
            qname=str(raw["qname"]),
            name=str(raw["name"]),
            cls=str(raw["cls"]),
            line=int(raw["line"]),
            calls=[CallSite.from_dict(c) for c in raw["calls"]],
            sources=[SourceSite.from_dict(s) for s in raw["sources"]],
            impurities=[ImpuritySite.from_dict(i) for i in raw["impurities"]],
            sink=str(raw["sink"]),
        )


@dataclass
class ClassSummary:
    """A top-level class: its methods and (unresolved) base names."""

    qname: str
    name: str
    line: int
    bases: List[str] = field(default_factory=list)  #: dotted base names
    methods: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "qname": self.qname,
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
            "methods": list(self.methods),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ClassSummary":
        return cls(
            qname=str(raw["qname"]),
            name=str(raw["name"]),
            line=int(raw["line"]),
            bases=[str(b) for b in raw["bases"]],
            methods=[str(m) for m in raw["methods"]],
        )


@dataclass(frozen=True)
class Registration:
    """A ``*Certificate(...)`` construction and its bare-name arguments."""

    callee: str  #: dotted callee as written, e.g. ``MonitorCertificate``
    names: Tuple[str, ...]  #: bare-Name positional/keyword arguments
    line: int

    def as_dict(self) -> dict:
        return {"callee": self.callee, "names": list(self.names), "line": self.line}

    @classmethod
    def from_dict(cls, raw: dict) -> "Registration":
        return cls(str(raw["callee"]), tuple(raw["names"]), int(raw["line"]))


@dataclass
class ModuleSummary:
    """The graph-relevant facts of one module, AST-free and JSON-ready."""

    relpath: str
    module: str  #: dotted module name
    imports: Dict[str, str] = field(default_factory=dict)  #: alias → dotted target
    defs: Dict[str, str] = field(default_factory=dict)  #: top-level name → func|class
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
    registrations: List[Registration] = field(default_factory=list)
    #: 1-indexed line → rule ids disabled there (mirror of ModuleInfo).
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    #: Sources outside every summarized function (module level, class
    #: bodies, nested classes, defs under ``if``/``try``).
    sources: List[SourceSite] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "relpath": self.relpath,
            "module": self.module,
            "imports": dict(sorted(self.imports.items())),
            "defs": dict(sorted(self.defs.items())),
            "functions": [fn.as_dict() for fn in self.functions],
            "classes": [klass.as_dict() for klass in self.classes],
            "registrations": [reg.as_dict() for reg in self.registrations],
            "sources": [source.as_dict() for source in self.sources],
            "suppressions": {
                str(line): sorted(rules)
                for line, rules in sorted(self.suppressions.items())
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModuleSummary":
        return cls(
            relpath=str(raw["relpath"]),
            module=str(raw["module"]),
            imports={str(k): str(v) for k, v in raw["imports"].items()},
            defs={str(k): str(v) for k, v in raw["defs"].items()},
            functions=[FunctionSummary.from_dict(f) for f in raw["functions"]],
            classes=[ClassSummary.from_dict(c) for c in raw["classes"]],
            registrations=[Registration.from_dict(r) for r in raw["registrations"]],
            suppressions={
                int(line): list(rules)
                for line, rules in raw["suppressions"].items()
            },
            sources=[SourceSite.from_dict(s) for s in raw["sources"]],
        )

    def expand(self, parts: Sequence[str]) -> Optional[str]:
        """Dotted name with the leading import alias substituted, or None."""
        target = self.imports.get(parts[0])
        if target is None:
            return None
        return ".".join([target, *parts[1:]])

    def all_sources(self) -> List[SourceSite]:
        """Every source in the module: per-function, then module scope."""
        return [s for fn in self.functions for s in fn.sources] + self.sources

    @property
    def replay_layer(self) -> str:
        """The replay-critical path segment this module lives in, or ``""``."""
        parts = PurePosixPath(self.relpath.replace("\\", "/")).parts[:-1]
        hits = REPLAY_SEGMENTS.intersection(parts)
        return min(hits) if hits else ""


# ---------------------------------------------------------------------------
# extraction: ModuleInfo → ModuleSummary
# ---------------------------------------------------------------------------


def _package_of(module: str, relpath: str) -> str:
    """The package a module's relative imports resolve against."""
    if relpath.replace("\\", "/").endswith("__init__.py"):
        return module  # the module *is* the package
    return module.rsplit(".", 1)[0] if "." in module else ""


class _Extractor:
    """Single-pass extraction of a :class:`ModuleSummary` from one AST."""

    def __init__(self, module: ModuleInfo, module_name: str):
        self.info = module
        self.summary = ModuleSummary(
            relpath=module.relpath,
            module=module_name,
            suppressions={
                line: sorted(rules)
                for line, rules in module.suppressions.items()
            },
        )
        self.package = _package_of(module_name, module.relpath)

    # -- imports ---------------------------------------------------------------

    def _collect_imports(self, tree: ast.AST) -> None:
        imports = self.summary.imports
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = self.package
                    for _ in range(node.level - 1):
                        anchor = anchor.rsplit(".", 1)[0] if "." in anchor else ""
                    base = f"{anchor}.{base}" if base else anchor
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    imports[bound] = f"{base}.{alias.name}" if base else alias.name

    # -- top-level structure ---------------------------------------------------

    def run(self) -> ModuleSummary:
        tree = self.info.tree
        self._collect_imports(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.summary.defs[node.name] = "func"
                self._summarize_function(node, cls="")
            elif isinstance(node, ast.ClassDef):
                self.summary.defs[node.name] = "class"
                self._summarize_class(node)
            else:
                self._scan(node, None)
        return self.summary

    def _summarize_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            parts = dotted_parts(base)
            if parts is not None:
                bases.append(".".join(parts))
        methods = [
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self.summary.classes.append(
            ClassSummary(
                qname=f"{self.summary.module}.{node.name}",
                name=node.name,
                line=node.lineno,
                bases=bases,
                methods=methods,
            )
        )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(child, cls=node.name)
            else:
                self._scan(child, None)  # bases, decorators, class-body statements

    # -- per-function extraction -----------------------------------------------

    def _summarize_function(self, node, cls: str) -> None:
        prefix = f"{self.summary.module}.{cls}." if cls else f"{self.summary.module}."
        fn = FunctionSummary(
            qname=prefix + node.name,
            name=node.name,
            cls=cls,
            line=node.lineno,
            sink=self._sink_reason(node.name),
        )
        self._scan(node, fn)
        self._record_global_mutations(fn, node)
        self.summary.functions.append(fn)

    def _scan(self, node: ast.AST, fn: Optional[FunctionSummary]) -> None:
        """Record everything under ``node`` into ``fn``, or into the module
        when ``fn`` is None (calls and impurities are per-function only)."""
        digest_scope = fn is not None and any(
            kw in fn.name.lower() for kw in DIGEST_KEYWORDS
        )
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(fn, sub)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                parts = dotted_parts(sub)
                if parts is not None and len(parts) == 2:
                    if self.summary.expand(parts) == "os.environ":
                        self._add_source(fn, "environment", "os.environ", sub, parts)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if self.summary.imports.get(sub.id) == "os.environ":
                    self._add_source(fn, "environment", "os.environ", sub, (sub.id,))
            elif digest_scope and isinstance(sub, (ast.For, ast.comprehension)):
                if is_set_expr(sub.iter):
                    self._add_source(
                        fn, "set-order", "iteration over an unordered set", sub.iter
                    )

    @staticmethod
    def _sink_reason(name: str) -> str:
        low = name.lower()
        if "digest" in low or "canonical" in low:
            return f"digest-critical function {name}()"
        if name in _SINK_NAMES:
            return f"digest-critical function {name}()"
        return ""

    def _add_source(self, fn, kind, detail, node, parts=()) -> None:
        # Suppressed lines are recorded too: the engine counts R001/R002
        # findings there as suppressed, and the taint pass skips sources
        # on `disable=R002`/`disable=R006` lines.
        site = SourceSite(
            kind=kind,
            detail=detail,
            line=node.lineno,
            col=node.col_offset,
            written=".".join(parts),
        )
        (fn.sources if fn is not None else self.summary.sources).append(site)

    def _record_call(self, fn: Optional[FunctionSummary], node: ast.Call) -> None:
        parts = dotted_parts(node.func)
        if parts is None:
            # Method call on a non-name receiver: only purity cares.
            if (
                fn is not None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _IO_METHODS
            ):
                fn.impurities.append(
                    ImpuritySite(
                        "io",
                        f"calls .{node.func.attr}()",
                        node.lineno,
                        node.col_offset,
                    )
                )
            return
        if parts[-1].endswith("Certificate"):
            self._record_registration(node, parts)
        expanded = self.summary.expand(parts)
        if expanded is not None:
            # Sources are library callees, so only an imported name is one.
            found = _call_source(expanded, not node.args and not node.keywords)
            if found is not None:
                self._add_source(fn, *found, node, parts)
        if fn is None:
            return
        fn.calls.append(
            CallSite(parts=parts, line=node.lineno, col=node.col_offset)
        )
        dotted = expanded or ".".join(parts)
        if dotted.startswith("numpy.random.") or dotted in _RNG_CALLS:
            fn.impurities.append(
                ImpuritySite(
                    "rng-construction",
                    f"constructs an RNG via {dotted}()",
                    node.lineno,
                    node.col_offset,
                )
            )
        if dotted in _IO_CALLS or dotted.startswith("shutil."):
            fn.impurities.append(
                ImpuritySite(
                    "io", f"performs IO via {dotted}()", node.lineno, node.col_offset
                )
            )
        elif len(parts) >= 2 and parts[-1] in _IO_METHODS:
            fn.impurities.append(
                ImpuritySite(
                    "io",
                    f"calls .{parts[-1]}()",
                    node.lineno,
                    node.col_offset,
                )
            )

    def _record_registration(self, node: ast.Call, parts: Tuple[str, ...]) -> None:
        """A ``*Certificate(...)`` call and the bare names it registers."""
        names = [arg.id for arg in node.args if isinstance(arg, ast.Name)] + [
            kw.value.id for kw in node.keywords if isinstance(kw.value, ast.Name)
        ]
        if names:
            self.summary.registrations.append(
                Registration(callee=".".join(parts), names=tuple(names), line=node.lineno)
            )

    def _record_global_mutations(self, fn: FunctionSummary, node) -> None:
        declared: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared.update(sub.names)
        if not declared:
            return
        for sub in ast.walk(node):
            targets: List[ast.AST] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    fn.impurities.append(
                        ImpuritySite(
                            "global-mutation",
                            f"mutates module global {target.id!r}",
                            sub.lineno,
                            sub.col_offset,
                        )
                    )


def summarize_module(module: ModuleInfo, module_name: Optional[str] = None) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    if module_name is None:
        module_name = module_name_for(module.relpath)
    return _Extractor(module, module_name).run()


# ---------------------------------------------------------------------------
# the project index: symbol table + resolved call graph
# ---------------------------------------------------------------------------


class ProjectIndex:
    """All module summaries plus the resolved, module-qualified call graph."""

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self._module_of: Dict[str, ModuleSummary] = {}
        for name in sorted(self.modules):
            summary = self.modules[name]
            for fn in summary.functions:
                self.functions[fn.qname] = fn
                self._module_of[fn.qname] = summary
            for klass in summary.classes:
                self.classes[klass.qname] = klass
        #: caller qname → sorted list of (callee qname, line, col)
        self.edges: Dict[str, List[Tuple[str, int, int]]] = {}
        self._build_edges()
        self._mark_constructor_sinks()

    # -- resolution ------------------------------------------------------------

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """A fully dotted name → defining function/class qname, or None.

        Follows package re-exports (``pkg/__init__.py`` importing a name
        from ``pkg.impl``) up to a fixed depth, so aliases resolve to the
        module that actually defines the symbol.
        """
        if _depth > 16:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Try every module prefix, longest first, and follow re-exports.
        segments = dotted.split(".")
        for cut in range(len(segments) - 1, 0, -1):
            prefix = ".".join(segments[:cut])
            summary = self.modules.get(prefix)
            if summary is None:
                continue
            head = segments[cut]
            rest = segments[cut + 1 :]
            if head in summary.imports:
                target = ".".join([summary.imports[head], *rest])
                return self.resolve_dotted(target, _depth + 1)
            return None
        return None

    def resolve_call(
        self, summary: ModuleSummary, cls: str, parts: Sequence[str]
    ) -> Optional[str]:
        """Resolve one call's dotted parts from inside ``summary``/``cls``."""
        head = parts[0]
        if head in ("self", "cls") and cls:
            if len(parts) < 2:
                return None
            return self._resolve_method(summary, cls, parts[1])
        dotted = summary.expand(parts)
        if dotted is None:
            if head not in summary.defs:
                return None
            dotted = ".".join([summary.module, *parts])
        return self.resolve_dotted(dotted)

    def _resolve_method(
        self, summary: ModuleSummary, cls: str, method: str, _depth: int = 0
    ) -> Optional[str]:
        """``self.method`` → qname, walking project-resolvable base classes."""
        if _depth > 8:
            return None
        qname = f"{summary.module}.{cls}"
        klass = self.classes.get(qname)
        if klass is None:
            return None
        if method in klass.methods:
            return f"{qname}.{method}"
        for base in klass.bases:
            resolved = self.resolve_call(summary, "", base.split("."))
            if resolved is None or resolved not in self.classes:
                continue
            base_class = self.classes[resolved]
            base_module = self._summary_for_qname(resolved)
            if base_module is None:
                continue
            found = self._resolve_method(
                base_module, base_class.name, method, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _summary_for_qname(self, qname: str) -> Optional[ModuleSummary]:
        module = qname.rsplit(".", 1)[0]
        return self.modules.get(module)

    # -- graph construction ----------------------------------------------------

    def _build_edges(self) -> None:
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            summary = self._module_of[fn.qname]
            seen: Set[Tuple[str, int, int]] = set()
            edges: List[Tuple[str, int, int]] = []
            for call in fn.calls:
                resolved = self.resolve_call(summary, fn.cls, call.parts)
                if resolved is None:
                    continue
                if resolved in self.classes:
                    init = f"{resolved}.__init__"
                    resolved = init if init in self.functions else resolved
                if resolved not in self.functions:
                    continue
                if resolved == qname:
                    continue  # direct recursion adds nothing to taint
                edge = (resolved, call.line, call.col)
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
            if edges:
                self.edges[qname] = sorted(edges)

    def _mark_constructor_sinks(self) -> None:
        """Constructing ``ExecutionSummary`` makes the caller a sink."""
        for qname in sorted(self.functions):
            fn = self.functions[qname]
            if fn.sink:
                continue
            summary = self._module_of[qname]
            for call in fn.calls:
                resolved = self.resolve_call(summary, fn.cls, call.parts)
                if (
                    resolved is not None
                    and resolved in self.classes
                    and self.classes[resolved].name == "ExecutionSummary"
                ):
                    fn.sink = "ExecutionSummary constructor"
                    break

    # -- queries used by the project rules -------------------------------------

    def module_for(self, qname: str) -> ModuleSummary:
        return self._module_of[qname]

    def reverse_edges(self) -> Dict[str, List[Tuple[str, int, int]]]:
        """callee qname → sorted list of (caller qname, call line, col)."""
        reverse: Dict[str, List[Tuple[str, int, int]]] = {}
        for caller in sorted(self.edges):
            for callee, line, col in self.edges[caller]:
                reverse.setdefault(callee, []).append((caller, line, col))
        for callee in reverse:
            reverse[callee].sort()
        return reverse

    def scope_reason(self, fn: FunctionSummary) -> str:
        """Why taint reaching ``fn`` is reportable, or ``""``."""
        layer = self._module_of[fn.qname].replay_layer
        if layer:
            return f"replay-critical `{layer}` layer"
        if fn.sink:
            return fn.sink
        return ""

    def certificate_classes(self) -> Set[str]:
        """Qnames of project classes in a ``*Certificate`` hierarchy."""
        names: Set[str] = set()
        for qname in sorted(self.classes):
            if self._is_certificate_class(qname, set()):
                names.add(qname)
        return names

    def _is_certificate_class(self, qname: str, visiting: Set[str]) -> bool:
        if qname in visiting:
            return False
        visiting.add(qname)
        klass = self.classes[qname]
        if klass.name.endswith("Certificate"):
            return True
        summary = self._summary_for_qname(qname)
        if summary is None:
            return False
        for base in klass.bases:
            if base.split(".")[-1].endswith("Certificate"):
                return True
            resolved = self.resolve_call(summary, "", base.split("."))
            if (
                resolved is not None
                and resolved in self.classes
                and self._is_certificate_class(resolved, visiting)
            ):
                return True
        return False

    def certificate_predicates(self) -> Dict[str, str]:
        """Registered predicate qname → how it entered the registry."""
        predicates: Dict[str, str] = {}
        for module_name in sorted(self.modules):
            summary = self.modules[module_name]
            for reg in summary.registrations:
                for name in reg.names:
                    resolved = self.resolve_call(summary, "", (name,))
                    if resolved is None or resolved not in self.functions:
                        continue
                    predicates.setdefault(
                        resolved,
                        f"registered via {reg.callee.split('.')[-1]}() at "
                        f"{summary.relpath}:{reg.line}",
                    )
        check_methods = frozenset({"check_summary", "check_trace", "bound", "run"})
        for qname in sorted(self.certificate_classes()):
            klass = self.classes[qname]
            for method in klass.methods:
                if method not in check_methods:
                    continue
                fq = f"{qname}.{method}"
                if fq in self.functions:
                    predicates.setdefault(
                        fq, f"check method of certificate class {klass.name}"
                    )
        return predicates
