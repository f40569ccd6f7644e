"""The reprolint rule set: named, suppressible determinism invariants.

Each rule checks one parsed module
(:class:`~repro.lint.findings.ModuleInfo`) together with its
:class:`~repro.lint.graph.ModuleSummary`.  The summary is where names
are resolved and nondeterminism is classified: R001 and R002 only render
its source sites, and R007/R008 resolve library callees through its one
import table, so no rule walks the module's imports itself.  The
reproduction's whole
result pipeline rests on byte-identical replay — spec digests key the
on-disk result cache, parallel sweeps must match serial runs exactly,
and the lower-bound adversaries compare indistinguishable executions
message-for-message — so the rules target the ways Python code silently
breaks that contract:

========  ==============================================================
R001      no module-global or unseeded :mod:`random` or ``numpy.random``
          (inject a seeded ``random.Random(seed)``)
R002      no wall-clock or environment reads (``time.time``,
          ``datetime.now``, ``os.environ``) in the replay-critical
          ``sim``/``exec``/``faults`` layers
R003      no iteration over (or string-formatting of) unordered set
          expressions in digest-, hash-, or trace-comparison code
          without ``sorted(...)``
R004      digest coverage: every field of a digest-critical class must
          be reachable from its canonical encoder
R005      public modules declare a consistent ``__all__`` (entries
          resolve, no duplicate entries, no public stragglers)
========  ==============================================================

The full catalog with rationale and the suppression/baseline workflow
lives in ``docs/LINT.md``.  Rules are registered in :data:`RULES` by id
and must themselves be deterministic: findings are emitted with stable
messages and sorted by the engine, so lint output is byte-identical
across runs — the linter is held to the standard it enforces.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, ModuleInfo
from repro.lint.graph import (
    DIGEST_KEYWORDS,
    REPLAY_SEGMENTS,
    SEEDABLE_RNGS,
    ModuleSummary,
    SourceSite,
    dotted_parts,
    is_set_expr,
)

__all__ = [
    "Rule",
    "RULES",
    "register",
    "UnseededRandomRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "DigestCoverageRule",
    "PublicExportsRule",
    "FloatExactnessRule",
    "AtomicIORule",
]


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`id` (``"RXXX"``) and :attr:`summary`, and
    implement :meth:`check`, which receives the module and its summary;
    :meth:`applies` narrows the rule to a subset of modules (by path or
    file name) and defaults to all.
    """

    id: str = ""
    summary: str = ""

    def applies(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.id}>"


#: Registry of rule instances by id, populated by :func:`register`.
RULES: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding one instance of ``cls`` to :data:`RULES`."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


# ---------------------------------------------------------------------------
# R001 — no module-global or unseeded random
# ---------------------------------------------------------------------------


@register
class UnseededRandomRule(Rule):
    """Randomness must come from an injected, explicitly seeded stream.

    ``random.random()``, ``np.random.rand()`` and friends draw from the
    *process-global* RNG: any other consumer of that stream — another
    model, a test, a library — perturbs every draw after it, so results
    depend on call interleaving instead of the spec.  ``random.Random()``
    or ``np.random.default_rng()`` without a seed initialises from OS
    entropy and can never replay.  The project convention is a
    per-component ``random.Random(seed)`` (often keyed by a string such
    as ``f"faults:{seed}:{node!r}"``).  The sources are the graph's
    ``unseeded-rng`` sites (:mod:`repro.lint.graph`), anywhere in the
    module.
    """

    id = "R001"
    summary = "no module-global or unseeded `random`"

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        for site in summary.all_sources():
            if site.kind == "unseeded-rng":
                yield Finding(
                    module.relpath, site.line, site.col, self.id, self._message(site)
                )

    @staticmethod
    def _message(site: SourceSite) -> str:
        callee = site.detail
        # A from-imported constructor is named bare, as it is called.
        shown = callee.rsplit(".", 1)[-1] if "." not in site.written else callee
        if callee[: -len("()")] in SEEDABLE_RNGS:
            return (
                f"unseeded {shown} initialises from OS entropy; pass an "
                "explicit seed so replays are deterministic"
            )
        if callee == "random.SystemRandom()":
            return f"{shown} draws OS entropy and can never replay deterministically"
        seeded = (
            "numpy.random.default_rng(seed)"
            if callee.startswith("numpy.")
            else "random.Random(seed)"
        )
        return (
            f"call to the process-global RNG {callee}; inject a per-component "
            f"{seeded} instead"
        )


# ---------------------------------------------------------------------------
# R002 — no wall-clock or environment reads in replay-critical layers
# ---------------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """The simulation/execution/fault layers must not read the real world.

    A ``time.time()`` or ``os.environ`` read in a replay-critical path
    makes behaviour depend on when or where the process runs, which no
    spec digest can capture — a cached result could then disagree with a
    fresh run.  Timestamps belong to the simulated clock; configuration
    must be threaded through the spec or a constructor.  Monotonic
    *duration* measurement (``time.perf_counter``/``time.monotonic``)
    is allowed: the telemetry layer strips wall timings before results
    enter digested summaries.  The sources are the graph's
    ``wall-clock``/``environment`` sites, anywhere in the module.
    """

    id = "R002"
    summary = "no wall-clock/env reads in sim/exec/faults layers"

    _SCOPE_SEGMENTS = REPLAY_SEGMENTS

    def applies(self, module: ModuleInfo) -> bool:
        return bool(self._SCOPE_SEGMENTS.intersection(module.path_parts[:-1]))

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        for site in summary.all_sources():
            if site.kind in ("wall-clock", "environment"):
                yield Finding(
                    module.relpath, site.line, site.col, self.id, self._message(site)
                )

    @staticmethod
    def _message(site: SourceSite) -> str:
        bare = "." not in site.written  # reached through a from-import
        if site.kind == "environment":
            shown = "getenv()" if bare and site.detail == "os.getenv()" else site.detail
            return (
                f"environment read {shown} in a replay-critical layer; thread "
                "configuration through the spec or a constructor argument"
            )
        if site.detail.startswith("time."):
            telemetry = (
                "" if bare else " (or time.perf_counter for stripped telemetry durations)"
            )
            return (
                f"wall-clock read {site.detail} in a replay-critical layer; use "
                f"the simulated clock{telemetry}"
            )
        return (
            f"wall-clock read {site.written}() in a replay-critical layer; "
            "timestamps must come from the simulated clock"
        )



# ---------------------------------------------------------------------------
# R003 — no unordered iteration in digest/hash/trace-comparison code
# ---------------------------------------------------------------------------


@register
class UnorderedIterationRule(Rule):
    """Digest and comparison code must never depend on set ordering.

    String hashes are randomised per process, so iterating a ``set`` (or
    interpolating one into a diagnostic) yields a different order in
    every run — enough to flip an indistinguishability verdict's
    *message*, reorder a canonical encoding, or make two byte-identical
    sweeps disagree.  The rule scopes itself to functions whose names
    mention digesting, hashing, canonical encoding, patterns, matching,
    or comparison, and flags set-valued expressions that are iterated or
    formatted without ``sorted(...)``.
    """

    id = "R003"
    summary = "no unordered set iteration/formatting in digest code"

    _SCOPE_KEYWORDS = DIGEST_KEYWORDS
    _SET_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        seen: Set[Tuple[int, int, str]] = set()
        for func in ast.walk(module.tree):
            if isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and self._in_scope(func.name):
                for finding in self._check_function(module, func):
                    key = (finding.line, finding.col, finding.message)
                    if key not in seen:
                        seen.add(key)
                        yield finding

    def _in_scope(self, name: str) -> bool:
        low = name.lower()
        return any(keyword in low for keyword in self._SCOPE_KEYWORDS)

    def _check_function(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterator[Finding]:
        tainted = self._tainted_names(func)
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                yield from self._flag_iter(module, node.iter, tainted)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for comp in node.generators:
                    yield from self._flag_iter(module, comp.iter, tainted)
            elif isinstance(node, ast.FormattedValue):
                if self._is_set_expr(node.value, tainted):
                    yield module.finding(
                        node.value,
                        self.id,
                        "unordered set interpolated into a string in "
                        "digest/comparison code; wrap in sorted(...) so "
                        "diagnostics are deterministic",
                    )

    def _flag_iter(
        self, module: ModuleInfo, iter_node: ast.AST, tainted: Set[str]
    ) -> Iterator[Finding]:
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "sorted"
        ):
            return
        if self._is_set_expr(iter_node, tainted):
            yield module.finding(
                iter_node,
                self.id,
                "iteration over an unordered set expression in "
                "digest/comparison code; wrap in sorted(...) so the "
                "visit order is deterministic",
            )

    def _is_set_expr(self, node: ast.AST, tainted: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return self._is_set_expr(node.left, tainted) or self._is_set_expr(
                node.right, tainted
            )
        if isinstance(node, ast.Name):
            return node.id in tainted
        return False

    def _tainted_names(self, func: ast.AST) -> Set[str]:
        """Names assigned from set-producing expressions (to a fixpoint)."""
        tainted: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    name = node.targets[0].id
                    if name not in tainted and self._is_set_expr(
                        node.value, tainted
                    ):
                        tainted.add(name)
                        changed = True
        return tainted


# ---------------------------------------------------------------------------
# R004 — digest coverage for digest-critical classes
# ---------------------------------------------------------------------------


@register
class DigestCoverageRule(Rule):
    """Every field of a digest-critical class must reach its encoder.

    A field that the canonical encoder cannot see is a cache-poisoning
    hazard: changing it changes behaviour but not the digest, so a stale
    cached result is returned for a spec that would *not* reproduce it.
    Two shapes are checked:

    * a ``@dataclass`` defining an encoder method (``digest``,
      ``canonical_encoding``, ...) must reach every field — either
      explicitly (``self.<field>`` / a matching string literal) or by
      iterating ``dataclasses.fields``; field names compared against
      string literals inside a ``fields``-iterating encoder are
      *exclusions* and must be marked ``# reprolint: digest-exempt`` on
      the field's declaration line;
    * a class whose ``class`` line carries ``# reprolint:
      digest-critical`` is encoded generically from its instance
      ``__dict__``, so no method may create attributes outside
      ``__init__`` — a lazily-created cache attribute would perturb the
      encoding depending on call history.
    """

    id = "R004"
    summary = "digest-critical fields must be reachable from the encoder"

    _ENCODER_NAMES = frozenset(
        {"digest", "canonical_encoding", "canonical_bytes", "to_canonical"}
    )

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            encoder = self._find_encoder(node)
            if encoder is not None and self._is_dataclass(node):
                yield from self._check_dataclass(module, node, encoder)
            if module.has_marker(node.lineno, "digest-critical"):
                yield from self._check_generic(module, node)

    def _find_encoder(self, classdef: ast.ClassDef):
        for stmt in classdef.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in self._ENCODER_NAMES
            ):
                return stmt
        return None

    @staticmethod
    def _is_dataclass(classdef: ast.ClassDef) -> bool:
        for decorator in classdef.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            parts = dotted_parts(target)
            if parts is not None and parts[-1] == "dataclass":
                return True
        return False

    def _check_dataclass(
        self, module: ModuleInfo, classdef: ast.ClassDef, encoder
    ) -> Iterator[Finding]:
        fields: List[Tuple[str, int]] = []
        for stmt in classdef.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if "ClassVar" in ast.unparse(stmt.annotation):
                    continue
                fields.append((stmt.target.id, stmt.lineno))
        field_names = {name for name, _ in fields}

        dynamic = False
        compared_consts: Set[str] = set()
        self_attrs: Set[str] = set()
        all_consts: Set[str] = set()
        for node in ast.walk(encoder):
            if isinstance(node, ast.Call):
                parts = dotted_parts(node.func)
                if parts is not None and parts[-1] == "fields":
                    dynamic = True
            elif isinstance(node, ast.Compare):
                for operand in [node.left, *node.comparators]:
                    compared_consts.update(self._string_consts(operand))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    self_attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                all_consts.add(node.value)

        if dynamic:
            for name, lineno in fields:
                if name in compared_consts and not module.has_marker(
                    lineno, "digest-exempt"
                ):
                    yield module.finding(
                        lineno,
                        self.id,
                        f"field {name!r} is excluded from the canonical "
                        f"encoding by {encoder.name}(); mark the field "
                        "`# reprolint: digest-exempt` if it is genuinely "
                        "presentation-only, or include it in the digest",
                    )
        else:
            covered = self_attrs | (all_consts & field_names)
            for name, lineno in fields:
                if name not in covered and not module.has_marker(
                    lineno, "digest-exempt"
                ):
                    yield module.finding(
                        lineno,
                        self.id,
                        f"field {name!r} is not reachable from canonical "
                        f"encoder {encoder.name}(); a change to it would "
                        "not change the digest (cache-poisoning hazard)",
                    )

    @staticmethod
    def _string_consts(node: ast.AST) -> Iterable[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    yield element.value

    def _check_generic(
        self, module: ModuleInfo, classdef: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            stmt
            for stmt in classdef.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        init_attrs: Set[str] = set()
        for method in methods:
            if method.name == "__init__":
                init_attrs = {name for name, _ in self._self_assigns(method)}
        for method in methods:
            if method.name == "__init__":
                continue
            if not method.args.args or method.args.args[0].arg != "self":
                continue
            for name, lineno in sorted(self._self_assigns(method)):
                if name not in init_attrs:
                    yield module.finding(
                        lineno,
                        self.id,
                        f"attribute self.{name} is first assigned outside "
                        "__init__ on a digest-critical class; lazily-created "
                        "state leaks into the generic canonical encoding "
                        "and makes digests depend on call history",
                    )

    @staticmethod
    def _self_assigns(method) -> Set[Tuple[str, int]]:
        names: Set[Tuple[str, int]] = set()
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if (
                        isinstance(element, ast.Attribute)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"
                    ):
                        names.add((element.attr, element.lineno))
        return names


# ---------------------------------------------------------------------------
# R005 — consistent public exports
# ---------------------------------------------------------------------------


@register
class PublicExportsRule(Rule):
    """Public modules declare a complete, resolvable ``__all__``.

    ``__all__`` is the contract tests and downstream users import
    against; an entry that does not resolve breaks ``from module import
    *`` at a distance, and a public def/class missing from it is an
    accidental API.  Test/benchmark files and conftest/setup scripts are
    exempt; runner stubs such as ``__main__.py`` are expected to be
    baselined (see ``.reprolint-baseline.json``).
    """

    id = "R005"
    summary = "public modules declare a consistent `__all__`"

    _EXCLUDED_NAMES = frozenset({"conftest.py", "setup.py"})

    def applies(self, module: ModuleInfo) -> bool:
        name = module.name
        return not (
            name in self._EXCLUDED_NAMES
            or name.startswith("test_")
            or name.startswith("bench_")
        )

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        all_node: Optional[ast.AST] = None  # the Assign/AnnAssign statement
        all_value: Optional[ast.AST] = None  # its right-hand side
        bindings: Set[str] = set()
        public_defs: List[Tuple[str, str, int]] = []  # (kind, name, lineno)
        star_import = False
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings.add(node.name)
                if not node.name.startswith("_"):
                    public_defs.append(("function", node.name, node.lineno))
            elif isinstance(node, ast.ClassDef):
                bindings.add(node.name)
                if not node.name.startswith("_"):
                    public_defs.append(("class", node.name, node.lineno))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.add(target.id)
                        if target.id == "__all__":
                            all_node, all_value = node, node.value
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                bindings.add(element.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bindings.add(node.target.id)
                if node.target.id == "__all__" and node.value is not None:
                    all_node, all_value = node, node.value
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bindings.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        star_import = True
                    else:
                        bindings.add(alias.asname or alias.name)

        if all_node is None:
            yield module.finding(
                1,
                self.id,
                "module defines no __all__; declare its public exports "
                "explicitly (an empty list is fine for script-only modules)",
            )
            return

        value = all_value
        if not isinstance(value, (ast.List, ast.Tuple)) or any(
            not (isinstance(e, ast.Constant) and isinstance(e.value, str))
            for e in value.elts
        ):
            yield module.finding(
                all_node,
                self.id,
                "__all__ must be a literal list/tuple of string names so "
                "exports can be statically verified",
            )
            return

        entries = [e.value for e in value.elts]
        seen_entries: Set[str] = set()
        for entry in entries:
            if entry in seen_entries:
                yield module.finding(
                    all_node, self.id, f"duplicate __all__ entry {entry!r}"
                )
            seen_entries.add(entry)
            if entry not in bindings and not star_import:
                yield module.finding(
                    all_node,
                    self.id,
                    f"__all__ entry {entry!r} does not resolve to a "
                    "module-level definition or import",
                )

        for kind, name, lineno in public_defs:
            if name not in seen_entries:
                yield module.finding(
                    lineno,
                    self.id,
                    f"public {kind} {name!r} is missing from __all__; "
                    "export it or prefix it with an underscore",
                )


# ---------------------------------------------------------------------------
# R007 — float-exactness: no order-sensitive reductions in summary paths
# ---------------------------------------------------------------------------


@register
class FloatExactnessRule(Rule):
    """Summary reductions must fold in a pinned, order-exact sequence.

    Floating-point addition is not associative: ``sum()`` over a ``set``
    or over ``dict.values()`` folds in hash order, and ``np.sum`` may
    pick a pairwise or vectorised association — either can flip the last
    ulp of a skew summary between runs or between the streaming and
    trace paths, breaking the byte-identical parity contract
    (docs/ENGINE.md).  The rule scopes itself to the ``sim/`` and
    ``analysis/`` trees and flags:

    * ``sum(...)`` whose argument is a set expression or any
      ``<x>.values()`` call (dict value order is insertion order, but
      nothing pins the insertion order of the dict being summed — make
      the order explicit);
    * numpy reductions (``np.sum``, ``np.prod``, ``np.add.reduce``,
      ``np.cumsum``, ``np.dot``) outside the pinned expression-sequence
      pattern documented in docs/ENGINE.md.

    A reduction whose operands are provably order-exact (integer
    counters, or a sequence already pinned to a canonical order) is
    sanctioned with ``# reprolint: exact-fold`` on the line.
    """

    id = "R007"
    summary = "no order-sensitive reductions in sim/analysis summary paths"

    _SCOPE_SEGMENTS = frozenset({"sim", "analysis"})
    _NUMPY_REDUCERS = frozenset({"sum", "prod", "cumsum", "cumprod", "dot"})
    _MARKER = "exact-fold"

    def applies(self, module: ModuleInfo) -> bool:
        return bool(self._SCOPE_SEGMENTS.intersection(module.path_parts[:-1]))

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.has_marker(node.lineno, self._MARKER):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "sum":
                yield from self._check_builtin_sum(module, node)
                continue
            parts = dotted_parts(node.func)
            dotted = summary.expand(parts) if parts is not None else None
            if dotted is not None and dotted.startswith("numpy."):
                yield from self._check_numpy(module, node, parts, dotted)

    def _check_builtin_sum(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterator[Finding]:
        if not node.args:
            return
        arg = node.args[0]
        if is_set_expr(arg):
            yield module.finding(
                node,
                self.id,
                "sum() over a set folds in hash order, which is not "
                "reproducible across processes; fold over "
                "sorted(...) or mark `# reprolint: exact-fold` if the "
                "operands are order-exact (e.g. integers)",
            )
        elif (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "values"
            and not arg.args
        ):
            yield module.finding(
                node,
                self.id,
                "sum() over .values() folds in dict insertion order, "
                "which nothing pins here; fold over a sorted key order "
                "or mark `# reprolint: exact-fold` if the operands are "
                "order-exact (e.g. integer counters)",
            )

    def _check_numpy(
        self, module: ModuleInfo, node: ast.Call, parts: Tuple[str, ...], dotted: str
    ) -> Iterator[Finding]:
        segments = dotted.split(".")
        tail = segments[-1]
        reduce_call = tail == "reduce" and len(segments) >= 3
        if not (tail in self._NUMPY_REDUCERS or reduce_call):
            return
        yield module.finding(
            node,
            self.id,
            f"numpy reduction {'.'.join(parts)}() may fold pairwise/vectorised, "
            "not left-to-right; use the pinned expression-sequence "
            "pattern from docs/ENGINE.md (math.fsum or an explicit "
            "ordered loop) or mark `# reprolint: exact-fold` with a "
            "reason",
        )


# ---------------------------------------------------------------------------
# R008 — atomic IO in the campaign-execution persistence modules
# ---------------------------------------------------------------------------


@register
class AtomicIORule(Rule):
    """Result publication must follow fsync-before-rename discipline.

    The work-queue backend's crash-safety proof (docs/EXECUTION.md)
    rests on three idioms, each of which this rule enforces statically
    in ``exec/backend.py``, ``exec/cache.py``, and ``exec/manifest.py``:

    * **Durable publish** — a file written with ``open(..., "w")`` and
      then published with ``os.rename``/``os.replace`` must be
      ``os.fsync``'d first, or a crash after the rename can leave the
      *destination* pointing at zero-length data on some filesystems;
    * **Exclusive lease creation** — ``os.open`` with ``O_CREAT`` must
      also pass ``O_EXCL``, otherwise two workers can both believe they
      created the lease and the mutual-exclusion argument collapses;
    * **`os.replace` over `os.rename`** — bare ``os.rename`` raises on
      Windows when the destination exists and is not an atomic overwrite
      there; ``os.replace`` has the POSIX semantics everywhere.
    """

    id = "R008"
    summary = "fsync-before-rename, O_CREAT|O_EXCL leases, os.replace"

    _FILES = frozenset({"backend.py", "cache.py", "manifest.py"})
    _WRITE_MODES = ("w", "a", "x", "r+", "w+", "a+")

    def applies(self, module: ModuleInfo) -> bool:
        return module.name in self._FILES and "exec" in module.path_parts[:-1]

    def check(self, module: ModuleInfo, summary: ModuleSummary) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, func, summary)

    def _check_function(
        self, module: ModuleInfo, func: ast.AST, summary: ModuleSummary
    ) -> Iterator[Finding]:
        write_opens: List[int] = []
        fsyncs: List[int] = []
        renames: List[Tuple[ast.Call, str]] = []
        for node in self._own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if parts is None:
                continue
            dotted = summary.expand(parts) or ".".join(parts)
            if dotted in ("open", "os.fdopen"):
                if self._is_write_open(node):
                    write_opens.append(node.lineno)
            elif dotted == "os.fsync":
                fsyncs.append(node.lineno)
            elif dotted in ("os.rename", "os.replace"):
                renames.append((node, dotted[len("os."):]))
            elif dotted == "os.open":
                yield from self._check_os_open(module, node)

        for node, tail in sorted(renames, key=lambda r: r[0].lineno):
            if tail == "rename":
                yield module.finding(
                    node,
                    self.id,
                    "bare os.rename(); use os.replace() so the publish is "
                    "an atomic overwrite on every platform",
                )
            prior_open = max(
                (line for line in write_opens if line < node.lineno),
                default=None,
            )
            if prior_open is not None and not any(
                prior_open < line < node.lineno for line in fsyncs
            ):
                yield module.finding(
                    node,
                    self.id,
                    f"os.{tail}() publishes a file written at line "
                    f"{prior_open} without an intervening os.fsync(); a "
                    "crash after the rename can leave the destination "
                    "with zero-length data",
                )

    @staticmethod
    def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
        """Walk ``func``'s body, pruning nested defs (they get their own
        visit from the module-level walk, so descending twice would
        duplicate findings and confuse the fsync line-ordering check)."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _is_write_open(self, node: ast.Call) -> bool:
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return False
        return any(flag in mode.value for flag in self._WRITE_MODES)

    def _check_os_open(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterator[Finding]:
        flag_names: Set[str] = set()
        for arg in node.args[1:2] or [
            kw.value for kw in node.keywords if kw.arg == "flags"
        ]:
            for sub in ast.walk(arg):
                parts = dotted_parts(sub)
                if parts is not None and parts[-1].startswith("O_"):
                    flag_names.add(parts[-1])
        if "O_CREAT" in flag_names and "O_EXCL" not in flag_names:
            yield module.finding(
                node,
                self.id,
                "os.open() with O_CREAT but without O_EXCL: two workers "
                "can both believe they created the file; lease "
                "arbitration requires O_CREAT|O_EXCL",
            )
