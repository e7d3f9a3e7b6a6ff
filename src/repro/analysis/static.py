"""Whole-program static cache-safety analysis and semantic code fingerprints.

The repo's reproducibility story has two dynamic layers (the runtime MPI
sanitizer and the byte-identity CI guards) and, until now, one *per-file*
static layer (``repro lint``).  This module adds the whole-program layer
that the content-addressed result cache (ROADMAP item 1) requires:

* **Module index** — :class:`ModuleIndex` parses every module under a
  package root with the stdlib :mod:`ast` (nothing is imported) and
  records its top-level definitions (functions, classes, assignments)
  and import bindings.
* **Call-graph closure** — starting from a registered cell worker
  (``@cell_worker`` in :mod:`repro.harness.parallel`), name and
  attribute references are resolved through import bindings — including
  function-local imports, re-exports and relative imports — into the
  transitive set of definitions the worker can reach.
* **Semantic fingerprints** — each definition is hashed over a canonical
  AST dump with docstrings stripped, so the fingerprint is invariant
  under comments, docstrings and formatting but changes with any
  semantic edit.  Folding the sorted per-definition hashes over a
  worker's closure yields its ``code fingerprint``: the cell-store
  key component that ties a stored result to the exact code that
  produced it (``repro fingerprint``, :mod:`repro.harness.cellstore`).
* **Interprocedural hazard propagation** — the deep linter rules
  (DET007–DET011, :mod:`repro.analysis.lint`) run over every module a
  worker reaches, and each finding is attributed to the workers whose
  closure contains it; DET001–DET006 stay covered by the per-file scan
  that ``repro lint --deep`` also performs.
* **Reporting & gating** — :class:`StaticReport` renders as text, JSON
  or SARIF 2.1.0, and :func:`new_findings` gates against a committed
  baseline so CI fails only on findings that are actually new.

The analysis is deliberately conservative: a reference it cannot resolve
(builtins, third-party modules, true dynamic dispatch) is ignored, and a
reference that *might* hit a definition (e.g. a class looked up through
a registry dict literal) pulls the whole definition into the closure.
Over-approximating the closure can only make fingerprints more
sensitive, never stale — the safe direction for a cache key.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import json
import pathlib
import typing as _t

from repro.analysis.lint import (
    DEEP_RULES,
    LintFinding,
    lint_source,
)
from repro.errors import ConfigError

#: Width of every fingerprint this module mints (hex chars of SHA-256).
FINGERPRINT_WIDTH = 32

#: Resolution depth cap for re-export chains (``from .x import y`` hops).
_MAX_HOPS = 16


# ---------------------------------------------------------------------------
# Module index
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class Definition:
    """One top-level definition: a function, class or assignment."""

    module: str     #: dotted module name, e.g. ``repro.harness.parallel``
    qualname: str   #: ``name`` or ``Class.method``
    node: ast.AST   #: the defining AST statement

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


#: Import binding: local alias -> (module, attribute-or-None).
_Bindings = dict[str, tuple[str, str | None]]


@dataclasses.dataclass(slots=True)
class _Module:
    name: str
    path: pathlib.Path
    source: str
    tree: ast.Module | None           #: None when the file does not parse
    is_package: bool
    defs: dict[str, Definition] = dataclasses.field(default_factory=dict)
    imports: _Bindings = dataclasses.field(default_factory=dict)


def _import_bindings(
    stmts: _t.Iterable[ast.stmt], modname: str, is_package: bool
) -> _Bindings:
    """Alias map from ``import``/``from ... import`` statements."""
    out: _Bindings = {}
    for node in stmts:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.split(".")[0]
                    out[root] = (root, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = modname.split(".")
                if not is_package:
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                if not anchor:
                    continue  # relative import escaping the package root
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue  # cannot be resolved without importing
                out[alias.asname or alias.name] = (base, alias.name)
    return out


class ModuleIndex:
    """AST index of every module under one package root.

    ``root`` is the package directory (default: the installed
    :mod:`repro` package) and ``package`` its dotted import name.  The
    index never imports the code it describes; files that fail to parse
    are kept (with ``tree=None``) so the deep analysis can surface them
    as DET000 instead of silently shrinking the closure.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        package: str | None = None,
    ) -> None:
        if root is None:
            import repro

            root = pathlib.Path(repro.__file__).parent
            package = package or "repro"
        self.root = pathlib.Path(root)
        if not self.root.is_dir():
            raise ConfigError(f"package root {self.root} is not a directory")
        self.package = package or self.root.name
        self.modules: dict[str, _Module] = {}
        self._load()

    _default: _t.ClassVar["ModuleIndex | None"] = None

    @classmethod
    def default(cls) -> "ModuleIndex":
        """The cached index over the installed :mod:`repro` package."""
        if cls._default is None:
            cls._default = cls()
        return cls._default

    @classmethod
    def reset_default(cls) -> None:
        """Drop the cached default index (tests, editable installs)."""
        cls._default = None
        _fingerprint_cache.clear()

    # -- construction ------------------------------------------------------
    def _load(self) -> None:
        files = sorted(
            f for f in self.root.rglob("*.py")
            if "__pycache__" not in f.parts
            and not any(part.startswith(".") for part in f.parts)
        )
        for path in files:
            rel = path.relative_to(self.root)
            parts = [self.package] + list(rel.parts[:-1])
            is_package = rel.name == "__init__.py"
            if not is_package:
                parts.append(rel.stem)
            name = ".".join(parts)
            source = path.read_text(encoding="utf-8", errors="replace")
            try:
                tree: ast.Module | None = ast.parse(source, filename=str(path))
            except SyntaxError:
                tree = None
            mod = _Module(name, path, source, tree, is_package)
            if tree is not None:
                mod.imports = _import_bindings(tree.body, name, is_package)
                self._collect_defs(mod, tree)
            self.modules[name] = mod

    def _collect_defs(self, mod: _Module, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.defs[stmt.name] = Definition(mod.name, stmt.name, stmt)
            elif isinstance(stmt, ast.ClassDef):
                mod.defs[stmt.name] = Definition(mod.name, stmt.name, stmt)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qn = f"{stmt.name}.{sub.name}"
                        mod.defs[qn] = Definition(mod.name, qn, sub)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mod.defs.setdefault(
                            target.id, Definition(mod.name, target.id, stmt)
                        )
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    mod.defs.setdefault(
                        stmt.target.id,
                        Definition(mod.name, stmt.target.id, stmt),
                    )

    # -- resolution --------------------------------------------------------
    def resolve_path(
        self, module: str, parts: _t.Sequence[str], _hops: int = 0
    ) -> Definition | None:
        """Resolve ``module`` + attribute ``parts`` to a definition.

        Walks submodule prefixes, module definitions and re-export
        bindings (bounded by ``_MAX_HOPS``); returns ``None`` for
        anything outside the index.
        """
        if _hops > _MAX_HOPS:
            return None
        parts = list(parts)
        mod = self.modules.get(module)
        while parts:
            name = parts[0]
            if mod is not None:
                d = mod.defs.get(name)
                if d is not None:
                    if len(parts) >= 2 and isinstance(d.node, ast.ClassDef):
                        meth = mod.defs.get(f"{name}.{parts[1]}")
                        return meth or d
                    return d
                binding = mod.imports.get(name)
                if binding is not None:
                    bmod, battr = binding
                    nparts = ([battr] if battr else []) + parts[1:]
                    return self.resolve_path(bmod, nparts, _hops + 1)
            sub = f"{module}.{name}"
            if sub in self.modules:
                module, mod = sub, self.modules[sub]
                parts = parts[1:]
                continue
            return None
        return None  # a bare module reference, not a definition

    def resolve_dotted(
        self,
        mod: _Module,
        scope: _Bindings,
        dotted: tuple[str, ...],
        owner_class: str | None = None,
    ) -> Definition | None:
        """Resolve a dotted reference seen inside ``mod``.

        ``scope`` holds function-local import bindings layered over the
        module's; ``owner_class`` enables ``self.method`` resolution.
        """
        head = dotted[0]
        if head in ("self", "cls") and owner_class is not None and len(dotted) > 1:
            return mod.defs.get(f"{owner_class}.{dotted[1]}")
        binding = scope.get(head) or mod.imports.get(head)
        if binding is not None:
            bmod, battr = binding
            parts = ([battr] if battr else []) + list(dotted[1:])
            return self.resolve_path(bmod, parts)
        d = mod.defs.get(head)
        if d is not None:
            if len(dotted) >= 2 and isinstance(d.node, ast.ClassDef):
                return mod.defs.get(f"{head}.{dotted[1]}") or d
            return d
        return None

    # -- worker discovery --------------------------------------------------
    def workers(self) -> dict[str, Definition]:
        """Registered cell workers: ``{name: defining function}``.

        Discovery is static: any top-level function decorated with
        ``@cell_worker("name")`` anywhere in the package counts, exactly
        mirroring the runtime registry that
        :func:`repro.harness.parallel.cell_worker` builds on import.
        """
        out: dict[str, Definition] = {}
        for modname in sorted(self.modules):
            mod = self.modules[modname]
            if mod.tree is None:
                continue
            for stmt in mod.tree.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for deco in stmt.decorator_list:
                    if not isinstance(deco, ast.Call):
                        continue
                    target = deco.func
                    name_parts = _dotted_name(target)
                    if not name_parts or name_parts[-1] != "cell_worker":
                        continue
                    if deco.args and isinstance(deco.args[0], ast.Constant) \
                            and isinstance(deco.args[0].value, str):
                        out[deco.args[0].value] = mod.defs[stmt.name]
        return out

    # -- closure -----------------------------------------------------------
    def closure(self, roots: _t.Sequence[Definition]) -> list[Definition]:
        """Transitive definitions reachable from ``roots`` (sorted)."""
        seen: dict[tuple[str, str], Definition] = {}
        stack = list(roots)
        while stack:
            d = stack.pop()
            if d.key in seen:
                continue
            seen[d.key] = d
            stack.extend(self._edges(d))
        return [seen[k] for k in sorted(seen)]

    def _edges(self, d: Definition) -> list[Definition]:
        mod = self.modules[d.module]
        node = d.node
        scope = _import_bindings(
            [s for s in ast.walk(node)
             if isinstance(s, (ast.Import, ast.ImportFrom))],
            mod.name, mod.is_package,
        )
        owner_class: str | None = None
        if isinstance(node, ast.ClassDef):
            owner_class = d.qualname
        elif "." in d.qualname:
            owner_class = d.qualname.split(".", 1)[0]
        out: dict[tuple[str, str], Definition] = {}
        for sub in ast.walk(node):
            dotted: tuple[str, ...] | None = None
            if isinstance(sub, ast.Attribute):
                dotted = _dotted_name(sub)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                dotted = (sub.id,)
            if not dotted:
                continue
            target = self.resolve_dotted(mod, scope, dotted, owner_class)
            if target is not None and target.key != d.key:
                out[target.key] = target
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                base_dotted = _dotted_name(base)
                if base_dotted:
                    target = self.resolve_dotted(mod, scope, base_dotted)
                    if target is not None and target.key != d.key:
                        out[target.key] = target
        return [out[k] for k in sorted(out)]


def _dotted_name(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` expression -> ``('a', 'b', 'c')`` (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Semantic fingerprints
# ---------------------------------------------------------------------------

def _strip_docstrings(node: ast.AST) -> None:
    """Remove docstring expressions everywhere under ``node`` (in place)."""
    for sub in ast.walk(node):
        body = getattr(sub, "body", None)
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Module)) or not body:
            continue
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            del body[0]


def definition_fingerprint(node: ast.AST) -> str:
    """Canonical semantic hash of one definition.

    The hash is taken over :func:`ast.dump` without source locations and
    with docstrings stripped, so it is invariant under comments,
    docstrings, blank lines and formatting — but any change to the code
    itself (names, constants, structure, decorators, annotations)
    produces a different value.
    """
    clean = copy.deepcopy(node)
    _strip_docstrings(clean)
    blob = ast.dump(clean, include_attributes=False)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_WIDTH]


def fold_fingerprints(items: _t.Iterable[tuple[str, str, str]]) -> str:
    """Order-independent fold of ``(module, qualname, hash)`` triples."""
    lines = sorted(f"{m}:{q}={h}" for m, q, h in items)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_WIDTH]


@dataclasses.dataclass(frozen=True, slots=True)
class WorkerClosure:
    """One worker's resolved call-graph closure and code fingerprint."""

    worker: str
    root: tuple[str, str]                    #: (module, qualname) of the worker fn
    fingerprint: str
    definitions: tuple[tuple[str, str], ...]  #: sorted (module, qualname) pairs
    modules: tuple[str, ...]                  #: sorted reachable modules

    def describe(self) -> str:
        return (
            f"{self.worker:<16} {self.fingerprint}  "
            f"({len(self.definitions)} definition(s), "
            f"{len(self.modules)} module(s))"
        )


def worker_closure(worker: str, index: ModuleIndex | None = None) -> WorkerClosure:
    """Closure + fingerprint for one registered worker."""
    index = index or ModuleIndex.default()
    workers = index.workers()
    try:
        root = workers[worker]
    except KeyError:
        raise ConfigError(
            f"unknown cell worker {worker!r}; statically registered: "
            f"{sorted(workers)}"
        ) from None
    defs = index.closure([root])
    fingerprint = fold_fingerprints(
        (d.module, d.qualname, definition_fingerprint(d.node)) for d in defs
    )
    return WorkerClosure(
        worker=worker,
        root=root.key,
        fingerprint=fingerprint,
        definitions=tuple(d.key for d in defs),
        modules=tuple(sorted({d.module for d in defs})),
    )


#: Per-process cache for :func:`worker_fingerprint` (the cell-store hot path).
_fingerprint_cache: dict[str, str | None] = {}


def worker_fingerprint(worker: str) -> str | None:
    """Code fingerprint of ``worker``, or ``None`` if it is not statically
    registered (e.g. a test-local worker defined outside the package).

    This is the cell-store hook: ``None`` means "no code identity
    available", so the store neither serves nor publishes that worker's
    cells — they always execute.
    """
    if worker not in _fingerprint_cache:
        try:
            _fingerprint_cache[worker] = worker_closure(worker).fingerprint
        except ConfigError:
            _fingerprint_cache[worker] = None
    return _fingerprint_cache[worker]


# ---------------------------------------------------------------------------
# Deep analysis: closure-wide hazards, attributed to workers
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class StaticFinding:
    """One deep finding, attributed to the workers whose closure hits it."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    workers: tuple[str, ...]

    def render(self) -> str:
        via = ", ".join(self.workers) if self.workers else "-"
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message} [workers: {via}]"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class StaticReport:
    """Result of one whole-program analysis pass."""

    closures: tuple[WorkerClosure, ...]
    findings: tuple[StaticFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        modules = sorted({m for c in self.closures for m in c.modules})
        lines = [
            f"static analysis: {len(self.closures)} worker(s), "
            f"{len(modules)} module(s) in closure union",
        ]
        lines.extend(f"  {c.describe()}" for c in self.closures)
        if self.findings:
            lines.extend(f.render() for f in self.findings)
            lines.append(f"deep: {len(self.findings)} finding(s)")
        else:
            lines.append("deep: clean")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "workers": [
                {
                    "worker": c.worker,
                    "fingerprint": c.fingerprint,
                    "root": list(c.root),
                    "definitions": len(c.definitions),
                    "modules": list(c.modules),
                }
                for c in self.closures
            ],
            "findings": [dataclasses.asdict(f) for f in self.findings],
        }


def analyze_workers(
    index: ModuleIndex | None = None,
    workers: _t.Sequence[str] | None = None,
) -> StaticReport:
    """Run the whole-program analysis over registered cell workers.

    Computes every requested worker's closure and fingerprint, deep-lints
    each module any closure touches (rules DET007–DET011 plus DET000 for
    unparsable files), and keeps a finding when its enclosing top-level
    definition — or the module body itself — is reachable, attributing
    it to the affected workers.
    """
    index = index or ModuleIndex.default()
    names = sorted(index.workers()) if workers is None else list(workers)
    closures = [worker_closure(w, index) for w in names]

    # module -> top-level qualname -> workers reaching it
    reach: dict[str, dict[str, set[str]]] = {}
    module_workers: dict[str, set[str]] = {}
    for c in closures:
        for modname, qualname in c.definitions:
            top = qualname.split(".", 1)[0]
            reach.setdefault(modname, {}).setdefault(top, set()).add(c.worker)
            module_workers.setdefault(modname, set()).add(c.worker)

    findings: list[StaticFinding] = []
    for modname in sorted(module_workers):
        mod = index.modules[modname]
        raw = lint_source(mod.source, str(mod.path), deep=True)
        # DET012 rides along so a stale suppression of a deep rule in
        # reachable code is surfaced by `repro lint --deep` too.
        deep_raw = [
            f for f in raw
            if f.rule in DEEP_RULES or f.rule in ("DET000", "DET012")
        ]
        if not deep_raw:
            continue
        spans = _toplevel_spans(mod)
        for f in deep_raw:
            owner = _owning_span(spans, f.line)
            if owner is None:
                via = module_workers[modname]  # import-time module body
            else:
                via = reach[modname].get(owner, set())
                if not via:
                    continue  # inside a definition no worker reaches
            findings.append(StaticFinding(
                path=f.path, line=f.line, col=f.col, rule=f.rule,
                message=f.message, workers=tuple(sorted(via)),
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return StaticReport(closures=tuple(closures), findings=tuple(findings))


def _toplevel_spans(mod: _Module) -> list[tuple[int, int, str]]:
    if mod.tree is None:
        return []
    spans = []
    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min(
                [stmt.lineno] + [d.lineno for d in stmt.decorator_list]
            )
            spans.append((start, stmt.end_lineno or stmt.lineno, stmt.name))
    return spans


def _owning_span(
    spans: _t.Sequence[tuple[int, int, str]], line: int
) -> str | None:
    for start, end, name in spans:
        if start <= line <= end:
            return name
    return None


# ---------------------------------------------------------------------------
# SARIF + baseline gating
# ---------------------------------------------------------------------------

def to_sarif(
    findings: _t.Sequence[LintFinding | StaticFinding],
    rules: _t.Mapping[str, str],
) -> dict[str, _t.Any]:
    """SARIF 2.1.0 document for ``findings`` (lint and/or deep)."""
    used = sorted({f.rule for f in findings})
    results = []
    for f in findings:
        message = f.message
        workers = getattr(f, "workers", ())
        if workers:
            message += f" [workers: {', '.join(workers)}]"
        results.append({
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": str(f.path).replace("\\", "/")},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": max(f.col, 1),
                    },
                },
            }],
        })
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": "https://example.invalid/repro",
                    "rules": [
                        {
                            "id": rule,
                            "shortDescription": {"text": rules.get(rule, rule)},
                        }
                        for rule in used
                    ],
                },
            },
            "results": results,
        }],
    }


def load_baseline(path: str | pathlib.Path) -> set[tuple[str, str]]:
    """Load a committed findings baseline: ``{(path, rule), ...}``.

    The baseline intentionally ignores line numbers — a finding moves
    with unrelated edits; gating is on *new* ``(file, rule)`` pairs.
    """
    p = pathlib.Path(path)
    if not p.exists():
        raise ConfigError(f"baseline file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
        rows = data["findings"] if isinstance(data, dict) else data
        return {(str(r["path"]), str(r["rule"])) for r in rows}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed baseline {p}: {exc}") from None


def new_findings(
    findings: _t.Sequence[LintFinding | StaticFinding],
    baseline: set[tuple[str, str]],
) -> list[LintFinding | StaticFinding]:
    """Findings not covered by the committed baseline."""
    return [f for f in findings if (str(f.path), f.rule) not in baseline]
