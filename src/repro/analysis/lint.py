"""Static determinism linter (``repro lint``).

Walks Python sources with the stdlib :mod:`ast` and flags constructs
that can make a simulation, experiment or parallel sweep
non-reproducible.  The rules:

========  ==================================================================
DET001    wall-clock time source (``time.time``/``perf_counter``/
          ``monotonic``, ``datetime.now``/``utcnow``/``today``) — virtual
          time must come from the engine (``comm.wtime()``/``engine.now``)
DET002    unseeded randomness (``random`` module functions, ``random.Random()``
          with no seed, legacy ``numpy.random.*`` global functions,
          ``numpy.random.default_rng()`` with no arguments) — randomness
          must derive from :mod:`repro.sim.rng` or an explicit seed
DET003    ``id()``-dependent ordering (``key=id`` in ``sorted``/``sort``/
          ``min``/``max``) — object addresses differ between processes
DET004    iteration over an unordered ``set`` literal/comprehension/call —
          string hashing is randomised per process; sort before iterating
DET005    parallel cell worker that is not picklable-by-construction
          (``@cell_worker`` on a nested function, or registering a lambda)
DET006    collective call (``yield from comm.allreduce(...)`` etc.) under
          rank-dependent control flow — a classic MPI deadlock pattern
DET007    function mutates (or rebinds) a module-level global — hidden
          state that differs between pool workers and across runs
DET008    environment/filesystem read (``os.environ``, ``os.getenv``,
          ``open``, ``read_text``/``read_bytes``) in simulation code —
          results must depend only on the cell payload
DET009    set order escaping into an ordered value (``list(set(...))``,
          ``tuple({...})``, ``",".join(set(...))``)
DET010    cell worker captures an unpicklable value (lambda default
          argument, or returns a lambda)
DET011    collective issued inside ``except``/``finally`` — ranks that
          did not take the handler never post it (sequence mismatch)
DET012    stale ``lint-ok`` suppression: the suppressed rule did not
          fire on that line
========  ==================================================================

Rules DET007–DET011 are *deep* rules: they run only in the deep pass
(``repro lint --deep``, :func:`lint_package`), which judges every file of
the installed package — the files whose bytes key the cell store
(:func:`repro.analysis.static.package_files`).  Plain ``repro lint``
keeps to the intra-file rules DET000–DET006 (plus the DET012 staleness
audit of suppressions for those rules).  A host-side line that trips a
deep rule without being able to change a cell's result carries a
suppression that says why.

Suppress a finding by ending the offending line with a comment of the
form ``# lint-ok: DET001 <reason>`` (rule list optional: a bare
``# lint-ok`` suppresses every rule on that line).  A listed rule that
did not actually fire on its line is itself reported (DET012), so
suppressions cannot rot silently.  The linter never imports the code it
checks, so it is safe on broken or slow-to-import files.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import pathlib
import re
import tokenize
import typing as _t

from repro.errors import ConfigError

#: Rule id -> short description (kept in sync with the module docstring).
RULES: dict[str, str] = {
    "DET000": "file does not parse (syntax error)",
    "DET001": "wall-clock time source in simulation/experiment code",
    "DET002": "unseeded random-number generation",
    "DET003": "id()-dependent ordering",
    "DET004": "iteration over an unordered set",
    "DET005": "parallel cell worker is not picklable-by-construction",
    "DET006": "collective call under rank-dependent control flow",
    "DET007": "mutation of a module-level global",
    "DET008": "environment/filesystem read in simulation code",
    "DET009": "set iteration order escapes into an ordered value",
    "DET010": "cell worker captures an unpicklable value",
    "DET011": "collective issued in an except/finally block",
    "DET012": "stale lint-ok suppression (rule did not fire)",
}

#: Rules that only run in the deep pass (``repro lint --deep``); plain
#: lint never fires them, and a suppression listing one is not
#: considered stale outside deep mode.
DEEP_RULES: frozenset[str] = frozenset(
    {"DET007", "DET008", "DET009", "DET010", "DET011"}
)

# The collective-method registry lives with the collectives themselves,
# so rule DET006 stays in sync with the Comm API.
from repro.smpi.collectives import COLLECTIVE_METHODS

_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
})
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
_LEGACY_NP_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "sample",
    "ranf", "seed", "shuffle", "permutation", "choice", "uniform",
    "normal", "standard_normal", "exponential", "poisson", "binomial",
})
_RANDOM_MODULE_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "randbytes",
})

#: In-place mutators on the builtin containers (DET007).
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
})
#: Attribute calls that read file contents (DET008).
_FS_READ_METHODS = frozenset({"read_text", "read_bytes"})

_SUPPRESS_RE = re.compile(
    r"lint-ok(?:\s*:\s*(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)


@dataclasses.dataclass(frozen=True, slots=True)
class LintFinding:
    """One linter hit, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """``{line: suppressed rule set}``; ``None`` means all rules."""
    out: dict[int, set[str] | None] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            rules = m.group("rules")
            out[tok.start[0]] = (
                {r.strip() for r in rules.split(",")} if rules else None
            )
    except tokenize.TokenError:  # pragma: no cover - truncated source
        pass
    return out


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` -> ('a','b','c'); None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _mentions_rank(node: ast.AST) -> bool:
    """Does the expression read a rank identity (``comm.rank`` etc.)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "world_rank"):
            return True
        if isinstance(sub, ast.Name) and sub.id in ("rank", "world_rank"):
            return True
    return False


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class _FileLinter(ast.NodeVisitor):
    """Single-file rule engine (aliases are tracked file-wide)."""

    def __init__(
        self,
        path: str,
        deep: bool = False,
        module_globals: frozenset[str] = frozenset(),
    ) -> None:
        self.path = path
        self.deep = deep
        #: Names assigned at module level (DET007 mutation targets).
        self.module_globals = module_globals
        self.findings: list[LintFinding] = []
        #: Local names bound to the relevant modules/classes.
        self.time_mods: set[str] = set()
        self.datetime_mods: set[str] = set()
        self.datetime_classes: set[str] = set()
        self.random_mods: set[str] = set()
        self.numpy_mods: set[str] = set()
        self.numpy_random_mods: set[str] = set()
        self.os_mods: set[str] = set()
        #: Local names bound to ``os.environ`` (``from os import environ``).
        self.environ_names: set[str] = set()
        #: Local names bound to ``os.getenv`` (``from os import getenv``).
        self.getenv_names: set[str] = set()
        #: from-imported hazard functions: local name -> rule id.
        self.hazard_names: dict[str, str] = {}
        #: from-imported names needing a seed argument (default_rng, Random).
        self.seed_required: dict[str, str] = {}
        self._func_depth = 0
        self._flagged: set[tuple[int, int, str]] = set()

    # -- helpers ----------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), rule)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.findings.append(LintFinding(
            path=self.path, line=node.lineno, col=node.col_offset + 1,
            rule=rule, message=f"{message} [{RULES[rule]}]",
        ))

    # -- import tracking ---------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_mods.add(local)
            elif alias.name == "datetime":
                self.datetime_mods.add(local)
            elif alias.name == "random":
                self.random_mods.add(local)
            elif alias.name == "numpy":
                self.numpy_mods.add(local)
            elif alias.name == "numpy.random":
                self.numpy_random_mods.add(alias.asname or "numpy")
                if alias.asname is None:
                    self.numpy_mods.add("numpy")
            elif alias.name == "os":
                self.os_mods.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module == "time" and alias.name in _WALLCLOCK_TIME_FNS:
                self.hazard_names[local] = "DET001"
            elif node.module == "datetime" and alias.name == "datetime":
                self.datetime_classes.add(local)
            elif node.module == "random":
                if alias.name in _RANDOM_MODULE_FNS:
                    self.hazard_names[local] = "DET002"
                elif alias.name == "Random":
                    self.seed_required[local] = "DET002"
            elif node.module == "numpy.random":
                if alias.name in _LEGACY_NP_RANDOM_FNS:
                    self.hazard_names[local] = "DET002"
                elif alias.name == "default_rng":
                    self.seed_required[local] = "DET002"
            elif node.module == "numpy" and alias.name == "random":
                self.numpy_random_mods.add(local)
            elif node.module == "os":
                if alias.name == "environ":
                    self.environ_names.add(local)
                elif alias.name == "getenv":
                    self.getenv_names.add(local)
        self.generic_visit(node)

    # -- DET001 / DET002 / DET003 ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_call_target(node)
        self._check_key_id(node)
        self._check_lambda_worker(node)
        if self.deep:
            self._check_global_mutation_call(node)
            self._check_env_fs_read(node)
            self._check_set_order_escape(node)
        self.generic_visit(node)

    def _check_call_target(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        unseeded = not node.args and not node.keywords
        if len(dotted) == 1:
            name = dotted[0]
            if name in self.hazard_names:
                self._flag(node, self.hazard_names[name], f"call to {name}()")
            elif name in self.seed_required and unseeded:
                self._flag(node, self.seed_required[name],
                           f"{name}() called without a seed")
            return
        head, rest = dotted[0], dotted[1:]
        if head in self.time_mods and len(rest) == 1 and rest[0] in _WALLCLOCK_TIME_FNS:
            self._flag(node, "DET001", f"call to {'.'.join(dotted)}()")
        elif head in self.datetime_classes and len(rest) == 1 \
                and rest[0] in _WALLCLOCK_DATETIME_FNS:
            self._flag(node, "DET001", f"call to {'.'.join(dotted)}()")
        elif head in self.datetime_mods and len(rest) == 2 \
                and rest[0] in ("datetime", "date") \
                and rest[1] in _WALLCLOCK_DATETIME_FNS:
            self._flag(node, "DET001", f"call to {'.'.join(dotted)}()")
        elif head in self.random_mods and len(rest) == 1:
            if rest[0] in _RANDOM_MODULE_FNS:
                self._flag(node, "DET002",
                           f"call to the shared global generator {'.'.join(dotted)}()")
            elif rest[0] == "Random" and unseeded:
                self._flag(node, "DET002", f"{'.'.join(dotted)}() without a seed")
        else:
            # numpy.random.X / np.random.X / npr.X
            np_random = (
                (head in self.numpy_mods and len(rest) == 2 and rest[0] == "random")
                or (head in self.numpy_random_mods and len(rest) == 1)
            )
            if np_random:
                fn = rest[-1]
                if fn in _LEGACY_NP_RANDOM_FNS:
                    self._flag(node, "DET002",
                               f"legacy global numpy RNG call {'.'.join(dotted)}()")
                elif fn == "default_rng" and unseeded:
                    self._flag(node, "DET002",
                               f"{'.'.join(dotted)}() without a seed")

    def _check_key_id(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            v = kw.value
            is_id = isinstance(v, ast.Name) and v.id == "id"
            if not is_id and isinstance(v, ast.Lambda):
                body = v.body
                is_id = (
                    isinstance(body, ast.Call)
                    and isinstance(body.func, ast.Name)
                    and body.func.id == "id"
                )
            if is_id:
                self._flag(node, "DET003",
                           "ordering keyed on id() depends on memory layout")

    # -- DET004 -----------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._flag(node.iter, "DET004",
                       "for-loop over a set; wrap in sorted() for stable order")
        self.generic_visit(node)

    def _check_comprehension(self, node: _t.Any) -> None:
        for gen in node.generators:
            if _is_set_expr(gen.iter):
                self._flag(gen.iter, "DET004",
                           "comprehension over a set; wrap in sorted()")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    # -- DET005 -----------------------------------------------------------
    def _is_cell_worker_deco(self, deco: ast.AST) -> bool:
        if isinstance(deco, ast.Call):
            deco = deco.func
        dotted = _dotted(deco)
        return dotted is not None and dotted[-1] == "cell_worker"

    def _check_lambda_worker(self, node: ast.Call) -> None:
        # cell_worker("name")(lambda ...) — registering an unpicklable worker.
        if not (isinstance(node.func, ast.Call)
                and self._is_cell_worker_deco(node.func)):
            return
        if any(isinstance(a, ast.Lambda) for a in node.args):
            self._flag(node, "DET005",
                       "lambda registered as a cell worker cannot be pickled")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        is_worker = any(
            self._is_cell_worker_deco(d) for d in node.decorator_list
        )
        if self._func_depth > 0 and is_worker:
            self._flag(node, "DET005",
                       f"cell worker {node.name!r} is a nested function; "
                       "workers must be module-level to be picklable")
        if self.deep and is_worker:
            self._check_worker_captures(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- DET006 -----------------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if _mentions_rank(node.test):
            for sub in ast.walk(node):
                if not isinstance(sub, ast.YieldFrom):
                    continue
                call = sub.value
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in COLLECTIVE_METHODS):
                    self._flag(
                        call, "DET006",
                        f"collective {call.func.attr}() inside rank-dependent "
                        "branch; every rank of the communicator must call it",
                    )
        self.generic_visit(node)

    # -- DET007 (deep): module-level global mutation -----------------------
    def _check_global_mutation_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module_globals
            and self._func_depth > 0
        ):
            self._flag(node, "DET007",
                       f"in-place mutation of module-level {func.value.id!r}")

    def visit_Global(self, node: ast.Global) -> None:
        if self.deep and self._func_depth > 0:
            names = ", ".join(node.names)
            self._flag(node, "DET007",
                       f"global statement rebinds module-level {names}")
        self.generic_visit(node)

    def _deep_check_store(self, target: ast.AST, node: ast.AST) -> None:
        """Subscript/attribute stores on module-level names (DET007)."""
        if not (self.deep and self._func_depth > 0):
            return
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if (
            isinstance(base, ast.Name)
            and base.id in self.module_globals
            and base is not target  # a bare Name store is a local rebind
        ):
            self._flag(node, "DET007",
                       f"store into module-level {base.id!r}")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._deep_check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._deep_check_store(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._deep_check_store(target, node)
        self.generic_visit(node)

    # -- DET008 (deep): environment / filesystem reads ---------------------
    def _check_env_fs_read(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            head, rest = dotted[0], dotted[1:]
            if head in self.os_mods and rest[:1] == ("getenv",):
                self._flag(node, "DET008", "os.getenv() read")
                return
            if head in self.os_mods and rest[:2] == ("environ", "get"):
                self._flag(node, "DET008", "os.environ read")
                return
            if head in self.environ_names and rest[:1] == ("get",):
                self._flag(node, "DET008", "os.environ read")
                return
            if len(dotted) == 1 and head in self.getenv_names:
                self._flag(node, "DET008", "os.getenv() read")
                return
            if len(dotted) == 1 and head == "open":
                self._flag(node, "DET008", "open() in simulation code")
                return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_READ_METHODS
        ):
            self._flag(node, "DET008",
                       f".{node.func.attr}() file read in simulation code")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.deep and isinstance(node.ctx, ast.Load):
            dotted = _dotted(node.value)
            if dotted is not None and (
                (len(dotted) == 2 and dotted[0] in self.os_mods
                 and dotted[1] == "environ")
                or (len(dotted) == 1 and dotted[0] in self.environ_names)
            ):
                self._flag(node, "DET008", "os.environ[...] read")
        self.generic_visit(node)

    # -- DET009 (deep): set order escaping into an ordered value -----------
    def _check_set_order_escape(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            self._flag(node, "DET009",
                       f"{node.func.id}() over a set freezes an unstable "
                       "order; use sorted()")
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            self._flag(node, "DET009",
                       "join() over a set freezes an unstable order; "
                       "use sorted()")

    # -- DET010 (deep): unpicklable captures in cell workers ---------------
    def _check_worker_captures(self, node: ast.FunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, ast.Lambda):
                self._flag(default, "DET010",
                           f"cell worker {node.name!r} has a lambda default "
                           "argument; pool workers cannot unpickle it")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Lambda):
                self._flag(sub, "DET010",
                           f"cell worker {node.name!r} returns a lambda; "
                           "the result cannot cross a process boundary")

    # -- DET011 (deep): collective in except/finally -----------------------
    def visit_Try(self, node: ast.Try) -> None:
        if self.deep:
            blocks = [(h.body, "except") for h in node.handlers]
            if node.finalbody:
                blocks.append((node.finalbody, "finally"))
            for body, kind in blocks:
                for stmt in body:
                    for sub in ast.walk(stmt):
                        if not isinstance(sub, ast.YieldFrom):
                            continue
                        call = sub.value
                        if (isinstance(call, ast.Call)
                                and isinstance(call.func, ast.Attribute)
                                and call.func.attr in COLLECTIVE_METHODS):
                            self._flag(
                                call, "DET011",
                                f"collective {call.func.attr}() inside "
                                f"{kind!r}; ranks that did not take this "
                                "path never post it",
                            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _module_globals(tree: ast.Module) -> frozenset[str]:
    """Names bound by module-level assignments (DET007 targets)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return frozenset(names)


def lint_source(
    source: str, path: str = "<string>", *, deep: bool = False
) -> list[LintFinding]:
    """Lint one source string; returns the unsuppressed findings.

    ``deep=True`` additionally runs the deep rules DET007–DET011
    (normally driven by :func:`lint_package`).  Suppression
    comments whose listed rules did not fire — counting only the rules
    enabled in this mode — are reported as DET012, which is itself never
    suppressible.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(
            path=path, line=exc.lineno or 0, col=(exc.offset or 0),
            rule="DET000", message=f"syntax error: {exc.msg}",
        )]
    linter = _FileLinter(path, deep=deep, module_globals=_module_globals(tree))
    linter.visit(tree)
    suppressed = _suppressions(source)
    fired_by_line: dict[int, set[str]] = {}
    for f in linter.findings:
        fired_by_line.setdefault(f.line, set()).add(f.rule)
    kept = []
    for f in sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule)):
        rules = suppressed.get(f.line, ...)
        if rules is ... or (rules is not None and f.rule not in rules):
            kept.append(f)
    for line, rules in sorted(suppressed.items()):
        fired = fired_by_line.get(line, set())
        if rules is None:
            if not fired:
                kept.append(LintFinding(
                    path=path, line=line, col=1, rule="DET012",
                    message="bare lint-ok with no finding on this line "
                            f"[{RULES['DET012']}]",
                ))
            continue
        for rule in sorted(rules):
            if rule in DEEP_RULES and not deep:
                continue  # only the deep analysis can judge these
            if rule not in fired:
                kept.append(LintFinding(
                    path=path, line=line, col=1, rule="DET012",
                    message=f"suppression lists {rule}, which did not fire "
                            f"on this line [{RULES['DET012']}]",
                ))
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept


def lint_file(
    path: str | pathlib.Path, *, deep: bool = False
) -> list[LintFinding]:
    """Lint one file.

    An unreadable or non-UTF-8 file is reported as a DET000 finding
    carrying the decode/OS error — a lint run must degrade to a finding,
    never crash on bytes it cannot interpret.
    """
    p = pathlib.Path(path)
    try:
        source = p.read_text(encoding="utf-8")  # lint-ok: DET008 the linter's input, never a cell's
    except (UnicodeDecodeError, OSError) as exc:
        return [LintFinding(
            path=str(p), line=0, col=0, rule="DET000",
            message=f"cannot read file: {exc}",
        )]
    return lint_source(source, str(p), deep=deep)


def iter_python_files(paths: _t.Iterable[str | pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A path that does not exist (or is neither a directory nor a ``.py``
    file) raises :class:`ConfigError` — a lint run over zero files must
    never pass as "clean" just because the cwd was wrong.
    """
    out: list[pathlib.Path] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            out.extend(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)
            )
        elif p.is_file() and p.suffix == ".py":
            out.append(p)
        else:
            raise ConfigError(f"lint path {p} is not a directory or .py file")
    return sorted(set(out))


def lint_paths(
    paths: _t.Iterable[str | pathlib.Path], *, deep: bool = False
) -> list[LintFinding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: list[LintFinding] = []
    for f in iter_python_files(paths):
        findings.extend(lint_file(f, deep=deep))
    return findings


def lint_package(root: str | pathlib.Path | None = None) -> list[LintFinding]:
    """The deep pass: lint every file of the package at ``root`` (default:
    the installed :mod:`repro`) with the deep rules enabled.

    Its scope is :func:`repro.analysis.static.package_files`, the files
    whose bytes key the cell store.  Only the deep rules' findings are
    kept, with DET000 (unparsable) and DET012 (a stale suppression,
    deep-rule ones included); the plain rules are left to
    :func:`lint_paths`.
    """
    from repro.analysis.static import _package_root, package_files

    root, _ = _package_root(root, None)
    return [
        f for rel in package_files(root)
        for f in lint_file(root / rel, deep=True)
        if f.rule in DEEP_RULES or f.rule in ("DET000", "DET012")
    ]


def render_findings(findings: _t.Sequence[LintFinding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    if not findings:
        return "lint: clean"
    lines = [f.render() for f in findings]
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{r} x{n}" for r, n in sorted(by_rule.items()))
    lines.append(f"lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)
