"""The simulator-discipline linter (rules D1–D8).

The whole reproduction rests on invariants no unit test can state once and
for all — determinism of the cycle ledger, the obs plane never spending
time, digest preimages independent of dict iteration order.  These AST
rules enforce them statically over ``src/repro``:

====  ==================  ===================================================
ID    name                flags
====  ==================  ===================================================
D1    wall-clock          ``time.time``/``monotonic``/``perf_counter``
                          (dotted or imported bare via ``from time import``),
                          ``datetime.now``/``utcnow``/``today``, module-level
                          ``random.*``, unseeded ``random.Random()`` /
                          ``np.random.default_rng()`` — anything that makes a
                          run depend on the host instead of the cycle ledger.
                          Exempt: :data:`_D1_EXEMPT` — the host-time
                          profiler, where host wall-time *is* the measured
                          quantity (never fed into the cycle ledger)
D2    obs-read-only       ``.charge`` / ``.fast_forward`` / ``.count`` calls
                          from ``repro/obs`` modules (observability reads the
                          clock, it never spends it)
D3    ordered-preimage    hash constructors fed bare ``dict.items/keys/
                          values()`` (without ``sorted(...)``) or
                          ``json.dumps`` without ``sort_keys=True``
D4    blanket-except      bare ``except:`` and ``except Exception/
                          BaseException``
D5    cpu-attribution     ``.charge`` calls in ``repro/fleet`` outside any
                          ``with clock.on_cpu(...):`` scope and without an
                          explicit ``# serial-section`` marker on the line
D7    fleet-commit-       mutations of scheduler/pool *shared* state
      discipline          (``queue``/``active``/``cores``/``finished``/
                          ``counts``/``slots``) from ``repro/fleet`` code
                          *inside* a ``with clock.on_cpu(...):`` scope.
                          Per-core execution may only touch per-session
                          state; shared structures commit on the serial,
                          core-ordered path outside any core pin (the
                          fixed interleaving seeded digests depend on),
                          or on a line marked ``# commit-path`` where the
                          serial order is established another way
D8    unreferenced-def    a module-level function or class, or a method of
                          a module-level class, whose name appears in no
                          Python file of the checkout's :data:`D8_TREES`
                          except at its own definition(s). Exempt: dunders,
                          handler families dispatched by name (``_op_*``,
                          ``sys_*``, ``_iter_*``) and every name API.md
                          declares in a code span. D8 is cross-module, so
                          only :func:`lint_paths` runs it, and only for
                          files inside a checkout's ``src/``
====  ==================  ===================================================

D6 is retired: it guarded a module that no longer exists. Its ID is not
reused.

No finding can be waived: the tree ships lint-clean, and any finding
fails the gate.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

#: rule ID → short name (stable; referenced by CI)
RULES = {
    "D1": "wall-clock",
    "D2": "obs-read-only",
    "D3": "ordered-preimage",
    "D4": "blanket-except",
    "D5": "cpu-attribution",
    "D7": "fleet-commit-discipline",
    "D8": "unreferenced-def",
}

#: checkout trees whose Python files count as references for D8
D8_TREES = ("src", "tests", "benchmarks", "examples", "perfbench")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: handler families looked up by name, never by a literal reference:
#: ISA ops (``Cpu._dispatch``), syscalls (the kernel's ``@syscall``
#: table and the LibOS shim's router) and lmbench iteration bodies
_DISPATCHED_PREFIXES = ("_op_", "sys_", "_iter_")

_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
})
_WALL_CLOCK_DATE_ATTRS = frozenset({"now", "utcnow", "today"})

#: modules exempt from D1 (path suffixes). Principled, not grandfathered:
#: ``repro.obs.hostprof`` *measures* host wall-time by design — that is
#: its product, clearly labelled host seconds, and it never writes into
#: the cycle ledger (D2 still applies to it in full). Everything else in
#: the tree must stay on simulated cycles.
_D1_EXEMPT = ("repro/obs/hostprof.py",)
_CLOCK_SPENDERS = frozenset({"charge", "fast_forward", "count"})
_HASH_ATTRS = frozenset({
    "sha1", "sha256", "sha384", "sha512", "md5", "blake2b", "blake2s",
})
_DICT_ITERATORS = frozenset({"items", "keys", "values"})

#: scheduler/pool shared-state attribute names bound by D7: collections
#: every core can observe, whose mutation order IS the deterministic
#: interleaving seeded fleet digests pin
_D7_SHARED = frozenset({
    "queue", "active", "cores", "finished", "counts", "slots",
})
#: in-place mutating methods on those collections
_D7_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "pop", "popleft", "remove", "discard", "clear", "update",
    "setdefault", "rotate",
})


def _d7_shared_target(node: ast.AST) -> str | None:
    """The shared-state attribute a node mutates, if any.

    Matches ``self.queue`` and friends anywhere in the attribute chain
    (``self.pool.slots.append`` mutates ``slots``).
    """
    chain = _attr_chain(node)
    if not chain:
        return None
    for part in chain.split(".")[1:]:        # skip the base name
        if part in _D7_SHARED:
            return part
    return None


def _peel_subscripts(node: ast.AST) -> ast.AST:
    """``self.cores[i]`` → the ``self.cores`` attribute node."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str            # normalized, "repro/..."-relative where possible
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} " \
               f"({RULES[self.rule]}): {self.message}"


def _attr_chain(node: ast.AST) -> str:
    """Dotted-name text of an Attribute/Name chain ('' if not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parent: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
    return parent


def _in_on_cpu_scope(node: ast.AST, parents: dict) -> bool:
    """Is ``node`` lexically under a ``with ...on_cpu(...):``?"""
    cur = parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.With):
            for item in cur.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) and \
                        isinstance(expr.func, ast.Attribute) and \
                        expr.func.attr == "on_cpu":
                    return True
        cur = parents.get(cur)
    return False


def _under_sorted(node: ast.AST, parents: dict, stop: ast.AST) -> bool:
    """Is ``node`` inside a ``sorted(...)`` call, below ``stop``?"""
    cur = parents.get(node)
    while cur is not None and cur is not stop:
        if isinstance(cur, ast.Call) and isinstance(cur.func, ast.Name) \
                and cur.func.id == "sorted":
            return True
        cur = parents.get(cur)
    return False


def _check_d1(node: ast.Call, chain: str) -> str | None:
    if chain:
        head, _, tail = chain.partition(".")
        if head == "time" and tail in _WALL_CLOCK_TIME_ATTRS:
            return f"{chain}() reads the host wall clock"
        if tail.split(".")[-1] in _WALL_CLOCK_DATE_ATTRS and \
                "datetime" in chain.split("."):
            return f"{chain}() reads the host wall clock"
        if head == "random":
            if tail == "Random" and node.args:
                return None            # seeded Random(seed) is fine
            return f"{chain}() uses the process-global random state"
    if isinstance(node.func, ast.Attribute) and \
            node.func.attr == "default_rng" and not node.args:
        return "default_rng() without a seed is nondeterministic"
    return None


def _check_d3(node: ast.Call, chain: str, parents: dict) -> str | None:
    tail = chain.split(".")[-1] if chain else ""
    if tail not in _HASH_ATTRS:
        return None
    for arg in node.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Call):
                subchain = _attr_chain(sub.func)
                if isinstance(sub.func, ast.Attribute) and \
                        sub.func.attr in _DICT_ITERATORS and \
                        not _under_sorted(sub, parents, node):
                    return (f"hash preimage built from bare "
                            f".{sub.func.attr}() iteration — wrap in "
                            "sorted(...) or serialize canonically")
                if subchain.endswith("json.dumps") or subchain == "dumps":
                    kw = {k.arg for k in sub.keywords}
                    if "sort_keys" not in kw:
                        return ("hash preimage uses json.dumps without "
                                "sort_keys=True")
    return None


def lint_source(source: str, path: str) -> list[LintFinding]:
    """Lint one module's source text; ``path`` scopes D2/D5."""
    norm = path.replace("\\", "/")
    in_obs = "repro/obs/" in norm
    in_fleet = "repro/fleet/" in norm
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding("D4", norm, exc.lineno or 0,
                            f"unparseable module: {exc.msg}")]
    d1_exempt = any(norm.endswith(suffix) for suffix in _D1_EXEMPT)
    parents = _parents(tree)
    lines = source.splitlines()
    findings: list[LintFinding] = []

    # names that alias a wall-clock reader (``from time import
    # perf_counter [as pc]``) — bare calls to these are as much D1 as
    # the dotted ``time.perf_counter()`` form
    wall_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_ATTRS:
                    wall_names.add(alias.asname or alias.name)

    def line_text(lineno: int) -> str:
        return lines[lineno - 1] if 0 < lineno <= len(lines) else ""

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            blanket = None
            if node.type is None:
                blanket = "bare except:"
            else:
                names = [node.type] if not isinstance(node.type, ast.Tuple) \
                    else list(node.type.elts)
                for n in names:
                    if isinstance(n, ast.Name) and \
                            n.id in ("Exception", "BaseException"):
                        blanket = f"except {n.id}"
            if blanket:
                findings.append(LintFinding(
                    "D4", norm, node.lineno,
                    f"{blanket} swallows simulator faults indiscriminately"
                    " — catch the specific error types"))
            continue
        if in_fleet and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                shared = _d7_shared_target(_peel_subscripts(target))
                if shared and _in_on_cpu_scope(node, parents) and \
                        "# commit-path" not in line_text(node.lineno):
                    findings.append(LintFinding(
                        "D7", norm, node.lineno,
                        f"shared scheduler state '{shared}' assigned "
                        "inside an on_cpu(...) scope — commit shared "
                        "state on the serial core-ordered path or mark "
                        "the line '# commit-path'"))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        msg = _check_d1(node, chain)
        if msg is None and chain in wall_names:
            msg = f"{chain}() reads the host wall clock (bare import)"
        if msg and not d1_exempt:
            findings.append(LintFinding("D1", norm, node.lineno, msg))
        msg = _check_d3(node, chain, parents)
        if msg:
            findings.append(LintFinding("D3", norm, node.lineno, msg))
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if in_obs and attr in _CLOCK_SPENDERS:
                findings.append(LintFinding(
                    "D2", norm, node.lineno,
                    f".{attr}() from an obs module — observability must "
                    "be read-only on the clock"))
            if in_fleet and attr in _D7_MUTATORS:
                shared = _d7_shared_target(
                    _peel_subscripts(node.func.value))
                if shared and _in_on_cpu_scope(node, parents) and \
                        "# commit-path" not in line_text(node.lineno):
                    findings.append(LintFinding(
                        "D7", norm, node.lineno,
                        f".{attr}() mutates shared scheduler state "
                        f"'{shared}' inside an on_cpu(...) scope — "
                        "commit shared state on the serial core-ordered "
                        "path or mark the line '# commit-path'"))
            if in_fleet and attr == "charge" and \
                    not _in_on_cpu_scope(node, parents) and \
                    "# serial-section" not in line_text(node.lineno):
                findings.append(LintFinding(
                    "D5", norm, node.lineno,
                    ".charge() outside an on_cpu(...) scope — attribute "
                    "the cycles to a core or mark the line "
                    "'# serial-section'"))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _norm_rel(path: Path) -> str:
    """Path normalized to start at the ``repro`` package when possible."""
    parts = path.as_posix().split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return path.as_posix()


def _checked_defs(tree: ast.Module):
    """``(name, line)`` of the defs D8 checks: module-level functions and
    classes plus the methods of module-level classes."""
    for node in tree.body:
        if not isinstance(node, _DEF_NODES):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEF_NODES):
                    yield sub.name, sub.lineno


def _checkout_root(files: list[Path]) -> Path | None:
    """The checkout holding ``files``: the parent of their ``src/``."""
    for f in files:
        for parent in f.resolve().parents:
            if parent.name == "src":
                return parent.parent
    return None


def unreferenced_defs(files: list[Path], root: Path) -> list[LintFinding]:
    """D8 over ``files``, with the checkout at ``root`` as the corpus.

    A name is referenced when it occurs in the corpus more often than it
    is defined there (any nesting level), so a method defined by five
    classes and called once keeps all five, and one never called
    anywhere flags all five. Occurrences are identifier tokens of the
    whole file text, so dynamic references by string count too.
    """
    corpus = {p.resolve() for tree in D8_TREES
              for p in (root / tree).rglob("*.py")}
    corpus |= {f.resolve() for f in files}
    uses: Counter = Counter()
    defined: Counter = Counter()
    trees: dict[Path, ast.Module] = {}
    for path in sorted(corpus):
        text = path.read_text()
        uses.update(_IDENT.findall(text))
        try:
            tree = ast.parse(text)
        except SyntaxError:
            continue            # D4 reports unparseable linted modules
        defined.update(node.name for node in ast.walk(tree)
                       if isinstance(node, _DEF_NODES))
        trees[path] = tree
    api = root / "API.md"
    declared = set()
    if api.exists():
        for span in re.findall(r"`([^`]+)`", api.read_text()):
            declared.update(_IDENT.findall(span))
    findings = []
    for f in files:
        tree = trees.get(f.resolve())
        if tree is None:
            continue
        for name, line in _checked_defs(tree):
            if (name.startswith("__") and name.endswith("__")) or \
                    name.startswith(_DISPATCHED_PREFIXES) or \
                    name in declared or \
                    uses[name] > defined[name]:
                continue
            findings.append(LintFinding(
                "D8", _norm_rel(f), line,
                f"{name} is referenced nowhere in {', '.join(D8_TREES)} "
                "— delete it, call it, or declare it in API.md"))
    return findings


def lint_paths(paths: list) -> list[LintFinding]:
    """Lint files/trees; returns every finding.

    ``paths`` may mix files and directories; directories are walked for
    ``*.py`` in sorted order so output ordering is deterministic. D8
    runs when the files sit inside a checkout's ``src/`` tree.
    """
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: list[LintFinding] = []
    for f in files:
        findings.extend(lint_source(f.read_text(), _norm_rel(f)))
    root = _checkout_root(files)
    if root is not None:
        findings.extend(unreferenced_defs(files, root))
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
