"""RL1xx — determinism rules.

Every result in this reproduction depends on simulations being
bit-identical across serial and ``--workers N`` execution (the golden
suite pins it dynamically).  These rules reject the classic
nondeterminism sources *statically*, before a violation can scramble a
golden:

* RL101 — wall-clock / OS-entropy reads (``time.time()``,
  ``datetime.now()``, ``os.urandom()``, ...);
* RL102 — module-level ``random.*`` state or an un-seeded
  ``random.Random()`` / ``random.SystemRandom``;
* RL103 — iteration over ``set`` / ``frozenset`` values feeding
  ordered output (result rows, joins, ``list()`` conversions) —
  ``sorted(...)`` is the sanctioned bridge out of a set;
* RL104 — ``hash()`` / ``id()`` in orderings (sort keys, comparison
  dunders): both vary per process under PYTHONHASHSEED / allocation.
* RL105 — ``heapq`` imports outside ``repro.sim``: event scheduling
  must go through :class:`repro.sim.kernel.Kernel`, not ad-hoc private
  heaps, so every queue dispatches in the pinned (time, sequence) order.

RL101–RL104 are scoped to the simulator's deterministic core; analysis
or tooling code outside those packages may legitimately read clocks.
RL105 is repo-wide, with ``repro.sim`` itself (the kernel's home) exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import register_rule
from repro.lint.rules.base import LintRule, import_aliases, resolve_dotted

#: Packages whose code must stay bit-deterministic.  ``metrics`` and
#: ``traces`` join the issue's five because both feed result rows
#: (streaming estimators, synthetic trace generation).
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "sim",
    "proxy",
    "workload",
    "consistency",
    "scenarios",
    "metrics",
    "traces",
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: ``random.<fn>`` module-level functions that mutate/read the hidden
#: global Mersenne Twister (seeded from OS entropy at import).
_GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register_rule
class WallClockRule(LintRule):
    """RL101: no wall-clock or OS-entropy reads in deterministic code."""

    code = "RL101"
    name = "wall-clock-read"
    description = (
        "Wall-clock / OS-entropy calls (time.time, datetime.now, "
        "os.urandom, uuid.uuid4, secrets.*) are forbidden in the "
        "deterministic simulator packages; use the kernel clock and "
        "seeded RNG streams."
    )
    scope = DETERMINISM_SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, aliases)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.diagnostic(
                    ctx.path,
                    node,
                    f"nondeterministic call {resolved}(); use the "
                    "simulation clock / a seeded RNG stream instead",
                )


@register_rule
class GlobalRandomRule(LintRule):
    """RL102: no module-level random state or un-seeded Random()."""

    code = "RL102"
    name = "global-random"
    description = (
        "Module-level random.* calls share hidden global state and "
        "un-seeded random.Random() / random.SystemRandom draw from OS "
        "entropy; pass an explicitly seeded random.Random through "
        "repro.core.rng instead."
    )
    scope = DETERMINISM_SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, aliases)
            if resolved is None or not resolved.startswith("random."):
                continue
            function = resolved[len("random.") :]
            if function in _GLOBAL_RANDOM_FUNCTIONS:
                yield self.diagnostic(
                    ctx.path,
                    node,
                    f"module-level {resolved}() uses the hidden global "
                    "RNG; draw from an explicitly seeded random.Random",
                )
            elif function == "SystemRandom":
                yield self.diagnostic(
                    ctx.path,
                    node,
                    "random.SystemRandom draws from OS entropy and can "
                    "never be seeded; use random.Random(seed)",
                )
            elif function == "Random" and not node.args and not node.keywords:
                yield self.diagnostic(
                    ctx.path,
                    node,
                    "un-seeded random.Random() seeds itself from OS "
                    "entropy; pass an explicit seed",
                )


_SET_ANNOTATIONS = frozenset(
    {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}
)

_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

_ScopeNode = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_ANNOTATIONS
    return isinstance(target, ast.Name) and target.id in _SET_ANNOTATIONS


@register_rule
class SetIterationRule(LintRule):
    """RL103: no set-ordered iteration feeding ordered output."""

    code = "RL103"
    name = "set-iteration-order"
    description = (
        "Iterating a set/frozenset into ordered output (for-loops, "
        "list()/tuple()/enumerate(), str.join, non-set comprehensions) "
        "leaks PYTHONHASHSEED-dependent order into results; wrap the "
        "set in sorted(...) first."
    )
    scope = DETERMINISM_SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for scope_node in self._scopes(ctx.tree):
            tainted = self._tainted_names(scope_node)
            yield from self._check_scope(ctx, scope_node, tainted)

    def _scopes(self, tree: ast.Module) -> Iterator[_ScopeNode]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _is_set_expr(self, node: ast.expr, tainted: Set[str]) -> bool:
        """Whether ``node`` statically evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, tainted) or self._is_set_expr(
                node.right, tainted
            )
        return False

    def _own_statements(self, scope_node: _ScopeNode) -> Iterator[ast.stmt]:
        """Statements belonging to this scope (not nested functions).

        Class bodies are *not* separate scopes here: their statements
        execute in definition order inside the enclosing scope, so
        their set consumers are checked along with it.
        """
        stack: List[ast.stmt] = list(scope_node.body)
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)

    def _tainted_names(self, scope_node: _ScopeNode) -> Set[str]:
        """Names that are set-typed everywhere they are bound in scope.

        A name qualifies when at least one binding is a set expression
        or set annotation and *no* binding is anything else — a
        rebinding like ``items = sorted(items)`` launders the taint, so
        partial flows stay un-flagged (conservative by design).
        """
        set_bound: Set[str] = set()
        otherwise_bound: Set[str] = set()

        def note(name: str, is_set: bool) -> None:
            (set_bound if is_set else otherwise_bound).add(name)

        if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope_node.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if _annotation_is_set(arg.annotation):
                    note(arg.arg, True)
        empty: Set[str] = set()
        for stmt in self._own_statements(scope_node):
            if isinstance(stmt, ast.Assign):
                is_set = self._is_set_expr(stmt.value, empty)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        note(target.id, is_set)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                is_set = _annotation_is_set(stmt.annotation) or (
                    stmt.value is not None
                    and self._is_set_expr(stmt.value, empty)
                )
                note(stmt.target.id, is_set)
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                # ``s |= {...}`` keeps whatever type ``s`` already had.
                continue
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if isinstance(stmt.target, ast.Name):
                    note(stmt.target.id, False)
        return set_bound - otherwise_bound

    def _check_scope(
        self, ctx: FileContext, scope_node: _ScopeNode, tainted: Set[str]
    ) -> Iterator[Diagnostic]:
        for stmt in self._own_statements(scope_node):
            for node in ast.walk(stmt):
                yield from self._check_node(ctx, node, tainted)

    def _flag(
        self, ctx: FileContext, node: ast.AST, how: str
    ) -> Diagnostic:
        return self.diagnostic(
            ctx.path,
            node,
            f"set iteration order is PYTHONHASHSEED-dependent ({how}); "
            "wrap the set in sorted(...)",
        )

    def _check_node(
        self, ctx: FileContext, node: ast.AST, tainted: Set[str]
    ) -> Iterator[Diagnostic]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_set_expr(node.iter, tainted):
                yield self._flag(ctx, node.iter, "for-loop over a set")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                if self._is_set_expr(generator.iter, tainted):
                    yield self._flag(
                        ctx, generator.iter, "comprehension over a set"
                    )
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ORDERED_CONSUMERS
                and node.args
                and self._is_set_expr(node.args[0], tainted)
            ):
                yield self._flag(
                    ctx, node.args[0], f"{node.func.id}() over a set"
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and self._is_set_expr(node.args[0], tainted)
            ):
                yield self._flag(ctx, node.args[0], "str.join over a set")


@register_rule
class HeapqOutsideKernelRule(LintRule):
    """RL105: no ``heapq`` imports outside the kernel's home."""

    code = "RL105"
    name = "heapq-outside-kernel"
    description = (
        "Importing heapq outside repro.sim bypasses the event kernel; "
        "schedule through repro.sim.kernel.Kernel so dispatch order "
        "stays pinned to (time, sequence)."
    )
    # Repo-wide: a private heap anywhere in the simulator or its
    # harnesses re-implements scheduling outside the kernel.
    scope = ()

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_packages(("sim",)):
            # The kernel's own home: its event queue is a heapq heap.
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq" or alias.name.startswith(
                        "heapq."
                    ):
                        yield self.diagnostic(
                            ctx.path,
                            node,
                            "heapq import outside repro.sim; schedule "
                            "through repro.sim.kernel.Kernel",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                yield self.diagnostic(
                    ctx.path,
                    node,
                    "heapq import outside repro.sim; schedule "
                    "through repro.sim.kernel.Kernel",
                )


_COMPARISON_DUNDERS = frozenset({"__lt__", "__le__", "__gt__", "__ge__"})


@register_rule
class HashIdOrderingRule(LintRule):
    """RL104: no hash()/id() feeding an ordering."""

    code = "RL104"
    name = "hash-id-ordering"
    description = (
        "hash() varies per process under PYTHONHASHSEED and id() is an "
        "allocation address; neither may feed sorted()/.sort()/min()/"
        "max() keys or comparison dunders."
    )
    scope = DETERMINISM_SCOPE

    def _hash_id_calls(self, root: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                yield node

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                is_ordering_call = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("sorted", "min", "max")
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"
                )
                if not is_ordering_call:
                    continue
                for subtree in list(node.args) + [k.value for k in node.keywords]:
                    for call in self._hash_id_calls(subtree):
                        assert isinstance(call.func, ast.Name)
                        yield self.diagnostic(
                            ctx.path,
                            call,
                            f"{call.func.id}() inside an ordering "
                            "expression is process-dependent; order by "
                            "stable fields instead",
                        )
            elif (
                isinstance(node, ast.FunctionDef)
                and node.name in _COMPARISON_DUNDERS
            ):
                for call in self._hash_id_calls(ast.Module(node.body, [])):
                    assert isinstance(call.func, ast.Name)
                    yield self.diagnostic(
                        ctx.path,
                        call,
                        f"{call.func.id}() inside {node.name} makes "
                        "comparisons process-dependent; compare stable "
                        "fields instead",
                    )
