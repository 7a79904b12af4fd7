"""RL2xx — hot-path rules.

The event kernel dispatches millions of events per second; the classes
it touches per event (``sim/``, ``proxy/``) earn their throughput from
``__slots__`` (PR 2 measured 3.0x on bench_figure3).  These rules keep
that property from regressing:

* RL201 — every class in a hot-path package declares ``__slots__``
  (or ``@dataclass(slots=True)``); protocols, exceptions, enums and
  other structural/marker classes are exempt;
* RL202 — no attribute creation escaping ``__slots__`` on a fully
  slotted class (a non-slot assignment raises :class:`AttributeError`
  only on the rare path that executes it — this catches it statically);
* RL203 — no exception swallowing as control flow (an ``except:`` arm
  that is just ``pass`` / ``continue`` / ``break``) in kernel-adjacent
  code: kernel-dispatched callbacks must not hide errors or lean on
  exceptions for branching.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import register_rule
from repro.lint.rules.base import (
    LintRule,
    base_name,
    dataclass_slots,
    has_slots_declaration,
    is_dataclass_decorated,
    literal_slot_names,
)

HOT_PATH_SCOPE: Tuple[str, ...] = ("sim", "proxy")

#: Base-class names that make ``__slots__`` meaningless or impossible.
_EXEMPT_BASES = frozenset(
    {
        "ABC",
        "BaseException",
        "Enum",
        "Exception",
        "Flag",
        "IntEnum",
        "IntFlag",
        "NamedTuple",
        "Protocol",
        "StrEnum",
        "TypedDict",
    }
)


def _is_exempt_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base_name(base)
        if name is None:
            continue
        if name in _EXEMPT_BASES:
            return True
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


@register_rule
class SlotsRequiredRule(LintRule):
    """RL201: hot-path classes must declare __slots__."""

    code = "RL201"
    name = "slots-required"
    description = (
        "Classes in the hot-path packages (sim/, proxy/) are "
        "kernel-adjacent and must declare __slots__ (or "
        "@dataclass(slots=True)); per-instance dicts cost the batch "
        "dispatch loop measurable throughput."
    )
    scope = HOT_PATH_SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt_class(node):
                continue
            if has_slots_declaration(node) or dataclass_slots(node):
                continue
            if is_dataclass_decorated(node):
                yield self.diagnostic(
                    ctx.path,
                    node,
                    f"hot-path dataclass {node.name} lacks slots; "
                    "declare @dataclass(slots=True)",
                )
            else:
                yield self.diagnostic(
                    ctx.path,
                    node,
                    f"hot-path class {node.name} lacks __slots__",
                )


class _LocalClassIndex:
    """Classes defined in one file, for local base resolution."""

    def __init__(self, tree: ast.Module) -> None:
        self.by_name: Dict[str, ast.ClassDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                # Last definition wins, matching runtime rebinding.
                self.by_name[node.name] = node

    def resolved_namespace(
        self, node: ast.ClassDef
    ) -> Optional[Set[str]]:
        """Slot + class-level names over the (local) MRO, or ``None``.

        ``None`` means the hierarchy is not fully statically resolvable
        as slotted — an imported base, dynamic ``__slots__``, a
        dataclass (fields become slots via the decorator), or
        ``__dict__`` in slots — in which case RL202 stays silent.
        """
        if is_dataclass_decorated(node):
            return None
        names: Set[str] = set()
        slots = literal_slot_names(node)
        if slots is None:
            return None
        if "__dict__" in slots:
            return None
        names.update(slots)
        names.update(self._class_level_names(node))
        for base in node.bases:
            name = base_name(base)
            if name is None:
                return None
            if name == "object" or name in ("Generic",):
                continue
            base_node = self.by_name.get(name)
            if base_node is None:
                return None
            base_names = self.resolved_namespace(base_node)
            if base_names is None:
                return None
            names.update(base_names)
        return names

    @staticmethod
    def _class_level_names(node: ast.ClassDef) -> Set[str]:
        names: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.value is not None:
                    names.add(stmt.target.id)
        return names


def _method_self_name(method: ast.FunctionDef) -> Optional[str]:
    """The instance-receiver parameter name, or ``None`` to skip."""
    for decorator in method.decorator_list:
        name = base_name(decorator)
        if name in ("staticmethod", "classmethod"):
            return None
    if not method.args.args and not method.args.posonlyargs:
        return None
    first = (method.args.posonlyargs + method.args.args)[0]
    return first.arg


@register_rule
class SlotsEscapeRule(LintRule):
    """RL202: no attribute creation escaping __slots__."""

    code = "RL202"
    name = "slots-escape"
    description = (
        "Assigning an attribute not declared in __slots__ on a fully "
        "slotted class raises AttributeError at runtime — but only on "
        "the path that executes it; declare the name in __slots__ (and "
        "initialise it in __init__) instead."
    )
    scope = HOT_PATH_SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        index = _LocalClassIndex(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            namespace = index.resolved_namespace(node)
            if namespace is None:
                continue
            for method in node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if isinstance(method, ast.AsyncFunctionDef):
                    continue
                self_name = _method_self_name(method)
                if self_name is None:
                    continue
                yield from self._check_method(
                    ctx, node.name, method, self_name, namespace
                )

    def _check_method(
        self,
        ctx: FileContext,
        class_name: str,
        method: ast.FunctionDef,
        self_name: str,
        namespace: Set[str],
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(method):
            attr: Optional[str] = None
            location: ast.AST = node
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id == self_name
            ):
                attr = node.attr
            elif isinstance(node, ast.Call):
                attr = self._setattr_target(node, self_name)
            if attr is not None and attr not in namespace:
                yield self.diagnostic(
                    ctx.path,
                    location,
                    f"{class_name}.{method.name} assigns self.{attr}, "
                    f"which is not in {class_name}.__slots__",
                )

    @staticmethod
    def _setattr_target(node: ast.Call, self_name: str) -> Optional[str]:
        """Constant attr name for setattr(self, "x", ...) style calls."""
        func = node.func
        is_setattr = isinstance(func, ast.Name) and func.id == "setattr"
        is_object_setattr = (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        )
        if not (is_setattr or is_object_setattr):
            return None
        if len(node.args) < 2:
            return None
        receiver, name_arg = node.args[0], node.args[1]
        if not (isinstance(receiver, ast.Name) and receiver.id == self_name):
            return None
        if isinstance(name_arg, ast.Constant) and isinstance(
            name_arg.value, str
        ):
            return name_arg.value
        return None


@register_rule
class ExceptControlFlowRule(LintRule):
    """RL203: no exception swallowing as control flow on the hot path."""

    code = "RL203"
    name = "except-control-flow"
    description = (
        "An except arm that is just pass/continue/break swallows "
        "errors as branching; kernel-dispatched callbacks must "
        "surface failures (or test the condition explicitly)."
    )
    scope = HOT_PATH_SCOPE

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if all(
                isinstance(stmt, (ast.Pass, ast.Continue, ast.Break))
                for stmt in node.body
            ):
                label = (
                    ast.unparse(node.type) if node.type is not None else "all"
                )
                yield self.diagnostic(
                    ctx.path,
                    node,
                    f"except {label} arm is pure control flow "
                    f"({type(node.body[0]).__name__.lower()}); handle or "
                    "propagate the error",
                )
