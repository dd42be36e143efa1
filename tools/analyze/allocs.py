"""Hot-path allocation pass: registered hot functions must not allocate.

A function is *hot* when it carries the ``@hot_path`` decorator (from
:mod:`repro.engine.hotpath`) or when its qualified name appears in a
module-level ``_HOT_FUNCTIONS = ("Class.method", ...)`` registry tuple —
the registry form covers closures and generated functions that cannot be
decorated.

Inside a hot function the pass flags, per the engine's steady-state
zero-allocation contract:

* calls to the NumPy array *constructors* — ``np.zeros``, ``np.empty``,
  ``np.ones``, ``np.full``, their ``*_like`` variants, and the
  concatenators ``np.concatenate/stack/vstack/hstack/dstack`` — which
  must instead route through ``out=`` arguments or the thread-local
  workspace buffers of a :class:`repro.engine.hotpath.ScratchTable`;
* list/set/dict comprehensions and generator expressions (each builds a
  fresh container or frame per call);
* nested ``def``/``lambda`` (each call allocates a closure object).

``tuple``/arithmetic temporaries are out of scope — the pass targets the
allocations that dominated profiles (array buffers and per-call frames),
not every object the interpreter touches.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from .core import (AnalysisPass, Finding, SourceModule, dotted_name,
                   register)

_BANNED_NUMPY = {
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "concatenate", "stack", "vstack", "hstack", "dstack",
}
_NUMPY_NAMES = {"np", "numpy"}
_DECORATOR = "hot_path"


def _is_hot_decorator(node: ast.AST) -> bool:
    """True for ``@hot_path`` / ``@hotpath.hot_path`` style decorators."""
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_name(node).split(".")[-1] == _DECORATOR


def _registry_names(tree: ast.Module) -> Set[str]:
    """Qualnames listed in a module-level ``_HOT_FUNCTIONS`` tuple."""
    names: Set[str] = set()
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "_HOT_FUNCTIONS"):
            try:
                value = ast.literal_eval(stmt.value)
            except (ValueError, SyntaxError):
                continue
            if isinstance(value, (list, tuple)):
                names.update(str(item) for item in value)
    return names


def _functions_with_qualnames(
        tree: ast.Module) -> Iterable[Tuple[str, ast.FunctionDef]]:
    """Every function in the module with its ``Class.method``-style name."""

    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


@register
class HotPathAllocationPass(AnalysisPass):
    """No array constructors, comprehensions, or closures in hot functions."""

    pass_id = "hot-path-allocation"
    description = ("functions registered @hot_path route buffers through "
                   "out=/ScratchTable instead of allocating per call")

    def run(self, module: SourceModule) -> List[Finding]:
        """Flag banned constructs inside every registered hot function."""
        findings: List[Finding] = []
        registry = _registry_names(module.tree)
        for qualname, func in _functions_with_qualnames(module.tree):
            hot = (qualname in registry
                   or any(_is_hot_decorator(d) for d in func.decorator_list))
            if hot:
                findings.extend(self._check(module, qualname, func))
        return findings

    def _check(self, module: SourceModule, qualname: str,
               func: ast.FunctionDef) -> List[Finding]:
        findings: List[Finding] = []

        def flag(rule: str, node: ast.AST, message: str) -> None:
            findings.append(Finding(
                pass_id=self.pass_id, rule=rule, path=module.relpath,
                line=node.lineno, end_line=getattr(node, "end_lineno", 0) or 0,
                symbol=qualname, message=message))

        for node in ast.walk(func):
            if node is func:
                continue
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                parts = name.split(".")
                if (len(parts) == 2 and parts[0] in _NUMPY_NAMES
                        and parts[1] in _BANNED_NUMPY):
                    flag("hot-allocation", node,
                         f"hot path calls {name} (allocates per call); "
                         f"route through out=/ScratchTable buffers")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                kind = type(node).__name__
                flag("hot-comprehension", node,
                     f"hot path builds a {kind} (fresh container/frame per "
                     f"call); use a preallocated buffer and an explicit loop")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                label = getattr(node, "name", "<lambda>")
                flag("hot-closure", node,
                     f"hot path defines {label!r} (closure object allocated "
                     f"per call); hoist it to module or class scope")
        return findings
