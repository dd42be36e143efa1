"""Int-purity pass: no float ops between the quant/dequant boundaries.

The integer execution route (``plan.py`` ``_contract_int``, the
``requant.py`` fixed-point primitives and the requant step every epilogue
runs, and the integer ops of ``intfold.py``) quantizes activations into an exact-integer carrier,
runs the ADC stage on an exact ``float64`` carrier (argued exact in
``requant.py``, not checkable lexically), reduces the fused route in pure
``int64`` arithmetic, and finishes each layer in an exact requant epilogue
that emits the next layer's integer codes.  The integer stretches are
marked in the source::

    # int-pure: begin
    t = np.multiply(x, mu, out=x if overwrite else None)
    t += beta
    np.clip(t, lo, hi, out=t)
    return np.floor(t, out=out, casting="unsafe")
    # int-pure: end

Inside a marked region the pass flags anything that would silently
reintroduce floating point:

* float literals (``0.5`` — integer and bool literals are fine);
* true division (``/`` — integer code uses ``//`` and shifts);
* float constructors/functions: ``float(...)``, ``np.float16/32/64``,
  ``np.divide/true_divide/sqrt/exp/log*/mean/average/std/var``;
* float dtypes passed via ``dtype=`` keywords, ``.astype(...)``, or
  ``np.dtype(...)`` (``dtype=np.int64`` stays legal).

Markers must balance within one file; a ``begin`` with no matching
``end`` (or vice versa) is reported.  Regions are purely lexical, so the
boundary multiply itself sits just outside the markers.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from .core import AnalysisPass, Finding, SourceModule, dotted_name, register

_MARKER_RE = re.compile(r"#\s*int-pure:\s*(begin|end)\b")
_FLOAT_CTORS = {"float16", "float32", "float64", "float128", "half",
                "single", "double", "longdouble"}
_FLOAT_FUNCS = {"divide", "true_divide", "sqrt", "exp", "expm1", "log",
                "log2", "log10", "log1p", "mean", "average", "std", "var"}
_NUMPY_NAMES = {"np", "numpy"}


def _regions(module: SourceModule) -> Tuple[List[Tuple[int, int]],
                                            List[Finding]]:
    """``(begin_line, end_line)`` marker regions + marker defects."""
    regions: List[Tuple[int, int]] = []
    defects: List[Finding] = []
    open_line: Optional[int] = None
    for lineno, comment in module.comments:
        match = _MARKER_RE.search(comment)
        if not match:
            continue
        kind = match.group(1)
        if kind == "begin":
            if open_line is not None:
                defects.append(Finding(
                    pass_id="int-purity", rule="marker-unbalanced",
                    path=module.relpath, line=lineno,
                    message="'int-pure: begin' inside an open region "
                            f"(started at line {open_line})"))
            open_line = lineno
        else:
            if open_line is None:
                defects.append(Finding(
                    pass_id="int-purity", rule="marker-unbalanced",
                    path=module.relpath, line=lineno,
                    message="'int-pure: end' with no open region"))
                continue
            regions.append((open_line, lineno))
            open_line = None
    if open_line is not None:
        defects.append(Finding(
            pass_id="int-purity", rule="marker-unbalanced",
            path=module.relpath, line=open_line,
            message="'int-pure: begin' never closed"))
    return regions, defects


def _is_float_dtype_expr(node: ast.AST) -> bool:
    """True when an expression names a float dtype."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("float") or node.value in ("f2", "f4", "f8")
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_CTORS
    if isinstance(node, ast.Call) and dotted_name(node.func).endswith("dtype"):
        return any(_is_float_dtype_expr(arg) for arg in node.args)
    return False


@register
class IntPurityPass(AnalysisPass):
    """Flag float reintroduction inside ``# int-pure:`` marked regions."""

    pass_id = "int-purity"
    description = ("no float literals, true division, or float-dtype "
                   "constructors between the quant/dequant markers")

    def run(self, module: SourceModule) -> List[Finding]:
        """Check every marked region of one module."""
        regions, findings = _regions(module)
        if not regions:
            return findings

        def in_region(lineno: int) -> bool:
            return any(begin < lineno < end for begin, end in regions)

        for node in ast.walk(module.tree):
            lineno = getattr(node, "lineno", None)
            if lineno is None or not in_region(lineno):
                continue
            findings.extend(self._check_node(module, node))
        return findings

    def _check_node(self, module: SourceModule,
                    node: ast.AST) -> List[Finding]:
        out: List[Finding] = []

        def flag(rule: str, message: str) -> None:
            out.append(Finding(pass_id=self.pass_id, rule=rule,
                               path=module.relpath, line=node.lineno,
                               message=message))

        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            flag("float-literal",
                 f"float literal {node.value!r} inside an int-pure region")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            flag("float-division",
                 "true division ('/') inside an int-pure region; integer "
                 "code uses '//' or shifts")
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            parts = name.split(".")
            if name == "float":
                flag("float-call", "float(...) inside an int-pure region")
            elif (len(parts) == 2 and parts[0] in _NUMPY_NAMES
                    and parts[1] in _FLOAT_CTORS | _FLOAT_FUNCS):
                flag("float-call",
                     f"{name}(...) produces floats inside an int-pure region")
            if parts[-1] == "astype" and node.args \
                    and _is_float_dtype_expr(node.args[0]):
                flag("float-dtype",
                     "astype(<float dtype>) inside an int-pure region")
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_float_dtype_expr(kw.value):
                    flag("float-dtype",
                         "dtype=<float dtype> inside an int-pure region")
        return out
