"""Tree-walking interpreter executing GDScript against engine nodes.

A :class:`GDScriptClass` is a compiled script; instantiating it against a
:class:`~repro.engine.node.Node` produces a :class:`ScriptInstance` that the
engine drives through the normal lifecycle hooks:

* plain ``var`` members initialise at instantiation,
* ``@export`` members register as node export variables (Inspector-editable),
* ``@onready`` members evaluate when the node readies — after the node is in
  the tree, so ``$"../Data"`` resolves — immediately before ``_ready`` runs,
* any function is callable by name (the colour-toggle button calls
  ``change_pallet_color``).

Semantics follow GDScript where they differ from Python: integer ``/``
truncates, ``+`` concatenates strings and arrays but never mixes types,
``print`` output goes to the instance's capturable console.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.engine.node import Node
from repro.errors import EngineError, GDScriptRuntimeError
from repro.gdscript import ast
from repro.gdscript.builtins import make_builtins
from repro.gdscript.parser import parse

__all__ = ["GDScriptClass", "ScriptInstance", "compile_script"]

#: Statement budget per top-level call — a tripwire for runaway educator scripts.
MAX_STEPS = 2_000_000


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Env:
    """A lexical scope chain (function locals and nested blocks)."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["_Env"] = None) -> None:
        self.vars: dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> tuple[bool, Any]:
        env: Optional[_Env] = self
        while env is not None:
            if name in env.vars:
                return True, env.vars[name]
            env = env.parent
        return False, None

    def assign(self, name: str, value: Any) -> bool:
        env: Optional[_Env] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return True
            env = env.parent
        return False

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value


class GDScriptClass:
    """A compiled script, shareable across any number of node instances."""

    def __init__(self, script: ast.Script, source: str) -> None:
        self.ast = script
        self.source = source
        self.functions = {fn.name: fn for fn in script.functions}

    @classmethod
    def compile(cls, source: str) -> "GDScriptClass":
        return cls(parse(source), source)

    @property
    def extends(self) -> Optional[str]:
        return self.ast.extends

    def instantiate(self, node: Node) -> "ScriptInstance":
        """Bind to a node: initialise members, register exports, attach."""
        instance = ScriptInstance(self, node)
        node.attach_script(instance)
        return instance


class ScriptInstance:
    """One script bound to one node: member variables plus callable functions."""

    def __init__(self, cls: GDScriptClass, node: Node) -> None:
        self.cls = cls
        self.node = node
        self.vars: dict[str, Any] = {}
        self.output: list[tuple[str, bool]] = []
        self.console: Optional[Callable[[str, bool], None]] = None
        self._interp = Interpreter(self)
        self._onready_done = False
        for member in cls.ast.members:
            if member.onready:
                self.vars[member.name] = None
                continue
            value = (
                self._interp.evaluate(member.initializer, _Env())
                if member.initializer is not None
                else None
            )
            self.vars[member.name] = value
            if member.export:
                node.export_var(member.name, value, member.type_hint)

    # -- engine lifecycle hooks ------------------------------------------- #

    def _ready(self) -> None:
        for member in self.cls.ast.members:
            if member.onready:
                value = (
                    self._interp.evaluate(member.initializer, _Env())
                    if member.initializer is not None
                    else None
                )
                self.vars[member.name] = value
        self._onready_done = True
        if "_ready" in self.cls.functions:
            self.call("_ready")

    def _process(self, delta: float) -> None:
        if "_process" in self.cls.functions:
            self.call("_process", delta)

    def _input(self, event: Any) -> None:
        if "_input" in self.cls.functions:
            self.call("_input", event)

    # -- script API -------------------------------------------------------- #

    def has_function(self, name: str) -> bool:
        return name in self.cls.functions

    def call(self, name: str, *args: Any) -> Any:
        fn = self.cls.functions.get(name)
        if fn is None:
            raise GDScriptRuntimeError(f"script has no function {name!r}")
        return self._interp.call_function(fn, list(args))

    def get_var(self, name: str) -> Any:
        if name not in self.vars:
            raise GDScriptRuntimeError(f"script has no member variable {name!r}")
        return self.vars[name]

    def set_var(self, name: str, value: Any) -> None:
        """Set a member variable (the Inspector writes exports through this)."""
        if name not in self.vars:
            raise GDScriptRuntimeError(f"script has no member variable {name!r}")
        self.vars[name] = value

    def __getattr__(self, name: str) -> Any:
        # expose script functions as bound callables: script.change_pallet_color()
        cls = object.__getattribute__(self, "cls")
        if name in cls.functions:
            return lambda *args: self.call(name, *args)
        raise AttributeError(name)

    def output_text(self) -> str:
        """All captured ``print``/``printerr`` output, newline-joined."""
        return "\n".join(line for line, _ in self.output)

    def error_lines(self) -> list[str]:
        return [line for line, is_err in self.output if is_err]


class Interpreter:
    """Statement/expression evaluator bound to one script instance."""

    def __init__(self, instance: ScriptInstance) -> None:
        self.instance = instance
        self.builtins = make_builtins(self)
        self.steps = 0

    # -- output ------------------------------------------------------------ #

    def emit_output(self, text: str, *, error: bool) -> None:
        self.instance.output.append((text, error))
        if self.instance.console is not None:
            self.instance.console(text, error)

    # -- function calls ----------------------------------------------------- #

    def call_function(self, fn: ast.FuncDef, args: list[Any]) -> Any:
        if len(args) != len(fn.params):
            raise GDScriptRuntimeError(
                f"{fn.name}() takes {len(fn.params)} arguments, got {len(args)}",
                line=fn.line,
            )
        env = _Env()
        for name, value in zip(fn.params, args):
            env.declare(name, value)
        self.steps = 0
        try:
            self.exec_block(fn.body, env)
        except _Return as ret:
            return ret.value
        return None

    # -- statements ---------------------------------------------------------- #

    def exec_block(self, stmts, env: _Env) -> None:  # noqa: ANN001
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.Stmt, env: _Env) -> None:
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise GDScriptRuntimeError(
                f"script exceeded {MAX_STEPS} statements (infinite loop?)", line=stmt.line
            )
        if isinstance(stmt, ast.ExprStmt):
            self.evaluate(stmt.expr, env)
        elif isinstance(stmt, ast.VarDecl):
            value = self.evaluate(stmt.initializer, env) if stmt.initializer is not None else None
            env.declare(stmt.name, value)
        elif isinstance(stmt, ast.Assign):
            self.assign(stmt.target, self.evaluate(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            current = self.evaluate(stmt.target, env)
            value = self._binary(stmt.op, current, self.evaluate(stmt.value, env), stmt.line)
            self.assign(stmt.target, value, env)
        elif isinstance(stmt, ast.If):
            for cond, body in stmt.branches:
                if self._truthy(self.evaluate(cond, env)):
                    self.exec_block(body, _Env(env))
                    return
            if stmt.else_body:
                self.exec_block(stmt.else_body, _Env(env))
        elif isinstance(stmt, ast.For):
            iterable = self._iterable(self.evaluate(stmt.iterable, env), stmt.line)
            loop_env = _Env(env)
            loop_env.declare(stmt.var, None)
            for item in iterable:
                loop_env.vars[stmt.var] = item
                try:
                    self.exec_block(stmt.body, _Env(loop_env))
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.While):
            while self._truthy(self.evaluate(stmt.condition, env)):
                self.steps += 1
                if self.steps > MAX_STEPS:
                    raise GDScriptRuntimeError(
                        f"script exceeded {MAX_STEPS} statements (infinite loop?)",
                        line=stmt.line,
                    )
                try:
                    self.exec_block(stmt.body, _Env(env))
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.Match):
            subject = self.evaluate(stmt.subject, env)
            for arm in stmt.arms:
                if arm.wildcard or self.evaluate(arm.pattern, env) == subject:
                    self.exec_block(arm.body, _Env(env))
                    return
        elif isinstance(stmt, ast.Return):
            raise _Return(self.evaluate(stmt.value, env) if stmt.value is not None else None)
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        else:  # pragma: no cover - parser produces no other nodes
            raise GDScriptRuntimeError(f"unknown statement {type(stmt).__name__}", line=stmt.line)

    def assign(self, target: ast.Expr, value: Any, env: _Env) -> None:
        if isinstance(target, ast.Identifier):
            if env.assign(target.name, value):
                return
            if target.name in self.instance.vars:
                self.instance.vars[target.name] = value
                # keep Inspector-visible export values in sync
                if target.name in self.instance.node.exports:
                    self.instance.node.exports[target.name]  # ensure exists
                    self.instance.node._exports[target.name].value = value
                return
            raise GDScriptRuntimeError(
                f"assignment to undeclared variable {target.name!r}", line=target.line
            )
        if isinstance(target, ast.Attribute):
            obj = self.evaluate(target.obj, env)
            self._set_attr(obj, target.name, value, target.line)
            return
        if isinstance(target, ast.Index):
            obj = self.evaluate(target.obj, env)
            idx = self.evaluate(target.index, env)
            try:
                obj[idx] = value
            except (TypeError, IndexError, KeyError) as exc:
                raise GDScriptRuntimeError(f"index assignment failed: {exc}", line=target.line) from None
            return
        raise GDScriptRuntimeError(
            f"cannot assign to {type(target).__name__}", line=target.line
        )

    # -- expressions ---------------------------------------------------------- #

    def evaluate(self, expr: ast.Expr, env: _Env) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Identifier):
            return self._lookup(expr.name, env, expr.line)
        if isinstance(expr, ast.NodePath):
            return self.instance.node.get_node(expr.path)
        if isinstance(expr, ast.ArrayLiteral):
            return [self.evaluate(item, env) for item in expr.items]
        if isinstance(expr, ast.DictLiteral):
            return {
                self.evaluate(k, env): self.evaluate(v, env)
                for k, v in zip(expr.keys, expr.values)
            }
        if isinstance(expr, ast.Attribute):
            obj = self.evaluate(expr.obj, env)
            return self._get_attr(obj, expr.name, expr.line)
        if isinstance(expr, ast.Index):
            obj = self.evaluate(expr.obj, env)
            idx = self.evaluate(expr.index, env)
            try:
                return obj[idx]
            except (TypeError, IndexError, KeyError) as exc:
                raise GDScriptRuntimeError(f"indexing failed: {exc}", line=expr.line) from None
        if isinstance(expr, ast.Call):
            return self._call(expr, env)
        if isinstance(expr, ast.MethodCall):
            return self._method_call(expr, env)
        if isinstance(expr, ast.Unary):
            operand = self.evaluate(expr.operand, env)
            if expr.op == "-":
                try:
                    return -operand
                except TypeError:
                    raise GDScriptRuntimeError(
                        f"cannot negate {type(operand).__name__}", line=expr.line
                    ) from None
            return not self._truthy(operand)
        if isinstance(expr, ast.Binary):
            if expr.op == "and":
                return self._truthy(self.evaluate(expr.left, env)) and self._truthy(
                    self.evaluate(expr.right, env)
                )
            if expr.op == "or":
                return self._truthy(self.evaluate(expr.left, env)) or self._truthy(
                    self.evaluate(expr.right, env)
                )
            return self._binary(
                expr.op, self.evaluate(expr.left, env), self.evaluate(expr.right, env), expr.line
            )
        raise GDScriptRuntimeError(f"unknown expression {type(expr).__name__}", line=expr.line)

    # -- helpers ---------------------------------------------------------------- #

    def _lookup(self, name: str, env: _Env, line: int) -> Any:
        if name == "self":
            return self.instance.node
        found, value = env.lookup(name)
        if found:
            return value
        if name in self.instance.vars:
            return self.instance.vars[name]
        node = self.instance.node
        if not name.startswith("_") and hasattr(node, name):
            return getattr(node, name)
        if name in self.builtins:
            return self.builtins[name]
        raise GDScriptRuntimeError(f"undefined identifier {name!r}", line=line)

    def _call(self, expr: ast.Call, env: _Env) -> Any:
        args = [self.evaluate(a, env) for a in expr.args]
        name = expr.name
        # a local variable holding a callable shadows everything
        found, value = env.lookup(name)
        if found and callable(value):
            return value(*args)
        if name in self.instance.cls.functions:
            return self.instance.call(name, *args)
        node = self.instance.node
        if not name.startswith("_") and hasattr(node, name) and callable(getattr(node, name)):
            return getattr(node, name)(*args)
        if name in self.builtins:
            return self.builtins[name](*args)
        raise GDScriptRuntimeError(f"undefined function {name!r}", line=expr.line)

    def _method_call(self, expr: ast.MethodCall, env: _Env) -> Any:
        obj = self.evaluate(expr.obj, env)
        args = [self.evaluate(a, env) for a in expr.args]
        # a node with an attached script exposes the script's functions
        if isinstance(obj, Node) and obj.script is not None:
            script = obj.script
            if isinstance(script, ScriptInstance) and script.has_function(expr.method):
                return script.call(expr.method, *args)
        method = expr.method
        if method.startswith("_"):
            raise GDScriptRuntimeError(
                f"cannot call private method {method!r} from a script", line=expr.line
            )
        if not hasattr(obj, method):
            raise GDScriptRuntimeError(
                f"{type(obj).__name__} has no method {method!r}", line=expr.line
            )
        target = getattr(obj, method)
        if not callable(target):
            raise GDScriptRuntimeError(f"{method!r} is not callable", line=expr.line)
        try:
            return target(*args)
        except GDScriptRuntimeError:
            raise
        except Exception as exc:  # surface engine errors with script location
            raise GDScriptRuntimeError(f"{method}() failed: {exc}", line=expr.line) from exc

    def _get_attr(self, obj: Any, name: str, line: int) -> Any:
        if name.startswith("_"):
            raise GDScriptRuntimeError(f"cannot access private attribute {name!r}", line=line)
        if isinstance(obj, Node) and obj.script is not None:
            script = obj.script
            if isinstance(script, ScriptInstance) and name in script.vars:
                return script.vars[name]
        if isinstance(obj, dict):
            if name in obj:
                return obj[name]
        if not hasattr(obj, name):
            raise GDScriptRuntimeError(
                f"{type(obj).__name__} has no attribute {name!r}", line=line
            )
        return getattr(obj, name)

    def _set_attr(self, obj: Any, name: str, value: Any, line: int) -> None:
        if name.startswith("_"):
            raise GDScriptRuntimeError(f"cannot assign private attribute {name!r}", line=line)
        if isinstance(obj, Node) and obj.script is not None:
            script = obj.script
            if isinstance(script, ScriptInstance) and name in script.vars:
                script.vars[name] = value
                return
        if isinstance(obj, dict):
            obj[name] = value
            return
        if not hasattr(obj, name):
            raise GDScriptRuntimeError(
                f"{type(obj).__name__} has no attribute {name!r}", line=line
            )
        try:
            setattr(obj, name, value)
        except (AttributeError, EngineError) as exc:
            raise GDScriptRuntimeError(f"cannot assign {name!r}: {exc}", line=line) from None

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)

    @staticmethod
    def _iterable(value: Any, line: int):  # noqa: ANN205
        if isinstance(value, (list, tuple, str, range)):
            return value
        if isinstance(value, dict):
            return list(value.keys())
        try:
            return list(value)
        except TypeError:
            raise GDScriptRuntimeError(
                f"cannot iterate over {type(value).__name__}", line=line
            ) from None

    def _binary(self, op: str, left: Any, right: Any, line: int) -> Any:
        try:
            if op == "+":
                if isinstance(left, str) != isinstance(right, str):
                    raise GDScriptRuntimeError(
                        "cannot mix String and non-String with '+'; use str()", line=line
                    )
                if isinstance(left, list) and isinstance(right, list):
                    return left + right
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    if right == 0:
                        raise GDScriptRuntimeError("integer division by zero", line=line)
                    return math.trunc(left / right)
                if right == 0:
                    raise GDScriptRuntimeError("division by zero", line=line)
                return left / right
            if op == "%":
                if isinstance(left, str):
                    return left % right  # GDScript string formatting
                if right == 0:
                    raise GDScriptRuntimeError("modulo by zero", line=line)
                return math.fmod(left, right) if isinstance(left, float) or isinstance(right, float) else int(math.fmod(left, right))
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
            if op == "in":
                return left in right
        except GDScriptRuntimeError:
            raise
        except TypeError as exc:
            raise GDScriptRuntimeError(f"invalid operands for {op!r}: {exc}", line=line) from None
        raise GDScriptRuntimeError(f"unknown operator {op!r}", line=line)


def compile_script(source: str) -> GDScriptClass:
    """Compile GDScript source (convenience alias for ``GDScriptClass.compile``)."""
    return GDScriptClass.compile(source)
