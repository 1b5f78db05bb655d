#!/usr/bin/env python3
"""The source rules of `src/gsl`, checked on its syntax trees.

No assert (`python -O` strips it), no floating point, no broad except, no
dead function, class or method, no unused import or parameter, every
public name used or documented, no import of the p-adic oracle on the
prediction side, and no import from outside the standard library.  Each
rule maps the parsed `Source` to its findings, empty when it holds;
`tests/test_source_rules.py` runs each one.

Usage:  PYTHONPATH=src python scripts/check_src.py
Prints each broken rule's findings to stderr and exits 1, else exits 0.
"""

import ast
import collections
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATH = {"log", "log2", "log10", "sqrt", "exp"}
RULES = []


def literal(tree: ast.Module, target: str):
    """The value of the first module-level assignment to `target`."""
    return next(ast.literal_eval(n.value) for n in tree.body
                if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == target)


class Source:
    """The files the rules read under `root`, each parsed once: `gsl` and
    `bench` map each module's path, relative to `root`, to its tree."""

    def __init__(self, root: Path = ROOT):
        def parse(pattern):
            return {path.relative_to(root): ast.parse(path.read_text(), str(path.relative_to(root)))
                    for path in sorted(root.glob(pattern))}

        self.gsl = parse("src/gsl/*.py")
        self.bench = parse("bench/**/*.py")
        self.public = literal(self.gsl[Path("src/gsl/__init__.py")], "__all__")
        spans = self.bench[Path("bench/spans.py")]
        self.entry_points = literal(spans, "ENTRY_POINTS")
        self.required_bindings = literal(spans, "REQUIRED_BINDINGS")
        self.docs = (root / "README.md").read_text() + (root / "docs/formats.md").read_text()

    def nodes(self, *types):
        """(path, node) for every node of the given types in `src/gsl`."""
        return [(path, node) for path, tree in self.gsl.items()
                for node in ast.walk(tree) if isinstance(node, types)]


def rule(message: str):
    """Register a rule; `message` heads its findings when it is broken."""
    def register(check):
        check.message = message
        RULES.append(check)
        return check
    return register


@rule("assert statements, stripped by python -O; raise a typed error:")
def no_assert(source: Source) -> list[str]:
    return [f"{path}:{line}"
            for path, line in sorted((path, node.lineno) for path, node in source.nodes(ast.Assert))]


@rule("floating point in src/gsl, whose arithmetic is exact; use ints or Fractions:")
def no_floating_point(source: Source) -> list[str]:
    def floating(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (float, complex))
        if isinstance(node, ast.Name):
            return node.id in ("float", "round")
        if isinstance(node, ast.Attribute):
            return node.attr in MATH and getattr(node.value, "id", None) == "math"
        if isinstance(node, ast.ImportFrom):
            return node.module == "math" and any(a.name in MATH for a in node.names)
        return False

    return sorted({f"{path}:{node.lineno}" for path, node in source.nodes(ast.AST) if floating(node)})


@rule("broad except in src/gsl; catch the specific classes the code can raise:")
def no_broad_except(source: Source) -> list[str]:
    def broad(handler):
        if handler.type is None:
            return True
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any((getattr(c, "id", None) or getattr(c, "attr", None)) in ("Exception", "BaseException")
                   for c in caught)

    return [f"{path}:{node.lineno}" for path, node in source.nodes(ast.ExceptHandler) if broad(node)]


@rule("defined in src/gsl and referenced nowhere in its code; delete it:")
def no_dead_code(source: Source) -> list[str]:
    entry = {f"{layer}.{name}" for layer, names in source.entry_points.items() for name in names}
    refs = collections.Counter(node.id if isinstance(node, ast.Name) else node.attr
                               for _, node in source.nodes(ast.Name, ast.Attribute))
    return [f"{path}:{node.lineno} {node.name}"
            for path, tree in source.gsl.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in source.public and f"{path.stem}.{node.name}" not in entry
            and refs[node.name] == 0]


@rule("public in gsl.__all__, but referenced nowhere in src/gsl outside __init__.py, "
      "no bench entry point and named in neither README.md nor docs/formats.md; "
      "delete it or document it:")
def public_names_used(source: Source) -> list[str]:
    entry = {name for names in source.entry_points.values() for name in names}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path, node in source.nodes(ast.Name, ast.Attribute) if path.name != "__init__.py"}
    return [name for name in source.public
            if name not in used and name not in entry and not re.search(rf"\b{name}\b", source.docs)]


@rule("methods referenced as an attribute nowhere in src/gsl or bench/; delete them:")
def no_dead_method(source: Source) -> list[str]:
    attrs = {node.attr for tree in (*source.gsl.values(), *source.bench.values())
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    dead = []
    for path, tree in source.gsl.items():
        # a method may override one of a base class, and only the imported
        # class knows all its bases
        module = importlib.import_module("gsl" if path.stem == "__init__" else f"gsl.{path.stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            dead.extend(f"{path}:{item.lineno} {node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and item.name not in attrs
                        and not any(hasattr(base, item.name) for base in bases))
    return dead


@rule("imported in src/gsl and referenced nowhere in that module, or not public in "
      "gsl/__init__.py; drop the import or list it in __all__:")
def no_unused_import(source: Source) -> list[str]:
    required = {(layer, qual.split(".")[1])
                for qual, layers in source.required_bindings.items() for layer in layers}
    public = set(source.public)
    unused = []
    for path, tree in source.gsl.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [(node.lineno, (alias.asname or alias.name).split(".")[0]) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                   for alias in node.names]
        if path.name == "__init__.py":
            unused += [f"{path}:{line} {name} (not in __all__)" for line, name in imports if name not in public]
            unused += [f"{path} __all__ lists {name}, which it does not import"
                       for name in sorted(public - {name for _, name in imports})]
        else:
            unused += [f"{path}:{line} {name}" for line, name in imports
                       if name not in used and (path.stem, name) not in required]
    return unused


@rule("parameters read nowhere in their function's body; drop them:")
def no_unused_parameter(source: Source) -> list[str]:
    def params(node):
        a = node.args
        return [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p is not None]

    def read(node):
        body = node.body if isinstance(node.body, list) else [node.body]
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                | {n.target.id for n in nodes if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)})

    found = []
    for path, node in source.nodes(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
        name = getattr(node, "name", "lambda")
        if name.startswith("__") and name.endswith("__"):
            continue
        found.extend(f"{path}:{node.lineno} {name}({arg})" for arg in params(node)
                     if arg not in ("self", "cls") and not arg.startswith("_") and arg not in read(node))
    return found


@rule("the prediction side imports the p-adic oracle:")
def oracle_independent(source: Source) -> list[str]:
    def gsl_imports(stem):
        out = set()
        for node in ast.walk(source.gsl[Path(f"src/gsl/{stem}.py")]):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "gsl"):
                mod = (node.module or "").removeprefix("gsl").lstrip(".")
                out.update([mod.split(".")[0]] if mod else [a.name for a in node.names])
            elif isinstance(node, ast.Import):
                out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("gsl."))
        return out

    # every gsl module the prediction side imports, with the chain that reaches it
    via = {stem: stem for stem in ("dense", "exact", "modp", "nfield", "covers")}
    todo = list(via)
    while todo:
        stem = todo.pop()
        for dep in gsl_imports(stem) - set(via):
            via[dep] = f"{via[stem]} -> {dep}"
            todo.append(dep)
    return [via["padic"]] if "padic" in via else []


@rule("imports in src/gsl of modules outside the standard library, at runtime its only dependency:")
def stdlib_only(source: Source) -> list[str]:
    def modules(node):
        if isinstance(node, ast.ImportFrom):
            return [] if node.level else [node.module]
        return [alias.name for alias in node.names]

    return [f"{path}:{node.lineno} {name}" for path, node in source.nodes(ast.Import, ast.ImportFrom)
            for name in modules(node) if name.split(".")[0] not in sys.stdlib_module_names]


def main() -> None:
    source = Source()
    broken = [(check, found) for check in RULES if (found := check(source))]
    for check, found in broken:
        print(f"{check.__name__}: {check.message}\n  " + "\n  ".join(found), file=sys.stderr)
    if broken:
        sys.exit(1)
    print(f"all {len(RULES)} source rules hold")


if __name__ == "__main__":
    main()
