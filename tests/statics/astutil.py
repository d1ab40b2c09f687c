"""The AST lookups the source checks share."""

import ast

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parent_map(tree):
    """Child-to-parent node map of one parsed module."""
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def ancestors(parents, node):
    """Walk from ``node``'s parent up to the module node."""
    node = parents.get(node)
    while node is not None:
        yield node
        node = parents.get(node)


def enclosing_function(parents, node):
    """The nearest enclosing function/async-function, if any."""
    return next((a for a in ancestors(parents, node)
                 if isinstance(a, FUNCTIONS)), None)


def dotted_name(node):
    """Render a ``Name``/``Attribute`` chain as ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
