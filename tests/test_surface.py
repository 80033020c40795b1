"""The package keeps no definition that no code path reaches.

A module-level def or class of src/koszulity (outside __init__.py), or a
method in one of its class bodies, counts as reached when some Name or
Attribute outside its own body uses its name.  Dunder methods are left
out: the language calls them.  The unreached ones are the allow-list
below, each with its reason; anything else that no command reaches belongs
in the tests or nowhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / 'src' / 'koszulity'

UNREACHED = {
    'phi_shriek_ring_check': 'waits to become a decision criterion',
    'phi_shriek_coring_check': 'waits to become a decision criterion',
    'truncate_ring': 'library constructor: truncations (README)',
    'truncate_coring': 'library constructor: truncations (README)',
    'direct_product': 'library constructor: direct products (README)',
    'direct_sum_corings': 'library constructor: direct sums (README)',
    'quadratic_coring_of': 'library constructor, mirror of quadratic_ring_of',
    'partitions': 'the reference order the slice tests compare against',
}


def test_every_unreached_definition_is_allowed():
    defs, uses = [], []
    for path in sorted(SRC.glob('*.py')):
        if path.name == '__init__.py':
            continue
        tree = ast.parse(path.read_text())
        defs += [node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [method for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for method in cls.body
                 if isinstance(method, ast.FunctionDef)
                 and not (method.name.startswith('__')
                          and method.name.endswith('__'))]
        uses += [(node.id, node) if isinstance(node, ast.Name)
                 else (node.attr, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))]
    # a node inside a method is inside its class too: it has both owners
    owners = {}
    for d in defs:
        for node in ast.walk(d):
            owners.setdefault(id(node), set()).add(d.name)
    reached = {name for name, node in uses
               if name not in owners.get(id(node), ())}
    assert {d.name for d in defs} - reached == set(UNREACHED)
