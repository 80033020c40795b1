"""The package keeps no module-level definition that no code path reaches.

A def or class of src/koszulity (outside __init__.py) counts as reached
when some Name or Attribute outside its own body uses its name.  The
unreached ones are the allow-list below, each with its reason; anything
else that no command reaches belongs in the tests or nowhere.
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
        uses += [(node.id, node) if isinstance(node, ast.Name)
                 else (node.attr, node) for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))]
    owner = {id(node): d.name for d in defs for node in ast.walk(d)}
    reached = {name for name, node in uses if owner.get(id(node)) != name}
    assert {d.name for d in defs} - reached == set(UNREACHED)
