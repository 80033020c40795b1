"""The package keeps no definition that no code path reaches.

A module-level def or class of src/koszulity (outside __init__.py) counts
as reached when some Name or Attribute outside its own body uses its name.
A method in one of its class bodies counts as reached only through an
Attribute of its name.  If that name is also a method, property or slot
of another class here, or a method of set, dict, list, tuple or str, an
attribute of that name may well reach the other one.  Such a method counts
as reached only through self. or cls. inside its class, a direct base or
a direct subclass of it, through ClassName., or through an entry of CALLERS,
which names the function whose body uses it.  Dunder methods are left
out: the language calls them.  No definition is allowed to stay
unreached: what no command reaches belongs in the tests or nowhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / 'src' / 'koszulity'

# a method whose name collides, reached from outside its class family:
# method -> (the function whose body calls it, the object it is called on)
CALLERS = {
    'BaseRing.zero': ('zero_bimodule', 'the base of a bimodule'),
    'Bimodule.is_zero': ('_assemble', 'a slice space'),
    'BimoduleMap.is_zero': ('AlmostKoszulPair.__init__',
                            'the composite mu(1, 1) Delta(1, 1)'),
    'SparseMatrix.is_zero': ('BimoduleMap.__init__', 'a block of the map'),
    'SliceHomology.dim': ('BettiTable.representatives', 'a nonzero cell'),
}

BUILTIN = {name for kind in (set, dict, list, tuple, str) for name in dir(kind)
           if not name.startswith('__')}


def _members(cls):
    'The names of the methods, properties and slots of a class body.'
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == '__slots__'
                for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _scan():
    'The module-level defs, the classes, and every Name or Attribute use.'
    defs, classes, uses = [], {}, []
    for path in sorted(SRC.glob('*.py')):
        if path.name == '__init__.py':
            continue
        tree = ast.parse(path.read_text())
        defs += [node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        classes.update((node.name, node) for node in tree.body
                       if isinstance(node, ast.ClassDef))
        uses += [node for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))]
    return defs, classes, uses


def _functions(defs):
    "Qualified name ('f' or 'Class.method') -> its def node."
    out = {}
    for d in defs:
        out[d.name] = d
        if isinstance(d, ast.ClassDef):
            out.update((f'{d.name}.{m.name}', m) for m in d.body
                       if isinstance(m, ast.FunctionDef))
    return out


def _unreached():
    defs, classes, uses = _scan()
    bases = {name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for name, cls in classes.items()}
    # a class with its direct bases and subclasses here
    families = {name: {name} | bases[name]
                | {other for other in classes if name in bases[other]}
                for name in classes}
    members = {name: _members(cls) for name, cls in classes.items()}
    # every node inside a def has that def, and its class, as owners
    owners = {}
    methods = []
    for d in defs:
        for node in ast.walk(d):
            owners.setdefault(id(node), set()).add(d.name)
        if isinstance(d, ast.ClassDef):
            for m in d.body:
                if isinstance(m, ast.FunctionDef) and not (
                        m.name.startswith('__') and m.name.endswith('__')):
                    methods.append((d.name, m))
                    for node in ast.walk(m):
                        owners[id(node)].add(f'{d.name}.{m.name}')

    def outside(node, qual):
        return qual not in owners.get(id(node), ())

    reached = {d.name for d in defs
               if any(outside(n, d.name) for n in uses
                      if (n.id if isinstance(n, ast.Name) else n.attr)
                      == d.name)}
    unreached = {d.name for d in defs} - reached
    functions = _functions(defs)
    for cls, m in methods:
        qual = f'{cls}.{m.name}'
        attrs = [n for n in uses if isinstance(n, ast.Attribute)
                 and n.attr == m.name and outside(n, qual)]
        collides = m.name in BUILTIN or any(
            m.name in names for other, names in members.items()
            if other != cls)
        if not collides:
            assert qual not in CALLERS, f'{qual} needs no CALLERS entry'
            ok = bool(attrs)
        else:
            ok = any(isinstance(n.value, ast.Name)
                     and (n.value.id == cls
                          or n.value.id in ('self', 'cls')
                          and owners.get(id(n), set()) & families[cls])
                     for n in attrs)
            if qual in CALLERS:
                assert not ok, f'{qual} needs no CALLERS entry'
                caller = functions[CALLERS[qual][0]]
                assert any(isinstance(n, ast.Attribute) and n.attr == m.name
                           for n in ast.walk(caller)), qual
                ok = True
        if not ok:
            unreached.add(qual)
    return unreached


def test_every_unreached_definition_is_allowed():
    assert _unreached() == set()


def test_every_callers_entry_names_a_method_and_a_function():
    functions = _functions(_scan()[0])
    assert all('.' in method and method in functions for method in CALLERS)
    assert all(caller in functions for caller, _ in CALLERS.values())
