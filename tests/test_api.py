"""Every public name has a caller in the package itself.

Each name in a module's ``__all__`` must be referenced somewhere in
``src/martquant/`` outside its own definition.  References are read off the
syntax tree: a loaded name bound to the definition (in its own module, or
through ``from .module import name``), an attribute of an imported module
(``chainmod.build_chain``), or a use of the module itself.  A method that
shares a public function's name is no reference to it.

Each public member of a class in ``__all__`` (a ``def`` whose name does
not start with ``_``: a method, a property or a classmethod) must be read
as an attribute, ``x.name``, somewhere in the package outside its own
definition.  The match is by name, whatever ``x`` is.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "martquant"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# public names and members (``Class.member``) that only the tests call so
# far, each with the ROADMAP item that will give it a caller in the package
RESERVED = {
    ("archmc", "quantized_innovation_bound"): "item 4",
    ("archmc", "theta_norm_envelope"): "item 4",
    ("archmc", "gaussian_tail_bound"): "item 4",
    ("archmc", "select_truncation"): "item 4",
    ("dual", "Triangulation2D.delaunay"): "item 20",
}


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _bindings(module, tree):
    """Local name -> ``(module, name)`` of what it denotes, or ``("module",
    module)`` for a module of the package, and the nodes that define each
    top-level name of ``module``."""
    bound, definitions = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = (module, node.name)
            definitions[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = (module, target.id)
                    definitions[target.id] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    bound[local] = ("module", alias.name)
                else:
                    bound[local] = (node.module, alias.name)
                if module == "__init__":
                    definitions[local] = node
    return bound, definitions


def _references():
    """Every ``(module, name)`` or ``("module", module)`` the package refers
    to, outside the definition of that name."""
    refs = set()
    for module, tree in TREES.items():
        bound, definitions = _bindings(module, tree)
        inside = {
            name: {id(n) for n in ast.walk(node)} for name, node in definitions.items()
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = bound.get(node.id)
                if target is None:
                    continue
                if target[0] == module and id(node) in inside.get(target[1], ()):
                    continue
                refs.add(target)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = bound.get(node.value.id)
                if target is not None and target[0] == "module":
                    refs.add((target[1], node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                if module != "__init__":
                    refs.add(("module", node.module))
    return refs


REFERENCES = _references()


def _public_members(module, tree=None):
    """``"Class.member" -> def node`` for every public member of every class
    of ``module`` named in its ``__all__``."""
    tree = TREES[module] if tree is None else tree
    public = set(_public(tree))
    return {
        f"{cls.name}.{node.name}": node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in public
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _read_members(trees):
    """``(attribute name, ids of the enclosing def nodes)`` for every
    attribute that ``trees`` load."""
    reads = []
    for tree in trees.values():
        stack = [(tree, ())]
        while stack:
            node, enclosing = stack.pop()
            if isinstance(node, ast.FunctionDef):
                enclosing = enclosing + (id(node),)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, set(enclosing)))
            stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return reads


def _unread_members(trees):
    """Public members of the classes in ``trees`` that nothing reads outside
    their own definition, as ``(module, "Class.member")``."""
    reads = _read_members(trees)
    return sorted(
        (module, qualname)
        for module, tree in trees.items()
        for qualname, node in _public_members(module, tree).items()
        if not any(attr == node.name and id(node) not in inside for attr, inside in reads)
    )


def _target(module, name):
    return _bindings(module, TREES[module])[0][name]


@pytest.mark.parametrize("module", sorted(m for m, t in TREES.items() if _public(t)))
def test_every_public_name_has_a_caller_in_the_package(module):
    uncalled = [
        name
        for name in _public(TREES[module])
        if _target(module, name) not in REFERENCES and (module, name) not in RESERVED
    ]
    assert uncalled == [], f"martquant.{module}: only the tests call {uncalled}"


def test_every_public_member_has_a_reader_in_the_package():
    unread = [key for key in _unread_members(TREES) if key not in RESERVED]
    assert unread == [], f"only the tests read {unread}"


def test_reserved_names_are_public_and_still_uncalled():
    # a reserved name that gains a caller, or leaves the API, leaves the map
    unread = _unread_members(TREES)
    for module, name in RESERVED:
        if "." in name:
            assert name in _public_members(module)
            assert (module, name) in unread
        else:
            assert name in _public(TREES[module])
            assert _target(module, name) not in REFERENCES


def test_the_member_check_sees_a_member_without_reader():
    # a method only the tests call, and a reserved member that loses its entry
    laws = ast.parse(
        (SRC / "laws.py").read_text().replace(
            "    def _check_u(self, u):",
            "    def sample(self, n, seed):\n        return self.sample(n, seed)\n\n"
            "    def _check_u(self, u):",
        )
    )
    assert ("laws", "Law1D.sample") in _unread_members(dict(TREES, laws=laws))
    assert ("dual", "Triangulation2D.delaunay") in _unread_members(TREES)
    # read through an instance, a class or ``cls``, and through a property
    assert ("chain", "NoiseSpec.quantized") not in _unread_members(TREES)
    assert ("chain", "ChainApproximation.marginal") not in _unread_members(TREES)
    assert ("chain", "ArchSpec.n_steps") not in _unread_members(TREES)


def test_the_check_sees_each_kind_of_reference():
    assert ("chain", "build_chain") in REFERENCES  # chainmod.build_chain in cli
    assert ("laws", "DiscreteDistribution") in REFERENCES  # imported by name
    assert ("primal", "VoronoiQuantization") in REFERENCES  # used in its own module
    assert ("module", "mot") in REFERENCES  # motmod in cli
    assert ("module", "rng") in REFERENCES  # from .rng import make_generator
    assert ("errors", "SupportError") in REFERENCES  # re-exported by __init__
    # the tests' oracle: coupled_gap_statistics calls _batch_se, not it
    assert ("archmc", "batch_standard_error") not in REFERENCES
