"""Every public function, method and property of the package has a reader:
another part of the package, the public API in `torus_ma.__all__`, or the
benchmark's report parser.  The references the tests compare against live
in tests/oracles.py, not in the package."""

import ast
from pathlib import Path

import pytest

import torus_ma

SRC = Path(torus_ma.__file__).parent
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# read by the benchmark, which checks the status of each CLI run it makes
BENCHMARK = {"read_report"}


def _names(node) -> set:
    """Every name a node reads, bare or as an attribute; a name that is
    only assigned, such as a dataclass field, is not read."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _units(tree) -> list:
    """The top-level statements, with each class split into its members,
    so that a method's reference to itself is told apart from its class's."""
    return [unit for node in tree.body
            for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]


UNITS = [unit for tree in TREES.values() for unit in _units(tree)]
READS = {id(unit): _names(unit) for unit in UNITS}


def _public(module) -> list:
    """(qualified name, definition) of each public function of `module`, and
    of each public method or property of its public classes."""
    out = []
    for node in TREES[module].body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                    if isinstance(fn, ast.FunctionDef)]
    return [(qual, fn) for qual, fn in out if not fn.name.startswith("_")]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_function_has_a_reader(module):
    unread = []
    for qual, fn in _public(module):
        if fn.name in torus_ma.__all__ or fn.name in BENCHMARK:
            continue
        # a function's reference to itself is no caller
        if not any(fn.name in READS[id(unit)] for unit in UNITS if unit is not fn):
            unread.append(qual)
    assert unread == [], f"{module}: public functions no one reads: {unread}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_environment_variable_is_read(module):
    # every knob is a command-line option or a config key, where it is
    # validated and documented
    assert not _names(TREES[module]) & {"environ", "getenv"}


def test_nilframe_raises_nothing():
    # nilframe's forms and structures are built only inside the package,
    # from values checked where they enter: it re-checks none of them
    raises = [node.lineno for node in ast.walk(TREES["nilframe"]) if isinstance(node, ast.Raise)]
    assert raises == [], f"nilframe raises at lines {raises}"


COMPLEX_TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_complex_transform_is_read(module):
    # every field is real: spectral calculus runs on the half spectrum
    # (rfft/irfft and their n-D forms), with one spectral convention
    read = set()
    for node in ast.walk(TREES[module]):
        if (isinstance(node, ast.Attribute) and node.attr in COMPLEX_TRANSFORMS
                and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            read |= {alias.name for alias in node.names} & COMPLEX_TRANSFORMS
    assert read == set(), f"{module} reads complex transforms: {sorted(read)}"
