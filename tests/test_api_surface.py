"""Every public module-level function of the package has a reader: another
function in the package, the public API in `torus_ma.__all__`, one of the
independent oracles that the acceptance tests compare against, or the
benchmark's report parser."""

import ast
from pathlib import Path

import pytest

import torus_ma

SRC = Path(torus_ma.__file__).parent
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# read by tests/test_acceptance.py as references built apart from the solver
ORACLES = {"from_function", "ansatz_one_form", "reconstruct_form", "ndim_printed",
           "exterior_derivative", "type_split"}
# read by the benchmark, which checks the status of each CLI run it makes
BENCHMARK = {"read_report"}


def _names(node) -> set:
    """Every name a top-level statement reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_function_has_a_reader(module):
    statements = [node for tree in TREES.values() for node in tree.body]
    read = {id(node): _names(node) for node in statements}
    unread = []
    for fn in TREES[module].body:
        if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                or fn.name in torus_ma.__all__ or fn.name in ORACLES | BENCHMARK):
            continue
        # a function's reference to itself is no caller
        if not any(fn.name in read[id(node)] for node in statements if node is not fn):
            unread.append(fn.name)
    assert unread == [], f"{module}: public functions no one reads: {unread}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_environment_variable_is_read(module):
    # every knob is a command-line option or a config key, where it is
    # validated and documented
    assert not _names(TREES[module]) & {"environ", "getenv"}


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
