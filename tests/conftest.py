import tracemalloc

import numpy as np
import pytest

from torus_ma.grid import ScalarField, TorusGrid, random_trig_field


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid2():
    return TorusGrid((32, 32))


@pytest.fixture
def grid3():
    return TorusGrid((16, 16, 16))


def from_function(grid, fn):
    """Sample a callable of the grid coordinates (broadcast arrays) into a field."""
    return ScalarField(grid, fn(*grid.coords))


def rel_err(a, b):
    """Max-norm difference relative to max(1, |b|_inf)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def count_transforms(monkeypatch):
    """Count the calls of each n-D transform of numpy.fft from here on, until
    `monkeypatch.undo()`; returns the live {name: calls} dict."""
    counts = {"rfftn": 0, "irfftn": 0, "fftn": 0, "ifftn": 0}

    def counted(name):
        real = getattr(np.fft, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(np.fft, name, counted(name))
    return counts


def peak_fields(grid, call):
    """Peak of the memory that `call()` allocates beyond what was held before
    it, as `tracemalloc` traces it, in units of one field on `grid`."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - held) / (8 * grid.npoints)


def apply_transforms(spec, u):
    """(forward, inverse) n-D transforms of one linearization apply at u: one
    forward transform of w and one inverse per feature whose weight is not
    zero everywhere, and per weighted divergence (e^{sh} w_a)_a one forward
    of the weighted product plus one inverse for w_a unless w_a is itself
    such a feature."""
    from torus_ma import equations as eq

    keys = [k for k, g in eq._feature_weights(eq.evaluate(spec, u)).items() if np.any(g)]
    divs = [k for k in keys if k[0] == "div"]
    return 1 + len(divs), len(keys) + sum((k[1],) not in keys for k in divs)


def permutation_sign(perm):
    """Brute-force parity oracle: sign of the permutation given as a sequence."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def wedge_power_ratio(w):
    """The top-form ratio of a 2-form by its wedge powers, w^n / omega^n:
    the reference the Pfaffian route is checked against."""
    from torus_ma import nilframe as nf

    st = w.structure
    wn, omn = w, st.omega
    for _ in range(st.rank // 2 - 1):
        wn, omn = nf.wedge(wn, w), nf.wedge(omn, st.omega)
    top = tuple(range(st.rank))
    return np.asarray(wn.terms.get(top, 0.0), dtype=float) / omn.terms[top]


def small_field(grid, rng, scale=0.1, max_mode=2, axes=None):
    return random_trig_field(grid, rng, max_mode=max_mode, scale=scale, axes=axes)


def branch_safe_field(grid, rng, max_mode=2, hessian_scale=0.3, axes=None):
    """Random trig field rescaled so its largest second derivative has the
    given magnitude (keeps determinant-type residuals on the elliptic branch)."""
    from torus_ma.grid import mixed_derivative

    f = random_trig_field(grid, rng, max_mode=max_mode, scale=1.0, axes=axes)
    worst = max(
        float(np.max(np.abs(mixed_derivative(f, i, j).values)))
        for i in range(grid.d) for j in range(i, grid.d)
    )
    return ScalarField(grid, f.values * (hessian_scale / max(worst, 1e-300)))
