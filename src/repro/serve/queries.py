"""Query evaluators: the serving layer's entry points into Eqs 1–8.

Every model query the server answers is one call of a module-level
function here, taking plain-data kwargs (floats, strings, parallel lists
of floats) and returning a dict of numpy arrays; the server runs it on an
LRU miss and caches the response.

Three evaluators, one per query family:

* :func:`eval_point_batch` — a batch of point queries as one vectorized
  :mod:`repro.core.gridkernels` call.  Kernels are elementwise over the
  point axis, so each answer is bit-identical to evaluating the point
  alone; the server's ``/v1/eval`` passes one-element lists.
* :func:`eval_sweep` — one or more parameter points swept across the
  power-of-two size grid (a Fig-4/Fig-5-shaped curve per point).
* :func:`search_optimal` — the optimal-(r, rl) design search: best
  symmetric and best asymmetric designs plus their Hill–Marty references,
  mirroring :func:`repro.core.gridkernels.conclusions_grid`.

Validation raises :class:`QueryError` with a client-presentable message;
the HTTP layer maps it to a 400.
"""

from __future__ import annotations

import numpy as np

from repro.core import gridkernels
from repro.core.gridkernels import power_of_two_sizes

__all__ = [
    "QueryError",
    "MODELS",
    "eval_point_batch",
    "eval_sweep",
    "search_optimal",
]


class QueryError(ValueError):
    """A malformed query (unknown model, missing/invalid parameters)."""


#: model name -> the parameter fields each point must carry.  ``r`` in the
#: asymmetric models is the small-core size and defaults to 1 BCE (the
#: paper's base core), so it is accepted but not required.
MODELS: "dict[str, dict]" = {
    "amdahl": {"required": ("f", "p"), "optional": ()},
    "hm-symmetric": {"required": ("f", "r"), "optional": ()},
    "hm-asymmetric": {"required": ("f", "rl"), "optional": ()},
    "merging-symmetric": {
        "required": ("f", "fcon_share", "fored_share", "r"), "optional": (),
    },
    "merging-asymmetric": {
        "required": ("f", "fcon_share", "fored_share", "rl"), "optional": ("r",),
    },
    "comm-symmetric": {"required": ("f", "fcon_share", "r"), "optional": ()},
    "comm-asymmetric": {"required": ("f", "fcon_share", "rl"), "optional": ("r",)},
}

#: fields a sweep point may carry (the swept size axis comes from ``n``)
_SWEEP_FIELDS = {
    "amdahl": ("f",),
    "hm-symmetric": ("f",),
    "hm-asymmetric": ("f",),
    "merging-symmetric": ("f", "fcon_share", "fored_share"),
    "merging-asymmetric": ("f", "fcon_share", "fored_share", "r"),
    "comm-symmetric": ("f", "fcon_share"),
    "comm-asymmetric": ("f", "fcon_share", "r"),
}


def _field(kwargs: dict, name: str, length: int, default: "float | None" = None
           ) -> np.ndarray:
    values = kwargs.get(name)
    if values is None or (hasattr(values, "__len__") and len(values) == 0):
        if default is None:
            raise QueryError(f"model {kwargs.get('model')!r} requires {name!r}")
        return np.full(length, float(default))
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (length,):
        raise QueryError(
            f"field {name!r} must have one value per point "
            f"(expected {length}, got {arr.size})"
        )
    return arr


def _check_model(model: str) -> dict:
    spec = MODELS.get(model)
    if spec is None:
        raise QueryError(
            f"unknown model {model!r}; known: {', '.join(sorted(MODELS))}"
        )
    return spec


def eval_point_batch(
    model: str,
    n: int = 256,
    growth: "str | None" = None,
    perf: "str | None" = None,
    f: "list | tuple" = (),
    fcon_share: "list | tuple" = (),
    fored_share: "list | tuple" = (),
    r: "list | tuple" = (),
    rl: "list | tuple" = (),
    p: "list | tuple" = (),
) -> dict:
    """Speedups for a batch of point queries, one vectorized kernel call.

    All supplied fields are parallel per-point lists.  Returns
    ``{"speedup": [...]}`` in point order.
    """
    _check_model(model)
    kw = {"model": model, "f": f, "fcon_share": fcon_share,
          "fored_share": fored_share, "r": r, "rl": rl, "p": p}
    m = len(f)
    if m == 0:
        raise QueryError("a point batch needs at least one point (empty 'f')")
    try:
        if model == "amdahl":
            sp = gridkernels.amdahl_speedup(_field(kw, "f", m), _field(kw, "p", m))
        elif model == "hm-symmetric":
            sp = gridkernels.hm_symmetric(_field(kw, "f", m), n,
                                          _field(kw, "r", m), perf)
        elif model == "hm-asymmetric":
            sp = gridkernels.hm_asymmetric(_field(kw, "f", m), n,
                                           _field(kw, "rl", m), perf)
        elif model == "merging-symmetric":
            sp = gridkernels.merging_symmetric(
                _field(kw, "f", m), _field(kw, "fcon_share", m),
                _field(kw, "fored_share", m), n, _field(kw, "r", m),
                growth, perf,
            )
        elif model == "merging-asymmetric":
            sp = gridkernels.merging_asymmetric(
                _field(kw, "f", m), _field(kw, "fcon_share", m),
                _field(kw, "fored_share", m), n, _field(kw, "rl", m),
                _field(kw, "r", m, default=1.0), growth, perf,
            )
        elif model == "comm-symmetric":
            sp = gridkernels.comm_symmetric(
                _field(kw, "f", m), _field(kw, "fcon_share", m), n,
                _field(kw, "r", m), perf=perf,
            )
        else:  # comm-asymmetric
            sp = gridkernels.comm_asymmetric(
                _field(kw, "f", m), _field(kw, "fcon_share", m), n,
                _field(kw, "rl", m), _field(kw, "r", m, default=1.0), perf=perf,
            )
    except ValueError as exc:  # range checks from the kernels
        raise QueryError(str(exc)) from None
    return {"speedup": np.asarray(sp, dtype=np.float64)}


def eval_sweep(
    model: str,
    n: int = 256,
    growth: "str | None" = None,
    perf: "str | None" = None,
    f: "list | tuple" = (),
    fcon_share: "list | tuple" = (),
    fored_share: "list | tuple" = (),
    r: "list | tuple" = (),
) -> dict:
    """Each point's speedup curve across the power-of-two size grid.

    For symmetric models the swept axis is the per-core size ``r``; for
    asymmetric ones it is the large-core size ``rl`` (with ``r`` the fixed
    small-core size per point).  Returns ``{"sizes": [...], "speedup":
    [[...] per point]}``.
    """
    _check_model(model)
    fields = _SWEEP_FIELDS[model]
    kw = {"model": model, "f": f, "fcon_share": fcon_share,
          "fored_share": fored_share, "r": r}
    m = len(f)
    if m == 0:
        raise QueryError("a sweep needs at least one point (empty 'f')")
    sizes = power_of_two_sizes(n)
    cols = {}
    for name in fields:
        default = 1.0 if name == "r" else None
        cols[name] = _field(kw, name, m, default=default)[:, None]
    try:
        if model == "amdahl":
            sp = gridkernels.amdahl_speedup(cols["f"], sizes[None, :])
        elif model == "hm-symmetric":
            sp = gridkernels.hm_symmetric(cols["f"], n, sizes[None, :], perf)
        elif model == "hm-asymmetric":
            sp = gridkernels.hm_asymmetric(cols["f"], n, sizes[None, :], perf)
        elif model == "merging-symmetric":
            sp = gridkernels.merging_symmetric(
                cols["f"], cols["fcon_share"], cols["fored_share"], n,
                sizes[None, :], growth, perf,
            )
        elif model == "merging-asymmetric":
            sp = gridkernels.merging_asymmetric(
                cols["f"], cols["fcon_share"], cols["fored_share"], n,
                sizes[None, :], cols["r"], growth, perf,
            )
        elif model == "comm-symmetric":
            sp = gridkernels.comm_symmetric(
                cols["f"], cols["fcon_share"], n, sizes[None, :], perf=perf,
            )
        else:  # comm-asymmetric
            sp = gridkernels.comm_asymmetric(
                cols["f"], cols["fcon_share"], n, sizes[None, :], cols["r"],
                perf=perf,
            )
    except ValueError as exc:
        raise QueryError(str(exc)) from None
    return {"sizes": sizes, "speedup": np.asarray(sp, dtype=np.float64)}


def search_optimal(
    f: "list | tuple" = (),
    fcon_share: "list | tuple" = (),
    fored_share: "list | tuple" = (),
    n: int = 256,
    growth: "str | None" = None,
    perf: "str | None" = None,
    r_choices: "list | tuple" = (1.0, 4.0, 16.0),
) -> dict:
    """The optimal-(r, rl) design search for one or more applications.

    Vectorized over points via the :mod:`~repro.core.gridkernels`
    reducers, matching :func:`repro.core.merging.best_symmetric` /
    ``best_asymmetric`` bit-for-bit (same grids, same tie-breaking).
    """
    kw = {"model": "optimize", "f": f, "fcon_share": fcon_share,
          "fored_share": fored_share}
    m = len(f)
    if m == 0:
        raise QueryError("an optimize query needs at least one point (empty 'f')")
    fv = _field(kw, "f", m)
    con = _field(kw, "fcon_share", m)
    ored = _field(kw, "fored_share", m)
    try:
        sym_r, sym_sp = gridkernels.best_symmetric_grid(
            fv, con, ored, n, growth, perf)
        asym_rl, asym_r, asym_sp = gridkernels.best_asymmetric_grid(
            fv, con, ored, n, tuple(float(c) for c in r_choices), growth, perf)
        hm_r, hm_sp = gridkernels.hm_best_symmetric_grid(fv, n, perf)
    except ValueError as exc:
        raise QueryError(str(exc)) from None
    return {
        "symmetric": {"r": sym_r, "speedup": sym_sp},
        "asymmetric": {"rl": asym_rl, "r": asym_r, "speedup": asym_sp},
        "hill_marty": {"r": hm_r, "speedup": hm_sp},
        "acmp_ratio": asym_sp / sym_sp,
    }
