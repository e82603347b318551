"""Shared factories for small hand-built instances, and readers of a
model's rows and objective."""
import ctypes
import dataclasses
import math
import os
from collections import namedtuple
from pathlib import Path

# The bundled solver multiplies tiny dense matrices; a multithreaded BLAS
# only adds contention there, so pin one thread before numpy is loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from ucbench import Instance, Unit


Row = namedtuple("Row", "name ids coeffs sense rhs")


def rows(model):
    """The model's rows as Row tuples, sliced out of its CSR block, with
    each row's ids and coefficients as lists."""
    s = model.starts
    return [Row(name, list(model.ids[s[r]:s[r + 1]]),
                list(model.coeffs[s[r]:s[r + 1]]), model.senses[r],
                model.rhs[r])
            for r, name in enumerate(model.row_names)]


def objective_terms(model):
    """The model's nonzero objective coefficients, by variable id."""
    return {j: c for j, c in enumerate(model.objective) if c != 0.0}


def make_unit(uid="u1", **over):
    base = dict(
        id=uid, p_min=10.0, p_max=20.0, ramp_up=20.0, ramp_down=20.0,
        startup_ramp=20.0, shutdown_ramp=20.0, min_up=1, min_down=1,
        cost_fixed_on=5.0, cost_variable=2.0, startup_var_cost=100.0,
        startup_fixed_cost=10.0, heat_loss=math.log(2), pre_offline=0)
    base.update(over)
    return Unit(**base)


def make_instance(load, units=None, name="tiny", network=None, **unit_over):
    units = units if units is not None else [make_unit(**unit_over)]
    return Instance(name=name, horizon=len(load), load=list(load),
                    units=units, network=network)


def ramped(inst, factor, **first_unit):
    """The instance with every unit's ramp limits set to ``factor`` times
    its output range, and the first unit's other fields overridden."""
    units = [dataclasses.replace(u, ramp_up=factor * (u.p_max - u.p_min),
                                 ramp_down=factor * (u.p_max - u.p_min))
             for u in inst.units]
    units[0] = dataclasses.replace(units[0], **first_unit)
    return dataclasses.replace(inst, units=units)


def openblas_corename():
    """Name of the kernel set (SkylakeX, Haswell, ...) that the OpenBLAS
    bundled with numpy runs on this CPU, or None without one. Kernel sets
    round dot products differently, and that alone can change pivots."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_corename64_",
                    "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


@pytest.fixture
def unit():
    return make_unit()


@pytest.fixture
def two_unit_instance():
    u1 = make_unit("u1")
    u2 = make_unit("u2", p_min=5.0, p_max=30.0, cost_variable=3.0)
    return make_instance([12.0, 35.0, 20.0], units=[u1, u2])
