"""One sha256 over ``write_mps`` of a seeded sweep of built models, and
one over the solver's column arrays of the same models.

The golden hashes in ``test_mps_golden.py`` pin a few models each; this
digest pins many at once, so that a rewrite of a builder that moves one
coefficient, name, bound or row anywhere in the sweep changes it. The
second digest pins the bounds, costs and binary ids that ``LpCore``
takes from each model, bit for bit, so that a change in how a model
stores its columns cannot move what the solver sees. The
seeded instances all enter the horizon online, so each is also built
with its units alternately offline for 1, 2 or 5 periods before the
horizon (and online), which reaches the pre-horizon rows.
"""

import dataclasses
import hashlib
import itertools
import re
from unittest import mock

from ucbench import (BASES, STARTUPS, FormulationChoice, build_model,
                     generate_instance, write_mps)
from ucbench import formulations
from ucbench.formulations import step_functions
from ucbench.solver import LpCore

SEEDS = range(1, 13)
SHAPES = ((2, 5, False), (3, 6, True))  # units, periods, with a network
PRE_OFFLINE = (0, 1, 2, 5)  # 0: the seeded instance as drawn
KTOLS = (0.0, 0.2)

FAMILIES = {
    "demand", "lim_lo", "lim_hi", "ramp_up", "ramp_down", "shut_ramp",
    "logic", "ystart", "rampdn_start", "rampdn_close", "rampdn_two",
    "rampup_stop", "rampup_two", "minup", "mindown", "predown",
    "flow_hi", "flow_lo", "su1", "ssum", "sdef", "stype", "tnorm", "trec",
    "tcost",
}

SWEEP_SHA256 = (
    "eddbeb07f383378aed95773c69932eb0f13ae5e4cfa96867252fc1cd8e7e2fb9")
LP_CORE_SHA256 = (
    "beeee1a82553aa2cc455344373c28cad9096172ccaf16837e3b3d292afd8e705")


def sweep_instances():
    for seed in SEEDS:
        for n_units, T, network in SHAPES:
            inst = generate_instance(seed, n_units, T, with_network=network)
            for pd in PRE_OFFLINE:
                units = [dataclasses.replace(u, pre_offline=pd * (k % 2 == 0))
                         for k, u in enumerate(inst.units)]
                yield dataclasses.replace(inst, name=f"{inst.name}_pd{pd}",
                                          units=units)


def sweep_models():
    for inst in sweep_instances():
        for base in BASES:
            for startup in STARTUPS:
                for ktol in KTOLS[:1] if startup == "temp" else KTOLS:
                    model, _ = build_model(
                        inst, FormulationChoice(base, startup, ktol))
                    yield inst, ktol, model


def is_pre_horizon_stype(inst, steps, name):
    """Whether ``stype_i_t_s`` caps a type whose window reaches before the
    horizon (t <= the type's longest off-time); ``steps`` are the step
    functions the model was built from."""
    i, t, s = map(int, name.split("_")[1:])
    return t <= steps[inst.units[i - 1].id].steps[s - 1].hi


def test_sweep_digest_and_family_coverage():
    digest = hashlib.sha256()
    seen, pre_horizon_stype = set(), 0
    for inst, ktol, model in sweep_models():
        digest.update(write_mps(model).encode())
        steps = step_functions(inst, ktol)
        for name in model.row_names:
            seen.add(re.sub(r"(_\d+)+$", "", name))
            if name.startswith("stype_"):
                pre_horizon_stype += is_pre_horizon_stype(inst, steps, name)
    assert seen == FAMILIES
    assert pre_horizon_stype > 0
    assert digest.hexdigest() == SWEEP_SHA256


def test_lp_core_column_arrays_digest():
    """LpCore's lo, up (structurals, then slacks), c and binary ids of
    every sweep model, each with its dtype and shape."""
    digest = hashlib.sha256()
    for _, _, model in sweep_models():
        core = LpCore(model)
        for a in (core.lo, core.up, core.c, core.binary_ids):
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
    assert digest.hexdigest() == LP_CORE_SHA256


def test_rows_handed_over_in_pieces_build_the_same_models():
    """A builder passes its rows to add_rows each time it holds
    ``_FLUSH_TERMS`` terms; with that lowered to a few terms, every model
    is the one built in a single block."""
    for inst in itertools.islice(sweep_instances(), 0, None, 9):
        for base in BASES:
            for startup in STARTUPS:
                choice = FormulationChoice(base, startup, 0.0)
                whole, _ = build_model(inst, choice)
                with mock.patch.object(formulations, "_FLUSH_TERMS", 5):
                    pieces, _ = build_model(inst, choice)
                assert pieces == whole
