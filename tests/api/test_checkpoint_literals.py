"""Checkpoint rows pinned by literal checkpoints.

The trees below are ``to_state()`` checkpoints of the four bottom-k
samplers, written by the heap-based implementation that preceded
:class:`~repro.core.bottomk_store.BottomKStore`, each with the
``sample_signature`` it had.  Their rows are in heap order, and one
``bottom_k`` row has only four fields, as in checkpoints written before
the time column.  The sketches are fed int64, float64 and str keys.

The ``sliding_window`` tree was written by the per-record implementation
that preceded its priority-ordered columns.  Its ``records`` rows are in
arrival order, and its ``arrival_order`` still lists three evicted ids.

The ``kmv``, ``theta``, ``multi_stratified`` and ``grouped_distinct``
trees were written by the hand-rolled heaps that preceded
:class:`~repro.core.bottomk_store.KeyedBottomK`.  The two hash lists
ascend; the item, stratum, dedicated and pool rows are in arrival order,
and the layout check compares them exactly.

The ``poisson``, ``budget`` and ``variance_target`` trees were written
by the samplers that each drew their own priorities, before
:class:`~repro.api.protocol.PrioritySampler`.  Between them they cover a
non-default family drawn from the generator, hashed priorities and item
sizes; their rows are in arrival order (``poisson``) or priority order,
and the layout check compares them exactly.

Both restore paths must reproduce those samples, and so must fresh
sketches fed the same inputs, writing the same rows.  A changed row
layout fails the restore; a priority change (such as hashing a float64
key array as numpy scalars instead of the floats it holds) fails the
fresh feed.
"""

import copy

import numpy as np
import pytest

import repro
from repro.api import get_sampler_class, make_sampler
from tests.helpers import sample_signature

INT_KEYS = np.array([3, 14, 15, 92, 65, 35, 89, 79], dtype=np.int64)
FLOAT_KEYS = np.array([1.5, 2.25, 0.5, 7.75, 3.0, 9.5, 4.125, 6.0])
STR_KEYS = ["a", "bb", "ccc", "dd", "e", "ff", "g", "hh"]
WEIGHTS = np.array([1.0, 2.5, 0.5, 4.0, 1.5, 3.0, 0.75, 2.0])
VALUES = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0])
TIMES = np.arange(8) * 0.5
SIZES = np.array([0.5, 1.25, 2.0, 0.75, 1.0, 1.5, 0.25, 1.75])


def _bottom_k():
    # Timed int rows, untimed float and str rows.
    s = make_sampler("bottom_k", k=5, coordinated=True, salt=3)
    s.update_many(INT_KEYS, WEIGHTS, times=TIMES)
    s.update_many(FLOAT_KEYS, WEIGHTS)
    s.update_many(STR_KEYS, WEIGHTS, values=VALUES)
    return s


def _time_decay():
    s = make_sampler("time_decay", k=5, decay_rate=0.1, rng=7)
    s.update_many(INT_KEYS, WEIGHTS, times=TIMES)
    s.update_many(FLOAT_KEYS, WEIGHTS, times=TIMES + 4.0)
    s.update_many(STR_KEYS, WEIGHTS, values=VALUES, times=TIMES + 8.0)
    return s


def _weighted_distinct():
    # The grow-resize leaves a cap behind.
    s = make_sampler("weighted_distinct", k=5, salt=3)
    s.update_many(INT_KEYS, WEIGHTS)
    s.update_many(FLOAT_KEYS, WEIGHTS)
    s.resize(8)
    s.update_many(STR_KEYS, WEIGHTS)
    return s


def _adaptive_distinct():
    # Merged entries from the merge, stream entries fed after it.
    a = make_sampler("adaptive_distinct", k=5, salt=3)
    a.update_many(INT_KEYS)
    b = make_sampler("adaptive_distinct", k=5, salt=3)
    b.update_many(FLOAT_KEYS)
    a.merge(b)
    a.update_many(STR_KEYS)
    return a


def _sliding_window():
    # Scalar str arrivals (the first ones expire), a float64 batch, a
    # restore, then an int64 batch.
    s = make_sampler("sliding_window", k=5, window=4.5, rng=7)
    for key, value, t in zip(STR_KEYS, VALUES.tolist(),
                             (TIMES * 0.5).tolist()):
        s.update(key, value=value, time=t)
    s.update_many(FLOAT_KEYS, values=VALUES, times=TIMES * 0.5 + 2.0)
    s = repro.sampler_from_state(s.to_state())
    s.update_many(INT_KEYS, values=VALUES, times=TIMES * 0.5 + 4.0)
    return s


def _kmv():
    # Saturated by int keys, grow-resized (the k-th minimum becomes the
    # cap), fed floats, then merged with a sketch that is still exact.
    s = make_sampler("kmv", k=4, salt=3)
    s.update_many(INT_KEYS)
    s.resize(6)
    s.update_many(FLOAT_KEYS)
    exact = make_sampler("kmv", k=8, salt=3)
    for key in STR_KEYS[:5]:
        exact.update(key)
    return s.merge(exact)


def _theta():
    # Shrunk, then unioned with a fuller sketch: the union keeps the
    # smaller theta as its cap.
    a = make_sampler("theta", k=6, salt=3)
    a.update_many(INT_KEYS)
    a.update_many(FLOAT_KEYS)
    a.resize(4)
    b = make_sampler("theta", k=5, salt=3)
    b.update_many(STR_KEYS)
    for key in FLOAT_KEYS[:4].tolist():
        b.update(key)
    return a.merge(b)


def _multi_stratified():
    # int, str and tuple keys; the 33rd item compacts the item table,
    # and keys 3 and 15, dropped by it, arrive again.
    s = make_sampler("multi_stratified", n_dims=2, k=1, salt=3)
    s.update_many(INT_KEYS, values=VALUES,
                  strata=[("x", i % 2) for i in range(8)])
    for i, key in enumerate(STR_KEYS):
        s.update(key, value=float(i), strata=("x" if i % 3 else "y", i % 2))
    tuples = [(i, "t") for i in range(24)]
    s.update_many(tuples, strata=[("y", i % 2) for i in range(24)])
    s.update_many(INT_KEYS[:3], strata=[("x", 0)] * 3)
    return s


def _grouped_distinct():
    # Groups c, d and e are promoted from the pool in turn, each swapped
    # with the loosest dedicated group; the pool is pruned on the way.
    s = make_sampler("grouped_distinct", m=2, k=3, salt=3)
    s.update_many(INT_KEYS, groups=["a", "b"] * 4)
    for key in STR_KEYS:
        s.update(key, group="c" if key < "e" else "d")
    s.update_many(FLOAT_KEYS, groups=["d", "c", "e", "a"] * 2)
    s.update_many(INT_KEYS, groups=["e"] * 8)
    return s


def _poisson():
    # Exponential priorities from the generator; floats fed one by one.
    s = make_sampler("poisson", threshold=0.4, family="exponential", rng=7)
    s.update_many(INT_KEYS, WEIGHTS)
    for key, w in zip(FLOAT_KEYS.tolist(), WEIGHTS.tolist()):
        s.update(key, w)
    s.update_many(STR_KEYS, WEIGHTS, values=VALUES)
    return s


def _budget():
    # Hashed priorities and item sizes; the budget binds.
    s = make_sampler("budget", budget=5.0, coordinated=True, salt=3)
    s.update_many(INT_KEYS, WEIGHTS, sizes=SIZES)
    for key, w, size in zip(FLOAT_KEYS.tolist(), WEIGHTS.tolist(),
                            SIZES.tolist()):
        s.update(key, w, size=size)
    s.update_many(STR_KEYS, WEIGHTS, values=VALUES, sizes=SIZES[::-1])
    return s


def _variance_target():
    # Uniform priorities from the generator; the sample is cut at the
    # first variance crossing.
    s = make_sampler("variance_target", delta=40.0, horizon=24,
                     family="uniform", rng=7)
    s.update_many(INT_KEYS, WEIGHTS, values=VALUES)
    for key, w in zip(FLOAT_KEYS.tolist(), WEIGHTS.tolist()):
        s.update(key, w)
    s.update_many(STR_KEYS, WEIGHTS, values=VALUES)
    return s


# Written by the heap-based samplers; see the module docstring.
BOTTOM_K_STATE = {
    "sampler": "bottom_k",
    "version": 2,
    "params": {
        "k": 5,
        "family": "inverse_weight",
        "coordinated": True,
        "salt": 3,
    },
    "state": {
        "entries": [
            (0.11362792451215616, 9.5, 3.0, 3.0),
            (0.04707131056083511, "ff", 3.0, 60.0, None),
            (0.03568967692973647, "dd", 4.0, 40.0, None),
            (0.004148463411359528, 35, 3.0, 3.0, 2.5),
            (0.013366824790356455, 2.25, 2.5, 2.5, None),
            (0.0052985592869441295, 14, 2.5, 2.5, 0.5),
        ],
        "items_seen": 24,
        "threshold_cap": None,
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 35399562948360463058890781895381311971,
                "inc": 87136372517582989555478159403783844777,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    },
}

BOTTOM_K_SIGNATURE = (
    ("'dd'", 40.0, 4.0, 0.03568967693, 0.113627924512),
    ("'ff'", 60.0, 3.0, 0.047071310561, 0.113627924512),
    ("14", 2.5, 2.5, 0.005298559287, 0.113627924512),
    ("2.25", 2.5, 2.5, 0.01336682479, 0.113627924512),
    ("35", 3.0, 3.0, 0.004148463411, 0.113627924512),
)

TIME_DECAY_STATE = {
    "sampler": "time_decay",
    "version": 2,
    "params": {"k": 5, "decay_rate": 0.1},
    "state": {
        "entries": [
            (-2.941147582999143, "e", 1.5, 10.0, 50.0),
            (-3.2148987183848625, 7.75, 4.0, 5.5, 4.0),
            (-3.0270288172120856, 92, 4.0, 1.5, 4.0),
            (-5.25893421540483, 89, 0.75, 3.0, 0.75),
            (-4.968031695828562, "hh", 2.0, 11.5, 80.0),
            (-3.9798694181227967, "ff", 3.0, 10.5, 60.0),
        ],
        "items_seen": 24,
        "last_time": 11.5,
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 24577368018281870019634082382682937184,
                "inc": 261136684632268670825940853076396136793,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    },
}

TIME_DECAY_SIGNATURE = (
    ("'ff'", 60.0, 3.0, -3.979869418123, 0.150898540836),
    ("'hh'", 80.0, 2.0, -4.968031695829, 0.166768678912),
    ("7.75", 4.0, 4.0, -3.214898718385, 0.091524591523),
    ("89", 0.75, 0.75, -5.258934215405, 0.071279423548),
    ("92", 4.0, 4.0, -3.027028817212, 0.061350768403),
)

WEIGHTED_DISTINCT_STATE = {
    "sampler": "weighted_distinct",
    "version": 2,
    "params": {"k": 8, "salt": 3},
    "state": {
        "entries": [
            (35, 0.004148463411359528, 3.0),
            (14, 0.0052985592869441295, 2.5),
            (92, 0.20713016043763477, 4.0),
            (2.25, 0.013366824790356455, 2.5),
            (9.5, 0.11362792451215616, 3.0),
            (1.5, 0.18384504974732988, 1.0),
            ("dd", 0.03568967692973647, 4.0),
            ("ff", 0.04707131056083511, 3.0),
            ("hh", 0.18838837442241346, 2.0),
        ],
        "cap": 0.20713016043763477,
    },
}

WEIGHTED_DISTINCT_SIGNATURE = (
    ("'dd'", 1.0, 4.0, 0.03568967693, 0.207130160438),
    ("'ff'", 1.0, 3.0, 0.047071310561, 0.207130160438),
    ("'hh'", 1.0, 2.0, 0.188388374422, 0.207130160438),
    ("1.5", 1.0, 1.0, 0.183845049747, 0.207130160438),
    ("14", 1.0, 2.5, 0.005298559287, 0.207130160438),
    ("2.25", 1.0, 2.5, 0.01336682479, 0.207130160438),
    ("35", 1.0, 3.0, 0.004148463411, 0.207130160438),
    ("9.5", 1.0, 3.0, 0.113627924512, 0.207130160438),
)

ADAPTIVE_DISTINCT_STATE = {
    "sampler": "adaptive_distinct",
    "version": 2,
    "params": {"k": 5, "salt": 3},
    "state": {
        "stream_entries": [
            ("ff", 0.14121393168250534),
            ("dd", 0.1427587077189459),
            ("ccc", 0.35459847173664416),
            ("hh", 0.3767767488448269),
            ("a", 0.45023573868855166),
            ("e", 0.478826932160202),
        ],
        "merged_entries": [
            (35, 0.012445390234078584, 0.8285206417505391),
            (14, 0.013246398217360324, 0.8285206417505391),
            (79, 0.4568553197799052, 0.8285206417505391),
            (3, 0.7368776179981673, 0.8285206417505391),
            (15, 0.758355000804108, 0.8285206417505391),
            (2.25, 0.03341706197589114, 0.7700657194955203),
            (1.5, 0.18384504974732988, 0.7700657194955203),
            (9.5, 0.3408837735364685, 0.7700657194955203),
            (0.5, 0.5452116084876943, 0.7700657194955203),
            (4.125, 0.6210329111546876, 0.7700657194955203),
        ],
        "admission_cap": 0.7700657194955203,
    },
}

ADAPTIVE_DISTINCT_SIGNATURE = (
    ("'a'", 1.0, 1.0, 0.450235738689, 0.47882693216),
    ("'ccc'", 1.0, 1.0, 0.354598471737, 0.47882693216),
    ("'dd'", 1.0, 1.0, 0.142758707719, 0.47882693216),
    ("'ff'", 1.0, 1.0, 0.141213931683, 0.47882693216),
    ("'hh'", 1.0, 1.0, 0.376776748845, 0.47882693216),
    ("0.5", 1.0, 1.0, 0.545211608488, 0.770065719496),
    ("1.5", 1.0, 1.0, 0.183845049747, 0.770065719496),
    ("14", 1.0, 1.0, 0.013246398217, 0.828520641751),
    ("15", 1.0, 1.0, 0.758355000804, 0.828520641751),
    ("2.25", 1.0, 1.0, 0.033417061976, 0.770065719496),
    ("3", 1.0, 1.0, 0.736877617998, 0.828520641751),
    ("35", 1.0, 1.0, 0.012445390234, 0.828520641751),
    ("4.125", 1.0, 1.0, 0.621032911155, 0.770065719496),
    ("79", 1.0, 1.0, 0.45685531978, 0.828520641751),
    ("9.5", 1.0, 1.0, 0.340883773536, 0.770065719496),
)

# Written by the per-record sliding window; see the module docstring.
SLIDING_WINDOW_STATE = {
    "sampler": "sliding_window",
    "version": 2,
    "params": {"k": 5, "window": 4.5},
    "state": {
        "records": [
            (5, "g", 70.0, 1.5, 0.005265304565574724, 7, 0.7756856902451935),
            (9, 3.0, 50.0, 3.0, 0.2548695876541246, 13, 0.30016628491122543),
            (10, 65, 50.0, 5.0, 0.21530869823559895, 21, 0.2784256121007733),
            (11, 35, 60.0, 5.25, 0.16021203385784455, 22, 1.0),
            (12, 79, 80.0, 5.75, 0.04394200796138337, 24, 0.2548695876541246),
        ],
        "arrival_order": [5, 6, 7, 8, 9, 10, 11, 12],
        "expired": [(0.75, 0.22520718999059186)],
        "updates": [(24, 0.2548695876541246)],
        "seq": 24,
        "next_id": 13,
        "items_seen": 24,
        "max_current": 5,
        "max_expired": 1,
        "last_time": 5.75,
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 24577368018281870019634082382682937184,
                "inc": 261136684632268670825940853076396136793,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    },
}

# The row of key 3.0 sits exactly at the threshold and is left out.
SLIDING_WINDOW_SIGNATURE = (
    ("'g'", 70.0, 1.0, 0.005265304566, 0.254869587654),
    ("35", 60.0, 1.0, 0.160212033858, 0.254869587654),
    ("65", 50.0, 1.0, 0.215308698236, 0.254869587654),
    ("79", 80.0, 1.0, 0.043942007961, 0.254869587654),
)

# Written by the per-sampler heaps; see the module docstring.
KMV_STATE = {
    "sampler": "kmv",
    "version": 2,
    "params": {"k": 6, "salt": 3},
    "state": {
        "hashes": [
            0.012445390234078584,
            0.013246398217360324,
            0.03341706197589114,
            0.1427587077189459,
            0.18384504974732988,
            0.3408837735364685,
        ],
        "exact": 7,
        "cap": 0.7368776179981673,
    },
}

# The sixth hash is the k-th minimum, the threshold itself.
KMV_SIGNATURE = (
    ("0.012445390234078584", 1.0, 1.0, 0.012445390234, 0.340883773536),
    ("0.013246398217360324", 1.0, 1.0, 0.013246398217, 0.340883773536),
    ("0.03341706197589114", 1.0, 1.0, 0.033417061976, 0.340883773536),
    ("0.1427587077189459", 1.0, 1.0, 0.142758707719, 0.340883773536),
    ("0.18384504974732988", 1.0, 1.0, 0.183845049747, 0.340883773536),
)

THETA_STATE = {
    "sampler": "theta",
    "version": 2,
    "params": {"k": 5, "salt": 3},
    "state": {
        "hashes": [
            0.012445390234078584,
            0.013246398217360324,
            0.03341706197589114,
            0.14121393168250534,
            0.1427587077189459,
            0.18384504974732988,
        ],
        "theta_cap": 0.3408837735364685,
    },
}

THETA_SIGNATURE = (
    ("0.012445390234078584", 1.0, 1.0, 0.012445390234, 0.183845049747),
    ("0.013246398217360324", 1.0, 1.0, 0.013246398217, 0.183845049747),
    ("0.03341706197589114", 1.0, 1.0, 0.033417061976, 0.183845049747),
    ("0.14121393168250534", 1.0, 1.0, 0.141213931683, 0.183845049747),
    ("0.1427587077189459", 1.0, 1.0, 0.142758707719, 0.183845049747),
)

MULTI_STRATIFIED_STATE = {
    "sampler": "multi_stratified",
    "version": 2,
    "params": {"n_dims": 2, "k": 1, "salt": 3},
    "state": {
        "items": [
            (14, ["x", 1], 0.013246398217360324, 20.0),
            (35, ["x", 1], 0.012445390234078584, 60.0),
            ("dd", ["y", 1], 0.1427587077189459, 3.0),
            ((5, "t"), ["y", 1], 0.13321345426048192, 1.0),
            ((6, "t"), ["y", 0], 0.1579913408849779, 1.0),
            ((10, "t"), ["y", 0], 0.272612590481329, 1.0),
            ((17, "t"), ["y", 1], 0.007695834726601786, 1.0),
            ((18, "t"), ["y", 0], 0.5448560848480993, 1.0),
            ((19, "t"), ["y", 1], 0.11248357238842921, 1.0),
            ((20, "t"), ["y", 0], 0.4275516892516954, 1.0),
            ((21, "t"), ["y", 1], 0.6924442174366348, 1.0),
            ((22, "t"), ["y", 0], 0.5543608553562677, 1.0),
            ((23, "t"), ["y", 1], 0.658407020124353, 1.0),
            (3, ["x", 0], 0.7368776179981673, 1.0),
            (15, ["x", 0], 0.758355000804108, 1.0),
        ],
        "strata": [
            (0, "x", [(14, 0.013246398217360324),
                      (35, 0.012445390234078584)]),
            (1, 0, [((6, "t"), 0.1579913408849779),
                    ((10, "t"), 0.272612590481329)]),
            (1, 1, [(35, 0.012445390234078584),
                    ((17, "t"), 0.007695834726601786)]),
            (0, "y", [((17, "t"), 0.007695834726601786),
                      ((19, "t"), 0.11248357238842921)]),
        ],
        "items_seen": 43,
    },
}

MULTI_STRATIFIED_SIGNATURE = (
    ("(17, 't')", 1.0, 1.0, 0.007695834727, 0.112483572388),
    ("(6, 't')", 1.0, 1.0, 0.157991340885, 0.272612590481),
    ("35", 60.0, 1.0, 0.012445390234, 0.013246398217),
)

GROUPED_DISTINCT_STATE = {
    "sampler": "grouped_distinct",
    "version": 2,
    "params": {"m": 2, "k": 3, "salt": 3},
    "state": {
        "dedicated": [
            ("b", [(14, 0.07564910563671845),
                   (92, 0.28535835124022985),
                   (35, 0.5631815253418285),
                   (79, 0.26481872683979885)]),
            ("e", [(4.125, 0.3274864064632608),
                   (3, 0.10075691626890464),
                   (15, 0.24255943994514748),
                   (79, 0.2812246921036163)]),
        ],
        "pool": [
            ("a", [(89, 0.3696251442659971),
                   (7.75, 0.07350011388018073),
                   (6.0, 0.27116073866884166)]),
            ("c", [("a", 0.08082607951657832),
                   ("bb", 0.16081360835980876)]),
            ("d", [("ff", 0.12396506054091905),
                   ("g", 0.17941567811495843)]),
        ],
        "items_seen": 32,
    },
}

# Pooled rows take the loosest dedicated threshold, group b's.
GROUPED_DISTINCT_SIGNATURE = (
    ("('a', 6.0)", 1.0, 1.0, 0.271160738669, 0.563181525342),
    ("('a', 7.75)", 1.0, 1.0, 0.07350011388, 0.563181525342),
    ("('a', 89)", 1.0, 1.0, 0.369625144266, 0.563181525342),
    ("('b', 14)", 1.0, 1.0, 0.075649105637, 0.563181525342),
    ("('b', 79)", 1.0, 1.0, 0.26481872684, 0.563181525342),
    ("('b', 92)", 1.0, 1.0, 0.28535835124, 0.563181525342),
    ("('c', 'a')", 1.0, 1.0, 0.080826079517, 0.563181525342),
    ("('c', 'bb')", 1.0, 1.0, 0.16081360836, 0.563181525342),
    ("('d', 'ff')", 1.0, 1.0, 0.123965060541, 0.563181525342),
    ("('d', 'g')", 1.0, 1.0, 0.179415678115, 0.563181525342),
    ("('e', 15)", 1.0, 1.0, 0.242559439945, 0.327486406463),
    ("('e', 3)", 1.0, 1.0, 0.100756916269, 0.327486406463),
    ("('e', 79)", 1.0, 1.0, 0.281224692104, 0.327486406463),
)

# Written by the samplers that drew their own priorities; see the module
# docstring.
POISSON_STATE = {
    "sampler": "poisson",
    "version": 2,
    "params": {
        "threshold": 0.4,
        "family": "exponential",
        "coordinated": False,
        "salt": 0,
    },
    "state": {
        "keys": [92, 65, 89, 2.25, 7.75, 3.0, 9.5, "e", "ff", "hh"],
        "values": [4.0, 1.5, 0.75, 2.5, 4.0, 1.5, 3.0, 50.0, 60.0, 80.0],
        "weights": [4.0, 1.5, 0.75, 2.5, 4.0, 1.5, 3.0, 1.5, 3.0, 2.0],
        "priorities": [
            0.06378990682358919,
            0.23794168135423455,
            0.007038953509409275,
            0.2523958112095993,
            0.08157995108784995,
            0.19613068386224783,
            0.19630822092163178,
            0.16164325646751687,
            0.05820194675590825,
            0.022468353321143764,
        ],
        "thresholds": [0.4] * 10,
        "items_seen": 24,
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 24577368018281870019634082382682937184,
                "inc": 261136684632268670825940853076396136793,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    },
}

POISSON_SIGNATURE = (
    ("'e'", 50.0, 1.5, 0.161643256468, 0.4),
    ("'ff'", 60.0, 3.0, 0.058201946756, 0.4),
    ("'hh'", 80.0, 2.0, 0.022468353321, 0.4),
    ("2.25", 2.5, 2.5, 0.25239581121, 0.4),
    ("3.0", 1.5, 1.5, 0.196130683862, 0.4),
    ("65", 1.5, 1.5, 0.237941681354, 0.4),
    ("7.75", 4.0, 4.0, 0.081579951088, 0.4),
    ("89", 0.75, 0.75, 0.007038953509, 0.4),
    ("9.5", 3.0, 3.0, 0.196308220922, 0.4),
    ("92", 4.0, 4.0, 0.063789906824, 0.4),
)

BUDGET_STATE = {
    "sampler": "budget",
    "version": 2,
    "params": {
        "budget": 5.0,
        "family": "inverse_weight",
        "coordinated": True,
        "salt": 3,
    },
    "state": {
        "priorities": [
            0.004148463411359528,
            0.0052985592869441295,
            0.013366824790356455,
            0.03568967692973647,
        ],
        "records": [
            [35, 3.0, 3.0, 1.5],
            [14, 2.5, 2.5, 1.25],
            [2.25, 2.5, 2.5, 1.25],
            ["dd", 4.0, 40.0, 1.0],
        ],
        "threshold": 0.04707131056083511,
        "items_seen": 24,
        "max_item_size_seen": 2.0,
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 35399562948360463058890781895381311971,
                "inc": 87136372517582989555478159403783844777,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    },
}

BUDGET_SIGNATURE = (
    ("'dd'", 40.0, 4.0, 0.03568967693, 0.047071310561),
    ("14", 2.5, 2.5, 0.005298559287, 0.047071310561),
    ("2.25", 2.5, 2.5, 0.01336682479, 0.047071310561),
    ("35", 3.0, 3.0, 0.004148463411, 0.047071310561),
)

VARIANCE_TARGET_STATE = {
    "sampler": "variance_target",
    "version": 2,
    "params": {
        "delta": 40.0,
        "horizon": 24,
        "oversample": 2.0,
        "family": "uniform",
        "coordinated": False,
        "salt": 0,
    },
    "state": {
        "priorities": [
            0.005265304565574724,
            0.04394200796138337,
            0.16021203385784455,
            0.21530869823559895,
            0.22520718999059186,
            0.2548695876541246,
            0.2784256121007733,
            0.30016628491122543,
            0.3030324268193135,
            0.4450763058826466,
            0.4679349528437208,
            0.5045482589579533,
            0.5534973520744925,
            0.6125396042730308,
            0.6221792294411627,
            0.625095466604667,
            0.7756856902451935,
            0.7926619192137531,
            0.7970694287520462,
            0.8212284183827663,
            0.8735534453962619,
            0.8972138009695755,
            0.9889601476818849,
            0.9955002834343927,
        ],
        "records": [
            [89, 0.75, 70.0],
            ["hh", 2.0, 80.0],
            ["ff", 3.0, 60.0],
            ["e", 1.5, 50.0],
            [92, 4.0, 40.0],
            [3.0, 1.5, 1.5],
            [7.75, 4.0, 4.0],
            [65, 1.5, 50.0],
            [0.5, 0.5, 0.5],
            [9.5, 3.0, 3.0],
            [2.25, 2.5, 2.5],
            [4.125, 0.75, 0.75],
            [6.0, 2.0, 2.0],
            ["g", 0.75, 70.0],
            ["ccc", 0.5, 30.0],
            [3, 1.0, 10.0],
            [15, 0.5, 30.0],
            ["bb", 2.5, 20.0],
            [1.5, 1.0, 1.0],
            [79, 2.0, 80.0],
            [35, 3.0, 60.0],
            [14, 2.5, 20.0],
            ["dd", 4.0, 40.0],
            ["a", 1.0, 10.0],
        ],
        "cap": float("inf"),
        "cap_ever_bound": False,
        "items_seen": 24,
        "next_tighten": 256,
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 24577368018281870019634082382682937184,
                "inc": 261136684632268670825940853076396136793,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    },
}

# The two largest priorities lie above the first crossing.
VARIANCE_TARGET_SIGNATURE = (
    ("'bb'", 20.0, 2.5, 0.792661919214, 0.962155940143),
    ("'ccc'", 30.0, 0.5, 0.622179229441, 0.962155940143),
    ("'e'", 50.0, 1.5, 0.215308698236, 0.962155940143),
    ("'ff'", 60.0, 3.0, 0.160212033858, 0.962155940143),
    ("'g'", 70.0, 0.75, 0.612539604273, 0.962155940143),
    ("'hh'", 80.0, 2.0, 0.043942007961, 0.962155940143),
    ("0.5", 0.5, 0.5, 0.303032426819, 0.962155940143),
    ("1.5", 1.0, 1.0, 0.797069428752, 0.962155940143),
    ("14", 20.0, 2.5, 0.89721380097, 0.962155940143),
    ("15", 30.0, 0.5, 0.775685690245, 0.962155940143),
    ("2.25", 2.5, 2.5, 0.467934952844, 0.962155940143),
    ("3", 10.0, 1.0, 0.625095466605, 0.962155940143),
    ("3.0", 1.5, 1.5, 0.254869587654, 0.962155940143),
    ("35", 60.0, 3.0, 0.873553445396, 0.962155940143),
    ("4.125", 0.75, 0.75, 0.504548258958, 0.962155940143),
    ("6.0", 2.0, 2.0, 0.553497352074, 0.962155940143),
    ("65", 50.0, 1.5, 0.300166284911, 0.962155940143),
    ("7.75", 4.0, 4.0, 0.278425612101, 0.962155940143),
    ("79", 80.0, 2.0, 0.821228418383, 0.962155940143),
    ("89", 70.0, 0.75, 0.005265304566, 0.962155940143),
    ("9.5", 3.0, 3.0, 0.445076305883, 0.962155940143),
    ("92", 40.0, 4.0, 0.225207189991, 0.962155940143),
)

#: name -> (feed, literal checkpoint, its sample signature, and the
#: priority field of each row list the store keeps sorted).
CASES = {
    "bottom_k": (_bottom_k, BOTTOM_K_STATE, BOTTOM_K_SIGNATURE,
                 {"entries": 0}),
    "time_decay": (_time_decay, TIME_DECAY_STATE, TIME_DECAY_SIGNATURE,
                   {"entries": 0}),
    "weighted_distinct": (_weighted_distinct, WEIGHTED_DISTINCT_STATE,
                          WEIGHTED_DISTINCT_SIGNATURE, {"entries": 1}),
    "adaptive_distinct": (_adaptive_distinct, ADAPTIVE_DISTINCT_STATE,
                          ADAPTIVE_DISTINCT_SIGNATURE, {"stream_entries": 1}),
    "sliding_window": (_sliding_window, SLIDING_WINDOW_STATE,
                       SLIDING_WINDOW_SIGNATURE, {}),
    "kmv": (_kmv, KMV_STATE, KMV_SIGNATURE, {}),
    "theta": (_theta, THETA_STATE, THETA_SIGNATURE, {}),
    "multi_stratified": (_multi_stratified, MULTI_STRATIFIED_STATE,
                         MULTI_STRATIFIED_SIGNATURE, {}),
    "grouped_distinct": (_grouped_distinct, GROUPED_DISTINCT_STATE,
                         GROUPED_DISTINCT_SIGNATURE, {}),
    "poisson": (_poisson, POISSON_STATE, POISSON_SIGNATURE, {}),
    "budget": (_budget, BUDGET_STATE, BUDGET_SIGNATURE, {}),
    "variance_target": (_variance_target, VARIANCE_TARGET_STATE,
                        VARIANCE_TARGET_SIGNATURE, {}),
}
NAMES = sorted(CASES)


def _row_set(rows) -> list[tuple]:
    """Rows in any order, a short row padded with None (an untimed
    ``bottom_k`` row from before the time column)."""
    width = max(map(len, rows), default=0)
    return sorted(
        (tuple(row) + (None,) * (width - len(row)) for row in rows),
        key=repr,
    )


@pytest.mark.parametrize("name", NAMES)
def test_both_restore_paths_reproduce_the_sample(name):
    _, state, signature, _ = CASES[name]
    for restore in (get_sampler_class(name).from_state,
                    repro.sampler_from_state):
        assert sample_signature(restore(copy.deepcopy(state))) == signature


@pytest.mark.parametrize("name", NAMES)
def test_fresh_sketch_reproduces_the_sample(name):
    feed, _, signature, _ = CASES[name]
    assert sample_signature(feed()) == signature


@pytest.mark.parametrize("name", NAMES)
def test_checkpoint_rows_keep_their_layout(name):
    """A fresh sketch and a restored one both write the literal's tree:
    the same params and scalars, and the same rows — the bottom-k rows
    in any order but stored by ascending priority, the sliding-window
    rows in the literal's (arrival) order."""
    feed, state, _, sorted_rows = CASES[name]
    restored = repro.sampler_from_state(copy.deepcopy(state))
    for tree in (feed().to_state(), restored.to_state()):
        assert tree["params"] == state["params"]
        assert list(tree["params"]) == list(state["params"])
        assert list(tree["state"]) == list(state["state"])
        for field, want in state["state"].items():
            got = tree["state"][field]
            if field.endswith("entries"):
                assert _row_set(got) == _row_set(want), field
            else:
                assert got == want, field
        for field, at in sorted_rows.items():
            priorities = [row[at] for row in tree["state"][field]]
            assert priorities == sorted(priorities), field
