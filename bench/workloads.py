"""The benchmark's workloads: fixed inputs for one pass of each.

A pass is the unit a worker process runs and times.  Its inputs depend
only on the workload, the scale and the seed, so a given seed replays
the same trials.  The ``smoke`` scale is a shrunken copy of each
workload for checking that the harness runs and reports every metric.
"""

from __future__ import annotations

MODELS = ("exact", "bound-lower", "bound-upper", "balls", "union")
NON_EXACT = MODELS[1:]

# (3,6)-regular ensemble throughout; the DE threshold at M=q is the
# binary-erasure value, which the de-sweep checks at q=4, M=4
D_V, D_C = 3, 6
BEC_THRESHOLD = 0.4294
BEC_TOL = 2e-4

# threshold_search settings of the `pecldpc threshold` CLI defaults
DE_TOL_EPS = 1e-4
DE_MAX_ITERS = 2000

SIM = {
    "full": {
        # eps below, at the edge of, and above the exact DE threshold
        # 0.82098 of q=4, M=2
        "sim-q4": dict(q=4, M=2, n=10_000, eps=(0.70, 0.80, 0.85), trials=40, max_iters=200),
        # q=16 is above MASK_TABLE_MAX_Q: the per-node scalar kernel runs
        "sim-q16": dict(q=16, M=4, n=240, eps=(0.55, 0.65), trials=50, max_iters=200),
    },
    "smoke": {
        "sim-q4": dict(q=4, M=2, n=1_200, eps=(0.70, 0.85), trials=3, max_iters=200),
        "sim-q16": dict(q=16, M=4, n=60, eps=(0.55,), trials=3, max_iters=200),
    },
}


def _de_searches_full() -> list[tuple[int, int, str]]:
    out = []
    for q, ms in ((4, (2, 3, 4)), (8, (2, 3, 4)), (9, (3,))):
        out += [(q, m, kind) for m in ms for kind in MODELS]
    # the exact law at q=16, M>=3 exceeds the enumeration budget
    out += [(16, m, kind) for m in (3, 4) for kind in NON_EXACT]
    return out


DE = {
    "full": _de_searches_full(),
    "smoke": [(4, m, kind) for m in (2, 4) for kind in MODELS],
}

# DE thresholds recorded when the benchmark was defined, with the settings
# above; a search passes its check when it lands within DE_TOL_EPS
EXPECTED_THRESHOLD = {
    (4, 2, 'exact'): 0.82098388671875,
    (4, 2, 'bound-lower'): 1.0,
    (4, 2, 'bound-upper'): 0.66766357421875,
    (4, 2, 'balls'): 0.90032958984375,
    (4, 2, 'union'): 0.85089111328125,
    (4, 3, 'exact'): 0.52056884765625,
    (4, 3, 'bound-lower'): 0.5494384765625,
    (4, 3, 'bound-upper'): 0.509033203125,
    (4, 3, 'balls'): 0.5291748046875,
    (4, 3, 'union'): 0.52410888671875,
    (4, 4, 'exact'): 0.42938232421875,
    (4, 4, 'bound-lower'): 0.42938232421875,
    (4, 4, 'bound-upper'): 0.42938232421875,
    (4, 4, 'balls'): 0.42938232421875,
    (4, 4, 'union'): 0.42938232421875,
    (8, 2, 'exact'): 1.0,
    (8, 2, 'bound-lower'): 1.0,
    (8, 2, 'bound-upper'): 0.85498046875,
    (8, 2, 'balls'): 1.0,
    (8, 2, 'union'): 1.0,
    (8, 3, 'exact'): 0.72900390625,
    (8, 3, 'bound-lower'): 1.0,
    (8, 3, 'bound-upper'): 0.65997314453125,
    (8, 3, 'balls'): 0.7734375,
    (8, 3, 'union'): 0.74530029296875,
    (8, 4, 'exact'): 0.59857177734375,
    (8, 4, 'bound-lower'): 1.0,
    (8, 4, 'bound-upper'): 0.567626953125,
    (8, 4, 'balls'): 0.63934326171875,
    (8, 4, 'union'): 0.6116943359375,
    (9, 3, 'exact'): 0.7462158203125,
    (9, 3, 'bound-lower'): 1.0,
    (9, 3, 'bound-upper'): 0.6768798828125,
    (9, 3, 'balls'): 0.79632568359375,
    (9, 3, 'union'): 0.77227783203125,
    (16, 3, 'bound-lower'): 1.0,
    (16, 3, 'bound-upper'): 0.79876708984375,
    (16, 3, 'balls'): 0.8922119140625,
    (16, 3, 'union'): 0.8818359375,
    (16, 4, 'bound-lower'): 1.0,
    (16, 4, 'bound-upper'): 0.67962646484375,
    (16, 4, 'balls'): 0.76507568359375,
    (16, 4, 'union'): 0.750244140625,
}

WORKLOADS = ("sim-q4", "sim-q16", "de-sweep")


def spec(workload: str, scale: str):
    """('sim', params) or ('de', search list) for one workload."""
    if workload == "de-sweep":
        return "de", DE[scale]
    return "sim", SIM[scale][workload]


def fields_of(workload: str, scale: str) -> list[int]:
    kind, params = spec(workload, scale)
    if kind == "sim":
        return [params["q"]]
    return sorted({q for q, _, _ in params})


def ops_per_pass(workload: str, scale: str) -> int:
    kind, params = spec(workload, scale)
    if kind == "sim":
        return params["trials"] * len(params["eps"])
    return len(params)
