"""Seeded input generator for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same argv lists and the same call list.  Labels, admissibility and the
braid refusal rule come from ``tests/oracles.py``, so drawing inputs
never runs the program under test.
"""

from __future__ import annotations

import random
from functools import lru_cache

# Unitary p swept by `mm info`; p = 23 is the largest field (degree 704)
# that still finishes in a few seconds, and it runs twice a round (see
# QUICK_PER_ROUND).
INFO_P = (7, 11, 13, 17, 23, 23)
BRAID_P = (7, 11, 13)
# Channel cap for `mm braid`.  At the seed, BraidMatrix.det expands over
# k! permutations: a 6-channel matrix takes at most about 1 s cold, an
# 8-channel one 2-14 s when its entries vanish and over 60 s when they do
# not (p = 11), and k >= 9 runs past 40 s.  Beyond 6 one draw would eat
# a whole run, so the cap stays at 6 until det is polynomial.
MAX_CHANNELS = 6
# Braid slots of one sweep round: (p, channel counts, recursion sizes,
# draw).  Draws are random within a slot; the slots fix how much work a
# round holds, so runs on different seeds stay comparable.  Most random
# externals give an all-zero matrix, so the 6-channel slot asks for a
# non-zero one, which the oracle comparison tells apart from a sign or
# factor slip.  Recursion size is the number of distinct r-matrix entries
# the matrix needs (recursion_size); about 1 in 12 draws at p = 13
# exceeds 500 and costs seconds, so the natural slots stop at 200.  The
# last slot is a draw whose sign exponent is half-integral, which the
# oracle refuses: 1 in 5 braid draws, near the natural 18 % of non-empty
# draws at <= 6 channels.
ANY_K = range(1, MAX_CHANNELS + 1)
ANY_SIZE = range(0, 10**9)
BRAID_SLOTS = (
    (7, range(MAX_CHANNELS, MAX_CHANNELS + 1), ANY_SIZE, "nonzero"),
    (11, ANY_K, range(0, 100), "any"),
    (13, ANY_K, range(0, 100), "any"),
    (13, ANY_K, range(100, 200), "any"),
    (None, ANY_K, ANY_SIZE, "refused"),
)
# A round is 6 info + 5 braid + 10 quick ops.  Each percentile the
# benchmark reports falls inside a band of one kind of op, not on the
# edge between two whose share varies with the draws: the cheap ops
# (the quick queries, info at p = 7, the shallow braids) are 13 or 14 of
# 21, so the median falls among them, mostly quick queries; the two
# info runs at p = 23 are the slowest 2 of 21, so the 95th percentile
# falls inside them on runs of 2 to 6 rounds.  Quick-query models and
# the refused draw's p are dealt from seeded decks (see _deck), so every
# seed gets about the same mix.
QUICK_PER_ROUND = (("qdim", 4), ("fusion", 4), ("decompose", 2))
QUICK_MODELS = ((3, 4), (5, 6), (7, 8), (11, 12), (2, 5), (3, 5), (5, 7))
DECOMPOSE_KEYS = {
    "5a": [None] + [f"{i},{j}" for i in (1, 3, 5) for j in (1, 3, 5)],
    "3c": [None, "2", "4", "6", "8"],
}

# fusion-ring: models the warm session runs ring-axiom checks over.
RING_MODELS = (
    (3, 4), (5, 6), (7, 8), (11, 12), (13, 14),
    (2, 5), (3, 5), (4, 7), (5, 7), (7, 9),
)
# One block of the call list: per model, assoc/comm/unit checks; per
# unitary model, quantum-dimension products; per algebra, sector and
# module fusion.  Fixed counts, so every seed gets the same mix.  Labels
# are dealt from seeded shuffles of the model's label list, one deck per
# op kind and argument position, so every label comes up about equally
# often on every seed and only the combinations differ.  The slowest 1 %
# are associativity checks with large products at (11,12) and (13,14),
# about 110 calls in 60 blocks.  Dealt labels and the size of the list
# keep the p99 within a few per cent from seed to seed; 30 blocks of
# independent draws left it varying by 10-15 %.
RING_MODEL_OPS = (("assoc", 8), ("comm", 3), ("unit", 2))
RING_UNITARY_OPS = (("qdmul", 8),)
RING_ALGEBRA_OPS = (("sector", 5), ("module", 3))
RING_BLOCKS = 60
SECTORS = {"5A": 12, "3C": 6}
MODULE_KEYS = {
    "5A": [[i, j] for i in (1, 3, 5) for j in (1, 3, 5)],
    "3C": [0, 2, 4, 6, 8],
}

VERIFY_ARGV = ("verify", "all", "--format", "json")


@lru_cache(maxsize=None)
def labels(oracles, p: int, q: int) -> tuple:
    return tuple(oracles.labels(p, q))


def _label_arg(label) -> str:
    return f"{label[0]},{label[1]}"


def braid_channels(oracles, p: int, ext) -> list:
    """Intermediate channels of the braid matrix, read off the oracle."""
    q = p + 1
    a4, a1, a3, a2 = ext
    return [
        x for x in labels(oracles, p, q)
        if oracles.adm(p, q, a3, x, a4) and oracles.adm(p, q, a2, a1, x)
    ]


def oracle_braid(oracles, p: int, ext):
    """Entries of the float-route matrix, or None where it refuses
    (half-integral sign exponent)."""
    try:
        return oracles.braid_matrix(p, p + 1, ext)[2]
    except ValueError:
        return None


def draw_braid(rng: random.Random, oracles, p: int, channels: range,
               sizes: range, draw: str) -> tuple:
    """Random Kac externals at (p, p+1) that fall in one braid slot."""
    pool = labels(oracles, p, p + 1)
    while True:
        ext = tuple(rng.choice(pool) for _ in range(4))
        if len(braid_channels(oracles, p, ext)) not in channels:
            continue
        entries = oracle_braid(oracles, p, ext)
        if (entries is None) != (draw == "refused"):
            continue
        if draw == "nonzero" and not any(abs(v) > 1e-12 for v in entries.values()):
            continue
        if draw == "refused" or recursion_size(oracles, p, ext) in sizes:
            return ext


def braid_argv(p: int, ext) -> tuple:
    flat = ",".join(str(v) for label in ext for v in label)
    return ("braid", "--p", str(p), "--q", str(p + 1), "--ext", flat,
            "--format", "json")


def quick_query(rng: random.Random, oracles, kind: str, decks: dict) -> tuple:
    """One cheap query, where start-up and import dominate."""
    p, q = _deal(decks, "quick", rng, QUICK_MODELS)
    pool = labels(oracles, p, q)
    model = ("--p", str(p), "--q", str(q))
    if kind == "qdim":
        label = rng.choice(pool)
        return kind, ("qdim", *model, "--label", _label_arg(label), "--format",
                      "json"), {"p": p, "q": q, "label": label}
    if kind == "fusion":
        a, b = rng.choice(pool), rng.choice(pool)
        return kind, ("fusion", *model, "--a", _label_arg(a), "--b", _label_arg(b),
                      "--format", "json"), {"p": p, "q": q, "a": a, "b": b}
    algebra = _deal(decks, "decompose", rng, sorted(DECOMPOSE_KEYS))
    key = rng.choice(DECOMPOSE_KEYS[algebra])
    argv = ("decompose", algebra) + (("--module", key) if key else ()) + (
        "--format", "json")
    return kind, argv, {"algebra": algebra, "module": key}


def sweep_round(rng: random.Random, oracles, decks: dict) -> list:
    """One round of the model sweep, (kind, argv, meta) in seeded order:
    `mm info` at every INFO_P, one braid per slot and the quick queries."""
    ops = [("info", ("info", "--p", str(p), "--q", str(p + 1), "--format", "json"),
            {"p": p}) for p in INFO_P]
    for p, channels, sizes, draw in BRAID_SLOTS:
        p = p or _deal(decks, "refused", rng, BRAID_P)
        ext = draw_braid(rng, oracles, p, channels, sizes, draw)
        ops.append(("braid-refused" if draw == "refused" else "braid",
                    braid_argv(p, ext), {"p": p, "ext": ext}))
    ops += [quick_query(rng, oracles, kind, decks)
            for kind, count in QUICK_PER_ROUND for _ in range(count)]
    rng.shuffle(ops)
    return ops


def cli_rounds(workload: str, seed: int, oracles):
    """Endless iterator of rounds for a CLI workload."""
    rng = random.Random(seed)
    decks: dict = {}
    while True:
        if workload == "verify-paper":
            yield [("verify", VERIFY_ARGV, {})]
        else:
            yield sweep_round(rng, oracles, decks)


def _deck(rng: random.Random, pool):
    """Endless items from successive seeded shuffles of pool."""
    while True:
        yield from rng.sample(pool, len(pool))


def _deal(decks: dict, key, rng: random.Random, pool):
    """The next item of the deck kept under key."""
    if key not in decks:
        decks[key] = _deck(rng, pool)
    return next(decks[key])


def ring_calls(seed: int, oracles, blocks: int = RING_BLOCKS) -> list:
    """The fusion-ring call list: JSON-ready [kind, ...args] entries."""
    rng = random.Random(seed)
    arity = {"assoc": 3, "comm": 2, "unit": 1, "qdmul": 2}
    decks: dict = {}
    calls = []
    for _ in range(blocks):
        for p, q in RING_MODELS:
            # |S_a0/S_00| is multiplicative only where every S_a0 is
            # positive, so quantum-dimension products run on unitary models
            mix = RING_MODEL_OPS + (RING_UNITARY_OPS if q == p + 1 else ())
            pool = labels(oracles, p, q)
            for kind, count in mix:
                for _ in range(count):
                    calls.append([kind, p, q] + [
                        list(_deal(decks, (p, q, kind, i), rng, pool))
                        for i in range(arity[kind])])
        for alg in sorted(SECTORS):
            for kind, count in RING_ALGEBRA_OPS:
                for _ in range(count):
                    if kind == "sector":
                        a, b = (rng.randrange(SECTORS[alg]) for _ in range(2))
                    else:
                        a, b = (rng.choice(MODULE_KEYS[alg]) for _ in range(2))
                    calls.append([kind, alg, a, b])
    rng.shuffle(calls)
    return calls


def recursion_size(oracles, p: int, ext) -> int:
    """Distinct r-matrix evaluations the whole matrix needs: the size of
    the recursion a cold process runs, counted on the float route."""
    unprimed, primed = oracles.sides(p)
    rows, cols, _ = oracles.braid_matrix(p, p + 1, ext)
    a4, a1, a3, a2 = (oracles.ffk_indices(*x) for x in ext)
    for mu in rows:
        for gamma in cols:
            b, d = oracles.ffk_indices(*mu), oracles.ffk_indices(*gamma)
            primed.r(a2[0], a4[0], a1[0], a3[0], b[0], d[0])
            unprimed.r(a2[1], a4[1], a1[1], a3[1], b[1], d[1])
    return len(unprimed.memo) + len(primed.memo)
