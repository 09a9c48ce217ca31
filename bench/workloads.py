"""What each benchmark workload sends to hopfbench.

verify-p2      `verify --p 2 --suite yd`: exhaustive and generator walks
               over the 256-dim double; every row is built once and read
               many times, so scalar arithmetic dominates.
verify-p3      `verify --p 3 --suite yd,truncations --sample-size 1000`:
               generators plus a seeded sample over the 1296-dim double;
               most rows are built cold and read rarely.
cli-roundtrip  100 seeded `eval --p 2` requests, one fresh process each,
               then `export --p 2` of every object, re-imported and
               re-exported.

The eval pool is a fixed list of requests, built from POOL_SEED and never
from the run's seed, so that `eval_reference.json` holds the expected
output of every request a run may draw.  A run's seed only chooses which
pool entries it sends, in equal numbers per kind.

Stdlib only: run.py imports this module without importing hopfbench.
"""

from __future__ import annotations

import random

__all__ = ["VERIFY", "SWEEP", "NEGATIVE_CONTROL", "TRACED_CHECKS",
           "EXPORT_OBJECTS", "EVAL_COUNT", "KINDS", "POOL_SEED", "pool",
           "draw", "reference_key"]

# name -> (p, suites, extra CLI flags).  The seed is appended per run.
VERIFY = {
    "verify-p2": (2, ("yd",), ()),
    "verify-p3": (3, ("yd", "truncations"), ("--sample-size", "1000")),
}
# The rest of `verify --p 2`, traced suite by suite for the per-suite
# spans of the verify-p2 workload (the whole command does not fit a run).
SWEEP = (2, ("hopf-axioms", "double", "heisenberg", "chains", "truncations"),
         ())
# Fixtures that must fail: proves the correctness gate sees a failure.
NEGATIVE_CONTROL = (2, ("mutations",), ())

# metric name -> (suite, check) whose CheckResult feeds cases/s.
TRACED_CHECKS = {
    "eta-twist": ("double", "eta-twist"),
    "action-composition": ("double", "action-composition"),
    "smash-closed-form": ("double", "smash-closed-form"),
    "ddouble-comult-multiplicative": ("hopf-axioms",
                                      "ddouble-comult-multiplicative"),
    "ddouble-mult-associativity": ("hopf-axioms",
                                   "ddouble-mult-associativity"),
    "comodule-algebra": ("yd", "comodule-algebra"),
    "yd-condition": ("yd", "yd-condition"),
    "module-action": ("yd", "module-action"),
    "flip-module-morphism": ("heisenberg", "flip-module-morphism"),
    "quotient-morphism": ("truncations", "quotient-morphism"),
}

EXPORT_OBJECTS = ("taft", "taft-dual", "ddouble", "hdouble", "uqsl2",
                  "hqsl2", "cqzd", "chain(3)")

# 100 requests leave ten samples above the 90th percentile.
EVAL_COUNT = 100
KINDS = ("product", "action", "coaction", "braiding", "negative-power")
POOL_SEED = 20091  # fixed: changing it invalidates eval_reference.json
PER_KIND = 40

# Names the CLI defines at every p.  z, del, E and F are nilpotent of
# order p, so they get exponent 1 only; the grouplikes get small powers.
_HEIS = ("z", "del", "lam", "kap")
_ACTING = ("E", "F", "k", "kap", "K")
_ALL = ("z", "del", "lam", "kap", "E", "F", "k", "K")
_INVERTIBLE = ("k", "kap", "K", "lam")
_NILPOTENT = ("z", "del", "E", "F")


def _atom(rng: random.Random, names) -> str:
    name = rng.choice(names)
    if name in _NILPOTENT or rng.random() < 0.5:
        return name
    return f"{name}^{rng.randint(2, 3)}"


def _word(rng: random.Random, names, lo: int, hi: int) -> str:
    return " ".join(_atom(rng, names) for _ in range(rng.randint(lo, hi)))


def _request(rng: random.Random, kind: str) -> tuple:
    """(structure, expression) of one request of the given kind."""
    if kind == "product":
        return "product", _word(rng, _ALL, 2, 3)
    if kind == "action":
        return "action", f"{_word(rng, _ACTING, 1, 2)} |> {_word(rng, _HEIS, 1, 2)}"
    if kind == "coaction":
        return "coaction", _word(rng, _HEIS, 1, 2)
    if kind == "braiding":
        return "braiding", f"{_word(rng, _HEIS, 1, 1)} | {_word(rng, _HEIS, 1, 1)}"
    expr = f"{rng.choice(_INVERTIBLE)}^-{rng.randint(1, 3)}"
    if rng.random() < 0.5:
        expr += " " + _word(rng, _HEIS, 1, 1)
    return "product", expr


def pool() -> dict:
    """kind -> tuple of PER_KIND distinct (structure, expression) requests."""
    rng = random.Random(POOL_SEED)
    out = {}
    for kind in KINDS:
        reqs: list = []
        while len(reqs) < PER_KIND:
            req = _request(rng, kind)
            if req not in reqs:
                reqs.append(req)
        out[kind] = tuple(reqs)
    return out


def draw(seed: int, count: int = EVAL_COUNT) -> list:
    """`count` (kind, structure, expression) requests chosen by `seed`.

    Each kind contributes count / len(KINDS) distinct pool entries; the
    kinds are interleaved in a seeded order.
    """
    per, rest = divmod(count, len(KINDS))
    if rest or per > PER_KIND:
        raise ValueError(f"count must be a multiple of {len(KINDS)} "
                         f"and at most {PER_KIND * len(KINDS)}")
    rng = random.Random(seed)
    chosen = [(kind,) + req for kind, reqs in pool().items()
              for req in rng.sample(reqs, per)]
    rng.shuffle(chosen)
    return chosen


def reference_key(structure: str, expression: str) -> str:
    return f"{structure}\t{expression}"
