"""Output pin: verdicts and witnesses of a fixed set of 8054 checks.

The set is the 4000 first `_family.gen_pair` pairs of seeds 7 and 8 (the
stream `perfbench/pairs.draw_pairs` draws for the same seeds), plus
`rec_depth(n)` for n = 8..48 and `self_incl(n, n)` for n = 4..16. One
sha256 covers the `(verdict, dump_json(witness))` rows in that order, so
a refactor of the normalizer or the witness stage that changes any
verdict or any witness fails here. A change that means to alter outputs
re-records the digest and says which rows moved and why.

The test also sums every `Stats` field but `elapsed` over the same checks,
so a change that moves the work the normalizer and the witness stage do
(steps, memo hits, fast-pass hits, ...) fails here too, and re-records
`TOTALS` with the cause of the move.
"""

import hashlib
import random
from collections import Counter

from jsonsub import check_inclusion, dump_json
from jsonsub.families import rec_depth, self_incl

from _family import gen_pair

DIGEST = "f226897ce8927be71952ed7ca3661043bf2b79d4f974fff2362816e55de7660b"

TOTALS = {
    "steps": 759_439,
    "fast_path_hits": 10_313,
    "fast_path_misses": 28_918,
    "crefs_created": 8_133,
    "memo_hits": 43_647,
    "max_disjuncts": 21_092,
    "cs_calls": 342_437,
    "gen_rounds": 3_412,
    "gen_budget_hits": 0,
    "generation_invoked": 2_673,
}


def _checks():
    for seed in (7, 8):
        rng = random.Random(seed)
        for _ in range(4000):
            yield gen_pair(rng)
    for n in range(8, 49):
        yield rec_depth(n)
    for n in range(4, 17):
        yield self_incl(n, n)


def test_outputs_unchanged_on_the_8054_checks():
    h = hashlib.sha256()
    count = 0
    totals: Counter = Counter()
    for left, right in _checks():
        res = check_inclusion(left, right)
        h.update(f"{res.verdict}\t{dump_json(res.witness, indent=None)}\n".encode())
        count += 1
        stats = res.stats.as_dict()
        del stats["elapsed"]
        totals.update(stats)
    assert count == 8054
    assert h.hexdigest() == DIGEST
    assert dict(totals) == TOTALS
