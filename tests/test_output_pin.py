"""Output pin: verdicts and witnesses of a fixed set of 8054 checks.

The set is the 4000 first `_family.gen_pair` pairs of seeds 7 and 8 (the
stream `perfbench/pairs.draw_pairs` draws for the same seeds), plus
`rec_depth(n)` for n = 8..48 and `self_incl(n, n)` for n = 4..16. One
sha256 covers the `(verdict, dump_json(witness))` rows in that order, so
a refactor of the normalizer or the witness stage that changes any
verdict or any witness fails here. A change that means to alter outputs
re-records the digest and says which rows moved and why.
"""

import hashlib
import random

from jsonsub import check_inclusion, dump_json
from jsonsub.families import rec_depth, self_incl

from _family import gen_pair

DIGEST = "f226897ce8927be71952ed7ca3661043bf2b79d4f974fff2362816e55de7660b"


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
    for left, right in _checks():
        res = check_inclusion(left, right)
        h.update(f"{res.verdict}\t{dump_json(res.witness, indent=None)}\n".encode())
        count += 1
    assert count == 8054
    assert h.hexdigest() == DIGEST
