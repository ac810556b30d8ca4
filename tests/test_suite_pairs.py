"""Every ordered pair of the vendored Draft-06 suite schemas, checked.

The suite schemas that load (141 of them) give 19,740 ordered pairs, self
pairs left out. Each verdict is tested against jsonschema's Draft-06
validator on the suite's own instances:

- an `included` pair keeps every instance that is valid under the left
  schema valid under the right one;
- a witness is valid under the left schema and invalid under the right.

Any error, including a give-up, fails the test. The reference side reads
numbers as Decimals (see `_draft6.Draft6`).
"""

import json
from decimal import Decimal

from jsonsub import check_inclusion
from jsonsub.errors import JsonSubError
from jsonsub.values import dump_json

from _draft6 import suite


def test_every_suite_pair_agrees_with_draft6():
    schemas, instances = suite()
    assert len(schemas) == 141
    valid = [frozenset(i for i, x in enumerate(instances) if ref.is_valid(x)) for _, ref in schemas]
    pairs = errors = 0
    defects = []
    for a, (left, left_ref) in enumerate(schemas):
        for b, (right, right_ref) in enumerate(schemas):
            if a == b:
                continue
            pairs += 1
            try:
                res = check_inclusion(left, right)
            except JsonSubError as exc:
                errors += 1
                defects.append((a, b, type(exc).__name__))
                continue
            if res.included:
                if not valid[a] <= valid[b]:
                    defects.append((a, b, "included, but an instance says not"))
                continue
            w = json.loads(dump_json(res.witness), parse_float=Decimal)
            if not left_ref.is_valid(w) or right_ref.is_valid(w):
                defects.append((a, b, "witness rejected", dump_json(res.witness, indent=None)))
    assert pairs == 19_740
    assert errors == 0 and defects == [], defects[:10]
