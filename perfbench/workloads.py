"""The four benchmark workloads: their inputs, the timed call and the checks.

Every workload hands out its inputs in rounds, and a run executes whole
rounds, so every run sees the same mix of inputs whatever its speed.
Each input comes back in every round (sweeps) or once per pass over the
pool (pairs): the metrics take the median of each input's scaled times
in the run (see `worker.end_to_end`), so an input has to be checked
several times, spread over the run.  `run` is the
timed call into the public API; `verify` checks its output afterwards,
outside the timed region, and returns None for a right answer or a reason.

- `self-incl`: `families.self_incl(n, n)` for n = 4..16, each property
  name prefixed by a fresh salt, so that no timed check hits pattern cache
  entries left by an earlier one.  Pattern relations take about 90% of the
  time.  The sweep stops at 16, where a round takes about 2.5 s, so that
  every size is checked about ten times in a 25 s run.
- `rec-chain`: `families.rec_depth(n)` for n = 8..48.  Normalization and
  witness generation take about 90% of the time.  Depth 60 already raises
  RecursionError, so the timed depths stay below it (no timed check may
  fail) and `deep_probe` tries the deeper chains apart from the timing.
- `pair-mix`: 4000 seeded pairs of the acceptance `c1` grammar through the
  checker, with the caches shared and warm as under `batch`: the
  many-small-checks case, spread over compat, canon, norm and witness.
- `oracle-mix`: 2000 seeded pairs of the same grammar decided by
  `derive_universe` (default bounds) plus `oracle_included`: mostly the
  semantic evaluator; the normalizer and the witness generator do not run.
  Its outputs are checked against `jsonschema` and against the checker,
  run untimed on each pair.  Where `jsonschema` confirms the oracle's
  counterexample but the checker answered `included`, or where the
  checker raises, the checker is at fault, not the timed oracle: such
  pairs are reported as checker defects (`engine.checker_defect_ratio`),
  not as failed oracle checks.

The seed fixes the order of each round and the salts (sweeps) or the
pairs themselves (pools).
"""

from __future__ import annotations

import decimal
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

from jsonsub import engine
from jsonsub.families import rec_depth, self_incl
from jsonsub.model import Env
from jsonsub.norm import Stats
from jsonsub.values import dump_json, json_equal, parse_json

from pairs import Pair, draw_pairs, parse_pair


@dataclass
class Case:
    """One check: raw parsed schema values and what is known about them."""

    label: str
    key: str  # checks with the same key do the same work
    row: str  # the size or kind the per-row summary groups by
    left: Any
    right: Any
    known_included: Optional[bool]
    pair: Optional[Pair] = None


@dataclass
class Outcome:
    included: bool
    witness: Any
    stats: Optional[Stats]
    universe: Optional[engine.UniverseParams] = None


def salt_keys(node: Any, salt: str) -> Any:
    """A copy of a schema value with every `properties` name prefixed by salt."""
    if isinstance(node, list):
        return [salt_keys(v, salt) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: salt_keys(v, salt) for k, v in node.items()}
    if isinstance(node.get("properties"), dict):
        out["properties"] = {
            salt + k: salt_keys(v, salt) for k, v in node["properties"].items()
        }
    return out


def _parsed(node: Any) -> Any:
    return parse_json(json.dumps(node))


def _plain(value: Any) -> Any:
    # jsonschema reads numbers as Decimal, as the acceptance suite does
    return json.loads(dump_json(value), parse_float=decimal.Decimal)


class _Validators:
    """Draft-06 reference validators from `jsonschema`, one per schema text."""

    def __init__(self) -> None:
        import jsonschema

        self._draft6 = jsonschema.Draft6Validator
        self._built: dict[str, Any] = {}

    def valid(self, schema_text: str, value: Any) -> bool:
        validator = self._built.get(schema_text)
        if validator is None:
            node = json.loads(schema_text, parse_float=decimal.Decimal)
            validator = self._built[schema_text] = self._draft6(node)
        return validator.is_valid(_plain(value))

    def counterexample(self, pair: Pair, value: Any) -> bool:
        return self.valid(pair.left_text, value) and not self.valid(pair.right_text, value)


class Workload:
    name = ""
    budget_s = 0.0  # the checker's wall-clock budget; a failure counts as this

    def round(self, r: int) -> list[Case]:
        raise NotImplementedError

    def run(self, case: Case) -> Outcome:
        res = engine.check_inclusion(case.left, case.right, timeout=self.budget_s)
        return Outcome(res.included, res.witness, res.stats)

    def verify(self, case: Case, out: Outcome) -> Optional[str]:
        if out.included != case.known_included:
            return f"verdict {'included' if out.included else 'not_included'}, expected included"
        return None

    def deep_probe(self) -> list[tuple[str, Optional[str]]]:
        return []

    def checker_defects(self) -> tuple[list[str], int]:
        """Pairs where the untimed checker was refuted or raised.

        Also returns how many pairs were cross-checked against the
        checker; only `oracle-mix` cross-checks.
        """
        return [], 0


class SelfIncl(Workload):
    name = "self-incl"
    budget_s = 60.0
    SIZES = (4, 6, 8, 10, 12, 14, 16)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._salt_rng = random.Random(f"self-incl salts {seed}")
        self._salts: set[str] = set()

    def fresh_salt(self) -> str:
        while True:
            salt = "".join(self._salt_rng.choices("abcdefghijklmnopqrstuvwxyz", k=3))
            if salt not in self._salts:
                self._salts.add(salt)
                return salt

    def round(self, r: int) -> list[Case]:
        sizes = list(self.SIZES)
        random.Random(f"self-incl {self.seed} {r}").shuffle(sizes)
        out = []
        for n in sizes:
            salt = self.fresh_salt()
            left, right = self_incl(n, n)
            out.append(
                Case(f"self_incl({n},{n}) salt {salt}", f"n={n}", f"n={n}",
                     _parsed(salt_keys(left, salt)), _parsed(salt_keys(right, salt)), True)
            )
        return out


class RecChain(Workload):
    name = "rec-chain"
    budget_s = 30.0
    DEPTHS = (8, 13, 18, 23, 28, 33, 38, 43, 48)
    PROBE_DEPTHS = (64, 80, 96, 128)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _case(self, n: int) -> Case:
        left, right = rec_depth(n)
        return Case(f"rec_depth({n})", f"depth={n}", f"depth={n}", _parsed(left), _parsed(right), True)

    def round(self, r: int) -> list[Case]:
        depths = list(self.DEPTHS)
        random.Random(f"rec-chain {self.seed} {r}").shuffle(depths)
        return [self._case(n) for n in depths]

    def deep_probe(self) -> list[tuple[str, Optional[str]]]:
        """Chains past the depth where the seed code runs out of stack."""
        got = []
        for n in self.PROBE_DEPTHS:
            case = self._case(n)
            try:
                reason = self.verify(case, self.run(case))
            except Exception as exc:  # a crash is the measured outcome here
                reason = type(exc).__name__
            got.append((case.label, reason))
        return got


class _PairPool(Workload):
    POOL = 0
    ROUND = 0

    def __init__(self, seed: int) -> None:
        self.pool = [
            Case(f"pair {p.index} ({p.kind})", f"pair {p.index}", p.kind, *parse_pair(p), p.known_included, p)
            for p in draw_pairs(seed, self.POOL)
        ]
        self._verified: dict[tuple, Optional[str]] = {}

    @cached_property
    def validators(self) -> _Validators:
        return _Validators()

    def round(self, r: int) -> list[Case]:
        start = (r * self.ROUND) % self.POOL
        return self.pool[start:start + self.ROUND]

    def verify(self, case: Case, out: Outcome) -> Optional[str]:
        # outputs repeat across passes over the pool; check each distinct one once
        key = (case.pair.index, out.included, None if out.included else dump_json(out.witness))
        if key not in self._verified:
            self._verified[key] = self._verify(case, out)
        return self._verified[key]


class PairMix(_PairPool):
    name = "pair-mix"
    budget_s = 10.0
    POOL = 4000
    ROUND = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._first_verdict: dict[int, bool] = {}

    def verify(self, case: Case, out: Outcome) -> Optional[str]:
        first = self._first_verdict.setdefault(case.pair.index, out.included)
        if out.included != first:
            return "verdict differs from an earlier pass over the same pair"
        return super().verify(case, out)

    def _verify(self, case: Case, out: Outcome) -> Optional[str]:
        if out.included:
            return None  # an inclusion by construction, or not decidable here
        if case.known_included:
            return "not_included on an inclusion by construction"
        if not self.validators.counterexample(case.pair, out.witness):
            return f"witness {dump_json(out.witness, None)} is not a counterexample"
        return None


class OracleMix(_PairPool):
    name = "oracle-mix"
    budget_s = 10.0
    POOL = 2000
    ROUND = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._checker: dict[int, Any] = {}
        self._defects: dict[int, str] = {}

    def run(self, case: Case) -> Outcome:
        ldoc = engine.load_document(case.left, "left")
        rdoc = engine.load_document(case.right, "right")
        env = Env()
        env.bindings.update(ldoc.env.bindings)
        env.bindings.update(rdoc.env.bindings)
        universe = engine.derive_universe([ldoc.root, rdoc.root], env)
        got = engine.oracle_included(ldoc.root, rdoc.root, env, universe)
        return Outcome(not got.counterexample_found, got.value, None, universe)

    def _verify(self, case: Case, out: Outcome) -> Optional[str]:
        index = case.pair.index
        if index not in self._checker:
            try:
                self._checker[index] = engine.check_inclusion(case.left, case.right)
            except Exception as exc:  # the checker's defect; the oracle is still checked
                self._checker[index] = None
                self._defects[index] = f"{case.label}: checker raised {type(exc).__name__}: {exc}"
        checker = self._checker[index]
        if not out.included:
            if not self.validators.counterexample(case.pair, out.witness):
                return f"oracle value {dump_json(out.witness, None)} is not a counterexample"
            if checker is not None and checker.included:
                # jsonschema confirms the oracle, so the checker's verdict is the wrong one
                self._defects[index] = (
                    f"{case.label}: checker says included, but {dump_json(out.witness, None)}"
                    " satisfies left and violates right"
                )
            return None
        if checker is None or checker.included:
            return None
        # the derived universe is bounded; the checker's witness may lie outside it
        if any(json_equal(v, checker.witness) for v in engine.iter_universe(out.universe)):
            return f"oracle missed {dump_json(checker.witness, None)} inside its universe"
        return None

    def checker_defects(self) -> tuple[list[str], int]:
        return [self._defects[i] for i in sorted(self._defects)], len(self._checker)


WORKLOADS = {w.name: w for w in (SelfIncl, RecChain, PairMix, OracleMix)}
