"""Per-layer tracing of jsonsub from outside the program.

The tracer replaces public functions on the modules through which the
library calls them (`jsonsub.engine` for the pipeline phases and the
evaluator, `jsonsub.patterns` for the automaton layer) with wrappers that
count calls and time them, and puts every original back on exit.  Nothing
under `src/` changes.

Timing rules:

- A group (for example `patterns.compile`) times only its outermost call.
  `satisfies` and `compile_pattern` call themselves through module
  globals, so their inner calls pass straight through.
- A layer (the module name before the dot) opens a frame only when the
  innermost open frame belongs to another layer.  A frame's self time is
  its duration minus the frames nested in it, so layer self times add up
  to at most the traced wall time and never count a nested layer twice.
- Calls are aggregated in counters, never kept one span per call: the
  evaluator alone makes about a million calls per oracle run.  The worker
  takes the counter deltas after each check.
"""

from __future__ import annotations

import time
from collections import defaultdict

from jsonsub import engine, patterns

LAYERS = ("compat", "canon", "norm", "witness", "patterns", "engine")

# (module, attribute, group); the layer is the group's prefix
SPANS = (
    (engine, "load_document", "compat.load"),
    (engine, "expand_oneof_doc", "canon.expand_oneof"),
    (engine, "stratify", "canon.stratify"),
    (engine, "dnf_of", "norm.dnf"),
    (engine, "prepare", "norm.prepare"),
    (engine, "generate", "witness.generate"),
    (engine, "satisfies", "engine.eval"),
    (engine, "oracle_included", "engine.oracle"),
    (engine, "derive_universe", "engine.universe"),
    (patterns, "p_subset", "patterns.relation"),
    (patterns, "p_disjoint", "patterns.relation"),
    (patterns, "p_is_empty", "patterns.relation"),
    (patterns, "compile_pattern", "patterns.compile"),
    (patterns, "p_matches", "patterns.match"),
    (patterns, "p_example", "patterns.example"),
    (patterns, "p_examples", "patterns.example"),
)

# read before any wrapping; a cache that a later version drops counts as empty
_RELATION_INFO = [
    f.cache_info
    for f in (getattr(patterns, n, None) for n in ("p_subset", "p_disjoint", "p_is_empty"))
    if hasattr(f, "cache_info")
]


def _automaton_cache() -> dict:
    return getattr(patterns, "_DFA_CACHE", {})


def _cache_state() -> tuple[int, int, int]:
    """Relation cache hits and misses, and entries held by all pattern caches."""
    infos = [info() for info in _RELATION_INFO]
    return (
        sum(i.hits for i in infos),
        sum(i.misses for i in infos),
        len(_automaton_cache()) + sum(i.currsize for i in infos),
    )


class Tracer:
    """Context manager that instruments jsonsub while it is open.

    `calls`, `secs` and `hits` are keyed by group; `self_secs` by group
    and by layer.  `engine.crosscheck` receives the evaluator time spent
    outside the oracle, which is the checker's witness cross-check.
    `engine.universe` also receives the time spent drawing values from
    `iter_universe`, and `engine.universe_values` counts them.  `cache`
    holds the growth of the pattern caches while the tracer was open:
    relation cache hits, misses and new entries.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.self_secs: dict[str, float] = defaultdict(float)
        self._active: dict[str, int] = defaultdict(int)
        self._frames: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # functions this version does not have
        self.cache = (0, 0, 0)

    def __enter__(self) -> "Tracer":
        self.cache = _cache_state()
        try:
            for module, attr, group in SPANS:
                if hasattr(module, attr):
                    self._install(module, attr, self._wrap(getattr(module, attr), group))
                else:
                    self.missing.append(f"{module.__name__}.{attr}")
            self._install(engine, "iter_universe", self._wrap_universe(engine.iter_universe))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        self.cache = tuple(b - a for a, b in zip(self.cache, _cache_state()))

    def _install(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.secs)

    def _wrap(self, fn, group: str):
        layer = group.split(".", 1)[0]
        calls, secs, self_secs = self.calls, self.secs, self.self_secs
        active, frames = self._active, self._frames
        clock = time.perf_counter
        is_compile = group == "patterns.compile"
        is_eval = group == "engine.eval"

        def traced(*args, **kwargs):
            if active[group]:
                return fn(*args, **kwargs)
            active[group] = 1
            frame = None
            dt = 0.0
            try:
                calls[group] += 1
                if is_compile and args[0] in _automaton_cache():
                    self.hits[group] += 1
                if not frames or frames[-1][0] != layer:
                    frame = [layer, 0.0]
                    frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    secs[group] += dt
                    if is_eval and not active["engine.oracle"]:
                        secs["engine.crosscheck"] += dt
                    if frame is not None:
                        own = dt - frame[1]
                        self_secs[group] += own
                        self_secs[layer] += own
            finally:
                active[group] = 0
                if frame is not None:
                    frames.pop()
                    if frames:
                        frames[-1][1] += dt

        return traced

    def _wrap_universe(self, fn):
        secs, clock = self.secs, time.perf_counter

        def counted(params):
            values = fn(params)
            while True:
                t0 = clock()
                try:
                    value = next(values)
                except StopIteration:
                    return
                finally:
                    secs["engine.universe"] += clock() - t0
                self.calls["engine.universe_values"] += 1
                yield value

        return counted
