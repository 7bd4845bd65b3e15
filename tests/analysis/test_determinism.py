"""Determinism checker: global RNGs, wall clocks, set iteration."""

from __future__ import annotations

from analysis_helpers import lint, rule_ids
from repro.analysis.checkers.determinism import DeterminismChecker


def check(sources):
    return lint(sources, DeterminismChecker())


class TestGlobalRandom:
    def test_stdlib_global_draw_is_flagged(self):
        result = check(
            {
                "repro.core.x": """
                import random
                value = random.random()
                choice = random.choice([1, 2])
                """
            }
        )
        assert rule_ids(result) == ["global-random", "global-random"]

    def test_numpy_legacy_global_draw_is_flagged(self):
        result = check(
            {
                "repro.core.x": """
                import numpy as np
                noise = np.random.rand(3)
                """
            }
        )
        assert rule_ids(result) == ["global-random"]
        assert "numpy" in result.findings[0].message

    def test_applies_outside_the_state_scopes_too(self):
        result = check(
            {
                "repro.experiments.x": """
                import random
                value = random.random()
                """
            }
        )
        assert rule_ids(result) == ["global-random"]

    def test_constructing_injectable_generators_is_fine(self):
        result = check(
            {
                "repro.core.x": """
                import random
                import numpy as np
                rng = random.Random(7)
                gen = np.random.default_rng(7)
                legacy = np.random.RandomState(7)
                value = rng.random()
                noise = gen.standard_normal(3)
                """
            }
        )
        assert result.clean

    def test_import_alias_is_resolved(self):
        result = check(
            {
                "repro.core.x": """
                import random as rnd
                value = rnd.random()
                """
            }
        )
        assert rule_ids(result) == ["global-random"]

    def test_suppression(self):
        result = check(
            {
                "repro.core.x": """
                import random
                # repro: allow[global-random] seeding demo only
                value = random.random()
                """
            }
        )
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["global-random"]


class TestWallClock:
    def test_time_time_in_state_scope_is_flagged(self):
        result = check(
            {
                "repro.stream.x": """
                import time
                stamp = time.time()
                """
            }
        )
        assert rule_ids(result) == ["wall-clock"]

    def test_datetime_now_in_state_scope_is_flagged(self):
        result = check(
            {
                "repro.service.x": """
                import datetime
                stamp = datetime.datetime.now()
                """
            }
        )
        assert rule_ids(result) == ["wall-clock"]

    def test_monotonic_and_perf_counter_are_fine(self):
        result = check(
            {
                "repro.stream.x": """
                import time
                started = time.monotonic()
                elapsed = time.perf_counter() - started
                """
            }
        )
        assert result.clean

    def test_wall_clock_outside_state_scopes_is_fine(self):
        result = check(
            {
                "repro.experiments.x": """
                import time
                stamp = time.time()
                """
            }
        )
        assert result.clean

    def test_suppression(self):
        result = check(
            {
                "repro.service.x": """
                import time
                stamp = time.time()  # repro: allow[wall-clock] diagnostic
                """
            }
        )
        assert result.clean


class TestRelaxedScope:
    """The relaxed batch update (``repro.core.relaxed``) feeds factor state,
    so the scoped determinism rules (wall clocks, set iteration) apply to it
    as to the rest of ``repro.core``; randomness must come from injected
    ``default_rng`` instances."""

    def test_wall_clock_in_relaxed_module_is_flagged(self):
        result = check(
            {
                "repro.core.relaxed": """
                import time
                stamp = time.time()
                """
            }
        )
        assert rule_ids(result) == ["wall-clock"]

    def test_set_iteration_in_relaxed_module_is_flagged(self):
        result = check(
            {
                "repro.core.relaxed": """
                def rows(keys):
                    for key in set(keys):
                        yield key
                """
            }
        )
        assert rule_ids(result) == ["set-iteration"]

    def test_global_rng_in_relaxed_module_is_flagged(self):
        result = check(
            {
                "repro.core.relaxed": """
                import numpy as np
                jitter = np.random.rand(3)
                """
            }
        )
        assert rule_ids(result) == ["global-random"]

    def test_injected_stateless_rngs_are_fine(self):
        # The relaxed update's sanctioned pattern: a per-batch generator
        # seeded from explicit counters, plus dict-ordered row loops.
        result = check(
            {
                "repro.core.relaxed": """
                import numpy as np

                def batch_rng(seed, batch):
                    return np.random.default_rng((seed, batch, 0))

                def drain(rows):
                    for key in rows:  # dict: insertion-ordered
                        yield rows[key]
                """
            }
        )
        assert result.clean


class TestSetIteration:
    def test_for_loop_over_set_call_is_flagged(self):
        result = check(
            {
                "repro.tensor.x": """
                def f(items):
                    total = 0
                    for item in set(items):
                        total += item
                    return total
                """
            }
        )
        assert rule_ids(result) == ["set-iteration"]

    def test_comprehension_over_set_union_is_flagged(self):
        result = check(
            {
                "repro.core.x": """
                def f(a, b):
                    return [x + 1 for x in a | set(b)]
                """
            }
        )
        assert rule_ids(result) == ["set-iteration"]

    def test_sorted_wrapping_makes_it_deterministic(self):
        result = check(
            {
                "repro.core.x": """
                def f(a, b):
                    return sorted(x for x in set(a) | set(b))
                """
            }
        )
        assert result.clean

    def test_iterating_a_list_is_fine(self):
        result = check(
            {
                "repro.core.x": """
                def f(items):
                    for item in list(items):
                        yield item
                """
            }
        )
        assert result.clean

    def test_outside_state_scopes_is_fine(self):
        result = check(
            {
                "repro.data.x": """
                def f(items):
                    for item in set(items):
                        yield item
                """
            }
        )
        assert result.clean

    def test_suppression(self):
        result = check(
            {
                "repro.core.x": """
                def f(items):
                    # repro: allow[set-iteration] order-insensitive sum
                    for item in set(items):
                        yield item
                """
            }
        )
        assert result.clean
