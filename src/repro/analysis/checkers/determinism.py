"""Determinism checker: seeded-RNG discipline, wall clocks, set iteration.

The exactness contract of this codebase — bit-exact batched/sequential
equivalence, checkpoint/restore, chaos convergence — holds only while all
randomness flows through injected, seedable generators and no
iteration-order or wall-clock entropy reaches numeric state.  These rules
make the three historical ways of breaking that contract un-shippable:

``global-random``
    Calls to the process-global RNGs — ``random.random()`` and friends,
    or legacy ``numpy.random.*`` module functions.  Constructing an
    *instance* (``random.Random(seed)``, ``np.random.default_rng(seed)``,
    bit generators) is the sanctioned pattern and stays allowed.

``wall-clock``
    ``time.time()`` / ``datetime.now()``-family calls inside the
    state-affecting packages (core, stream, tensor, anomaly, service).
    Replayed runs must not read the clock; observability timestamps that
    genuinely need wall time carry an explicit allow-comment.

``set-iteration``
    Iterating a set expression (literal, ``set()``/``frozenset()`` call,
    set algebra) in the state-affecting packages.  Set iteration order
    varies with insertion history and hash seeds — exactly the hazard the
    checkpoint work fixed by hand when restored inverted-index buckets
    enumerated differently than the originals.  ``sorted(... for x in
    set(...))`` is fine: the sort re-imposes a deterministic order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import SEVERITY_ERROR, Rule
from repro.analysis.framework import Checker
from repro.analysis.source import SourceFile
from repro.analysis.symbols import ImportTable

#: Packages whose code feeds numeric/replayed state.
STATE_SCOPES = (
    "repro.core",
    "repro.stream",
    "repro.tensor",
    "repro.anomaly",
    "repro.service",
)

#: ``random`` module attributes that are fine to call: instance
#: constructors, not draws from the process-global generator.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` attributes that construct injectable generators.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def in_scope(module: str, scopes: tuple[str, ...] = STATE_SCOPES) -> bool:
    return any(
        module == scope or module.startswith(scope + ".") for scope in scopes
    )


def _is_set_expr(node: ast.AST, imports: ImportTable) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return imports.resolve(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expr(node.left, imports) or _is_set_expr(
            node.right, imports
        )
    return False


def _feeds_sorted(comp: ast.AST, source: SourceFile, imports: ImportTable) -> bool:
    """True when the comprehension is directly an argument of ``sorted``."""
    parent = source.parents.get(comp)
    return (
        isinstance(parent, ast.Call)
        and comp in parent.args
        and imports.resolve(parent.func) == "sorted"
    )


class DeterminismChecker(Checker):
    name = "determinism"
    rules = (
        Rule(
            id="global-random",
            severity=SEVERITY_ERROR,
            summary="call to a process-global RNG",
            rationale=(
                "all randomness must flow through an injected, seedable "
                "generator so replays and chaos tests reproduce bit-exactly"
            ),
        ),
        Rule(
            id="wall-clock",
            severity=SEVERITY_ERROR,
            summary="wall-clock read in a state-affecting package",
            rationale=(
                "replayed state must be a pure function of the event "
                "sequence; use time.monotonic()/perf_counter() for "
                "durations, or allow-comment genuine timestamps"
            ),
        ),
        Rule(
            id="set-iteration",
            severity=SEVERITY_ERROR,
            summary="iteration over a set expression",
            rationale=(
                "set order depends on insertion history and hashing; wrap "
                "the iteration in sorted() or use an insertion-ordered dict"
            ),
        ),
    )

    def check_file(self, source: SourceFile) -> Iterator:
        imports = ImportTable.from_tree(source.tree)
        scoped = in_scope(source.module)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, source, imports, scoped)
            elif scoped and isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, imports):
                    yield self._set_finding(node, source)
            elif scoped and isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if _is_set_expr(generator.iter, imports) and not (
                        _feeds_sorted(node, source, imports)
                    ):
                        yield self._set_finding(generator.iter, source)

    def _check_call(
        self,
        node: ast.Call,
        source: SourceFile,
        imports: ImportTable,
        scoped: bool,
    ) -> Iterator:
        resolved = imports.resolve(node.func)
        if resolved is None:
            return
        if resolved.startswith("random."):
            attribute = resolved.split(".", 1)[1]
            if "." not in attribute and attribute not in _RANDOM_ALLOWED:
                yield self.finding(
                    "global-random",
                    source,
                    node.lineno,
                    node.col_offset,
                    f"call to the process-global RNG {resolved}(); draw "
                    "from an injected random.Random instance instead",
                )
        elif resolved.startswith("numpy.random."):
            attribute = resolved.rsplit(".", 1)[1]
            if attribute not in _NUMPY_RANDOM_ALLOWED:
                yield self.finding(
                    "global-random",
                    source,
                    node.lineno,
                    node.col_offset,
                    f"call to the legacy global numpy RNG {resolved}(); "
                    "use an injected numpy.random.Generator instead",
                )
        elif scoped and resolved in _WALL_CLOCK_CALLS:
            yield self.finding(
                "wall-clock",
                source,
                node.lineno,
                node.col_offset,
                f"{resolved}() read in state-affecting module "
                f"{source.module}; use time.monotonic()/perf_counter() "
                "for durations",
            )

    def _set_finding(self, node: ast.AST, source: SourceFile):
        return self.finding(
            "set-iteration",
            source,
            node.lineno,
            node.col_offset,
            "iteration over a set expression has nondeterministic order; "
            "wrap it in sorted() or keep an insertion-ordered dict",
        )
