"""RNG001 — the seeded recall path must never touch unseeded RNG.

The serving layer's arrival-order / batch-boundary / worker-count
invariance rests on ``recognise_batch_seeded`` and
``convert_batch_seeded`` being pure functions of ``(module, codes,
seed)``: every random draw must come from a per-request
``SeedSequence`` substream.  One ``np.random.normal(...)`` (the process
global stream) or one argless ``default_rng()`` (OS entropy) anywhere in
their call trees silently breaks bit-equality across backends — the
exact bug class the hypothesis equivalence suites can only catch when a
random geometry happens to exercise the stray draw.

This checker builds the project call graph from every function named
``recognise_batch_seeded`` / ``convert_batch_seeded`` and flags, in any
reachable function:

* calls into ``numpy.random.*`` other than seeded constructions
  (``default_rng``, ``Generator``, ``SeedSequence``, the bit-generator
  classes) — these draw from or mutate the module-global stream;
* any of those constructions called with no arguments — an argless
  ``default_rng()``, ``PCG64()`` or ``SeedSequence()`` is fresh OS
  entropy, unreproducible by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.devtools.lint.callgraph import CallGraph, ModuleImports
from repro.devtools.lint.checkers._calls import dotted_call_target
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import Project
from repro.devtools.lint.registry import Checker, register

#: Entry points whose whole call tree must stay seed-pure.
SEEDED_ROOTS = ("recognise_batch_seeded", "convert_batch_seeded")

#: ``numpy.random`` constructors allowed on the seeded path.  Each yields a
#: deterministic stream only when given explicit entropy, so every one of
#: them must be called with an argument.
SEEDED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


@register
class SeededRecallRngChecker(Checker):
    rule = "RNG001"
    title = (
        "no global numpy RNG or unseeded default_rng() reachable from the "
        "seeded recall path"
    )
    invariant = (
        "recognise_batch_seeded / convert_batch_seeded results are pure "
        "functions of (module, codes, seed); every random draw in their "
        "call trees comes from a per-request SeedSequence substream"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        graph = CallGraph(project)
        roots = graph.roots_named(*SEEDED_ROOTS)
        if not roots:
            if any(name.startswith("repro.") for name in project.modules):
                anchor = project.files.get("src/repro/core/amm.py")
                yield Finding(
                    rule=self.rule,
                    path=anchor.rel if anchor else "src/repro",
                    line=1,
                    message=(
                        "no function named "
                        f"{' / '.join(SEEDED_ROOTS)} found — the seeded "
                        "recall entry points were renamed without updating "
                        "RNG001's roots, so the invariant is unchecked"
                    ),
                    snippet="",
                )
            return
        reachable = graph.reachable(roots)
        seen: Set[Tuple[str, int, str]] = set()
        for qualname in sorted(reachable):
            info = graph.functions[qualname]
            imports = graph.imports.get(info.source.module or "", ModuleImports())
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                violation = self._violation(node, imports)
                if violation is None:
                    continue
                key = (info.source.rel, node.lineno, violation)
                if key in seen:  # nested defs are walked by their parent too
                    continue
                seen.add(key)
                yield self.finding(
                    project,
                    info.source.rel,
                    node.lineno,
                    f"{violation} (reachable from the seeded recall path "
                    f"via {qualname})",
                    symbol=qualname,
                )

    def _violation(self, call: ast.Call, imports: ModuleImports) -> str | None:
        dotted = dotted_call_target(call, imports)
        if dotted is None:
            return None
        if not dotted.startswith("numpy.random."):
            return None
        if dotted.split(".")[-1] not in SEEDED_CONSTRUCTORS:
            return (
                f"{dotted} draws from (or mutates) the module-global "
                "numpy random stream"
            )
        if not call.args and not call.keywords:
            return (
                f"{dotted}() without a seed draws fresh OS entropy — "
                "unreproducible by construction"
            )
        return None
