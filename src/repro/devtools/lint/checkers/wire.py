"""WIRE001 — the transport stays pickle-free; factorisations never ship.

The remote-worker protocol (PR 5) is deliberately pickle-free:
length-prefixed JSON headers plus raw numpy buffers, with the
``EngineSpec`` crossing as whitelisted dataclass fields and programmed
conductance arrays.  Unpickling attacker-controlled bytes is arbitrary
code execution, so one convenience ``import pickle`` under ``backends/``
or ``serving/`` is the start of a security regression; and the Woodbury
operators (``W``, ``Z_out`` and ``λmax(W)`` of the static network)
are a per-host artefact of the local LAPACK/BLAS build that must be
rebuilt, and SPD-checked, on the receiving side, never serialised
across a process or wire boundary.

Two sub-rules:

* any ``import``/``from``-import of a serialisation module (``pickle``,
  ``marshal``, ``shelve``, ``dill``, ``cloudpickle``) in a file under a
  ``backends/`` or ``serving/`` directory;
* any annotated field of a class named ``EngineSpec`` whose type
  spelling names an engine or factorisation artefact — the spec carries
  construction *recipes*, not solver state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import Project, SourceFile
from repro.devtools.lint.registry import Checker, register

BANNED_SERIALISERS = {"pickle", "marshal", "shelve", "dill", "cloudpickle"}

#: Type-annotation substrings that mean "solver state, not configuration".
BANNED_SPEC_TOKENS = ("Engine", "Factor", "SuperLU", "splu", "Solution")


@register
class WireSafetyChecker(Checker):
    rule = "WIRE001"
    title = (
        "no pickle/marshal/shelve under backends/ or serving/; EngineSpec "
        "fields never carry a factorisation"
    )
    invariant = (
        "the worker transport is pickle-free (JSON headers + raw numpy "
        "buffers) and the Woodbury factorisation never crosses a process "
        "or wire boundary — every replica re-factorises locally"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.files_matching("backends", "serving"):
            if source.tree is None:
                continue
            yield from self._banned_imports(project, source)
        for source in project.iter_files():
            if source.tree is None:
                continue
            yield from self._spec_fields(project, source)

    def _banned_imports(
        self, project: Project, source: SourceFile
    ) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in BANNED_SERIALISERS:
                    yield self.finding(
                        project,
                        source.rel,
                        node.lineno,
                        f"import of {name!r} on the wire/transport path — "
                        "the protocol is pickle-free by contract (JSON "
                        "headers + raw numpy buffers only)",
                    )

    def _spec_fields(
        self, project: Project, source: SourceFile
    ) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef) or node.name != "EngineSpec":
                continue
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                spelled = ast.unparse(statement.annotation)
                banned = [t for t in BANNED_SPEC_TOKENS if t in spelled]
                if banned:
                    target = (
                        statement.target.id
                        if isinstance(statement.target, ast.Name)
                        else ast.unparse(statement.target)
                    )
                    yield self.finding(
                        project,
                        source.rel,
                        statement.lineno,
                        f"EngineSpec field {target!r} is annotated "
                        f"{spelled!r} ({', '.join(banned)}) — the spec ships "
                        "construction recipes; factorisations are rebuilt "
                        "on the receiving side, never serialised",
                    )
