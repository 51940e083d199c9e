"""AIO001 — coroutines on the serving event loop must never block.

The asyncio front end (PR 8) serves every connection from one event
loop: a single blocking call inside any ``async def`` stalls *all*
connections at once, which is why the module's thread-bridge rule says
"no thread-per-request, no blocking waits on the async path" — results
cross from the worker threads via ``call_soon_threadsafe`` done-callback
coalescing, never via ``future.result()``.

This checker finds ``serving/aio.py``, follows its project-local import
closure, and flags inside every ``async def`` body (nested sync helpers
included — they run on the loop when the coroutine calls them):

* ``time.sleep`` (use ``asyncio.sleep``);
* blocking ``Future.result()`` / ``concurrent.futures.wait`` (bridge
  through a done-callback instead);
* synchronous socket work — module-level resolvers/constructors
  (``socket.create_connection``, ``socket.getaddrinfo``…) and raw
  socket method calls (``recv``/``sendall``/``accept``);
* file I/O via ``open``;
* ``subprocess`` / ``os.system`` process spawning.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator, List, Set, Tuple

from repro.devtools.lint.callgraph import ModuleImports, module_imports
from repro.devtools.lint.checkers._calls import dotted_call_target
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import Project, SourceFile
from repro.devtools.lint.registry import Checker, register

#: Exact dotted call targets that block the loop.
BLOCKING_CALLS = {
    "time.sleep": "time.sleep blocks the event loop — use asyncio.sleep",
    "socket.create_connection": (
        "synchronous socket connect blocks the loop — use "
        "loop.create_connection / asyncio.open_connection"
    ),
    "socket.getaddrinfo": (
        "synchronous DNS resolution blocks the loop — use "
        "loop.getaddrinfo"
    ),
    "socket.gethostbyname": (
        "synchronous DNS resolution blocks the loop — use loop.getaddrinfo"
    ),
    "socket.gethostbyname_ex": (
        "synchronous DNS resolution blocks the loop — use loop.getaddrinfo"
    ),
    "socket.getfqdn": (
        "synchronous DNS resolution blocks the loop — use loop.getaddrinfo"
    ),
    "os.system": "os.system spawns and waits synchronously on the loop",
    "os.popen": "os.popen spawns and waits synchronously on the loop",
    "os.wait": "os.wait blocks the event loop",
    "os.waitpid": "os.waitpid blocks the event loop",
    "select.select": "select.select blocks the loop — the loop already selects",
    "concurrent.futures.wait": (
        "concurrent.futures.wait blocks the loop — bridge through a "
        "deliver callback (see _OutcomeBridge)"
    ),
}

#: Dotted prefixes where *any* call blocks.
BLOCKING_PREFIXES = {
    "subprocess.": "subprocess calls spawn and wait synchronously on the loop",
}

#: Method names whose receiver is (in this codebase) a raw socket or a
#: concurrent future; calling them synchronously stalls the loop.
BLOCKING_METHODS = {
    "result": (
        "blocking Future.result() on the async path — outcomes must cross "
        "via a done-callback (see the thread-bridge rule in serving/aio.py)"
    ),
    "recv": "synchronous socket recv blocks the loop",
    "recv_into": "synchronous socket recv blocks the loop",
    "sendall": "synchronous socket sendall blocks the loop",
    "accept": "synchronous socket accept blocks the loop",
}


@register
class AsyncBlockingChecker(Checker):
    rule = "AIO001"
    title = "no blocking calls inside async def bodies on the serving loop"
    invariant = (
        "serving/aio.py coroutines (and the sync helpers defined inside "
        "them) never block the event loop: no time.sleep, no "
        "future.result(), no sync socket work, no file I/O, no subprocess"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        targets = self._scope(project)
        seen: Set[Tuple[str, int, str]] = set()
        for source in targets:
            imports = (
                module_imports(source) if source.tree is not None else
                ModuleImports()
            )
            for node in ast.walk(source.tree) if source.tree else ():
                if not isinstance(node, ast.AsyncFunctionDef):
                    continue
                for finding in self._scan_async(
                    project, source, node, imports
                ):
                    key = (finding.path, finding.line, finding.message)
                    if key not in seen:
                        seen.add(key)
                        yield finding

    def _scope(self, project: Project) -> List[SourceFile]:
        """``serving/aio.py`` plus its transitive project-local imports."""
        roots = [
            source
            for source in project.iter_files()
            if tuple(source.rel.split("/")[-2:]) == ("serving", "aio.py")
        ]
        closure: List[SourceFile] = []
        seen: Set[str] = set()
        pending = deque(roots)
        while pending:
            source = pending.popleft()
            if source.rel in seen:
                continue
            seen.add(source.rel)
            closure.append(source)
            if source.tree is None or source.module is None:
                continue
            imports = module_imports(source)
            referenced = set(imports.modules.values())
            for dotted in imports.names.values():
                referenced.add(dotted)
                referenced.add(dotted.rpartition(".")[0])
            for module in referenced:
                found = project.file_for_module(module)
                if found is not None and found.rel not in seen:
                    pending.append(found)
        return closure

    def _scan_async(
        self,
        project: Project,
        source: SourceFile,
        node: ast.AsyncFunctionDef,
        imports: ModuleImports,
    ) -> Iterator[Finding]:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            message = self._blocking_message(call, imports)
            if message is not None:
                yield self.finding(
                    project,
                    source.rel,
                    call.lineno,
                    f"{message} (inside async def {node.name})",
                    symbol=node.name,
                )

    def _blocking_message(
        self, call: ast.Call, imports: ModuleImports
    ) -> str | None:
        dotted = dotted_call_target(call, imports)
        if dotted is not None:
            if dotted in BLOCKING_CALLS:
                return BLOCKING_CALLS[dotted]
            for prefix, message in BLOCKING_PREFIXES.items():
                if dotted.startswith(prefix):
                    return message
            if dotted == "open":
                return (
                    "file I/O via open() blocks the loop — stage file work "
                    "on a worker thread"
                )
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            if method in BLOCKING_METHODS:
                return BLOCKING_METHODS[method]
        return None
