"""Name → backend registry: the one place execution strategies are chosen.

Every layer that used to hard-code its dispatch — offline ``evaluate``
sweeps, Monte-Carlo studies, the serving worker pool, the CLI ``--backend``
flags — resolves a backend through :func:`create_backend` instead, so a
new execution strategy registered here (see ``register_backend``) becomes
available everywhere at once::

    from repro.backends import RecallBackend, register_backend

    class MyBackend(RecallBackend):
        name = "my-strategy"
        ...

    register_backend("my-strategy", MyBackend)

Factories are called as ``factory(module, workers=..., **options)`` and
must accept unknown keyword options (take ``**_ignored``): the caller
passes one option set to whichever backend was named.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.backends.base import RecallBackend
from repro.backends.fleet import FleetSupervisor
from repro.backends.serial import SerialBackend

#: The default backend name used when a caller asks for "a backend".
DEFAULT_BACKEND = "serial"

_REGISTRY: Dict[str, Callable[..., RecallBackend]] = {}


class UnknownBackendError(KeyError, ValueError):
    """An unregistered backend name was requested.

    Both a :class:`KeyError` (it *is* a failed registry lookup) and a
    :class:`ValueError` (what :func:`create_backend` historically raised,
    so existing ``except ValueError`` callers keep working).  The message
    lists every registered name, because the overwhelmingly common cause
    is a typo'd ``--backend`` flag.
    """

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0] if self.args else ""


def register_backend(name: str, factory: Callable[..., RecallBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory(module, workers=..., **options)`` must return a
    :class:`~repro.backends.base.RecallBackend`.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def create_backend(
    name: str, module, workers: int = 1, **options
) -> RecallBackend:
    """Instantiate the backend registered under ``name`` for ``module``.

    The returned backend is *not* yet prepared; call
    :meth:`~repro.backends.base.RecallBackend.prepare` (or enter it as a
    context manager) before timing anything.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None
    return factory(module, workers=workers, **options)


def resolve_backend(
    backend: Union[str, RecallBackend, None], module, workers: int = 1, **options
):
    """Turn a backend *selection* into ``(backend, owned)``.

    ``None`` selects :data:`DEFAULT_BACKEND`; a string goes through
    :func:`create_backend` (the caller owns — and must close — the
    result, signalled by ``owned=True``); an existing
    :class:`RecallBackend` instance is passed through unowned, so several
    consumers can share one prepared pool.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        return create_backend(backend, module, workers=workers, **options), True
    if isinstance(backend, RecallBackend):
        return backend, False
    raise TypeError(
        f"backend must be a name, a RecallBackend or None, got {type(backend).__name__}"
    )


register_backend("serial", SerialBackend)
register_backend("fleet", FleetSupervisor)
