"""The CLI's execution-backend flags: ``serial`` is the default of
``serve``, ``loadtest`` and ``throughput``, and ``--workers`` is checked
against the backend before anything is built."""

import pytest

from repro.cli import _resolve_workers, build_parser, main


@pytest.mark.parametrize("command", ["serve", "loadtest", "throughput"])
def test_backend_defaults_to_serial(command):
    arguments = build_parser().parse_args([command])
    assert arguments.backend == "serial"


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--workers", "4"],
        ["loadtest", "--workers", "2", "--backend", "serial"],
        ["throughput", "--workers", "3"],
    ],
)
def test_serial_rejects_several_workers(argv):
    """serial runs one engine: --workers N > 1 is an error naming the
    backends that use it, raised before any pipeline is built."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = str(excinfo.value)
    assert "fleet" in message and "processes" not in message


def test_workers_resolve_per_backend(free_port):
    address = f"127.0.0.1:{free_port}"
    parser = build_parser()
    arguments = parser.parse_args(["serve", "--workers", "1"])
    assert _resolve_workers(arguments) == (1, {})
    arguments = parser.parse_args(["serve", "--backend", "fleet", "--workers", "4"])
    assert _resolve_workers(arguments) == (4, {})
    arguments = parser.parse_args(["serve", "--workers", address])
    with pytest.raises(SystemExit, match="requires --backend fleet"):
        _resolve_workers(arguments)
    arguments = parser.parse_args(["serve", "--backend", "fleet", "--workers", address])
    assert _resolve_workers(arguments) == (1, {"worker_addresses": [("127.0.0.1", free_port)]})
    # One spelling for adopted agents: the ``remote`` alias is gone.
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--backend", "remote", "--workers", address])


def test_loadtest_has_no_per_sample_flag():
    """The seed-blind per-sample serving path is gone; the per-sample
    reference lives in the core (``recognise``, ``--batch-size 1``)."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["loadtest", "--per-sample"])
