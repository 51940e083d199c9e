"""Per-rule tests: each checker fires on its known-bad fixture package,
stays quiet on the safe shapes in the same package, and is silenced by
inline suppressions."""

from pathlib import Path

from repro.devtools.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, rules):
    return run_lint(root=FIXTURES / name, rules=list(rules))


class TestRng001:
    def test_global_stream_and_unseeded_rng_flagged(self):
        report = lint_fixture("rng_bad", ["RNG001"])
        messages = [f.message for f in report.findings]
        assert any("numpy.random.normal" in m for m in messages), messages
        assert any("without a seed" in m for m in messages), messages

    def test_findings_name_the_reachability_root(self):
        report = lint_fixture("rng_bad", ["RNG001"])
        assert all("seeded recall path" in f.message for f in report.findings)

    def test_seeded_construction_not_flagged(self):
        report = lint_fixture("rng_bad", ["RNG001"])
        lines = {f.line for f in report.findings}
        # _seeded_rng's explicit default_rng(SeedSequence(...)) never fires.
        assert not any(
            "SeedSequence" in (f.snippet or "") for f in report.findings
        ), report.findings
        assert len(lines) == 2  # exactly the two bad helpers

    def test_argless_bit_generators_and_seed_sequences_flagged(self):
        report = lint_fixture("rng_bitgen_bad", ["RNG001"])
        flagged = {
            (f.symbol.rsplit(".", 1)[-1], f.message.split("()")[0])
            for f in report.findings
        }
        assert flagged == {
            ("_fresh_bitgen", "numpy.random.PCG64"),
            ("_fresh_sequence", "numpy.random.SeedSequence"),
            ("_fresh_philox", "numpy.random.Philox"),
        }, report.findings
        assert all("without a seed" in f.message for f in report.findings)


class TestWire001:
    def test_pickle_import_and_spec_field_flagged(self):
        report = lint_fixture("wire_bad", ["WIRE001"])
        rules_hit = [f.message for f in report.findings]
        assert any("pickle" in m for m in rules_hit), rules_hit
        assert any("factorisation" in m for m in rules_hit), rules_hit
        assert all(f.path == "backends/transport.py" for f in report.findings)


class TestAio001:
    def test_blocking_calls_in_async_defs_flagged(self):
        report = lint_fixture("aio_bad", ["AIO001"])
        messages = [f.message for f in report.findings]
        assert any("time.sleep" in m for m in messages), messages
        assert any("result()" in m for m in messages), messages
        assert any("socket recv" in m for m in messages), messages

    def test_findings_name_their_coroutine(self):
        report = lint_fixture("aio_bad", ["AIO001"])
        assert {f.symbol for f in report.findings} == {"drain", "fetch"}


class TestLock001:
    def test_bare_acquire_flagged_safe_shape_not(self):
        report = lint_fixture("lock_bad", ["LOCK001"])
        assert len(report.findings) == 1
        (finding,) = report.findings
        assert "acquire() without a guaranteed release" in finding.message
        # `held_safely` (acquire + try/finally) must not fire.
        assert "checkout" in open(
            FIXTURES / "lock_bad" / "backends" / "pool.py"
        ).read().splitlines()[finding.line - 2]


class TestTest001:
    def test_hardcoded_ports_flagged_port_zero_not(self):
        report = lint_fixture("ports_bad", ["TEST001"])
        messages = [f.message for f in report.findings]
        assert len(report.findings) == 3, messages
        assert any("literal port 8123" in m for m in messages), messages
        assert any("port=9000" in m for m in messages), messages
        assert any("'127.0.0.1:8124'" in m for m in messages), messages


class TestSuppressions:
    def test_inline_and_file_level_suppressions_silence_everything(self):
        report = run_lint(
            root=FIXTURES / "suppressed",
            rules=["WIRE001", "LOCK001", "TEST001"],
        )
        assert report.clean, [f.message for f in report.findings]
        assert report.suppressed == 4  # pickle + acquire + two ports
