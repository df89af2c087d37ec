"""Tests for the built-in verification suite, including a mutation fixture.

The ``pristine`` and ``mutated`` runs are session fixtures in conftest.py.
"""

from banter import verify
from banter.verify import CHECKS, run_checks


class TestPristineSuite:
    def test_every_check_passes(self, pristine):
        results, _ = pristine
        failed = [r for r in results if not r.passed]
        assert failed == [], "\n".join(f"{r.name}: {r.detail}" for r in failed)

    def test_results_follow_declared_order(self, pristine):
        results, _ = pristine
        assert [r.name for r in results] == [name for name, _ in CHECKS]

    def test_check_names_are_unique_and_namespaced(self):
        names = [name for name, _ in CHECKS]
        assert len(set(names)) == len(names)
        for name in names:
            prefix, _, rest = name.partition(".")
            assert prefix in {"gradients", "structure", "oracle",
                              "roundtrip", "determinism"}
            assert rest

    def test_model_fixture_outruns_the_dialog_window(self):
        # so gradients.model covers the window sliding past utterance 1
        config, _, dialog, _ = verify._tiny_model_fixture()
        assert len(dialog.utterances) > config.attn_width_dialog

    def test_suite_finishes_inside_a_minute(self, pristine):
        _, seconds = pristine
        assert seconds < 60.0


class TestInjectedBug:
    def test_broken_tanh_gradient_is_caught_and_named(self, mutated):
        elementwise = mutated["gradients.elementwise"]
        assert not elementwise.passed
        assert "tanh.x" in elementwise.detail

    def test_unrelated_checks_stay_green_under_the_bug(self, mutated):
        # these paths never route through the patched module attribute
        assert mutated["oracle.metrics"].passed
        assert mutated["roundtrip.checkpoint"].passed
        assert mutated["structure.hier_levels"].passed

    def test_failing_check_reports_relative_error(self, mutated):
        assert "max rel err" in mutated["gradients.elementwise"].detail

    def test_patch_teardown_restores_the_op(self, mutated):
        # raises if the broken derivative leaked out of the fixture context
        verify.check_op_gradients("gradients.elementwise")

    def test_exception_inside_check_becomes_failure(self, monkeypatch):
        def explode():
            raise RuntimeError("wired to fail")

        ran = []
        monkeypatch.setattr(verify, "CHECKS", (
            ("gradients.model", explode),
            ("oracle.metrics", lambda: ran.append("oracle.metrics"))))
        results = run_checks()
        assert not results[0].passed
        assert "wired to fail" in results[0].detail
        assert all(r.passed for r in results[1:])
        assert ran == ["oracle.metrics"]
