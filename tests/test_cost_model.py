"""What EXPLAIN shows of the static cost estimate, and absent-root
phase skipping.

The unit estimator itself is covered by ``test_cost.py``; this module
checks the two places its consumers look: the estimate-vs-observed
record in ``:profile``, and the ``skipped`` reason a phase carries when
the engine proves it cannot fire.
"""

from repro.core import ast
from repro.optimizer.engine import default_optimizer
from repro.system.session import Session

N = ast.NatLit


class TestSessionSurface:

    def test_profile_reports_estimate_vs_observed(self):
        session = Session()
        report = session.explain("summap(fn \\x => x)!(gen!20);")
        assert report.cost is not None
        assert report.cost["cost_estimates"] >= 1
        assert "last_estimate" in report.cost
        last = report.cost["last_estimate"]
        assert last["units"] > 0
        assert last["observed_seconds"] > 0
        assert last["error_factor"] > 0
        assert "cost_model" in report.to_dict()
        assert "== cost model ==" in report.render()


class TestPhaseSkipping:
    """A phase none of whose rule roots occur is provably the identity;
    a bare optimizer skips it, no cost record involved."""

    ARITH = ast.Arith("+", N(1), ast.Arith("*", N(2), N(3)))

    def test_absent_roots_skips_loop_phases(self):
        optimizer = default_optimizer()
        assert optimizer.optimize(self.ARITH) == N(7)
        stats = optimizer.report()
        assert stats["motion"].skipped == "absent-roots"
        assert stats["bounds"].skipped == "absent-roots"
        assert stats["normalize"].skipped == ""
        # profiles still show every phase: spans are emitted regardless
        report = Session().explain("1 + 2 * 3;")
        for name in ("normalize", "bounds", "cleanup", "motion"):
            assert report.span(f"phase:{name}") is not None
        assert report.phase_stats["motion"].skipped == "absent-roots"

    def test_skipping_preserves_values(self):
        query = "summap(fn \\x => x + 1)!(gen!30);"
        assert Session().query_value(query) \
            == Session(optimize=False).query_value(query)

    def test_skipped_stats_serialize(self):
        optimizer = default_optimizer()
        optimizer.optimize(self.ARITH)
        payload = optimizer.report()["motion"].to_dict()
        assert payload["skipped"] == "absent-roots"
        assert payload["passes"] == 0
