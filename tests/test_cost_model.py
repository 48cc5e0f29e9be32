"""What EXPLAIN shows of the static cost estimate, and absent-root
phase skipping.

The unit estimator itself is covered by ``test_cost.py``; this module
checks the two places its consumers look: the units ``:profile``
prices for the core it reports, and the ``skipped`` reason a phase
carries when the engine proves it cannot fire.
"""

from repro.core import ast
from repro.optimizer.engine import default_optimizer
from repro.system.session import Session

N = ast.NatLit


class TestSessionSurface:

    def test_profile_reports_units_of_its_core(self):
        session = Session()
        report = session.explain("summap(fn \\x => x)!(gen!20);")
        units = session.env.cost.estimate(report.core)
        assert units > 20
        assert report.cost == {"units": units}
        assert report.to_dict()["cost_model"] == {"units": units}
        assert f"== cost model ==\nunits                 {units}" \
            in report.render()

    def test_writeval_reports_its_query_not_the_driver_args(self, tmp_path):
        session = Session()
        report = session.explain(r"writeval [[ i * i | \i < 500 ]] using CO "
                                 f'at "{tmp_path / "squares.co"}";')
        assert report.cost["units"] == session.env.cost.estimate(report.core)
        assert report.cost["units"] >= 500

    def test_profile_without_a_core_has_no_cost_section(self):
        (output,) = Session().run(r":profile macro \sq = fn \x => x * x;")
        assert output.explain.cost is None
        assert "== cost model ==" not in output.explain.render()


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
        for name in ("normalize", "bounds", "motion"):
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
