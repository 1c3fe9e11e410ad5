"""Acceptance gate: every end-to-end criterion must hold.

Each test prints the same one-line verdict the CLI ``acceptance`` command
emits, so `pytest -v -s tests/test_acceptance.py` doubles as the report.
"""

from cavscreen import acceptance


def check(result, name):
    print(result.line())
    assert result.name == name
    assert result.ok, result.detail


class TestAcceptance:
    def test_worked_example_values(self):
        check(acceptance.criterion_worked_example(), "worked-example-values")

    def test_no_learning_threshold(self):
        check(acceptance.criterion_acceptance_threshold(), "no-learning-threshold")

    def test_certified_construction(self):
        check(acceptance.criterion_certified_construction(), "certified-construction")

    def test_envelope_oracle_agreement(self):
        check(acceptance.criterion_envelope_oracles(), "envelope-oracle-agreement")

    def test_kink_avoidance(self):
        check(acceptance.criterion_kink_avoidance(), "kink-avoidance")

    def test_fine_equalization_screens(self):
        check(acceptance.criterion_equalized_fines(), "fine-equalization-screens")

    def test_rejection_measure_search(self):
        check(acceptance.criterion_rejection_search(), "rejection-measure-search")

    def test_maximin_closed_form(self):
        check(acceptance.criterion_maximin_closed_form(), "maximin-closed-form")

    def test_figure_ordering(self):
        check(acceptance.criterion_figure_ordering(), "figure-ordering")

    def test_criteria_run_in_definition_order(self):
        assert acceptance.ALL_CRITERIA == [
            acceptance.criterion_worked_example,
            acceptance.criterion_acceptance_threshold,
            acceptance.criterion_certified_construction,
            acceptance.criterion_envelope_oracles,
            acceptance.criterion_kink_avoidance,
            acceptance.criterion_equalized_fines,
            acceptance.criterion_rejection_search,
            acceptance.criterion_maximin_closed_form,
            acceptance.criterion_figure_ordering,
        ]

    def test_a_check_that_raises_or_overruns_fails(self, monkeypatch):
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [])

        @acceptance._criterion("stub-raises", budget=60.0)
        def raises():
            raise ValueError("boom")

        @acceptance._criterion("stub-slow", budget=0.0)
        def slow():
            return True, "fine"

        assert acceptance.ALL_CRITERIA == [raises, slow]
        result = raises()
        assert (result.name, result.ok, result.detail) == (
            "stub-raises", False, "raised ValueError: boom"
        )
        result = slow()
        assert (result.name, result.ok) == ("stub-slow", False)
        assert result.detail.startswith("fine; over budget")
