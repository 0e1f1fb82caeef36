import pytest

from hybridmm import pebble


@pytest.fixture
def summary_spy(monkeypatch):
    """Spies on the walkers' shared ``summary``.  Maps ``"simulate"`` and
    ``"check_parsimonious"`` to a dict from each template that a walk of
    that kind summarized to the ids of the summaries it got; a summary lives
    as long as its walk, so clear the dicts between walks."""
    spy = {"simulate": {}, "check_parsimonious": {}}
    kinds = {pebble._SimWalk: spy["simulate"], pebble._ParsimonyWalk: spy["check_parsimonious"]}
    real = pebble._Walk.summary

    def summary(self, template):
        s = real(self, template)
        kinds[type(self)].setdefault(template, set()).add(id(s))
        return s

    monkeypatch.setattr(pebble._Walk, "summary", summary)
    return spy
