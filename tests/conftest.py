import pytest

from hybridmm import pebble


@pytest.fixture
def summary_spy(monkeypatch):
    """Spies on the ``summary`` method of both walkers.  Maps ``"simulate"``
    and ``"check_parsimonious"`` to a dict from each template that a walk of
    that kind summarized to the ids of the summaries it got; a summary lives
    as long as its walk, so clear the dicts between walks."""
    spy = {}
    for name, walker in (("simulate", pebble._SimWalk),
                         ("check_parsimonious", pebble._ParsimonyWalk)):
        got = spy[name] = {}

        def summary(self, template, real=walker.summary, got=got):
            s = real(self, template)
            got.setdefault(template, set()).add(id(s))
            return s

        monkeypatch.setattr(walker, "summary", summary)
    return spy
