import pytest


@pytest.fixture
def oracle_evaluations(monkeypatch):
    """Count a module's oracle calls: ``counts = oracle_evaluations(module)``
    makes every later ``integrate`` call of that module append its
    evaluation count to ``counts``."""

    def install(module):
        counts = []
        original = module.integrate

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts.append(result.evaluations)
            return result

        monkeypatch.setattr(module, "integrate", counted)
        return counts

    return install
