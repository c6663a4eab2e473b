import pytest

from abtroika.fields import SolenoidPotentialTable, solenoid_table


@pytest.fixture
def table_builds(monkeypatch):
    """Arguments of every SolenoidPotentialTable build, from an empty cache."""
    builds = []
    build = SolenoidPotentialTable.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(SolenoidPotentialTable, "__init__", counted)
    solenoid_table.cache_clear()
    return builds
