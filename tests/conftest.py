import pytest

from congwidth.census import enumerate_sl
from congwidth.rings import RingElement, RingSpec


def elements(table) -> list:
    """Every element of a finite table as a SqMatrix, in index order."""
    return [table.element(k) for k in range(len(table))]


@pytest.fixture
def ring_element_count(monkeypatch):
    """A callable returning how many RingElements were made since its last call
    (or since the fixture was set up)."""
    made = [0]
    real = RingElement.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(RingElement, "__init__", counted)

    def take() -> int:
        count, made[0] = made[0], 0
        return count

    return take


@pytest.fixture(scope="session")
def ring_z():
    return RingSpec.integers()


@pytest.fixture(scope="session")
def ring_f2():
    return RingSpec.integers_mod(2)


@pytest.fixture(scope="session")
def ring_f3():
    return RingSpec.integers_mod(3)


@pytest.fixture(scope="session")
def ring_f5():
    return RingSpec.integers_mod(5)


@pytest.fixture(scope="session")
def ring_z4():
    return RingSpec.integers_mod(4)


@pytest.fixture(scope="session")
def ring_p2():
    return RingSpec.poly_over_fp(2)


@pytest.fixture(scope="session")
def ring_l5():
    return RingSpec.localized_integers(5)


@pytest.fixture(scope="session")
def sl2_f2(ring_f2):
    return enumerate_sl(2, ring_f2)


@pytest.fixture(scope="session")
def sl2_f3(ring_f3):
    return enumerate_sl(2, ring_f3)


@pytest.fixture(scope="session")
def sl2_f5(ring_f5):
    return enumerate_sl(2, ring_f5)


@pytest.fixture(scope="session")
def sl2_z4(ring_z4):
    return enumerate_sl(2, ring_z4)


@pytest.fixture(scope="session")
def sl3_f2(ring_f2):
    return enumerate_sl(3, ring_f2)
