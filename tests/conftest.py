import pathlib

import pytest

from jsbaf import textio
from jsbaf.framework import IN, LABELS, OUT, Labeling

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="session")
def j1():
    return textio.parse_instance(str(INSTANCES / "j1.jsbaf"))


@pytest.fixture(scope="session")
def j2():
    return textio.parse_instance(str(INSTANCES / "j2.jsbaf"))


@pytest.fixture(scope="session")
def j3():
    return textio.parse_instance(str(INSTANCES / "j3.jsbaf"))


@pytest.fixture(scope="session")
def as1():
    return textio.parse_instance(str(INSTANCES / "as1.as"))


@pytest.fixture(scope="session")
def as_u():
    return textio.parse_instance(str(INSTANCES / "as_u.as"))


def labeling_of(framework, in_set=(), out_set=()):
    return Labeling.from_sets(framework.args, in_set, out_set)


def random_labeling(framework, rng):
    """One label drawn per argument, in id order."""
    drawn = dict(zip(framework.args, (rng.choice(LABELS) for _ in framework.args)))
    return labeling_of(framework, *({a for a in drawn if drawn[a] == label} for label in (IN, OUT)))


@pytest.fixture(scope="session")
def l1(j1):
    return labeling_of(j1, in_set={"a", "b", "d"}, out_set={"bbar"})


@pytest.fixture(scope="session")
def l2(j1):
    return labeling_of(j1, in_set={"a", "b", "c", "d"}, out_set={"bbar", "e"})


@pytest.fixture(scope="session")
def l3(j1):
    return labeling_of(j1, in_set={"a", "b", "d", "e"}, out_set={"bbar", "c"})
