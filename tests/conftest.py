import pytest

from kphall import fixture


@pytest.fixture
def nonunique():
    return fixture("nonunique_prefix")


@pytest.fixture
def gap():
    return fixture("duality_gap")


@pytest.fixture
def k2_fail():
    return fixture("k2_hall_fail")


@pytest.fixture
def single_edge():
    return fixture("k3_single_edge")


def labels(h, edges):
    """Edge/matching content of ``h`` as sorted lists of label lists."""
    return sorted([h.labels[v] for v in e] for e in edges)


def vertex(h, label):
    """The vertex id of ``h`` carrying ``label``."""
    return h.labels.index(label)
