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


def labels(edges):
    """Edge/matching content as sorted lists of label lists, for comparisons."""
    return sorted([v.label for v in e] for e in edges)


def vertex(h, label):
    """The vertex of ``h`` carrying ``label``."""
    return next(v for part in h.parts for v in part if v.label == label)
