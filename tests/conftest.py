import pytest

import parastat.group_engine as ge


@pytest.fixture(scope="session")
def gamma():
    return ge.enumerate_group(ge.gamma_presentation())


@pytest.fixture(scope="session")
def gamma_found(gamma):
    return ge.find_para_pair(gamma)


@pytest.fixture(scope="session")
def gamma_pair(gamma_found):
    inter, _ = gamma_found
    return inter.sigma, inter.psi


@pytest.fixture(scope="session")
def gamma_derived(gamma_found):
    inter, derived = gamma_found
    return derived, inter


@pytest.fixture(scope="session")
def small_groups():
    return {
        name: ge.enumerate_group(ge.NAMED_PRESENTATIONS[name]())
        for name in ("Z2", "S3", "D4")
    }
