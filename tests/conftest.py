"""Shared fixtures for the test-suite."""

import numpy as np
import pytest

from repro.cim import CIMConfig, QuantScheme
from repro.data import SyntheticImageDataset, DatasetSpec
from repro.training import reduced_experiment


def pytest_configure(config):
    # an exception that escapes a worker thread fails the test that
    # started the thread, instead of passing it with a warning
    config.addinivalue_line(
        "filterwarnings",
        "error::pytest.PytestUnhandledThreadExceptionWarning")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_cim_config():
    """A small crossbar so tests exercise multi-array tiling cheaply."""
    return CIMConfig(array_rows=32, array_cols=32, cell_bits=2, adc_bits=4, dac_bits=4)


@pytest.fixture
def column_scheme():
    return QuantScheme(name="ours", weight_bits=4, act_bits=4, psum_bits=4,
                       weight_granularity="column", psum_granularity="column")


@pytest.fixture
def layer_scheme():
    return QuantScheme(name="layer", weight_bits=4, act_bits=4, psum_bits=4,
                       weight_granularity="layer", psum_granularity="layer")


@pytest.fixture
def tiny_experiment():
    return reduced_experiment("cifar10", tiny=True)


@pytest.fixture
def tiny_dataset():
    """A very small, fast synthetic dataset."""
    return SyntheticImageDataset(DatasetSpec(
        name="tiny", num_classes=4, image_size=8, channels=3,
        train_samples=64, test_samples=32, seed=0))
