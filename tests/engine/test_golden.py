"""Golden-artifact regression suite: frozen fixtures pin the format + math.

Each fixture under ``fixtures/`` (built by ``tools/make_golden_fixtures.py``)
carries the raw bytes of a saved engine artifact plus an input batch and the
output recorded at generation time.  These tests reload the artifact through
the public ``engine.load_plan`` entry point and demand **bit-exact** outputs,
so any future PR that silently changes the on-disk schema, the load path, or
the execution math fails here first.

A legitimate format change must bump the artifact version, regenerate the
fixtures, and say so in the PR.
"""

import os

import numpy as np
import pytest

from repro import engine

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")
CASES = ["conv", "linear", "resnet_tiny"]
INT_CASES = ["conv_int", "linear_int", "resnet_tiny_int"]
# every artifact is a model plan; the layer cases are one-node graphs
EXPECTED_KINDS = {"conv": engine.ModelPlan, "linear": engine.ModelPlan,
                  "resnet_tiny": engine.ModelPlan,
                  "conv_int": engine.ModelPlan, "linear_int": engine.ModelPlan,
                  "resnet_tiny_int": engine.ModelPlan}


def _load_fixture(name, tmp_path, mode="float"):
    """Materialize a fixture's embedded artifact to disk; return (plan, x, golden)."""
    with np.load(os.path.join(FIXTURE_DIR, f"{name}.npz")) as fixture:
        artifact = fixture["artifact"]
        x = fixture["input"]
        golden = fixture["golden"]
    path = tmp_path / f"{name}_artifact.npz"
    path.write_bytes(artifact.tobytes())
    return engine.load_plan(path, mode=mode), x, golden


@pytest.mark.parametrize("name", CASES + INT_CASES)
def test_fixture_files_exist(name):
    assert os.path.exists(os.path.join(FIXTURE_DIR, f"{name}.npz")), (
        f"missing golden fixture {name}.npz — run tools/make_golden_fixtures.py")


@pytest.mark.parametrize("name", CASES)
def test_golden_bit_exact(name, tmp_path):
    """Stored artifact bytes load and reproduce the stored activations exactly."""
    plan, x, golden = _load_fixture(name, tmp_path)
    assert isinstance(plan, EXPECTED_KINDS[name])
    assert x.dtype == np.float64 and golden.dtype == np.float64
    out = plan.execute(x)
    assert out.dtype == golden.dtype
    assert out.shape == golden.shape
    np.testing.assert_array_equal(
        out, golden,
        err_msg=f"golden fixture {name!r} drifted: artifact execution is no "
                "longer bit-identical to the frozen reference — if the "
                "format changed intentionally, bump the artifact version and "
                "regenerate with tools/make_golden_fixtures.py")


@pytest.mark.parametrize("name", INT_CASES)
def test_golden_int_route_bit_exact(name, tmp_path):
    """The integer-requantized route is pinned bit-for-bit too: loading the
    artifact with ``mode="int"`` must reproduce the frozen fixed-point
    output exactly (requant constants are part of the artifact format)."""
    plan, x, golden = _load_fixture(name, tmp_path, mode="int")
    assert isinstance(plan, EXPECTED_KINDS[name])
    assert plan.mode == "int"
    out = plan.execute(x)
    assert out.dtype == golden.dtype and out.shape == golden.shape
    np.testing.assert_array_equal(
        out, golden,
        err_msg=f"golden int fixture {name!r} drifted: the integer "
                "requantization math is no longer bit-identical to the "
                "frozen reference")


def test_int_fixture_artifact_also_executes_float(tmp_path):
    """An int fixture's artifact is an ordinary v2 artifact — the default
    (float) load must still work and predict the same classes as the int
    golden; switching the same plan to int reproduces that golden (which
    ``test_int_oracle.py`` pins to the pure-Python oracle) bit for bit."""
    plan, x, golden = _load_fixture("resnet_tiny_int", tmp_path)
    assert plan.mode == "float"
    out = plan.execute(x)
    np.testing.assert_array_equal(out.argmax(axis=1), golden.argmax(axis=1))
    plan = plan.with_mode("int")
    np.testing.assert_array_equal(plan.execute(x), golden)


def test_resnet_tiny_served_bit_exact(tmp_path):
    """The serving stack (runner + server) preserves golden bit-exactness."""
    plan, x, golden = _load_fixture("resnet_tiny", tmp_path)
    runner_out = engine.InferenceRunner(plan, batch_size=2).predict(x)
    np.testing.assert_array_equal(runner_out, golden)
    with engine.PlanServer(plan, n_shards=2, max_batch=2) as server:
        np.testing.assert_array_equal(server.predict(x), golden)


def test_generator_is_deterministic(tmp_path):
    """Regenerating the conv case today reproduces the committed golden output.

    (Guards the generator script itself: fixtures must be rebuildable, and a
    rebuild on an unchanged engine must be a no-op diff for the numerics.)
    """
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "make_golden_fixtures",
        os.path.join(FIXTURE_DIR, os.pardir, os.pardir, os.pardir,
                     "tools", "make_golden_fixtures.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, x_new, golden_new = module.make_conv()
    with np.load(os.path.join(FIXTURE_DIR, "conv.npz")) as fixture:
        np.testing.assert_array_equal(x_new, fixture["input"])
        np.testing.assert_array_equal(golden_new, fixture["golden"])
