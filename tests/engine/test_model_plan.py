"""Model-level artifacts: capture, save/load round-trip, QAT-free loading.

Acceptance criteria pinned here:

* a saved model plan reloads through the unified ``engine.load_plan`` and
  reproduces the frozen in-process model to <= 1e-10 (float64 plans are
  bit-exact by construction: every graph op mirrors its Tensor counterpart's
  NumPy operations in the same order);
* loading and running the artifact constructs **no** QAT objects — no CIM
  layers, no quantizers;
* corrupted archives fail loudly with :class:`engine.ModelPlanError`,
  and the archive reader returns what ``np.load`` returns for every
  well-formed archive while refusing, by member name, every malformed one.
"""

import io
import json
import os
import re
import struct
import zipfile

import numpy as np
import pytest

from repro import engine
from repro.engine import model_plan
from repro.engine.model_plan import _read_archive
from repro.engine.plan import plan_members
from repro.cim import CIMConfig, QuantScheme
from repro.models import MLP, TinyCNN, resnet8
from repro.nn import Tensor
from repro.nn.layers import (AvgPool2d, Conv2d, Flatten, GlobalAvgPool2d,
                             Linear, MaxPool2d, ReLU, ReLU6)
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.tensor import no_grad

from planutil import save_layer_artifact


def scheme(quantize_psum: bool) -> QuantScheme:
    return QuantScheme(weight_bits=3, act_bits=3, psum_bits=3,
                       weight_granularity="column", psum_granularity="column",
                       quantize_psum=quantize_psum)


CFG = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)


KINDS = ["conv", "linear", "resnet"]


def build_calibrated(kind: str, quantize_psum: bool = True):
    """A small eval-mode model with exercised BN stats, plus an eval batch."""
    rng = np.random.default_rng(3)
    if kind == "conv":
        model = TinyCNN(num_classes=4, width=6, scheme=scheme(quantize_psum),
                        cim_config=CFG, seed=1)
        x = np.abs(rng.normal(size=(3, 3, 8, 8)))
    elif kind == "resnet":
        model = resnet8(num_classes=5, scheme=scheme(quantize_psum),
                        cim_config=CFG, width_multiplier=0.25, seed=2)
        x = np.abs(rng.normal(size=(2, 3, 12, 12)))
    else:
        model = MLP(in_features=24, num_classes=5, hidden=(16,),
                    scheme=scheme(quantize_psum), cim_config=CFG, seed=1)
        x = np.abs(rng.normal(size=(4, 24)))
    with no_grad():
        model(Tensor(x))          # one training-mode pass: BN stats move
    model.eval()
    with no_grad():
        model(Tensor(x))          # calibrate lazy LSQ scales
    return model, x


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_save_load_parity(self, tmp_path, kind, quantize_psum):
        """Saved-then-loaded plans match the frozen in-process model <= 1e-10
        and their own pre-save execution exactly."""
        model, x = build_calibrated(kind, quantize_psum)
        engine.freeze(model)
        reference = model(Tensor(x)).data.copy()
        plan = engine.compile_model_plan(model)
        path = tmp_path / f"{kind}.npz"
        engine.save_model_plan(plan, path)
        loaded = engine.load_plan(path)
        assert isinstance(loaded, engine.ModelPlan)
        out = loaded.execute(x)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, plan.execute(x))
        assert np.abs(out - reference).max() <= 1e-10

    def test_non_power_of_two_pooling_stays_exact(self):
        """Global pooling over a 3x3 map divides by 9; the executor must use
        the Tensor path's sum * (1/count) formulation to stay bit-exact."""
        from repro.models import SimpleCNN
        rng = np.random.default_rng(11)
        model = SimpleCNN(num_classes=4, channels=(4, 6, 8),
                          scheme=scheme(True), cim_config=CFG, seed=3)
        x = np.abs(rng.normal(size=(2, 3, 12, 12)))   # 12 -> 12 -> 6 -> 3
        with no_grad():
            model(Tensor(x))
        model.eval()
        engine.freeze(model, calibrate=Tensor(x))
        reference = model(Tensor(x)).data
        plan = engine.compile_model_plan(model)
        np.testing.assert_array_equal(plan.execute(x), reference)

    def test_compile_from_unfrozen_calibrated_model(self, tmp_path):
        """Freezing is not required: a calibrated QAT model captures too."""
        model, x = build_calibrated("conv", True)
        reference = model(Tensor(x)).data.copy()
        plan = engine.compile_model_plan(model)
        assert np.abs(plan.execute(x) - reference).max() <= 1e-10

    def test_calibrate_argument_initializes_lazy_scales(self):
        model = MLP(in_features=10, num_classes=3, hidden=(8,),
                    scheme=scheme(True), cim_config=CFG, seed=0)
        x = np.abs(np.random.default_rng(0).normal(size=(4, 10)))
        with pytest.raises(engine.PlanNotReadyError):
            engine.compile_model_plan(model)
        plan = engine.compile_model_plan(model, calibrate=x)
        assert plan.n_cim_layers == 2

    def test_resnet8_acceptance(self, tmp_path):
        """The PR acceptance case: a saved ResNet-8 classifier reloads via
        ``engine.load_plan`` and matches the frozen in-process logits."""
        rng = np.random.default_rng(5)
        model = resnet8(num_classes=8, scheme=scheme(True), cim_config=CFG,
                        width_multiplier=0.25, seed=0)
        x = np.abs(rng.normal(size=(2, 3, 12, 12)))
        with no_grad():
            model(Tensor(x))
        model.eval()
        engine.freeze(model, calibrate=Tensor(x))
        reference = model(Tensor(x)).data.copy()
        path = tmp_path / "resnet8.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        logits = engine.load_plan(path).execute(x)
        assert np.abs(logits - reference).max() <= 1e-10

    def test_load_plan_loads_one_node_layer_artifacts(self, tmp_path):
        from repro.core import CIMConv2d
        conv = CIMConv2d(4, 4, 3, scheme=scheme(True), cim_config=CFG,
                         rng=np.random.default_rng(0))
        conv.eval()
        x = Tensor(np.abs(np.random.default_rng(1).normal(size=(1, 4, 6, 6))))
        conv(x)
        path = tmp_path / "layer.npz"
        plan = engine.compile_conv_plan(conv)
        save_layer_artifact(plan, path)
        loaded = engine.load_plan(path)
        assert isinstance(loaded, engine.ModelPlan)
        assert [type(p) for p in loaded.layer_plans] == [engine.ConvPlan]
        np.testing.assert_array_equal(loaded.execute(x.data), plan.execute(x.data))

    #: layer arrays older archives store but the engine never reads
    DROPPED = (".w_eff_mat", ".valid_mask")

    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_fresh_save_writes_no_dropped_layer_arrays(self, tmp_path,
                                                       quantize_psum):
        model, _ = build_calibrated("resnet", quantize_psum)
        path = tmp_path / "resnet.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        with np.load(path) as archive:
            names = archive.files
        assert any(name.startswith("layer0.") for name in names)
        assert [name for name in names if name.endswith(self.DROPPED)] == []

    @pytest.mark.parametrize("name", ["conv_int", "linear_int",
                                      "resnet_tiny_int"])
    def test_archive_with_dropped_layer_arrays_runs_bit_exact(self, name):
        """The v2 ``*_int`` golden fixtures still carry both dropped arrays:
        they load unchanged and reproduce their int-route golden output."""
        import io
        import os
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               f"{name}.npz")
        with np.load(fixture) as archive:
            artifact = bytes(archive["artifact"].tobytes())
            x, golden = archive["input"], archive["golden"]
        with np.load(io.BytesIO(artifact)) as archive:
            names = archive.files
            manifest = json.loads(bytes(archive["__manifest__"]).decode())
        assert manifest["version"] == 2
        for suffix in self.DROPPED:
            assert any(member.endswith(suffix) for member in names), suffix
        plan = engine.load_plan(io.BytesIO(artifact), mode="int")
        np.testing.assert_array_equal(plan.execute(x), golden)


class TestNoQATObjects:
    def test_load_and_run_constructs_no_qat_objects(self, tmp_path, monkeypatch):
        """The whole point of the artifact: deployment never touches QAT code."""
        model, x = build_calibrated("conv", True)
        path = tmp_path / "plan.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        expected = engine.load_plan(path).execute(x)

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} constructed at load time")

        import repro.core.cim_conv
        import repro.core.cim_linear
        import repro.quant.lsq
        monkeypatch.setattr(repro.core.cim_conv.CIMConv2d, "__init__", forbidden)
        monkeypatch.setattr(repro.core.cim_linear.CIMLinear, "__init__", forbidden)
        monkeypatch.setattr(repro.quant.lsq.LSQQuantizer, "__init__", forbidden)
        loaded = engine.load_plan(path)
        np.testing.assert_array_equal(loaded.execute(x), expected)


class TestErrorPaths:
    def test_corrupted_manifest_raises(self, tmp_path):
        model, _ = build_calibrated("linear", False)
        path = tmp_path / "plan.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files if k != "__manifest__"}
        np.savez(path, __manifest__=np.frombuffer(b"{not json", dtype=np.uint8),
                 **arrays)
        with pytest.raises(engine.ModelPlanError, match="corrupted manifest"):
            engine.load_plan(path)

    def test_missing_layer_arrays_raise(self, tmp_path):
        model, _ = build_calibrated("linear", False)
        path = tmp_path / "plan.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        with np.load(path) as archive:
            entries = {k: archive[k] for k in archive.files
                       if not k.startswith("layer0.")}
        np.savez(path, **entries)
        with pytest.raises(engine.ModelPlanError):
            engine.load_plan(path)

    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_missing_member_is_named_with_its_owner(self, tmp_path,
                                                    monkeypatch,
                                                    quantize_psum):
        """Every array a layer requires, and a node's array, is named with
        its owner when absent, on both routes, before any plan is built."""
        raw = _fresh_archive(tmp_path, "resnet", quantize_psum)
        with np.load(io.BytesIO(raw)) as archive:
            manifest = json.loads(archive["__manifest__"].tobytes())
        required = plan_members(manifest["layers"][1])
        assert ("s_p" in required) == quantize_psum
        assert {"splits", "s_w", "shift_factors", "rq_s_out"} <= set(required)
        members = [(f"layer1.{name}.npy", "layer 1") for name in required]
        members.append(("node2.mean.npy", "node 2"))
        monkeypatch.setattr(model_plan, "plan_from_parts", None)
        for member, owner in members:
            stripped = _without_members(raw, member)
            assert len(stripped) < len(raw), member
            for mode in ("float", "int"):
                with pytest.raises(engine.ModelPlanError, match=re.escape(
                        f"archive has no member '{member}' ({owner})")):
                    engine.load_plan(io.BytesIO(stripped), mode=mode)

    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_optional_members_may_be_absent(self, tmp_path, quantize_psum):
        raw = _fresh_archive(tmp_path, "resnet", quantize_psum)
        for suffix in (".bias.npy", ".act_scale.npy", ".rq_bias_q.npy"):
            stripped = _without_members(raw, suffix)
            for mode in ("float", "int"):
                engine.load_plan(io.BytesIO(stripped), mode=mode)

    def test_unsupported_version_raises(self, tmp_path):
        import json
        model, _ = build_calibrated("linear", False)
        path = tmp_path / "plan.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["__manifest__"]).decode())
            arrays = {k: archive[k] for k in archive.files if k != "__manifest__"}
        manifest["version"] = 999
        np.savez(path, __manifest__=np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(engine.ModelPlanError, match="version"):
            engine.load_plan(path)

    def test_version_1_artifacts_still_load_in_float_mode(self):
        """The manifest version bump (1 -> 2, requant constants added) must
        not orphan old artifacts: the committed golden fixtures are version-1
        bytes and have to keep loading — and executing bit-exactly — on the
        default float route.  Only mode='int' is out of reach for them."""
        import io
        import json
        import os
        from repro.engine.model_plan import (MODEL_PLAN_VERSION,
                                             SUPPORTED_MODEL_PLAN_VERSIONS)
        assert MODEL_PLAN_VERSION == 2
        assert SUPPORTED_MODEL_PLAN_VERSIONS == {1, 2}
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "resnet_tiny.npz")
        with np.load(fixture) as archive:
            artifact = bytes(archive["artifact"].tobytes())
            x, golden = archive["input"], archive["golden"]
        manifest = json.loads(bytes(
            np.load(io.BytesIO(artifact))["__manifest__"]).decode())
        assert manifest["version"] == 1          # the fixture IS a v1 artifact
        plan = engine.load_plan(io.BytesIO(artifact))
        np.testing.assert_array_equal(plan.execute(x), golden)
        with pytest.raises(engine.ModelPlanError,
                           match="no requant constants"):
            plan.with_mode("int")
        with pytest.raises(engine.ModelPlanError,
                           match="no requant constants"):
            engine.load_plan(io.BytesIO(artifact), mode="int")

    def test_non_artifact_archive_raises(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(engine.ModelPlanError, match="not an engine artifact"):
            engine.load_plan(path)

    #: Graph defects of the saved ``conv`` model (nodes: input, cim, bn,
    #: relu, cim, bn, relu, pool, cim), each with the error it must raise.
    GRAPH_DEFECTS = {
        "unknown_op": (lambda m: m["nodes"][3].update(op="reluu"),
                       "unknown graph op"),
        "misnumbered": (lambda m: m["nodes"][3].update(id=9), "has id 9"),
        "later_input": (lambda m: m["nodes"][3].update(inputs=[4]),
                        "not 1 earlier"),
        "extra_input": (lambda m: m["nodes"][3].update(inputs=[2, 1]),
                        "not 1 earlier"),
        "output_id": (lambda m: m.update(output=9), "output id 9"),
        "plan_index": (lambda m: m["nodes"][4].update(plan_index=3),
                       "plan index 3"),
        "missing_array": (lambda m: m["nodes"][2]["arrays"].remove("mean"),
                          r"missing \['mean'\]"),
    }

    @pytest.mark.parametrize("defect", sorted(GRAPH_DEFECTS))
    def test_graph_the_executor_cannot_run_is_refused(self, tmp_path,
                                                      defect):
        """A graph the executor cannot run fails its load, not every later
        batch, and a server mounts nothing for it."""
        model, _ = build_calibrated("conv")
        path = tmp_path / "plan.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)
        edit, message = self.GRAPH_DEFECTS[defect]
        self._rewrite_manifest(path, edit)
        for mode in ("float", "int"):
            with pytest.raises(engine.ModelPlanError, match=message):
                engine.load_plan(path, mode=mode)
        with engine.NetServer() as net:
            with pytest.raises(engine.ModelPlanError, match=message):
                net.add_model("m", str(path), n_shards=1)
            assert net.model_names() == []

    def test_unexportable_module_raises(self):
        class Weird(Module):
            def forward(self, x):
                return x

        with pytest.raises(engine.ModelPlanError, match="graph-capture hook"):
            engine.compile_model_plan(Weird())

    @staticmethod
    def _rewrite_manifest(path, edit):
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["__manifest__"]).decode())
            arrays = {k: archive[k] for k in archive.files if k != "__manifest__"}
        edit(manifest)
        np.savez(path, __manifest__=np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8), **arrays)

    @pytest.mark.parametrize("where", ["manifest", "layer"])
    def test_stored_float32_plan_must_be_recompiled(self, tmp_path, where):
        """Plans execute in float64 only: an artifact that stored a float32
        plan, at the top level or in one layer document, is refused."""
        model, _ = build_calibrated("linear", False)
        path = tmp_path / "plan.npz"
        engine.save_model_plan(engine.compile_model_plan(model), path)

        def to_float32(manifest):
            doc = manifest if where == "manifest" else manifest["layers"][-1]
            doc["dtype"] = "float32"

        self._rewrite_manifest(path, to_float32)
        with pytest.raises(engine.ModelPlanError, match="recompile"):
            engine.load_plan(path)

    def test_dtype_key_absent_or_float64_loads(self, tmp_path):
        """The writer stores no dtype key; a stored "float64" (older
        writers) loads to the same plan."""
        model, x = build_calibrated("conv", True)
        path = tmp_path / "plan.npz"
        plan = engine.compile_model_plan(model)
        engine.save_model_plan(plan, path)
        with np.load(path) as archive:
            manifest = json.loads(bytes(archive["__manifest__"]).decode())
        assert "dtype" not in manifest
        assert all("dtype" not in meta for meta in manifest["layers"])

        def to_float64(manifest):
            for doc in [manifest] + manifest["layers"]:
                doc["dtype"] = "float64"

        self._rewrite_manifest(path, to_float64)
        np.testing.assert_array_equal(engine.load_plan(path).execute(x),
                                      plan.execute(x))

    def test_plan_dtype_argument_is_gone(self):
        model, _ = build_calibrated("linear", False)
        with pytest.raises(TypeError):
            engine.compile_model_plan(model, dtype="float32")

    def test_enabled_variation_model_rejected(self):
        """Model plans are deterministic artifacts: an enabled variation
        model must fail the export loudly, not be silently dropped."""
        from repro.cim import VariationModel
        model, _ = build_calibrated("conv", True)
        for _, layer in model.named_modules():
            if hasattr(layer, "set_variation") and not hasattr(layer, "layer"):
                layer.set_variation(VariationModel(sigma=0.2, target="cells",
                                                   seed=0))
        with pytest.raises(engine.ModelPlanError, match="variation"):
            engine.compile_model_plan(model)



FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_archives() -> list:
    """The zip bytes of every fixture file and of its artifact, as
    ``(raw, is_artifact)`` params."""
    archives = []
    for name in sorted(os.listdir(FIXTURE_DIR)):
        with open(os.path.join(FIXTURE_DIR, name), "rb") as handle:
            raw = handle.read()
        with np.load(io.BytesIO(raw)) as archive:
            artifact = archive["artifact"].tobytes()
        archives += [pytest.param(raw, False, id=name),
                     pytest.param(artifact, True, id=f"{name}:artifact")]
    return archives


def _fresh_archive(tmp_path, kind: str, quantize_psum: bool) -> bytes:
    model, _ = build_calibrated(kind, quantize_psum)
    path = tmp_path / f"{kind}.npz"
    engine.save_model_plan(engine.compile_model_plan(model), path)
    return path.read_bytes()


def _npy_bytes(array, version=(1, 0)) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=version,
                              allow_pickle=True)
    return buf.getvalue()


def _without_members(raw: bytes, suffix: str) -> bytes:
    """The archive ``raw`` without its members named ``*suffix``."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            if not info.filename.endswith(suffix):
                dst.writestr(info, src.read(info))
    return out.getvalue()


def _with_member(raw: bytes, member: str, data: bytes) -> bytes:
    """The archive ``raw`` with ``member`` holding ``data`` (added if new)."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            if info.filename != member:
                dst.writestr(info, src.read(info))
        dst.writestr(member, data)
    return out.getvalue()


def _flip_last_data_byte(raw: bytes, member: str) -> bytes:
    """``raw`` with one bit of ``member``'s stored data flipped."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        info = archive.getinfo(member)
    assert info.compress_type == zipfile.ZIP_STORED
    local = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[local + 26:local + 30])
    at = local + 30 + name_len + extra_len + info.compress_size - 1
    flipped = bytearray(raw)
    flipped[at] ^= 1
    return bytes(flipped)


class TestArchiveReader:
    """``load_plan`` reads each member once with ``zipfile`` (CRC-checked)
    and accepts only canonical format-1.0 ``.npy`` members of bool,
    integer or float dtypes."""

    @staticmethod
    def assert_matches_np_load(raw: bytes) -> dict:
        """The reader's arrays equal ``np.load``'s in names, dtypes,
        shapes, memory order and bytes; returns the arrays by name."""
        got = _read_archive(io.BytesIO(raw))
        with np.load(io.BytesIO(raw)) as archive:
            assert sorted(got) == sorted(archive.files)
            for key in archive.files:
                want, array = archive[key], got[key]
                assert array.dtype == want.dtype, key
                assert array.shape == want.shape, key
                assert array.flags.c_contiguous == want.flags.c_contiguous
                assert array.flags.f_contiguous == want.flags.f_contiguous
                assert array.flags.writeable and array.flags.aligned, key
                assert array.tobytes(order="A") == want.tobytes(order="A")
        return got

    @pytest.mark.parametrize("raw,is_artifact", _fixture_archives())
    def test_fixture_archives_read_as_np_load_reads_them(self, raw,
                                                         is_artifact):
        arrays = self.assert_matches_np_load(raw)
        assert arrays
        if is_artifact:
            # the fixtures' w_bar members are stored in Fortran order
            assert any(a.ndim > 1 and a.flags.f_contiguous
                       and not a.flags.c_contiguous for a in arrays.values())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_fresh_archives_read_as_np_load_reads_them(self, tmp_path, kind,
                                                       quantize_psum):
        arrays = self.assert_matches_np_load(
            _fresh_archive(tmp_path, kind, quantize_psum))
        # one copy of the weights: integer cell codes, no w_bar
        assert not any(name.endswith(".w_bar") for name in arrays)
        splits = [a for name, a in arrays.items() if name.endswith(".splits")]
        assert splits and all(a.dtype == np.int8 for a in splits)

    @pytest.mark.parametrize("name,mode", [
        ("conv", "float"), ("linear", "float"), ("resnet_tiny", "float"),
        ("conv_int", "int"), ("linear_int", "int"),
        ("resnet_tiny_int", "int")])
    def test_fixture_without_w_bar_members_gives_the_same_outputs(
            self, name, mode):
        """A plan runs from its cell codes alone: the fixtures' stored
        w_bar members are never read."""
        with np.load(os.path.join(FIXTURE_DIR, f"{name}.npz")) as fixture:
            raw, x = fixture["artifact"].tobytes(), fixture["input"]
            golden = fixture["golden"]
        stripped = _without_members(raw, ".w_bar.npy")
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            assert any(member.endswith(".w_bar.npy")
                       for member in archive.namelist())
        np.testing.assert_array_equal(
            engine.load_plan(io.BytesIO(stripped), mode=mode).execute(x),
            golden)

    MEMBER = "layer0.splits.npy"

    @pytest.mark.parametrize("mutation", [
        "object", "structured", "unicode", "complex", "format_2",
        "short_data", "long_data", "bad_length_field"])
    def test_malformed_member_is_refused_by_name(self, tmp_path, mutation):
        raw = _fresh_archive(tmp_path, "conv", True)
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            original = archive.read(self.MEMBER)
        array = np.load(io.BytesIO(original))
        data = {
            "object": lambda: _npy_bytes(np.array([1, None], dtype=object)),
            "structured": lambda: _npy_bytes(
                np.zeros(3, dtype=[("a", "<i4"), ("b", "<f8")])),
            "unicode": lambda: _npy_bytes(np.array(["ab", "c"])),
            "complex": lambda: _npy_bytes(np.zeros(3, np.complex128)),
            "format_2": lambda: _npy_bytes(array, version=(2, 0)),
            "short_data": lambda: original[:-8],
            "long_data": lambda: original + bytes(8),
            "bad_length_field": lambda: (original[:8] + struct.pack(
                "<H", struct.unpack("<H", original[8:10])[0] - 1)
                + original[10:]),
        }[mutation]()
        bad = _with_member(raw, self.MEMBER, data)
        with pytest.raises(engine.ModelPlanError,
                           match=re.escape(repr(self.MEMBER))):
            engine.load_plan(io.BytesIO(bad))

    def test_non_npy_member_is_refused_by_name(self, tmp_path):
        raw = _fresh_archive(tmp_path, "linear", False)
        bad = _with_member(raw, "notes.txt", b"not an array")
        with pytest.raises(engine.ModelPlanError, match="'notes.txt'"):
            engine.load_plan(io.BytesIO(bad))

    def test_flipped_data_byte_fails_the_crc_by_name(self, tmp_path):
        raw = _fresh_archive(tmp_path, "conv", True)
        bad = _flip_last_data_byte(raw, self.MEMBER)
        with pytest.raises(engine.ModelPlanError,
                           match=re.escape(repr(self.MEMBER))) as info:
            engine.load_plan(io.BytesIO(bad))
        assert isinstance(info.value.__cause__, zipfile.BadZipFile)

    @pytest.mark.parametrize("damage", ["truncated", "empty", "not_a_zip"])
    def test_unreadable_file_raises_model_plan_error(self, tmp_path, damage):
        raw = _fresh_archive(tmp_path, "linear", True)
        path = tmp_path / "damaged.npz"
        path.write_bytes({"truncated": raw[:len(raw) // 2], "empty": b"",
                          "not_a_zip": b"{\"format\": 1}\n" * 8}[damage])
        with pytest.raises(engine.ModelPlanError, match="unreadable archive"):
            engine.load_plan(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            engine.load_plan(tmp_path / "absent.npz")

class TestReluSemantics:
    def test_interpreted_relu_maps_nan_to_zero(self):
        """The single-pass ``np.fmax`` ReLU keeps the documented NaN -> 0
        semantics."""
        builder = engine.GraphBuilder()
        relu = builder.add_op("relu", [0], name="relu")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=relu)
        x = np.array([[np.nan, -np.nan], [-1.0, 2.5], [-0.0, np.inf]])
        out = plan.execute(x)
        np.testing.assert_array_equal(
            out, np.array([[0.0, 0.0], [0.0, 2.5], [0.0, np.inf]]))
        # -0.0 normalizes to +0.0, matching np.where(x > 0, x, 0.0)
        assert not np.signbit(out[2, 0])


class TestExecutor:
    def test_execute_is_registered_hot(self):
        assert engine.ModelPlan.execute.__hot_path__

    @pytest.mark.parametrize("kind", KINDS)
    def test_liveness_is_built_with_the_plan(self, kind):
        model, x = build_calibrated(kind)
        plan = engine.compile_model_plan(model)
        float_steps = plan._schedule
        plan.execute(x)
        assert plan._schedule is float_steps
        int_plan = plan.with_mode("int")
        int_steps, int_output = int_plan._schedule
        assert int_steps is not float_steps[0]
        assert [node for node, _ in int_steps] == int_plan.graph()[0][1:]
        assert int_output == int_plan.graph()[1]
        int_plan.execute(x)
        assert int_plan._schedule[0] is int_steps
        # every value but the output is freed exactly once, by its last reader
        int_freed = [i for _, dead in int_steps for i in dead]
        assert sorted(int_freed) == sorted(
            node.id for node in int_plan.graph()[0] if node.id != int_output)
        assert plan._schedule is float_steps
        freed = [i for _, dead in float_steps[0] for i in dead]
        assert sorted(freed) == list(range(len(plan.nodes)))[:-1]
        assert float_steps[1] == plan.output_id == len(plan.nodes) - 1


def _eval_reference(model: Module, x: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _trained_bn(bn, rng, shape):
    """A BatchNorm whose running stats moved off their (0, 1) init."""
    with no_grad():
        bn(Tensor(rng.normal(loc=0.3, scale=2.0, size=shape)))
    return bn


class TestInterpreterOps:
    """Each graph op of the interpreter against the ``repro.nn`` module it
    replaces (bit for bit), plus the structural edge cases."""

    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize("kernel,stride,padding",
                             [(2, 2, 0),
                              (3, 2, 1),      # padding
                              (3, 1, 0)])     # stride != kernel
    def test_pool_geometries(self, pool_cls, kernel, stride, padding):
        model = pool_cls(kernel, stride, padding)
        x = np.random.default_rng(3).normal(size=(2, 3, 7, 7))
        plan = engine.compile_model_plan(model)
        assert [node.op for node in plan.nodes[1:]] == [
            "max_pool" if pool_cls is MaxPool2d else "avg_pool"]
        np.testing.assert_array_equal(plan.execute(x),
                                      _eval_reference(model, x))

    def test_raw_conv2d_and_linear_with_gammaless_bn_and_relu6(self):
        """Graph-level ``conv2d``/``linear`` nodes (weights as node arrays,
        no CIM layer plan) with an affine-free BatchNorm and a ReLU6."""
        rng = np.random.default_rng(5)
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=rng),
            _trained_bn(BatchNorm2d(4, affine=False), rng, (8, 4, 6, 6)),
            ReLU6(), Flatten(), Linear(4 * 6 * 6, 5, rng=rng))
        plan = engine.compile_model_plan(model)
        ops = [node.op for node in plan.nodes[1:]]
        assert ops == ["conv2d", "batchnorm", "relu6", "flatten", "linear"]
        assert "gamma" not in plan.nodes[2].arrays
        x = rng.normal(size=(2, 3, 6, 6)) * 4.0
        np.testing.assert_array_equal(plan.execute(x),
                                      _eval_reference(model, x))

    @pytest.mark.parametrize("op", ["add", "batchnorm", "relu6", "relu",
                                    "flatten", "global_avg_pool"])
    def test_standalone_op_as_graph_output(self, op):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 3, 3)) * 4.0
        if op == "add":
            builder = engine.GraphBuilder()
            pre = builder.add_op("relu6", [0], name="pre")
            out = builder.add_op("add", [pre, 0], name="add")
            plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                    output_id=out)
            expected = np.clip(x, 0.0, 6.0) + x
        else:
            module = {"batchnorm": lambda: _trained_bn(BatchNorm2d(2), rng,
                                                       (8, 2, 3, 3)),
                      "relu6": ReLU6, "relu": ReLU, "flatten": Flatten,
                      "global_avg_pool": GlobalAvgPool2d}[op]()
            plan = engine.compile_model_plan(module)
            expected = _eval_reference(module, x)
        assert plan.nodes[plan.output_id].op == op
        np.testing.assert_array_equal(plan.execute(x), expected)

    @pytest.mark.parametrize("mode", ["float", "int"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_batch(self, kind, mode):
        model, x = build_calibrated(kind)
        plan = engine.compile_model_plan(model).with_mode(mode)
        out = plan.execute(np.empty((0,) + x.shape[1:]))
        full = plan.execute(x)
        assert out.shape == (0,) + full.shape[1:]
        assert out.dtype == full.dtype

    @pytest.mark.parametrize("mode", ["float", "int"])
    def test_channel_mismatch_raises(self, mode):
        model, x = build_calibrated("conv")
        plan = engine.compile_model_plan(model).with_mode(mode)
        with pytest.raises(ValueError, match="channels"):
            plan.execute(np.zeros((2, x.shape[1] + 1) + x.shape[2:]))

    @pytest.mark.parametrize("mode", ["float", "int"])
    def test_linear_feature_mismatch_raises(self, mode):
        model, x = build_calibrated("linear")
        plan = engine.compile_model_plan(model).with_mode(mode)
        with pytest.raises(ValueError, match=str(x.shape[1])):
            plan.execute(np.zeros((2, x.shape[1] + 1)))

    def test_unknown_op_raises(self):
        builder = engine.GraphBuilder()
        bad = builder.add_op("fft", [0], name="bad")
        with pytest.raises(engine.ModelPlanError, match="fft"):
            engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                             output_id=bad)


    @pytest.mark.parametrize("tail", [GlobalAvgPool2d, Flatten, None])
    def test_batchnorm_relu_chain_keeps_nan_semantics(self, tail):
        """``batchnorm -> relu -> tail`` on NaN-laden input: every NaN the
        BatchNorm passes on leaves the ReLU as 0, like the module."""
        rng = np.random.default_rng(0)
        layers = [_trained_bn(BatchNorm2d(2, affine=False), rng,
                              (8, 2, 3, 3)), ReLU()]
        model = Sequential(*(layers + ([tail()] if tail else [])))
        plan = engine.compile_model_plan(model)
        x = np.full((2, 2, 3, 3), np.nan)
        x[0, 0, 0, 0] = -1.0
        x[1, 1] = rng.normal(size=(3, 3))
        out = plan.execute(x)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, _eval_reference(model, x))

    @pytest.mark.parametrize("mode", ["float", "int"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_output_survives_the_next_call(self, kind, mode):
        model, x = build_calibrated(kind)
        plan = engine.compile_model_plan(model).with_mode(mode)
        first = plan.execute(x)
        kept = first.copy()
        second = plan.execute(x * 2.0)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_multi_consumer_value(self):
        """A value read by two nodes stays live until its last reader."""
        builder = engine.GraphBuilder()
        bn = builder.add_op("batchnorm", [0], name="bn",
                            arrays={"mean": np.array([0.5, -0.25]),
                                    "denom": np.array([2.0, 0.5])})
        relu = builder.add_op("relu", [bn], name="relu")
        add = builder.add_op("add", [bn, relu], name="add")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=add)
        x = np.random.default_rng(0).normal(size=(2, 2, 3, 3))
        normed = ((x - np.array([0.5, -0.25]).reshape(1, 2, 1, 1))
                  / np.array([2.0, 0.5]).reshape(1, 2, 1, 1))
        np.testing.assert_array_equal(plan.execute(x),
                                      normed + np.fmax(normed, 0.0))
        steps, _ = plan._schedule
        assert [dead for _, dead in steps] == [(0,), (), (bn, relu)]

    def test_graph_output_read_by_a_later_node(self):
        """The output value is never freed or overwritten, even when a node
        after it reads it."""
        builder = engine.GraphBuilder()
        bn = builder.add_op("batchnorm", [0], name="bn",
                            arrays={"mean": np.zeros(2), "denom": np.ones(2)})
        builder.add_op("relu", [bn], name="relu")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=bn)
        x = np.random.default_rng(1).normal(size=(2, 2, 3, 3))
        np.testing.assert_array_equal(plan.execute(x), x)
        steps, _ = plan._schedule
        assert [dead for _, dead in steps] == [(0,), ()]


class TestModeSwitching:
    """A plan's route is fixed when it is built; ``with_mode`` gives the
    other route as a new plan over the same layer plans."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_reproduces_both_routes(self, kind):
        model, x = build_calibrated(kind)
        plan = engine.compile_model_plan(model)
        float_out = plan.execute(x)
        int_plan = plan.with_mode("int")
        int_out = int_plan.execute(x)
        np.testing.assert_array_equal(int_out.argmax(axis=1),
                                      float_out.argmax(axis=1))
        np.testing.assert_array_equal(plan.execute(x), float_out)
        back = int_plan.with_mode("float")
        np.testing.assert_array_equal(back.execute(x), float_out)
        np.testing.assert_array_equal(back.with_mode("int").execute(x),
                                      int_out)
        np.testing.assert_array_equal(int_plan.execute(x), int_out)

    def test_with_mode_shares_layer_plans_and_keeps_the_receiver(self):
        model, x = build_calibrated("resnet")
        plan = engine.compile_model_plan(model)
        int_plan = plan.with_mode("int")
        assert int_plan is not plan
        assert (plan.mode, int_plan.mode) == ("float", "int")
        assert all(a is b for a, b in zip(int_plan.layer_plans,
                                          plan.layer_plans, strict=True))
        assert int_plan.nodes is plan.nodes
        assert plan.graph() == (plan.nodes, plan.output_id)
        assert int_plan.graph()[0] is not plan.nodes
        assert plan.with_mode("float").layer_plans[0] is plan.layer_plans[0]
        with pytest.raises(ValueError, match="unknown execution mode"):
            plan.with_mode("int8")
        assert plan.mode == "float"

    @pytest.mark.parametrize("kind", KINDS)
    def test_switch_after_float_execution_equals_fresh_switch(self, kind):
        model, x = build_calibrated(kind)
        early = engine.compile_model_plan(model)
        early.execute(x)
        early = early.with_mode("int")
        late = engine.compile_model_plan(model).with_mode("int")
        np.testing.assert_array_equal(early.execute(x), late.execute(x))
        assert ([node.op for node in early.graph()[0]]
                == [node.op for node in late.graph()[0]])

    def test_int_route_is_batch_invariant(self):
        """Rows of any batch size equal the rows of one big batch, bit for
        bit, on one plan (the int route has no batch-dependent rounding)."""
        model, _ = build_calibrated("conv")
        plan = engine.compile_model_plan(model).with_mode("int")
        rng = np.random.default_rng(11)
        x = np.abs(rng.normal(size=(8, 3, 8, 8)))
        whole = plan.execute(x)
        start = 0
        for n in (1, 2, 5):
            np.testing.assert_array_equal(plan.execute(x[start:start + n]),
                                          whole[start:start + n])
            start += n

    @pytest.mark.parametrize("mode", ["float", "int"])
    def test_timings_keyed_by_node_name(self, mode):
        model, x = build_calibrated("conv")
        plan = engine.compile_model_plan(model).with_mode(mode)
        timings = {}
        out = plan.execute(x, timings=timings)
        np.testing.assert_array_equal(out, plan.execute(x))
        assert set(timings) == {node.name for node in plan.graph()[0][1:]}
        assert all(t >= 0.0 for t in timings.values())

    @pytest.mark.parametrize("mode", ["float", "int"])
    def test_summary_lists_the_executed_graph(self, mode):
        model, _ = build_calibrated("resnet")
        plan = engine.compile_model_plan(model).with_mode(mode)
        nodes, _ = plan.graph()
        lines = plan.summary().splitlines()
        assert lines[0] == (f"ModelPlan(ResNet, mode={mode}, "
                            f"{plan.n_cim_layers} CIM layers, "
                            f"{len(nodes) - 1} ops)")
        assert len(lines) == len(nodes)
        assert [line.split()[1] for line in lines[1:]] == [
            node.op for node in nodes[1:]]
        cim_lines = [line for line in lines if " -> " in line]
        assert len(cim_lines) == sum(node.op == "cim" for node in nodes)
        assert cim_lines[0].endswith("stem.0 -> conv2d[4ch]")
        assert cim_lines[-1].endswith("fc -> linear[5ch]")

    def test_call_aliases_execute(self):
        model, x = build_calibrated("linear")
        plan = engine.compile_model_plan(model)
        np.testing.assert_array_equal(plan(x), plan.execute(x))


class TestBatchNormFolding:
    def test_frozen_stats_match_eval_forward(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm2d(5)
        x = rng.normal(size=(4, 5, 3, 3))
        bn(Tensor(x))                      # training pass updates stats
        bn.eval()
        ref = bn(Tensor(x)).data
        mean, denom = bn.frozen_stats()
        out = ((x - mean.reshape(1, -1, 1, 1)) / denom.reshape(1, -1, 1, 1)
               * bn.weight.data.reshape(1, -1, 1, 1)
               + bn.bias.data.reshape(1, -1, 1, 1))
        np.testing.assert_array_equal(out, ref)

    def test_fold_to_affine_close(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2d(4)
        bn(Tensor(rng.normal(size=(6, 4, 2, 2))))
        bn.eval()
        x = rng.normal(size=(2, 4, 2, 2))
        scale, shift = bn.fold_to_affine()
        out = x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out, bn(Tensor(x)).data, atol=1e-12)

    def test_untracked_stats_cannot_freeze(self):
        bn = BatchNorm2d(3, track_running_stats=False)
        with pytest.raises(ValueError, match="track_running_stats"):
            bn.frozen_stats()
