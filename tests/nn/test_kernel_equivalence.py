"""Bit-identity of the workspace kernels vs a straight-line reference.

The library's layers, MSE loss and Adadelta optimizer run through
``out=`` kernels over a recycled buffer arena (repro.nn.workspace).  The
buffer reuse must change *allocation only*: in float64, training and
scoring produce bit-for-bit the same weights, histories and predictions
as the plain allocating NumPy expressions frozen in
``tests/nn/reference.py``.  These
tests pin that guarantee -- property-based over random architectures,
batch sizes and early-stopping cuts -- plus a gradcheck matrix over
every layer in both dtypes, dtype-stability of float32 training, and a
detection-quality tolerance test for the (explicitly non-bit-identical)
float32 mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import BatchNormalization, Dense, Parameter, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.nn.optimizers import BLOCK_BYTES, Adadelta, Optimizer
from repro.nn.workspace import Workspace

from . import reference
from .gradcheck import check_layer_input_gradient, check_layer_param_gradients
from .row_source import ArrayRowSource

RNG = np.random.default_rng(11)

ACTIVATIONS = {"relu": ReLU, "sigmoid": Sigmoid}


def _make_net(units, activation, batch_norm, seed, dtype, out_dim):
    layers = []
    for u in units:
        layers.append(Dense(u))
        if batch_norm:
            layers.append(BatchNormalization())
        layers.append(ACTIVATIONS[activation]())
    layers.append(Dense(out_dim))
    layers.append(ACTIVATIONS[activation]())
    return Sequential(layers, seed=seed, dtype=dtype)


def _built(net, width):
    """``net`` built for ``width`` inputs plus its reference mirror."""
    net.build(width)
    return net, reference.ReferenceNet(net)


def _histories_equal(history, ref_history):
    return (history.loss, history.val_loss, history.grad_norm) == tuple(ref_history)


def _params_identical(net, ref):
    pa, pb = net.parameters(), ref.params()
    assert len(pa) == len(pb)
    return all(np.array_equal(p.value, q.value) for p, q in zip(pa, pb))


class TestTrainingBitIdentity:
    """Float64 training == the reference's training, bit for bit."""

    @given(
        n_samples=st.integers(min_value=12, max_value=60),
        width=st.integers(min_value=3, max_value=10),
        units=st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3),
        activation=st.sampled_from(sorted(ACTIVATIONS)),
        batch_norm=st.booleans(),
        batch_size=st.integers(min_value=1, max_value=24),
        validation_split=st.sampled_from([0.0, 0.2]),
        patience=st.sampled_from([None, 1, 2]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_architectures(
        self,
        n_samples,
        width,
        units,
        activation,
        batch_norm,
        batch_size,
        validation_split,
        patience,
        seed,
    ):
        data = np.random.default_rng(seed).random((n_samples, width))
        kwargs = dict(
            epochs=3,
            batch_size=batch_size,
            validation_split=validation_split,
            early_stopping_patience=patience,
        )
        net, ref = _built(
            _make_net(units, activation, batch_norm, seed, "float64", width), width
        )
        history = net.fit(data, **kwargs)
        ref_history = ref.fit(data, **kwargs)

        assert _histories_equal(history, ref_history)
        assert _params_identical(net, ref)
        probe = np.random.default_rng(seed + 1).random((7, width))
        assert np.array_equal(net.predict(probe), ref.predict(probe))

    def test_row_source_training_matches_dense(self):
        data = RNG.random((40, 6))
        net, ref = _built(_make_net([5], "relu", True, 3, "float64", 6), 6)
        net.fit(ArrayRowSource(data), epochs=2, batch_size=8)
        ref.fit(data, epochs=2, batch_size=8)
        assert _params_identical(net, ref)

    def test_predict_chunked_output_is_identical(self):
        net, ref = _built(_make_net([6, 4], "sigmoid", True, 1, "float64", 8), 8)
        data = RNG.random((50, 8))
        net.fit(data, epochs=1, batch_size=16)
        ref.fit(data, epochs=1, batch_size=16)
        probe = RNG.random((33, 8))
        assert np.array_equal(
            net.predict(probe, batch_size=10), ref.predict(probe, batch_size=10)
        )
        # Chunk size must not affect the result either.
        assert np.array_equal(
            net.predict(probe, batch_size=7), net.predict(probe, batch_size=1024)
        )
        assert net.predict(probe[:0]).shape == (0, 8)

    def test_workspace_reuses_buffers_across_steps(self):
        net = _make_net([6, 4], "relu", True, 2, "float64", 8)
        data = RNG.random((64, 8))
        net.fit(data, epochs=1, batch_size=16)
        after_first = net.workspace.stats()
        net.fit(data, epochs=2, batch_size=16)
        after_more = net.workspace.stats()
        # Steady state: further epochs allocate nothing new.
        assert after_more.misses == after_first.misses
        assert after_more.hits > after_first.hits
        assert after_more.peak_bytes == after_first.peak_bytes


class TestFloat32Mode:
    """float32 is a documented non-bit-identical throughput mode."""

    def test_kernel_path_tracks_legacy_path(self):
        data = RNG.random((48, 10))
        net, ref = _built(_make_net([8, 6], "relu", True, 4, "float32", 10), 10)
        history = net.fit(data, epochs=3, batch_size=8)
        ref_loss, _, _ = ref.fit(data, epochs=3, batch_size=8)
        # Same ops, same order: float32 kernels agree with the float32
        # reference closely (often exactly); the tolerance guards
        # rounding-mode differences on exotic BLAS builds.
        for p, q in zip(net.parameters(), ref.params()):
            np.testing.assert_allclose(p.value, q.value, rtol=1e-5, atol=1e-6)
        assert history.loss == pytest.approx(ref_loss, rel=1e-4)

    def test_autoencoder_training_stays_float32(self, monkeypatch):
        """No parameter, gradient, BatchNorm running statistic, Adadelta
        accumulator or reconstruction of the paper's recipe promotes to
        float64."""
        stepped = []
        step = Optimizer.step

        def recording_step(opt, parameters, ws=None):
            stepped.append(opt)
            return step(opt, parameters, ws)

        monkeypatch.setattr(Optimizer, "step", recording_step)
        config = AutoencoderConfig(
            encoder_units=(5, 3),
            epochs=2,
            batch_size=8,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=2,
            dtype="float32",
        )
        ae = Autoencoder(6, config)
        data = RNG.random((40, 6))
        ae.fit(data)
        (opt,) = set(stepped)
        params = ae.network.parameters()
        norms = [l for l in ae.network.layers if isinstance(l, BatchNormalization)]
        assert norms and len(opt._state) == len(params)
        arrays = [a for p in params for a in (p.value, p.grad)]
        arrays += [a for bn in norms for a in (bn.running_mean, bn.running_var)]
        arrays += [a for accumulators in opt._state.values() for a in accumulators]
        arrays.append(ae.reconstruct(data))
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_optimizer_rejects_mismatched_gradient_dtype(self):
        layer = Dense(3)
        layer.build(4, np.random.default_rng(0), dtype=np.float32)
        layer.weight.grad = np.zeros((4, 3))  # float64 gradient, float32 weight
        with pytest.raises(TypeError, match="weight"):
            Adadelta().step([layer.weight])

    def test_float32_close_to_float64(self):
        data = RNG.random((48, 10))
        a = _make_net([8, 6], "relu", True, 4, "float64", 10)
        a.fit(data, epochs=5, batch_size=8)
        b = _make_net([8, 6], "relu", True, 4, "float32", 10)
        b.fit(data, epochs=5, batch_size=8)
        # Training trajectories agree to float32-level precision.
        mse = [float(np.mean((data - net.predict(data)) ** 2)) for net in (a, b)]
        assert mse[1] == pytest.approx(mse[0], rel=1e-3)

    def test_float32_detection_quality(self):
        """Reconstruction-error ranking survives the dtype change."""
        rng = np.random.default_rng(17)
        normal = rng.uniform(0.3, 0.7, size=(120, 12))
        anomalous = rng.uniform(0.0, 1.0, size=(8, 12))

        def auc_for(dtype):
            net = _make_net([8, 4], "relu", True, 6, dtype, 12)
            net.fit(normal, epochs=30, batch_size=16)
            scores = []
            for batch in (normal, anomalous):
                recon = net.predict(batch)
                scores.append(np.mean((batch - recon) ** 2, axis=1))
            s_normal, s_anom = scores
            # Probability an anomaly outscores a normal row (ROC-AUC).
            return float(np.mean(s_anom[:, None] > s_normal[None, :]))

        auc64 = auc_for("float64")
        auc32 = auc_for("float32")
        assert auc64 > 0.9
        assert abs(auc64 - auc32) < 0.05


class TestGradcheckMatrix:
    """Kernel gradients are correct for every layer, both dtypes."""

    LAYER_FACTORIES = {
        "dense": lambda: Dense(5),
        "batch_norm": lambda: BatchNormalization(),
        "relu": ReLU,
        "sigmoid": Sigmoid,
    }

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(LAYER_FACTORIES))
    def test_layer_gradients_on_kernel_path(self, name, dtype):
        layer = self.LAYER_FACTORIES[name]()
        rng = np.random.default_rng(23)
        layer.build(4, rng, dtype=np.dtype(dtype))
        if name == "batch_norm":
            # Move gamma/beta off their 0-gradient-degenerate init point.
            layer.gamma.value = layer.gamma.value + np.asarray(0.3, layer.gamma.value.dtype)
            layer.beta.value = layer.beta.value + np.asarray(0.7, layer.beta.value.dtype)
        # Keep ReLU inputs away from the kink at 0.
        x = rng.uniform(0.2, 0.9, size=(6, 4))
        err = check_layer_input_gradient(layer, x)
        assert err < 1e-5, f"{name}/{dtype}: input gradient error {err}"
        # Parameter perturbations happen in the parameter's own dtype, so
        # float32 needs a coarser step (1e-6 is below float32 resolution)
        # and a correspondingly looser tolerance.
        eps, tol = (1e-6, 1e-5) if dtype == "float64" else (1e-3, 1e-2)
        param_errors = check_layer_param_gradients(layer, x, eps=eps)
        for pname, perr in param_errors.items():
            assert perr < tol, f"{name}/{dtype}/{pname}: gradient error {perr}"

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_optimizer_kernels_match_legacy(self, dtype):
        """Adadelta's in-place kernel reproduces the reference update."""
        layer = Dense(3)
        layer.build(4, np.random.default_rng(7), dtype=np.dtype(dtype))
        params = [layer.weight, layer.bias]
        ref_params = reference.mirror(layer).params()
        opt = Adadelta()
        ref_opt = reference.Adadelta()
        ws = Workspace()
        for step in range(5):
            g = np.random.default_rng(100 + step).normal(size=(4, 3))
            for p in params + ref_params:
                p.grad = (g if p.value.ndim == 2 else g[0]).astype(p.value.dtype)
            ws.reset()
            opt.step(params, ws=ws)
            ref_opt.step(ref_params)
        for p, q in zip(params, ref_params):
            assert np.array_equal(p.value, q.value)

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_activation_with_batchnorm_bit_identity(self, activation):
        """Every activation trains bit-identically to the reference (with
        BatchNorm in the stack)."""
        data = np.random.default_rng(41).random((24, 5))
        kwargs = dict(epochs=2, batch_size=6)
        net, ref = _built(_make_net([4], activation, True, 8, "float64", 5), 5)
        history = net.fit(data, **kwargs)
        ref_history = ref.fit(data, **kwargs)
        assert _histories_equal(history, ref_history)
        assert _params_identical(net, ref)

def _bits_equal(a, b):
    """Same dtype, shape and bytes: signed zeros and NaNs included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


DTYPES = ("float32", "float64")


class TestActivationEdgeCases:
    """Signed zeros, infinities, NaN and exp underflow, pinned to the oracle."""

    EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, -1.5, 2.5, 1e-30, -1e-30]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relu_matches_oracle_on_edges(self, dtype):
        x = np.array([self.EDGES], dtype=dtype)
        grad = np.arange(1, x.size + 1, dtype=dtype).reshape(x.shape)
        layer, ref = ReLU(), reference.mirror(ReLU())
        out = layer.forward(x)
        assert _bits_equal(out, ref.forward(x, True))
        assert _bits_equal(layer.backward(grad.copy()), ref.backward(grad))
        # ReLU(-0.0) is +0.0 and NaN propagates.
        assert out[0, 0] == 0 and not np.signbit(out[0, 0])
        assert np.isnan(out[0, 4])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid_matches_oracle_on_edges(self, dtype):
        # exp(-|x|) underflows to 0 below about -104 (float32) and
        # -746 (float64); both branches must still match the oracle.
        finfo = np.finfo(dtype)
        edges = [-0.0, 0.0, np.inf, -np.inf, -1.5, 2.5, 1e-30, -1e-30]
        deep = [-90.0, -104.0, -110.0, -700.0, -746.0, -800.0, finfo.min, finfo.max]
        x = np.array([edges + deep], dtype=dtype)
        out = Sigmoid().forward(x)
        assert _bits_equal(out, reference.mirror(Sigmoid()).forward(x, True))
        assert list(out[0, :4]) == [0.5, 0.5, 1.0, 0.0]
        assert out[0, -2] == 0.0 and not np.signbit(out[0, -2])
        # NaN in, the oracle's positive NaN out.
        nan = np.array([[np.nan]], dtype=dtype)
        out = Sigmoid().forward(nan)
        assert _bits_equal(out, reference.mirror(Sigmoid()).forward(nan, True))
        assert np.isnan(out[0, 0]) and not np.signbit(out[0, 0])

class TestBlockedOptimizerStep:
    """The cache-blocked step equals the oracle's whole-array update."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_parameter_spanning_blocks(self, dtype):
        rng = np.random.default_rng(29)
        # Full blocks and a ragged tail, beside a one-block bias.
        block = BLOCK_BYTES // np.dtype(dtype).itemsize
        shape = (2 * block + 4899) // 263, 263
        assert shape[0] * shape[1] > 2 * block and (shape[0] * shape[1]) % block
        params = [
            Parameter("weight", rng.normal(size=shape), dtype=dtype),
            Parameter("bias", rng.normal(size=263), dtype=dtype),
        ]
        ref_params = [reference.Param(p.value) for p in params]
        opt = Adadelta()
        ref_opt = reference.Adadelta()
        ws = Workspace()
        for _ in range(4):
            for p, q in zip(params, ref_params):
                q.grad = rng.normal(size=p.value.shape).astype(dtype)
                p.grad = q.grad.copy()
            ws.reset()
            opt.step(params, ws=ws)
            ref_opt.step(ref_params)
        for p, q in zip(params, ref_params):
            assert _bits_equal(p.value, q.value)

    def test_fortran_ordered_state_dict_trains(self):
        layer = Dense(5)
        layer.build(7, np.random.default_rng(2))
        weight = np.asfortranarray(np.random.default_rng(3).normal(size=(7, 5)))
        layer.load_state_dict({"weight": weight, "bias": np.ones(5)})
        assert layer.weight.value.flags.c_contiguous
        ref_params = reference.mirror(layer).params()
        params = [layer.weight, layer.bias]
        opt = Adadelta()
        ref_opt = reference.Adadelta()
        for step in range(3):
            g = np.random.default_rng(10 + step).normal(size=(7, 5))
            for p in params + ref_params:
                p.grad = g if p.value.ndim == 2 else g[0]
            opt.step(params)
            ref_opt.step(ref_params)
        assert not np.array_equal(layer.weight.value, weight)
        for p, q in zip(params, ref_params):
            assert _bits_equal(p.value, q.value)

    def test_parameter_is_stored_c_contiguous(self):
        value = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        param = Parameter("w", value)
        assert param.value.flags.c_contiguous
        assert np.array_equal(param.value, value)

    def test_step_rejects_non_contiguous_value(self):
        param = Parameter("w", np.zeros((4, 6)))
        param.value = param.value[:, ::2]
        param.grad = np.ones((4, 3))
        with pytest.raises(ValueError, match="C-contiguous"):
            Adadelta().step([param])


class TestParameterDtype:
    """Parameter honours the build dtype at construction (no re-cast)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_build_allocates_in_dtype(self, dtype):
        layer = Dense(3)
        layer.build(4, np.random.default_rng(0), dtype=dtype)
        assert layer.weight.value.dtype == dtype
        assert layer.weight.grad.dtype == dtype
        assert layer.bias.value.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_build_allocates_in_dtype(self, dtype):
        layer = BatchNormalization()
        layer.build(4, np.random.default_rng(0), dtype=dtype)
        assert layer.gamma.value.dtype == dtype
        assert layer.running_mean.dtype == dtype
        assert layer.running_var.dtype == dtype

    def test_cast_skips_matching_dtype(self):
        layer = Dense(3)
        layer.build(4, np.random.default_rng(0), dtype=np.float64)
        before = layer.weight.value
        layer.cast(np.dtype(np.float64))
        assert layer.weight.value is before  # no reallocation

    def test_build_dtype_matches_legacy_cast(self):
        """Building in float32 equals building in float64 then casting."""
        direct = Dense(3)
        direct.build(4, np.random.default_rng(5), dtype=np.float32)
        casted = Dense(3)
        casted.build(4, np.random.default_rng(5), dtype=np.float64)
        casted.cast(np.dtype(np.float32))
        assert np.array_equal(direct.weight.value, casted.weight.value)
        assert np.array_equal(direct.bias.value, casted.bias.value)
