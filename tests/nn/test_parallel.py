"""Parallel ensemble-training engine tests.

The load-bearing property is *determinism*: for a fixed per-task seed,
``train_ensemble`` must return bit-identical weights, histories and
scores whether it runs serially, across a process pool, or through the
serial fallback path -- whatever BLAS thread count the caller runs.
"""

import pickle

import numpy as np
import pytest

from repro.nn import parallel as par
from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.nn.parallel import (
    AspectTask,
    blas_threads,
    derive_seed,
    resolve_n_jobs,
    train_ensemble,
)

TINY = AutoencoderConfig(
    encoder_units=(6, 3),
    epochs=3,
    batch_size=8,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=5,
)


def make_tasks(n_aspects=3, n_samples=24, dim=10, base_seed=5):
    rng = np.random.default_rng(0)
    tasks = []
    for i in range(n_aspects):
        config = AutoencoderConfig(
            encoder_units=TINY.encoder_units,
            epochs=TINY.epochs,
            batch_size=TINY.batch_size,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=derive_seed(base_seed, i),
        )
        tasks.append(AspectTask(f"aspect{i}", rng.random((n_samples, dim)), config))
    return tasks


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_across_indices(self):
        seeds = [derive_seed(7, i) for i in range(16)]
        assert len(set(seeds)) == 16

    def test_distinct_across_bases(self):
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_none_passthrough(self):
        assert derive_seed(None, 4) is None

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(7, -1)

    def test_matches_seed_sequence_spawn_key(self):
        """The contract: SeedSequence(base, spawn_key=(i,)) -> first word."""
        expected = int(
            np.random.SeedSequence(42, spawn_key=(3,)).generate_state(1, dtype=np.uint32)[0]
        )
        assert derive_seed(42, 3) == expected


class TestResolveNJobs:
    def test_serial_default(self):
        assert resolve_n_jobs(None, 4) == 1
        assert resolve_n_jobs(1, 4) == 1

    def test_clamped_to_tasks(self):
        assert resolve_n_jobs(8, 3) == 3

    def test_one_worker_per_task(self):
        assert resolve_n_jobs(0, 3) == 3
        assert resolve_n_jobs(-1, 64) == 64

    def test_rejects_no_tasks(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(1, 0)


class TestTaskValidation:
    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            AspectTask("a", np.zeros((0, 4)), TINY)

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError):
            AspectTask("a", np.zeros(4), TINY)

    def test_rejects_duplicate_names(self):
        tasks = make_tasks(2)
        dup = [tasks[0], AspectTask(tasks[0].name, tasks[1].data, tasks[1].config)]
        with pytest.raises(ValueError, match="duplicate"):
            train_ensemble(dup, n_jobs=1)

    def test_empty_ensemble(self):
        assert train_ensemble([], n_jobs=2) == {}


class TestSerialTraining:
    def test_returns_fitted_members_in_task_order(self):
        tasks = make_tasks(3)
        trained = train_ensemble(tasks, n_jobs=1)
        assert list(trained) == [t.name for t in tasks]
        for task in tasks:
            member = trained[task.name]
            assert member.autoencoder.fitted
            assert member.history.epochs_trained == TINY.epochs

    def test_matches_direct_autoencoder_fit(self):
        """train_ensemble adds nothing on top of Autoencoder.fit."""
        [task] = make_tasks(1)
        trained = train_ensemble([task], n_jobs=1)[task.name]
        direct = Autoencoder(input_dim=task.data.shape[1], config=task.config)
        direct_history = direct.fit(task.data)
        np.testing.assert_array_equal(
            trained.autoencoder.reconstruction_error(task.data),
            direct.reconstruction_error(task.data),
        )
        assert trained.history.loss == direct_history.loss


class TestParallelEqualsSerial:
    def test_bit_identical_scores_and_histories(self):
        tasks = make_tasks(3)
        serial = train_ensemble(tasks, n_jobs=1)
        parallel = train_ensemble(tasks, n_jobs=2)
        assert list(serial) == list(parallel)
        for task in tasks:
            np.testing.assert_array_equal(
                serial[task.name].autoencoder.reconstruction_error(task.data),
                parallel[task.name].autoencoder.reconstruction_error(task.data),
            )
            assert serial[task.name].history.loss == parallel[task.name].history.loss
            assert (
                serial[task.name].history.val_loss
                == parallel[task.name].history.val_loss
            )

    def test_bit_identical_weights(self):
        tasks = make_tasks(2)
        serial = train_ensemble(tasks, n_jobs=1)
        parallel = train_ensemble(tasks, n_jobs=2)
        for name in serial:
            a = serial[name].autoencoder.network.parameters()
            b = parallel[name].autoencoder.network.parameters()
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa.value, pb.value)

    def test_parallel_members_are_fitted(self):
        tasks = make_tasks(2)
        for member in train_ensemble(tasks, n_jobs=2).values():
            assert member.autoencoder.fitted


class TestFallbacks:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(par, "ProcessPoolExecutor", broken_pool)
        tasks = make_tasks(2)
        trained = train_ensemble(tasks, n_jobs=2)
        reference = train_ensemble(tasks, n_jobs=1)
        for name in reference:
            np.testing.assert_array_equal(
                trained[name].autoencoder.reconstruction_error(tasks[0].data),
                reference[name].autoencoder.reconstruction_error(tasks[0].data),
            )

    def test_no_fork_platform_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(par, "_fork_context", lambda: None)
        tasks = make_tasks(2)
        trained = train_ensemble(tasks, n_jobs=2)
        assert all(m.autoencoder.fitted for m in trained.values())


class TestDefaultFanOut:
    """n_jobs=0 forks one worker per task once the work pays for the forks."""

    def test_small_work_trains_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a small ensemble must not fork")

        monkeypatch.setattr(par, "ProcessPoolExecutor", no_pool)
        trained = train_ensemble(make_tasks(3), n_jobs=0)
        assert all(m.autoencoder.fitted for m in trained.values())

    def test_large_work_forks_one_worker_per_task(self, monkeypatch):
        pools = []

        class RecordingPool(par.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(par, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(par, "_MIN_FORK_WORK", 0)
        tasks = make_tasks(3)
        trained = train_ensemble(tasks, n_jobs=0)
        assert pools == [3]
        reference = train_ensemble(tasks, n_jobs=1)
        for task in tasks:
            np.testing.assert_array_equal(
                trained[task.name].autoencoder.reconstruction_error(task.data),
                reference[task.name].autoencoder.reconstruction_error(task.data),
            )


class TestBlasPinning:
    """Serial training under multi-threaded BLAS equals the parallel default."""

    @pytest.mark.skipif(
        par._openblas_threads() is None, reason="numpy's BLAS has no OpenBLAS thread control"
    )
    def test_serial_matches_parallel_at_any_parent_thread_count(self, monkeypatch):
        # 256 x 840 float32 rows into 128 units: a GEMM that OpenBLAS
        # splits across threads when it may, changing float32 bits.
        monkeypatch.setattr(par, "_MIN_FORK_WORK", 0)  # n_jobs=0 forks
        rng = np.random.default_rng(8)
        tasks = [
            AspectTask(
                f"aspect{i}",
                rng.random((256, 840), dtype=np.float32),
                AutoencoderConfig(
                    encoder_units=(128, 32),
                    epochs=2,
                    batch_size=256,
                    early_stopping_patience=None,
                    validation_split=0.0,
                    seed=derive_seed(8, i),
                    dtype="float32",
                ),
            )
            for i in range(3)
        ]
        get_threads = par._openblas_threads()[0]
        before = get_threads()
        runs = []
        for threads in (1, 2):
            with blas_threads(threads):
                parent = get_threads()
                for n_jobs in (1, 0):
                    runs.append(train_ensemble(tasks, n_jobs=n_jobs))
                    assert get_threads() == parent
        assert get_threads() == before
        reference = runs[0]
        for run in runs[1:]:
            for task in tasks:
                a = reference[task.name].autoencoder.network.parameters()
                b = run[task.name].autoencoder.network.parameters()
                for pa, pb in zip(a, b):
                    assert pa.value.tobytes() == pb.value.tobytes()
                assert reference[task.name].history.loss == run[task.name].history.loss

    def test_blas_threads_restores_the_previous_count(self):
        control = par._openblas_threads()
        if control is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread control")
        get_threads = control[0]
        before = get_threads()
        with blas_threads(1):
            assert get_threads() == 1
            with blas_threads(2):
                pass
            assert get_threads() == 1
        assert get_threads() == before


class TestWeightTransport:
    """Workers return each layer's raw state_dict; the parent loads it."""

    def test_state_dict_round_trip_is_bit_exact(self):
        net = Sequential([Dense(6), ReLU(), Dense(4), Sigmoid()], seed=3).build(4)
        x = np.random.default_rng(1).random((12, 4))
        net.fit(x, epochs=2)
        states = pickle.loads(pickle.dumps([layer.state_dict() for layer in net.layers]))
        clone = Sequential([Dense(6), ReLU(), Dense(4), Sigmoid()], seed=99).build(4)
        for layer, state in zip(clone.layers, states):
            layer.load_state_dict(state)
        np.testing.assert_array_equal(net.predict(x), clone.predict(x))

    def test_round_trip_preserves_batchnorm_running_stats(self):
        cfg = AutoencoderConfig(
            encoder_units=(6, 3),
            epochs=3,
            batch_size=8,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=2,
        )
        x = np.random.default_rng(4).random((20, 8))
        tasks = [AspectTask("a", x, cfg), AspectTask("b", x[::-1].copy(), cfg)]
        serial = train_ensemble(tasks, n_jobs=1)
        parallel = train_ensemble(tasks, n_jobs=2)
        for task in tasks:
            assert parallel[task.name].autoencoder.fitted
            # Inference uses running statistics; equality proves they moved.
            np.testing.assert_array_equal(
                serial[task.name].autoencoder.reconstruct(x),
                parallel[task.name].autoencoder.reconstruct(x),
            )
