"""Tests for repro.config."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    ReproConfig,
    ServeConfig,
    default_config,
    get_config,
    rng,
    set_config,
)


class TestDefaults:
    def test_paper_settings(self):
        cfg = default_config()
        assert cfg.rtol == 1e-10
        assert cfg.restart == 50
        assert cfg.device_name == "v100"
        assert cfg.meter_kernels is True
        # The backend default honours REPRO_BACKEND, so only its shape is
        # asserted here (the env-var behaviour has its own tests below).
        assert cfg.backend == cfg.backend.strip().lower() != ""

    def test_default_is_frozen(self):
        cfg = default_config()
        with pytest.raises(Exception):
            cfg.rtol = 1.0  # type: ignore[misc]


class TestSetConfig:
    def test_override_single_field(self):
        set_config(restart=25)
        assert get_config().restart == 25
        assert get_config().rtol == 1e-10

    def test_replace_whole_config(self):
        new = ReproConfig(rtol=1e-6, restart=10)
        set_config(new)
        assert get_config() is new

    def test_override_on_top_of_explicit_config(self):
        set_config(ReproConfig(restart=30), rtol=1e-8)
        assert get_config().restart == 30
        assert get_config().rtol == 1e-8

    def test_returns_active_config(self):
        out = set_config(seed=99)
        assert out is get_config()
        assert out.seed == 99

    def test_reset_between_tests_fixture_works(self):
        # The autouse fixture restores defaults; this test relies on the
        # previous tests having mutated the config.
        assert get_config().restart == 50


class TestBackendSelection:
    def test_env_var_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "SciPy")
        assert ReproConfig().backend == "scipy"  # normalised to lower case
        monkeypatch.delenv("REPRO_BACKEND")
        assert ReproConfig().backend == "numpy"

    def test_set_config_overrides_backend(self):
        set_config(backend="scipy")
        assert get_config().backend == "scipy"


class TestServeConfig:
    def test_defaults(self):
        serve = ReproConfig().serve
        assert serve == ServeConfig()
        assert serve.max_block == 8
        assert serve.policy == "auto"
        assert serve.max_sessions == 8
        assert serve.max_session_bytes is None
        assert serve.queue_depth == 64
        assert serve.fairness == "weighted"
        assert serve.workers == 2

    def test_is_frozen(self):
        with pytest.raises(Exception):
            ServeConfig().max_block = 2  # type: ignore[misc]

    def test_set_config_with_serve_bundle(self):
        set_config(serve=ServeConfig(max_block=4, fairness="fifo"))
        assert get_config().serve.max_block == 4
        assert get_config().serve.fairness == "fifo"
        # Untouched fields keep their defaults.
        assert get_config().serve.queue_depth == 64

    def test_replace_round_trips_canonical_fields(self):
        cfg = replace(ReproConfig(), serve=ServeConfig(workers=5))
        assert cfg.serve.workers == 5
        assert replace(cfg).serve == cfg.serve


class TestDeprecatedFlatServeFields:
    """The pre-ServeConfig flat spellings are gone; the canonical ones stay quiet."""

    def test_unknown_keyword_still_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReproConfig(serve_nonsense=1)

    def test_canonical_spellings_do_not_warn(self, recwarn):
        cfg = ReproConfig(serve=ServeConfig(max_block=2))
        assert cfg.serve.max_block == 2
        set_config(serve=ServeConfig(policy="sequential"))
        assert get_config().serve.policy == "sequential"
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations


class TestRngHelper:
    def test_default_seed_comes_from_config(self):
        a = rng().standard_normal(8)
        b = rng().standard_normal(8)
        np.testing.assert_array_equal(a, b)
        expected = np.random.default_rng(get_config().seed).standard_normal(8)
        np.testing.assert_array_equal(a, expected)

    def test_explicit_seed_wins(self):
        np.testing.assert_array_equal(
            rng(7).standard_normal(4), np.random.default_rng(7).standard_normal(4)
        )

    def test_tracks_config_seed(self):
        set_config(seed=99)
        np.testing.assert_array_equal(
            rng().standard_normal(4), np.random.default_rng(99).standard_normal(4)
        )
