"""Tests for repro.config."""

from dataclasses import fields

import numpy as np
import pytest

from repro.config import (
    ReproConfig,
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


class TestReproConfigFields:
    """The config holds library-wide solver defaults only; serving and
    observability knobs are constructor defaults where they are used."""

    def test_fields_are_solver_device_seed_metering_and_backend(self):
        assert [f.name for f in fields(ReproConfig)] == [
            "rtol",
            "restart",
            "max_restarts",
            "device_name",
            "seed",
            "meter_kernels",
            "backend",
        ]

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ReproConfig(serve=None)

    def test_set_config_rejects_unknown_override(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            set_config(obs=None)
        assert get_config().restart == 50  # the active config is untouched


class TestRngHelper:
    def test_default_seed_is_the_active_config_seed(self):
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
