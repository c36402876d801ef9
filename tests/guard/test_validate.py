"""Boundary validators: accept the valid, reject the malformed with a reason."""

import numpy as np
import pytest

from repro.guard import ValidationError
from repro.guard.validate import (
    require_finite,
    require_int,
    require_nonempty,
    require_positive,
)


class TestRequireFinite:
    def test_passes_through_finite(self):
        a = np.arange(6.0).reshape(2, 3)
        out = require_finite(a, "a")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, a)

    def test_names_offender_coordinates(self):
        a = np.zeros((2, 3))
        a[1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            require_finite(a, "readings")

    def test_counts_and_elides_many_offenders(self):
        a = np.full(10, np.inf)
        with pytest.raises(ValidationError, match=r"10 non-finite.*\+7 more"):
            require_finite(a, "readings")

    def test_context_prefixes_message(self):
        with pytest.raises(ValidationError, match=r"^pipeline\[x\]: "):
            require_finite(np.array([np.nan]), "m", context="pipeline[x]")

    def test_message_is_actionable(self):
        with pytest.raises(ValidationError, match="scrub or re-measure"):
            require_finite(np.array([np.nan]), "m")


class TestScalars:
    def test_positive(self):
        assert require_positive(2.5, "tau") == 2.5
        for bad in (0, -1.0, float("nan"), float("inf"), "x"):
            with pytest.raises(ValidationError):
                require_positive(bad, "tau")

    def test_int_rejects_bool_and_floats(self):
        assert require_int(3, "seed") == 3
        for bad in (True, 3.0, "3"):
            with pytest.raises(ValidationError):
                require_int(bad, "seed")

    def test_int_minimum(self):
        with pytest.raises(ValidationError, match=">= 2"):
            require_int(1, "repetitions", minimum=2)


class TestSequences:
    def test_nonempty(self):
        assert require_nonempty([1], "events") == [1]
        with pytest.raises(ValidationError, match="must not be empty"):
            require_nonempty([], "events")


class TestErrorHierarchy:
    def test_validation_error_is_value_error(self):
        # Callers already catching ValueError keep working.
        assert issubclass(ValidationError, ValueError)
