"""Unit tests for repro.util.validation and the error hierarchy."""

import numpy as np
import pytest

from repro.util.errors import (
    ConfigurationError,
    ConvergenceError,
    PeOutOfMemory,
    ReproError,
    ValidationError,
)
from repro.util.validation import (
    as_tuple3,
    check_dtype,
    check_in_range,
    check_index,
    check_positive,
    check_shape,
    require,
)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(ValidationError, ReproError)
        assert issubclass(ConvergenceError, ReproError)
        assert issubclass(PeOutOfMemory, ReproError)

    def test_convergence_error_carries_diagnostics(self):
        err = ConvergenceError("nope", iterations=7, residual_norm=1.5)
        assert err.iterations == 7
        assert err.residual_norm == 1.5

    def test_pe_oom_carries_accounting(self):
        err = PeOutOfMemory("full", requested=100, available=10, capacity=48 * 1024)
        assert err.requested == 100
        assert err.available == 10
        assert err.capacity == 48 * 1024


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ConfigurationError, match="bad config"):
            require(False, "bad config")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("v", 2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError, match="v must be > 0"):
            check_positive("v", 0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive("v", 0.0, strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive("v", -1.0, strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive("v", float("nan"))


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("v", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("v", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range("v", 1.0, 1.0, 2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="must be in"):
            check_in_range("v", 3.0, 1.0, 2.0)


class TestCheckShape:
    def test_accepts_matching(self):
        a = np.zeros((2, 3))
        assert check_shape("a", a, (2, 3)) is not None

    def test_rejects_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            check_shape("a", np.zeros((2, 3)), (3, 2))


class TestCheckDtype:
    def test_accepts_exact(self):
        check_dtype("a", np.zeros(3, dtype=np.float32), np.float32)

    def test_rejects_other(self):
        with pytest.raises(ValidationError, match="dtype"):
            check_dtype("a", np.zeros(3, dtype=np.float64), np.float32)


class TestCheckIndex:
    def test_accepts_in_range(self):
        assert check_index("i", 0, 3) == 0
        assert check_index("i", 2, 3) == 2

    @pytest.mark.parametrize("bad", [-1, 3, 100])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            check_index("i", bad, 3)


class TestAsTuple3:
    def test_accepts_list(self):
        assert as_tuple3("dims", [1, 2, 3]) == (1, 2, 3)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError, match="exactly 3"):
            as_tuple3("dims", (1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            as_tuple3("dims", (1, 0, 2))
