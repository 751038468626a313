"""Tests for the parameter-validation guards."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.errors import ParameterError
from repro import validation as v


class TestRequirePositive:
    def test_accepts_positive(self):
        assert v.require_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1, -1e-30])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ParameterError, match="x"):
            v.require_positive(bad, "x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            v.require_positive(bad, "x")

    def test_rejects_non_number(self):
        with pytest.raises(ParameterError):
            v.require_positive("3", "x")

    def test_rejects_bool(self):
        with pytest.raises(ParameterError):
            v.require_finite(True, "x")


class TestRanges:
    def test_inclusive_bounds(self):
        assert v.require_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert v.require_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ParameterError):
            v.require_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_fraction(self):
        assert v.require_fraction(0.5, "x") == 0.5
        with pytest.raises(ParameterError):
            v.require_fraction(1.5, "x")

    def test_non_negative(self):
        assert v.require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ParameterError):
            v.require_non_negative(-0.1, "x")


class TestIntRange:
    def test_accepts_int(self):
        assert v.require_int_in_range(5, "n", 1, 10) == 5

    def test_rejects_float(self):
        with pytest.raises(ParameterError):
            v.require_int_in_range(5.0, "n", 1, 10)

    def test_rejects_bool(self):
        with pytest.raises(ParameterError):
            v.require_int_in_range(True, "n", 0, 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            v.require_int_in_range(11, "n", 1, 10)

    def test_numpy_integer_accepted(self):
        assert v.require_int_in_range(np.int64(7), "n", 1, 10) == 7


#: Verdicts of the real-number guards: exact float/int take a fast path,
#: everything else the ``numbers.Real`` check, with the same outcome.
REALS_ACCEPTED = [2.5, 3, np.float64(2.5), np.float32(2.5), np.int64(3),
                  Fraction(5, 2)]
REALS_REJECTED = [True, np.bool_(True), None, "1", complex(1, 0),
                  math.nan, math.inf, -math.inf]


class TestValidatorSemantics:
    @pytest.mark.parametrize("good", REALS_ACCEPTED, ids=repr)
    def test_real_guards_accept(self, good):
        assert v.require_finite(good, "x") is good
        assert v.require_positive(good, "x") is good

    @pytest.mark.parametrize("bad", REALS_REJECTED, ids=repr)
    def test_real_guards_reject(self, bad):
        with pytest.raises(ParameterError, match="x"):
            v.require_finite(bad, "x")
        with pytest.raises(ParameterError, match="x"):
            v.require_positive(bad, "x")

    @pytest.mark.parametrize("good", [3, np.int64(3)], ids=repr)
    def test_int_guard_accepts(self, good):
        out = v.require_int_in_range(good, "n", 1, 10)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("bad", [3.0, True, np.bool_(True), "3",
                                     None, Fraction(3)], ids=repr)
    def test_int_guard_rejects(self, bad):
        with pytest.raises(ParameterError, match="n must be an integer"):
            v.require_int_in_range(bad, "n", 0, 10)


class TestJobsArgument:
    def test_accepts_positive_counts(self):
        assert v.jobs_argument("4") == 4
        assert v.jobs_argument(1) == 1

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_rejects_non_positive(self, bad):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError, match="--jobs"):
            v.jobs_argument(bad)

    def test_argparse_reports_bad_counts(self, capsys):
        import argparse
        parser = argparse.ArgumentParser(prog="tool")
        parser.add_argument("--jobs", type=v.jobs_argument, default=1)
        assert parser.parse_args(["--jobs", "3"]).jobs == 3
        for bad in ("0", "two"):
            with pytest.raises(SystemExit):
                parser.parse_args(["--jobs", bad])
        assert "--jobs" in capsys.readouterr().err


class TestPointArray:
    def test_single_point_promoted(self):
        out = v.as_point_array((1.0, 2.0, 3.0))
        assert out.shape == (1, 3)

    def test_batch_passthrough(self):
        pts = np.zeros((5, 3))
        assert v.as_point_array(pts).shape == (5, 3)

    def test_rejects_wrong_width(self):
        with pytest.raises(ParameterError):
            v.as_point_array(np.zeros((5, 2)))

    def test_rejects_nan(self):
        pts = np.zeros((2, 3))
        pts[1, 2] = math.nan
        with pytest.raises(ParameterError):
            v.as_point_array(pts)

    def test_rejects_scalar(self):
        with pytest.raises(ParameterError):
            v.as_point_array(3.0)
