"""Unit tests for entropy / MI / NMI and the Theorem 1 lower bound."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import ConfigurationError, SymbolicDatabase, SymbolicSeries, confidence_lower_bound, normalized_mutual_information
from repro.core.mutual_information import (
    conditional_entropy,
    entropy,
    mutual_information,
    nmi_matrix,
)
from repro.exceptions import DataError


def make_series(name, symbols, alphabet=("Off", "On")):
    return SymbolicSeries.from_symbols(
        name=name,
        timestamps=np.arange(len(symbols), dtype=float),
        symbols=symbols,
        alphabet=alphabet,
    )


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy({"On": 0.5, "Off": 0.5}) == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert entropy({"On": 1.0, "Off": 0.0}) == pytest.approx(0.0)

    def test_uniform_four_symbols_is_two_bits(self):
        assert entropy({s: 0.25 for s in "abcd"}) == pytest.approx(2.0)

    def test_requires_normalised_distribution(self):
        with pytest.raises(DataError):
            entropy({"a": 0.5, "b": 0.2})
        with pytest.raises(DataError):
            entropy({"a": 0.0})


class TestMutualInformation:
    def test_identical_series_mi_equals_entropy(self):
        px = {"On": 0.5, "Off": 0.5}
        joint = {("On", "On"): 0.5, ("Off", "Off"): 0.5, ("On", "Off"): 0.0, ("Off", "On"): 0.0}
        assert mutual_information(joint, px, px) == pytest.approx(entropy(px))

    def test_independent_series_mi_zero(self):
        px = {"On": 0.5, "Off": 0.5}
        joint = {(a, b): 0.25 for a in ("On", "Off") for b in ("On", "Off")}
        assert mutual_information(joint, px, px) == pytest.approx(0.0)

    def test_conditional_entropy_chain_rule(self):
        """H(X|Y) = H(X) - I(X;Y) for a dependent pair."""
        px = {"On": 0.5, "Off": 0.5}
        py = {"On": 0.5, "Off": 0.5}
        joint = {("On", "On"): 0.4, ("Off", "Off"): 0.4, ("On", "Off"): 0.1, ("Off", "On"): 0.1}
        mi = mutual_information(joint, px, py)
        assert conditional_entropy(joint, py) == pytest.approx(entropy(px) - mi)

    def test_zero_marginal_with_positive_joint_raises(self):
        with pytest.raises(DataError):
            mutual_information({("a", "b"): 0.5}, {"a": 0.0}, {"b": 0.5})


class TestNormalizedMutualInformation:
    def test_identical_series_nmi_is_one(self):
        db = SymbolicDatabase(
            [make_series("x", ["On", "Off", "On", "Off"]), make_series("y", ["On", "Off", "On", "Off"])]
        )
        assert normalized_mutual_information(db, "x", "y") == pytest.approx(1.0)

    def test_independent_series_nmi_is_zero(self):
        db = SymbolicDatabase(
            [make_series("x", ["On", "On", "Off", "Off"]), make_series("y", ["On", "Off", "On", "Off"])]
        )
        assert normalized_mutual_information(db, "x", "y") == pytest.approx(0.0)

    def test_nmi_is_asymmetric(self):
        # y refines x: knowing y determines x, but not vice versa.
        x = make_series("x", ["On", "On", "Off", "Off"])
        y = make_series("y", ["a", "b", "c", "c"], alphabet=("a", "b", "c"))
        db = SymbolicDatabase([x, y])
        forward = normalized_mutual_information(db, "x", "y")
        backward = normalized_mutual_information(db, "y", "x")
        assert forward == pytest.approx(1.0)
        assert backward < forward

    def test_constant_series_has_zero_nmi(self):
        db = SymbolicDatabase(
            [make_series("x", ["On", "On", "On"]), make_series("y", ["On", "Off", "On"])]
        )
        assert normalized_mutual_information(db, "x", "y") == 0.0

    def test_nmi_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        symbols_x = ["On" if v else "Off" for v in rng.integers(0, 2, 50)]
        symbols_y = ["On" if v else "Off" for v in rng.integers(0, 2, 50)]
        db = SymbolicDatabase([make_series("x", symbols_x), make_series("y", symbols_y)])
        value = normalized_mutual_information(db, "x", "y")
        assert 0.0 <= value <= 1.0

    def test_nmi_matrix_covers_all_ordered_pairs(self):
        db = SymbolicDatabase(
            [
                make_series("a", ["On", "Off", "On", "Off"]),
                make_series("b", ["On", "On", "Off", "Off"]),
                make_series("c", ["Off", "Off", "On", "On"]),
            ]
        )
        matrix = nmi_matrix(db)
        assert len(matrix) == 6
        assert ("a", "a") not in matrix
        # b and c are complements of each other: perfectly informative.
        assert matrix[("b", "c")] == pytest.approx(1.0)

    def test_nmi_matrix_equals_the_per_pair_function(self):
        """One joint count per unordered pair, read in both directions,
        gives every ordered pair's value bit for bit — a constant series
        (zero entropy) included."""
        rng = np.random.default_rng(3)
        db = SymbolicDatabase(
            [
                make_series(
                    f"s{index}",
                    ["On" if v else "Off" for v in rng.integers(0, 2, 32)],
                )
                for index in range(6)
            ]
            + [make_series("constant", ["On"] * 32)]
        )
        matrix = nmi_matrix(db)
        assert len(matrix) == 7 * 6
        for (name_x, name_y), value in matrix.items():
            assert value == normalized_mutual_information(db, name_x, name_y)

    def test_wide_alphabets_count_every_joint_cell(self):
        """17 x 17 symbols: a joint cell index reaches 16 * 17 + 16 = 288,
        past what the series' one-byte codes hold, so the counts must come
        out as the per-pair arithmetic of a Python count."""
        alphabet = tuple(f"q{k}" for k in range(17))
        rng = np.random.default_rng(17)
        symbols_x = [alphabet[k] for k in rng.integers(0, 17, 2000)]
        symbols_y = [alphabet[k] for k in rng.integers(0, 17, 2000)]
        x = make_series("x", symbols_x, alphabet)
        y = make_series("y", symbols_y, alphabet)
        assert x.codes.dtype == np.uint8
        db = SymbolicDatabase([x, y])
        pairs = Counter(zip(symbols_x, symbols_y))
        assert pairs[(alphabet[16], alphabet[16])] > 0
        expected_joint = {
            (sx, sy): pairs[(sx, sy)] / len(symbols_x) for sx in alphabet for sy in alphabet
        }
        assert db.joint_distribution("x", "y") == expected_joint

        def per_pair(first, second, joint):
            return min(
                mutual_information(joint, first.distribution(), second.distribution())
                / entropy(first.distribution()),
                1.0,
            )

        transposed = {(sy, sx): expected_joint[(sx, sy)] for sy in alphabet for sx in alphabet}
        matrix = nmi_matrix(db)
        assert matrix[("x", "y")] == per_pair(x, y, expected_joint)
        assert matrix[("y", "x")] == per_pair(y, x, transposed)


class TestConfidenceLowerBound:
    def test_bound_is_between_zero_and_one(self):
        for mu in (0.2, 0.5, 0.9):
            bound = confidence_lower_bound(0.3, 0.6, n_symbols=2, mi_threshold=mu)
            assert 0.0 <= bound <= 1.0

    def test_bound_increases_with_mi_threshold(self):
        """Theorem 1: a stronger correlation requirement gives a stronger guarantee."""
        bounds = [
            confidence_lower_bound(0.3, 0.5, n_symbols=2, mi_threshold=mu)
            for mu in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert bounds == sorted(bounds)

    def test_bound_at_mu_one(self):
        # mu = 1: exponent (1 - mu)/sigma = 0, so LB = sigma / (2 sigma_m - sigma).
        bound = confidence_lower_bound(0.4, 0.6, n_symbols=2, mi_threshold=1.0)
        assert bound == pytest.approx(0.4 / (2 * 0.6 - 0.4))

    def test_degenerate_saturation_returns_zero(self):
        assert confidence_lower_bound(0.5, 1.0, n_symbols=2, mi_threshold=0.5) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            confidence_lower_bound(0.0, 0.5, 2, 0.5)
        with pytest.raises(ConfigurationError):
            confidence_lower_bound(0.6, 0.5, 2, 0.5)  # sigma_m < sigma
        with pytest.raises(ConfigurationError):
            confidence_lower_bound(0.3, 0.5, 1, 0.5)
        with pytest.raises(ConfigurationError):
            confidence_lower_bound(0.3, 0.5, 2, 0.0)
