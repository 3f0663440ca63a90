"""Loss values against closed-form oracles, gradients against finite differences."""

import numpy as np
import pytest
from conftest import unit_rows

from glint.errors import ConfigurationError
from glint.losses import (
    DEFAULT_TAU,
    FiniteDiffReport,
    LossValue,
    finite_diff_check,
    global_infonce,
    local_align,
    local_align_tie_exclusion,
    retrieval_infonce,
    scale_loss,
)

I2 = np.eye(2)


class TestGlobalInfonce:
    def test_identity_pair_tau_one(self):
        # Cosine grid = I, so each row contributes ln(1 + e^-1).
        lv = global_infonce(I2, I2, tau=1.0)
        np.testing.assert_allclose(lv.value, 0.3132616875182228, rtol=0, atol=1e-12)

    def test_identity_pair_cold_temperature(self):
        # At tau = 0.02 the same grid gives ln(1 + e^-50) ~ 1.9e-22, which
        # underflows to exactly 0.0 in float64 -- well under the bound.
        lv = global_infonce(I2, I2, tau=DEFAULT_TAU)
        assert 0.0 <= lv.value <= 1e-20

    def test_single_pair_is_zero(self):
        lv = global_infonce(np.array([[3.0, 4.0]]), np.array([[0.5, 0.5]]), tau=1.0)
        assert lv.value == 0.0

    def test_positive_for_real_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            b = int(rng.integers(2, 6))
            gv = rng.normal(size=(b, 5))
            gd = rng.normal(size=(b, 5))
            assert global_infonce(gv, gd, tau=0.7).value > 0.0

    def test_simultaneous_permutation_invariance(self):
        rng = np.random.default_rng(1)
        gv = rng.normal(size=(5, 4))
        gd = rng.normal(size=(5, 4))
        base = global_infonce(gv, gd, tau=0.3).value
        for _ in range(10):
            perm = rng.permutation(5)
            permuted = global_infonce(gv[perm], gd[perm], tau=0.3).value
            np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inputs = {
                "visual_globals": rng.normal(size=(4, 6)),
                "descriptor_globals": rng.normal(size=(4, 6)),
            }
            report = finite_diff_check(
                lambda visual_globals, descriptor_globals: global_infonce(
                    visual_globals, descriptor_globals, tau=0.5
                ),
                inputs,
            )
            assert report.passed, report.worst
            assert report.n_checked == 48

    def test_is_retrieval_infonce_over_the_dot_product_grid(self):
        rng = np.random.default_rng(2)
        for b in (1, 3, 8):
            gv = unit_rows(rng.normal(size=(b, 6)))
            gd = unit_rows(rng.normal(size=(b, 6)))
            lv = global_infonce(gv, gd, tau=0.1)
            grid = retrieval_infonce(gv @ gd.T, tau=0.1)
            assert lv.value == grid.value
            g = grid.gradients["scores"]
            np.testing.assert_array_equal(lv.gradients["visual_globals"], g @ gd)
            np.testing.assert_array_equal(lv.gradients["descriptor_globals"], g.T @ gv)

    def test_temperature_must_be_positive(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                global_infonce(I2, I2, tau=tau)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            global_infonce(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ConfigurationError):
            global_infonce(np.ones((2, 3)), np.ones((2, 4)))


class TestLocalAlign:
    def test_self_match_saturates(self):
        # Each patch matches itself with cosine 1, so the loss is exactly -L_p.
        rows = np.eye(3)
        lv = local_align(rows, rows)
        assert lv.value == -3.0

    def test_orthogonal_is_zero(self):
        patches = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        desc = np.array([[0.0, 0.0, 2.0]])
        assert local_align(patches, desc).value == 0.0

    def test_worked_example(self):
        # Row maxima are cos = 0.6 and 0.8 against the single descriptor token.
        lv = local_align(I2, np.array([[0.6, 0.8]]))
        np.testing.assert_allclose(lv.value, -1.4, rtol=0, atol=1e-12)

    def test_bounded_by_row_count(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lp = int(rng.integers(1, 6))
            patches = unit_rows(rng.normal(size=(lp, 4)))
            desc = unit_rows(rng.normal(size=(int(rng.integers(1, 6)), 4)))
            v = local_align(patches, desc).value
            assert -lp - 1e-12 <= v <= lp + 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            inputs = {
                "patches": rng.normal(size=(3, 5)),
                "descriptor_tokens": rng.normal(size=(4, 5)),
            }
            exclude = local_align_tie_exclusion(**inputs)
            report = finite_diff_check(local_align, inputs, exclude=exclude)
            assert report.passed, report.worst

    def test_tie_detected_and_reported(self):
        # Both descriptor tokens score cosine 0.8 against the single patch.
        patches = np.array([[1.0, 0.0]])
        desc = np.array([[0.8, 0.6], [0.8, -0.6]])
        lv = local_align(patches, desc)
        assert lv.tie_rows == (0,)
        np.testing.assert_allclose(lv.value, -0.8, rtol=0, atol=1e-12)
        # The subgradient routes through the lowest tied index only.
        assert np.any(lv.gradients["descriptor_tokens"][0] != 0.0)
        assert np.all(lv.gradients["descriptor_tokens"][1] == 0.0)

    def test_tie_exclusion_masks_the_flat_coordinates(self):
        patches = np.array([[1.0, 0.0]])
        desc = np.array([[0.8, 0.6], [0.8, -0.6]])
        masks = local_align_tie_exclusion(patches, desc)
        assert masks["patches"].all()
        assert masks["descriptor_tokens"].all()
        report = finite_diff_check(local_align, {"patches": patches, "descriptor_tokens": desc}, exclude=masks)
        assert report.n_checked == 0
        assert report.n_excluded == 6
        assert report.passed

    def test_tie_is_in_the_dot_products_not_the_cosines(self):
        # Against the patch both tokens score dot product 1.0, while their
        # cosines are 1.0 and 1/sqrt(26): the loss and its masks see the tie.
        patches = np.array([[1.0, 0.0]])
        desc = np.array([[1.0, 0.0], [1.0, 5.0]])
        lv = local_align(patches, desc)
        assert lv.tie_rows == (0,)
        assert lv.value == -1.0
        masks = local_align_tie_exclusion(patches, desc)
        assert masks["patches"].all()
        assert masks["descriptor_tokens"].all()

    def test_no_tie_means_empty_masks(self):
        patches = np.array([[1.0, 0.0]])
        desc = np.array([[0.9, 0.1], [0.0, 1.0]])
        assert local_align(patches, desc).tie_rows == ()
        masks = local_align_tie_exclusion(patches, desc)
        assert not masks["patches"].any()
        assert not masks["descriptor_tokens"].any()

    def test_single_descriptor_never_ties(self):
        assert local_align(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])).tie_rows == ()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            local_align(np.ones((2, 3)), np.ones((2, 4)))


class TestRetrievalInfonce:
    def test_uniform_scores_give_log_b(self):
        lv = retrieval_infonce(np.ones((2, 2)), tau=1.0)
        np.testing.assert_allclose(lv.value, np.log(2.0), rtol=0, atol=1e-15)
        lv4 = retrieval_infonce(np.zeros((4, 4)), tau=0.1)
        np.testing.assert_allclose(lv4.value, np.log(4.0), rtol=0, atol=1e-15)

    def test_separated_diagonal(self):
        # Diagonal 2, off-diagonal 0, tau 1: each row costs ln(1 + e^-2).
        lv = retrieval_infonce(np.array([[2.0, 0.0], [0.0, 2.0]]), tau=1.0)
        np.testing.assert_allclose(lv.value, 0.1269280110429727, rtol=0, atol=1e-12)

    def test_single_document_is_zero(self):
        assert retrieval_infonce(np.array([[5.0]]), tau=1.0).value == 0.0

    def test_raising_a_diagonal_score_lowers_the_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            scores = rng.normal(size=(4, 4))
            lv = retrieval_infonce(scores, tau=0.5)
            assert np.all(np.diag(lv.gradients["scores"]) < 0.0)
            i = int(rng.integers(4))
            bumped = scores.copy()
            bumped[i, i] += 0.25
            assert retrieval_infonce(bumped, tau=0.5).value < lv.value

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            inputs = {"scores": rng.normal(size=(4, 4))}
            report = finite_diff_check(
                lambda scores: retrieval_infonce(scores, tau=0.5), inputs
            )
            assert report.passed, report.worst
            assert report.n_checked == 16

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            retrieval_infonce(np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            retrieval_infonce(np.ones(4))

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            retrieval_infonce(np.ones((2, 2)), tau=0.0)


class TestJointLoss:
    """scale_loss weights one component of the joint objective."""

    def test_scale_loss(self):
        lv = LossValue(2.0, {"x": np.ones(2)}, tie_rows=(0,))
        scaled = scale_loss(lv, 0.5)
        assert scaled.value == 1.0
        np.testing.assert_array_equal(scaled.gradients["x"], 0.5 * np.ones(2))
        assert scaled.tie_rows == (0,)


class TestFiniteDiffCheck:
    def test_epsilon_range_enforced(self):
        inputs = {"scores": np.ones((2, 2))}
        for eps in (1e-7, 1e-2):
            with pytest.raises(ValueError):
                finite_diff_check(retrieval_infonce, inputs, epsilon=eps)

    def test_missing_gradient_key_rejected(self):
        def lossless(x):
            return LossValue(0.0, {})

        with pytest.raises(ConfigurationError):
            finite_diff_check(lossless, {"x": np.ones(2)})

    def test_report_fields(self):
        report = finite_diff_check(
            lambda scores: retrieval_infonce(scores, tau=1.0),
            {"scores": np.array([[1.0, 0.0], [0.0, 1.0]])},
        )
        assert isinstance(report, FiniteDiffReport)
        assert report.n_checked == 4
        assert report.n_excluded == 0
        assert report.tolerance == 1e-4
        assert report.passed and report.max_rel_error < 1e-4
