import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxfw.autodiff import backward_grad
from proxfw.losses import (
    MODES,
    augmented_scores,
    augmented_scores_batch,
    conditional_gradient_direction,
    conditional_vertex_batch,
    cross_entropy,
    cross_entropy_batch,
    default_direction_mode,
    dual_direction,
    dual_direction_batch,
    hinge_loss,
    hinge_loss_batch,
    softmax_batch,
    softmax_direction,
)
from proxfw.models import ModelSpec

from helpers import ce_objective_ref, head_value, weighted_aug_ref


def test_hinge_worked_example():
    s = np.array([0.3, 0.5, -0.2])
    assert np.isclose(hinge_loss(s, 0), 1.2, atol=1e-15)


def test_hinge_zero_when_margins_hold():
    assert hinge_loss(np.array([2.0, 0.0]), 0) == 0.0


def test_augmented_scores_examples():
    assert augmented_scores(np.array([2.0, 0.0]), 0).tolist() == [0.0, -1.0]
    assert augmented_scores(np.array([5.0, 0.0]), 0).tolist() == [0.0, -4.0]
    aug = augmented_scores(np.array([0.3, 0.5, -0.2]), 0)
    assert np.allclose(aug, [0.0, 1.2, 0.5], atol=1e-15)


def test_cross_entropy_worked_example():
    val = cross_entropy(np.array([10.0, -10.0]), 0)
    assert np.isclose(val, np.log1p(np.exp(-20.0)), rtol=1e-12)
    # max-shift keeps huge scores finite
    assert np.isfinite(cross_entropy(np.array([1e4, 0.0]), 1))


def test_softmax_direction_examples():
    p = softmax_direction(np.array([np.log(2.0), 0.0]))
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    p = softmax_direction(np.array([5.0, 0.0]))
    assert np.isclose(p[0], np.exp(5.0) / (1.0 + np.exp(5.0)), rtol=1e-12)


def test_conditional_gradient_direction_tie_breaks_low():
    assert conditional_gradient_direction(np.array([0.5, 1.2, 1.2])).tolist() == [0.0, 1.0, 0.0]
    assert conditional_gradient_direction(np.array([0.0, 0.0])).tolist() == [1.0, 0.0]


def test_dual_direction_switch_example():
    # smoothed mode falls back to the vertex when softmax is not ascent
    s = np.array([5.0, 0.0])
    aug = augmented_scores(s, 0)
    out = dual_direction(aug, s, "smoothed")
    assert out.tolist() == [1.0, 0.0]
    # and keeps the softmax point when it is
    s = np.array([0.0, 0.2])
    aug = augmented_scores(s, 0)
    out = dual_direction(aug, s, "smoothed")
    assert np.allclose(out, softmax_direction(s))
    with pytest.raises(ValueError):
        dual_direction(aug, s, "greedy")


def test_directions_live_on_the_simplex():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        s = rng.normal(scale=3.0, size=k)
        y = int(rng.integers(0, k))
        aug = augmented_scores(s, y)
        for mode in ("smoothed", "conditional"):
            d = dual_direction(aug, s, mode)
            assert np.all(d >= 0.0)
            assert abs(d.sum() - 1.0) < 1e-12


def test_vertex_achieves_hinge_value():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        s = rng.normal(scale=2.0, size=k)
        y = int(rng.integers(0, k))
        aug = augmented_scores(s, y)
        if hinge_loss(s, y) <= 0.0:
            continue
        v = conditional_gradient_direction(aug)
        assert int(np.argmax(v)) != y
        assert np.isclose(float(v @ aug), hinge_loss(s, y), atol=1e-12)


def test_label_permutation_permutes_direction():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(3, 7))
        s = rng.normal(size=k)
        y = int(rng.integers(0, k))
        perm = rng.permutation(k)
        aug = augmented_scores(s, y)
        d = dual_direction(aug, s, "smoothed")
        aug_p = augmented_scores(s[perm], int(np.where(perm == y)[0][0]))
        d_p = dual_direction(aug_p, s[perm], "smoothed")
        # permutations can move the argmax among exact ties; skip those
        if np.sum(aug == aug.max()) > 1:
            continue
        assert np.allclose(d_p, d[perm], atol=1e-12)


def test_default_direction_mode_threshold():
    assert default_direction_mode(2) == "conditional"
    assert default_direction_mode(3) == "conditional"
    assert default_direction_mode(4) == "smoothed"
    assert default_direction_mode(10) == "smoothed"


def test_batch_forms_match_scalar_forms():
    rng = np.random.default_rng(3)
    k = 5
    F = rng.normal(size=(20, k))
    y = rng.integers(0, k, size=20)
    augF = augmented_scores_batch(F, y)
    S, switched = dual_direction_batch(augF, F, "smoothed")
    manual_switched = 0
    for i in range(20):
        aug = augmented_scores(F[i], int(y[i]))
        assert np.allclose(augF[i], aug, atol=1e-15)
        d = dual_direction(aug, F[i], "smoothed")
        assert np.allclose(S[i], d, atol=1e-12)
        if float(softmax_direction(F[i]) @ aug) <= 0.0:
            manual_switched += 1
    assert switched == manual_switched


def test_weighted_direction_gradient_equals_ce_gradient():
    # backward through s_ce' b(w) with s_ce frozen equals the CE gradient
    rng = np.random.default_rng(4)
    for _ in range(10):
        model = ModelSpec("mlp", input_dim=4, num_classes=5, hidden_dims=(6,))
        w = rng.normal(size=model.param_count)
        x = rng.normal(size=4)
        y = int(rng.integers(0, 5))
        F, _ = model.scores(w, x)
        s_ce = softmax_direction(F)
        head_a = weighted_aug_ref(model, x, y, s_ce)
        head_b = ce_objective_ref(model, x, y)
        ga = backward_grad(head_a.tape, w)
        gb = backward_grad(head_b.tape, w)
        assert np.max(np.abs(ga - gb)) < 1e-10
        assert np.isclose(head_value(head_b, w), cross_entropy(F, y), atol=1e-12)


def test_label_out_of_range_rejected():
    with pytest.raises(ValueError):
        hinge_loss(np.array([1.0, 2.0]), 2)
    with pytest.raises(ValueError):
        cross_entropy(np.array([1.0, 2.0]), -1)
    with pytest.raises(ValueError):
        augmented_scores(np.array([1.0]), 0)
    with pytest.raises(ValueError, match=r"label -1 outside \[0, 3\)"):
        cross_entropy(np.zeros(3), -1)
    with pytest.raises(ValueError, match=r"label 3 outside \[0, 3\)"):
        hinge_loss(np.zeros(3), 3)


# scores drawn partly from a few values, so ties in s and in the
# augmented scores (including ties with the zero at the label) are common
SCORE_CASES = st.integers(2, 8).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-30.0, 30.0)),
            min_size=k,
            max_size=k,
        ),
        st.integers(0, k - 1),
    )
)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(SCORE_CASES)
def test_scalar_forms_are_row_zero_of_batch_forms(case):
    s, y = np.array(case[0]), case[1]
    F, Y = s[None, :], np.array([y])
    aug = augmented_scores(s, y)
    assert bits(aug) == bits(augmented_scores_batch(F, Y)[0])
    assert bits(hinge_loss(s, y)) == bits(hinge_loss_batch(F, Y)[0])
    assert bits(cross_entropy(s, y)) == bits(cross_entropy_batch(F, Y)[0])
    assert bits(softmax_direction(s)) == bits(softmax_batch(F)[0])
    assert bits(conditional_gradient_direction(aug)) == bits(conditional_vertex_batch(aug[None])[0])
    for mode in MODES:
        assert bits(dual_direction(aug, s, mode)) == bits(dual_direction_batch(aug[None], F, mode)[0][0])
