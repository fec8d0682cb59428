"""Autodiff engine: op-level finite differences, Adam, and checkpoint format."""

import struct

import numpy as np
import pytest

from featreg import (
    AdamState,
    FormatError,
    InvalidInputError,
    Tensor,
    adam_step,
    backward,
    grad_check,
)
from featreg import autodiff as ad


def fd_check(build, params, h=1e-5, tol=1e-6):
    """Assert analytic gradients match central differences for smooth graphs."""
    rep = grad_check(build, params, h=h, tolerance=tol)
    assert rep.ok, rep.summary()


def leaf(rng, shape, name):
    return Tensor(rng.normal(size=shape), requires_grad=True, name=name)


class TestBasicOps:
    def test_linear_identity(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        w = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        out = ad.linear(x, w, b)
        assert np.array_equal(out.data, x.data)

    def test_linear_sum_row(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        assert ad.linear(x, w, b).data.tolist() == [[3.0]]

    def test_softplus_at_zero(self):
        out = ad.softplus(Tensor(np.zeros(1)))
        assert abs(out.data[0] - np.log(2.0)) < 1e-12

    def test_shifted_softplus_zero_at_zero(self):
        out = ad.shifted_softplus(Tensor(np.zeros(3)))
        assert out.data.tolist() == [0.0, 0.0, 0.0]

    def test_shifted_softplus_is_softplus_minus_log2(self):
        x = np.linspace(-4.0, 4.0, 17)
        plain = ad.softplus(Tensor(x)).data
        shifted = ad.shifted_softplus(Tensor(x)).data
        np.testing.assert_allclose(shifted, plain - np.log(2.0), atol=1e-12)

    def test_l2_normalize_three_four(self):
        out = ad.l2_normalize(Tensor(np.array([3.0, 4.0])))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-12)

    def test_sum_gradient_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5,)), requires_grad=True)
        backward(ad.vsum(x))
        assert np.array_equal(x.grad, np.ones(5))

    def test_quadratic_gradient(self):
        x = Tensor(np.random.default_rng(1).normal(size=(6,)), requires_grad=True)
        backward(ad.dot(x, x))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(InvalidInputError):
            backward(ad.relu(x))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Tensor(np.array([1.0, np.inf]))


class TestOpGradients:
    """Central differences on each op, evaluated away from kinks."""

    def test_linear(self):
        rng = np.random.default_rng(0)
        w = leaf(rng, (3, 4), "w")
        b = leaf(rng, (4,), "b")
        x = Tensor(rng.normal(size=(5, 3)))
        v = Tensor(rng.normal(size=(5, 4)))
        fd_check(lambda: ad.vsum(ad.mul(ad.linear(x, w, b), v)), {"w": w, "b": b})

    def test_linear_1d_input(self):
        rng = np.random.default_rng(1)
        w = leaf(rng, (3, 2), "w")
        b = leaf(rng, (2,), "b")
        x = leaf(rng, (3,), "x")
        v = Tensor(rng.normal(size=(2,)))
        fd_check(lambda: ad.dot(ad.linear(x, w, b), v), {"w": w, "b": b, "x": x})

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(2)
        t = Tensor(rng.normal(size=8) + np.where(rng.normal(size=8) > 0, 2.0, -2.0),
                   requires_grad=True, name="t")
        fd_check(lambda: ad.vsum(ad.relu(t)), {"t": t})

    def test_softplus(self):
        rng = np.random.default_rng(3)
        t = leaf(rng, (8,), "t")
        fd_check(lambda: ad.vsum(ad.softplus(t)), {"t": t})

    def test_shifted_softplus(self):
        rng = np.random.default_rng(31)
        t = leaf(rng, (8,), "t")
        fd_check(lambda: ad.vsum(ad.shifted_softplus(t)), {"t": t})

    def test_l2_normalize(self):
        rng = np.random.default_rng(4)
        t = leaf(rng, (4, 5), "t")
        v = Tensor(rng.normal(size=(4, 5)))
        fd_check(lambda: ad.vsum(ad.mul(ad.l2_normalize(t), v)), {"t": t})

    def test_max_pool_gradient_is_argmax_indicator(self):
        rng = np.random.default_rng(5)
        off = np.array([0, 3, 8])
        x = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 4)))
        backward(ad.vsum(ad.mul(ad.segment_max_pool(x, off), v)))
        # analytic: gradient lands only on each segment's argmax rows
        expected = np.zeros((8, 4))
        for s, (lo, hi) in enumerate(zip(off[:-1], off[1:])):
            expected[lo + x.data[lo:hi].argmax(axis=0), np.arange(4)] = v.data[s]
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)
        # and matches finite differences
        x2 = Tensor(np.array(x.data), requires_grad=True, name="x2")
        fd_check(lambda: ad.vsum(ad.mul(ad.segment_max_pool(x2, off), v)), {"x2": x2})

    def test_max_pool_tie_goes_to_lowest_row(self):
        # ties within a segment go to that segment's lowest row, not to row 0
        x = Tensor(
            np.array([[1.0, 5.0], [1.0, 5.0], [0.0, 0.0], [2.0, 2.0], [2.0, 7.0], [2.0, 7.0]]),
            requires_grad=True,
        )
        backward(ad.vsum(ad.segment_max_pool(x, np.array([0, 3, 6]))))
        assert np.array_equal(
            x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        )

    def test_segment_ops(self):
        rng = np.random.default_rng(6)
        off = np.array([0, 3, 7, 9])
        t = leaf(rng, (9, 4), "t")
        v = Tensor(rng.normal(size=(3, 4)))
        fd_check(lambda: ad.vsum(ad.mul(ad.segment_max_pool(t, off), v)), {"t": t})
        t2 = leaf(rng, (3, 4), "t2")
        v2 = Tensor(rng.normal(size=(9, 4)))
        fd_check(lambda: ad.vsum(ad.mul(ad.expand_segments(t2, off), v2)), {"t2": t2})

    def test_rotate_xy(self):
        rng = np.random.default_rng(7)
        off = np.array([0, 5])
        sc = Tensor(np.array([[0.6, 0.8]]), requires_grad=True, name="sc")
        p = leaf(rng, (5, 3), "p")
        v = Tensor(rng.normal(size=(5, 3)))
        fd_check(
            lambda: ad.vsum(ad.mul(ad.rotate_xy_segments(p, sc, off), v)), {"sc": sc, "p": p}
        )

    def test_rotate_xy_preserves_z_and_norms(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(6, 3))
        thetas = np.array([0.77, -2.1])
        sc = Tensor(np.stack([np.sin(thetas), np.cos(thetas)], axis=1))
        out = ad.rotate_xy_segments(Tensor(pts), sc, np.array([0, 2, 6]))
        assert np.array_equal(out.data[:, 2], pts[:, 2])
        np.testing.assert_allclose(
            np.linalg.norm(out.data[:, :2], axis=1),
            np.linalg.norm(pts[:, :2], axis=1),
            atol=1e-12,
        )

    def test_rotate_xy_segments(self):
        rng = np.random.default_rng(9)
        off = np.array([0, 4, 7])
        sc = leaf(rng, (2, 2), "sc")
        p = leaf(rng, (7, 3), "p")
        v = Tensor(rng.normal(size=(7, 3)))
        fd_check(
            lambda: ad.vsum(ad.mul(ad.rotate_xy_segments(p, sc, off), v)), {"sc": sc, "p": p}
        )

    def test_pairwise_l2_values_and_gradient(self):
        rng = np.random.default_rng(10)
        a = leaf(rng, (4, 6), "a")
        b = leaf(rng, (5, 6), "b")
        d = ad.pairwise_l2(a, b)
        want = np.linalg.norm(a.data[:, None, :] - b.data[None, :, :], axis=2)
        np.testing.assert_allclose(d.data, want, atol=1e-12)
        v = Tensor(rng.normal(size=(4, 5)))
        fd_check(lambda: ad.vsum(ad.mul(ad.pairwise_l2(a, b), v)), {"a": a, "b": b})

    def test_pairwise_l2_zero_distance_subgradient(self):
        same = np.random.default_rng(11).normal(size=(2, 3))
        a = Tensor(same, requires_grad=True)
        b = Tensor(np.array(same))
        backward(ad.vsum(ad.pairwise_l2(a, b)))
        assert np.all(np.isfinite(a.grad))

    def test_row_min_and_div_chain(self):
        rng = np.random.default_rng(12)
        a = leaf(rng, (4, 6), "a")
        b = leaf(rng, (5, 6), "b")
        w = Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True, name="w")

        def build():
            m = ad.row_min(ad.pairwise_l2(a, b))
            wn = ad.div_by_scalar(w, ad.vsum(w))
            return ad.dot(wn, m)

        fd_check(build, {"a": a, "b": b, "w": w})

    def test_row_min_tie_goes_to_lowest_column(self):
        x = Tensor(np.array([[2.0, 1.0, 1.0]]), requires_grad=True)
        backward(ad.vsum(ad.row_min(x)))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_concat_tile_take(self):
        rng = np.random.default_rng(13)
        c1 = leaf(rng, (3, 4), "c1")
        c2 = leaf(rng, (3, 2), "c2")
        v = Tensor(rng.normal(size=(3, 6)))
        fd_check(lambda: ad.vsum(ad.mul(ad.concat(c1, c2, axis=1), v)), {"c1": c1, "c2": c2})
        m = leaf(rng, (5, 3), "m")
        fd_check(lambda: ad.vsum(ad.take_col(m, 1)), {"m": m})

    def test_gradient_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(ad.vsum(ad.add(x, x)))
        assert x.grad.tolist() == [2.0]

    def test_unreachable_param_gets_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        backward(ad.vsum(x), params={"x": x, "unused": unused})
        assert np.array_equal(unused.grad, np.zeros(2))

    def test_forward_determinism(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(6, 4))
        a = ad.segment_max_pool(Tensor(data), np.array([0, 2, 6]))
        b = ad.segment_max_pool(Tensor(data), np.array([0, 2, 6]))
        assert np.array_equal(a.data, b.data)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="p")
        state = AdamState(lr=0.1)
        adam_step({"p": p}, {"p": np.zeros(2)}, state)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_matches_hand_computation(self):
        # m1 = (1-b1)g, v1 = (1-b2)g^2; update = -lr * (m1/(1-b1)) / (sqrt(v1/(1-b2)) + eps)
        #                              = -lr * g / (|g| + eps)
        g = 0.37
        lr, eps = 0.01, 1e-8
        p = Tensor(np.array([5.0]), requires_grad=True, name="p")
        adam_step({"p": p}, {"p": np.array([g])}, AdamState(lr=lr, epsilon=eps))
        expected = 5.0 - lr * g / (abs(g) + eps)
        assert abs(p.data[0] - expected) < 1e-15

    def test_quadratic_convergence(self):
        w = Tensor(np.array([0.0]), requires_grad=True, name="w")
        state = AdamState(lr=0.1)
        for _ in range(200):
            grad = 2.0 * (w.data - 3.0)
            adam_step({"w": w}, {"w": grad}, state)
        assert abs(w.data[0] - 3.0) < 0.05

    def test_moments_track_parameter_shapes(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True, name="p")
        state = AdamState()
        adam_step({"p": p}, {"p": np.ones((2, 3))}, state)
        assert state.m["p"].shape == (2, 3)
        assert state.v["p"].shape == (2, 3)
        assert state.step == 1


class TestCheckpointFormat:
    def test_round_trip_bit_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.W": rng.normal(size=(3, 4)),
            "a.b": rng.normal(size=4),
            "z": rng.normal(size=(2, 2, 2)),
        }
        path = tmp_path / "w.f3dn"
        ad.save_tensors(path, tensors)
        loaded = ad.load_tensors(path)
        assert set(loaded) == set(tensors)
        for k, v in tensors.items():
            assert loaded[k].dtype == np.float64
            assert np.array_equal(loaded[k], v.astype(np.float32).astype(np.float64))

    def test_save_load_save_is_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"x": rng.normal(size=(5,)), "y": rng.normal(size=(2, 3))}
        p1, p2 = tmp_path / "a.f3dn", tmp_path / "b.f3dn"
        ad.save_tensors(p1, tensors)
        ad.save_tensors(p2, ad.load_tensors(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_version(self, tmp_path):
        path = tmp_path / "w.f3dn"
        ad.save_tensors(path, {"x": np.zeros(1)})
        blob = path.read_bytes()
        assert blob[:4] == b"F3DN"
        assert struct.unpack("<I", blob[4:8])[0] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.f3dn"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            ad.load_tensors(path)

    def test_truncated_payload_rejected_with_offset(self, tmp_path):
        path = tmp_path / "w.f3dn"
        ad.save_tensors(path, {"x": np.arange(6.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError) as err:
            ad.load_tensors(path)
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "w.f3dn"
        ad.save_tensors(path, {"x": np.arange(6.0)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            ad.load_tensors(path)


class TestGradCheckReport:
    def test_linear_case_passes(self):
        rng = np.random.default_rng(0)
        w = leaf(rng, (3,), "w")
        x = Tensor(rng.normal(size=3))
        rep = grad_check(lambda: ad.dot(w, x), {"w": w})
        assert rep.ok
        assert rep.max_rel_err < 1e-8

    def test_quadratic_case_passes(self):
        rng = np.random.default_rng(1)
        w = leaf(rng, (4,), "w")
        rep = grad_check(lambda: ad.dot(w, w), {"w": w})
        assert rep.ok

    def test_detects_wrong_gradient(self):
        # a graph wired to produce a wrong analytic gradient must be flagged
        x = Tensor(np.array([1.5]), requires_grad=True, name="x")

        def bad_square():
            def bw(g):
                x._accumulate(np.asarray([g * 3.0 * x.data[0]]))  # wrong: true grad is 2x

            return Tensor(np.asarray(x.data[0] ** 2), parents=(x,), backward_fn=bw)

        rep = grad_check(bad_square, {"x": x})
        assert not rep.ok

    def test_summary_mentions_every_block(self):
        rng = np.random.default_rng(2)
        w = leaf(rng, (2,), "alpha")
        b = leaf(rng, (2,), "beta")
        rep = grad_check(lambda: ad.add(ad.dot(w, w), ad.dot(b, b)), {"alpha": w, "beta": b})
        text = rep.summary()
        assert "alpha" in text and "beta" in text
