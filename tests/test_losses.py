import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from crossview.geometry import (AerialMeta, BevGridSpec, CameraIntrinsics,
                                HeightLayerSpec, Pose3DoF, SceneSpec,
                                rotation_matrix)
from crossview.losses import (LossConfig, _sample_pairs, height_loss,
                              matching_loss, total_loss, vce_loss)
from crossview.pipeline import ground_similarity
from crossview.refiner import SimilarityMatrix
from crossview.synthetic import make_scene_bundle

from conftest import identity_pose


def tiny_specs(n=4, extent=6.0):
    return SceneSpec(
        grid=BevGridSpec(n_points_per_side=n, extent_m=extent),
        layers=HeightLayerSpec(),
        intrinsics=CameraIntrinsics(256, 128),
        aerial=AerialMeta(gsd_m_per_px=0.12, image_size_px=512),
    )


def metric_pose(tx, ty, yaw):
    return Pose3DoF(np.array([tx, ty]), yaw)


class TestVceLoss:
    CFG = LossConfig(rng_seed=11)

    def test_equal_poses_give_zero(self):
        pose = metric_pose(3.0, -2.0, 0.7)
        assert vce_loss(pose, pose, self.CFG) == 0.0

    def test_pure_translation_offset(self):
        # rotations cancel, every sample moves by exactly ||(3, 4)||
        for yaw in (0.0, 1.1, -2.4):
            pred = metric_pose(3.0, 4.0, yaw)
            gt = metric_pose(0.0, 0.0, yaw)
            assert abs(vce_loss(pred, gt, self.CFG) - 5.0) < 1e-12

    def test_pure_rotation_closed_form(self):
        theta = 0.6
        pred = metric_pose(0.0, 0.0, theta)
        gt = metric_pose(0.0, 0.0, 0.0)
        loss = vce_loss(pred, gt, self.CFG)

        rng = np.random.default_rng(self.CFG.rng_seed)
        half = self.CFG.l_v_m / 2
        pts = rng.uniform(-half, half, size=(self.CFG.n_v, 2))
        direct = np.mean([np.linalg.norm(rotation_matrix(theta) @ p - p) for p in pts])
        chord = 2.0 * math.sin(theta / 2.0) * np.mean(np.linalg.norm(pts, axis=1))
        assert loss == pytest.approx(direct, abs=1e-12)
        assert loss == pytest.approx(chord, abs=1e-9)

    def test_non_negative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pred = metric_pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            gt = metric_pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            loss = vce_loss(pred, gt, self.CFG)
            assert loss >= 0.0
            if loss == 0.0:
                assert np.allclose(pred.t_px, gt.t_px) and pred.yaw_rad == gt.yaw_rad

    def test_bit_reproducible(self):
        pred = metric_pose(1.0, 2.0, 0.3)
        gt = metric_pose(0.0, 0.0, 0.0)
        assert vce_loss(pred, gt, self.CFG) == vce_loss(pred, gt, self.CFG)


def matching_loss_oracle(s, specs, pose, pairs_fwd, pairs_rev):
    """Two-loop cross-entropy over explicit pair lists."""
    terms_fwd = []
    for src, tgt in pairs_fwd:
        row = s[src]
        terms_fwd.append(math.log(np.exp(row).sum()) - row[tgt])
    terms_rev = []
    for src, tgt in pairs_rev:
        col = s[:, src]
        terms_rev.append(math.log(np.exp(col).sum()) - col[tgt])
    return 0.5 * (np.mean(terms_fwd) + np.mean(terms_rev))


def full_logsumexp(a, axis):
    """Log-sum-exp along ``axis`` that leaves ``a`` as it is."""
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def matching_loss_full_matrix_oracle(s, gt, specs, cfg):
    """The loss with the log-sum-exp of every row and column, indexed afterwards."""
    rng = np.random.default_rng(cfg.rng_seed)
    g_src, g_tgt = _sample_pairs(specs, gt, cfg.n_s, rng, reverse=False)
    loss_g2s = float(np.mean(full_logsumexp(s, axis=1)[g_src] - s[g_src, g_tgt]))
    a_src, a_tgt = _sample_pairs(specs, gt, cfg.n_s, rng, reverse=True)
    loss_s2g = float(np.mean(full_logsumexp(s, axis=0)[a_src] - s[a_tgt, a_src]))
    return 0.5 * (loss_g2s + loss_s2g)


class TestMatchingLossExactness:
    """Reducing only the sampled rows and columns gives the full-matrix floats."""

    # on these scenes summing the sampled columns pairwise (the layout of
    # s[:, idx]) instead of row by row moves the loss by one ulp
    @pytest.mark.parametrize("seed", [7, 24])
    def test_paper_size_noisy_scene(self, default_specs, seed):
        bundle = make_scene_bundle(default_specs, seed, noise_sigma=0.3)
        inputs, gt = bundle.inputs, bundle.scene.gt_pose
        _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                   default_specs)
        cfg = LossConfig(rng_seed=seed)
        assert matching_loss(sim, gt, default_specs, cfg) \
            == matching_loss_full_matrix_oracle(sim.s, gt, default_specs, cfg)

    # at n_s = 64 on these scenes, pairing the sampled columns' log-sum-exps with the
    # targets in another order moves the loss by an ulp; 5000 samples exceed the 1681
    # cells, so every valid pair is used
    @pytest.mark.parametrize("n_s", [64, 5000])
    @pytest.mark.parametrize("snapped, seed", [(True, 5), (False, 6)],
                             ids=["snapped", "continuous"])
    def test_paper_size_sample_counts(self, default_specs, snapped, seed, n_s):
        bundle = make_scene_bundle(default_specs, seed, noise_sigma=0.3, snapped=snapped)
        inputs, gt = bundle.inputs, bundle.scene.gt_pose
        _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                   default_specs)
        cfg = LossConfig(n_s=n_s, rng_seed=seed)
        assert matching_loss(sim, gt, default_specs, cfg) \
            == matching_loss_full_matrix_oracle(sim.s, gt, default_specs, cfg)

    def test_fortran_ordered_matrix_gives_the_same_loss(self, default_specs):
        bundle = make_scene_bundle(default_specs, 24, noise_sigma=0.3)
        inputs, gt = bundle.inputs, bundle.scene.gt_pose
        _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                   default_specs)
        fortran = SimilarityMatrix(np.asfortranarray(sim.s))
        assert fortran.s.flags.c_contiguous
        cfg = LossConfig(rng_seed=24)
        assert matching_loss(fortran, gt, default_specs, cfg) \
            == matching_loss(sim, gt, default_specs, cfg)

    def test_fewer_valid_pairs_than_samples(self):
        # a one-cell shift and a small turn leave 13 and 12 valid pairs for n_s = 16
        specs = tiny_specs()
        spacing_px = specs.grid.spacing_m / specs.aerial.gsd_m_per_px
        pose = Pose3DoF(specs.grid_center_px + [spacing_px, 0.0], 0.3)
        s = np.random.default_rng(17).normal(0, 3, (16, 16))
        cfg = LossConfig(n_s=16, rng_seed=4)
        assert matching_loss(SimilarityMatrix(s), pose, specs, cfg) \
            == matching_loss_full_matrix_oracle(s, pose, specs, cfg)


class TestMatchingLossInPlace:
    """The log-sum-exp overwrites the gathered rows and columns, never the matrix."""

    @staticmethod
    def paper_size_input(specs, seed=5, sigma=0.2):
        bundle = make_scene_bundle(specs, seed, noise_sigma=sigma)
        inputs = bundle.inputs
        _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat, specs)
        return sim, bundle.scene.gt_pose

    def test_leaves_the_matrix_unchanged(self, default_specs):
        sim, gt = self.paper_size_input(default_specs)
        before = sim.s.copy()
        matching_loss(sim, gt, default_specs, LossConfig(rng_seed=5))
        assert sim.s.tobytes() == before.tobytes()

    def test_leaves_a_shared_caller_matrix_unchanged(self):
        # every row and column is sampled, so a log-sum-exp on s itself would show
        specs = tiny_specs()
        s = np.random.default_rng(21).normal(0, 3, (16, 16))
        sim = SimilarityMatrix(s)
        assert np.shares_memory(sim.s, s)
        before = s.copy()
        loss = matching_loss(sim, identity_pose(specs), specs, LossConfig(n_s=16, rng_seed=2))
        assert s.tobytes() == before.tobytes()
        assert loss == matching_loss_full_matrix_oracle(s, identity_pose(specs), specs,
                                                        LossConfig(n_s=16, rng_seed=2))

    def test_paper_size_peak_memory(self, default_specs):
        # the 1024 gathered rows (then columns) of 1681 are 13.8 MB, the one full-size
        # array; an out-of-place subtract and exp made three of them, a 41.4 MB peak
        sim, gt = self.paper_size_input(default_specs)
        cfg = LossConfig(n_s=1024, rng_seed=5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            matching_loss(sim, gt, default_specs, cfg)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 20.0


class TestMatchingLoss:
    def test_perfect_logits_give_near_zero(self):
        specs = tiny_specs()
        n2 = 16
        s = SimilarityMatrix(np.eye(n2) * 100.0)
        cfg = LossConfig(n_s=n2, rng_seed=0)
        loss = matching_loss(s, identity_pose(specs), specs, cfg)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_similarity_is_log_n_squared(self):
        specs = tiny_specs()
        s = SimilarityMatrix(np.zeros((16, 16)))
        cfg = LossConfig(n_s=16, rng_seed=0)
        loss = matching_loss(s, identity_pose(specs), specs, cfg)
        assert loss == pytest.approx(math.log(16.0), abs=1e-9)

    def test_matches_two_loop_oracle_identity_pose(self):
        specs = tiny_specs()
        rng = np.random.default_rng(13)
        s = rng.normal(0, 2, (16, 16))
        cfg = LossConfig(n_s=16, rng_seed=0)
        loss = matching_loss(SimilarityMatrix(s), identity_pose(specs), specs, cfg)
        pairs = [(i, i) for i in range(16)]
        assert loss == pytest.approx(
            matching_loss_oracle(s, specs, identity_pose(specs), pairs, pairs), abs=1e-6)

    def test_matches_two_loop_oracle_shifted_pose(self):
        # one-cell shift along +x: ground (ix, iy) -> aerial (ix + 1, iy)
        specs = tiny_specs()
        n = 4
        spacing_px = specs.grid.spacing_m / specs.aerial.gsd_m_per_px
        pose = Pose3DoF(specs.grid_center_px + [spacing_px, 0.0], 0.0)
        rng = np.random.default_rng(14)
        s = rng.normal(0, 2, (16, 16))
        cfg = LossConfig(n_s=16, rng_seed=0)
        loss = matching_loss(SimilarityMatrix(s), pose, specs, cfg)
        fwd = [(ix * n + iy, (ix + 1) * n + iy)
               for ix in range(n - 1) for iy in range(n)]
        rev = [(ix * n + iy, (ix - 1) * n + iy)
               for ix in range(1, n) for iy in range(n)]
        assert loss == pytest.approx(
            matching_loss_oracle(s, specs, pose, fwd, rev), abs=1e-6)

    def test_permutation_consistency_under_quarter_turn(self):
        # relabeling aerial patches by a quarter turn, together with the
        # correspondingly resampled similarity, leaves the loss unchanged
        specs = tiny_specs(n=5)
        n = 5
        rng = np.random.default_rng(15)
        f_grd = rng.normal(size=(n * n, 8))
        f_sat = rng.normal(size=(n, n, 8))

        s1 = f_grd @ f_sat.reshape(n * n, 8).T
        c = (n - 1) // 2
        rot = np.empty((n, n, 8))
        for ix in range(n):
            for iy in range(n):
                vx, vy = ix - c, iy - c
                rot[c - vy, c + vx] = f_sat[ix, iy]   # +90 deg turn of the field
        s2 = f_grd @ rot.reshape(n * n, 8).T

        cfg = LossConfig(n_s=n * n, rng_seed=3)
        pose1 = identity_pose(specs)
        pose2 = Pose3DoF(specs.grid_center_px, math.pi / 2)
        l1 = matching_loss(SimilarityMatrix(s1), pose1, specs, cfg)
        l2 = matching_loss(SimilarityMatrix(s2), pose2, specs, cfg)
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_disjoint_grids_rejected(self):
        specs = tiny_specs()
        far = Pose3DoF(specs.grid_center_px + [4000.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="no valid"):
            matching_loss(SimilarityMatrix(np.zeros((16, 16))), far, specs,
                          LossConfig(rng_seed=0))

    def test_bit_reproducible(self):
        specs = tiny_specs()
        rng = np.random.default_rng(16)
        s = SimilarityMatrix(rng.normal(size=(16, 16)))
        cfg = LossConfig(n_s=8, rng_seed=5)
        a = matching_loss(s, identity_pose(specs), specs, cfg)
        b = matching_loss(s, identity_pose(specs), specs, cfg)
        assert a == b


class TestHeightLoss:
    def test_identical_maps_identity_pose(self):
        specs = tiny_specs()
        rng = np.random.default_rng(17)
        surf = rng.integers(0, 11, (4, 4))
        cfg = LossConfig(n_s=16, rng_seed=0)
        assert height_loss(surf, surf, identity_pose(specs), specs, cfg) == 0.0

    def test_constant_offset_closed_form(self):
        specs = tiny_specs()
        a = np.full((4, 4), 4)
        b = np.full((4, 4), 5)
        cfg = LossConfig(n_s=16, rng_seed=0, k_norm=100.0)
        loss = height_loss(a, b, identity_pose(specs), specs, cfg)
        assert loss == 1.0 / 100.0

    @pytest.mark.parametrize("offset", [2, 3])
    def test_larger_offsets_scale_exactly(self, offset):
        specs = tiny_specs()
        a = np.full((4, 4), 2)
        b = np.full((4, 4), 2 + offset)
        cfg = LossConfig(n_s=16, rng_seed=0)
        assert height_loss(a, b, identity_pose(specs), specs, cfg) == offset / 100.0

    def test_matches_direct_loop_oracle(self):
        specs = tiny_specs()
        rng = np.random.default_rng(18)
        a = rng.integers(0, 11, (4, 4))
        b = rng.integers(0, 11, (4, 4))
        cfg = LossConfig(n_s=16, rng_seed=0)
        loss = height_loss(a, b, identity_pose(specs), specs, cfg)
        direct = np.mean([abs(float(a[i, j]) - float(b[i, j]))
                          for i in range(4) for j in range(4)]) / cfg.k_norm
        assert loss == pytest.approx(direct, abs=1e-9)

    def test_meter_units_scale_by_layer_spacing(self):
        # a gap in meters is the layer-index gap under k_norm / spacing_m
        specs = tiny_specs()
        a = np.full((4, 4), 4)
        b = np.full((4, 4), 5)
        cfg_idx = LossConfig(n_s=16, rng_seed=0)
        cfg_m = LossConfig(n_s=16, rng_seed=0, k_norm=100.0 / specs.layers.spacing_m)
        li = height_loss(a, b, identity_pose(specs), specs, cfg_idx)
        lm = height_loss(a, b, identity_pose(specs), specs, cfg_m)
        assert lm == pytest.approx(li * specs.layers.spacing_m, abs=1e-12)


class TestTotalLoss:
    def test_unit_parts(self):
        assert total_loss(1.0, 1.0, 1.0, LossConfig()) == 3.0

    def test_weighted_parts(self):
        cfg = LossConfig(beta1=0.5, beta2=1.0)
        assert total_loss(0.5, 2.0, 0.0, cfg) == 1.5

    def test_matches_recomputation(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            v, m, h = rng.uniform(0, 3, 3)
            cfg = LossConfig(beta1=rng.uniform(0.1, 2), beta2=rng.uniform(0.1, 2))
            assert total_loss(v, m, h, cfg) == v + cfg.beta1 * m + cfg.beta2 * h

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            total_loss(math.nan, 0.0, 0.0, LossConfig())


class TestSmoothness:
    def central(self, f, x, h):
        return (f(x + h) - f(x - h)) / (2 * h)

    def test_vce_translation_slope_is_stable(self):
        cfg = LossConfig(rng_seed=21)
        gt = metric_pose(0.0, 0.0, 0.0)

        def f(tx):
            return vce_loss(metric_pose(tx, 2.0, 0.4), gt, cfg)

        s1 = self.central(f, 1.37, 1e-4)
        s2 = self.central(f, 1.37, 5e-5)
        assert math.isfinite(s1) and math.isfinite(s2)
        assert abs(s1 - s2) <= 1e-4 * max(abs(s1), abs(s2))

    def test_matching_entry_slope_is_stable(self):
        specs = tiny_specs()
        rng = np.random.default_rng(22)
        base = rng.normal(0, 1, (16, 16))
        cfg = LossConfig(n_s=16, rng_seed=0)

        def f(delta):
            s = base.copy()
            s[3, 3] += delta
            return matching_loss(SimilarityMatrix(s), identity_pose(specs),
                                 specs, cfg)

        s1 = self.central(f, 0.0, 1e-4)
        s2 = self.central(f, 0.0, 5e-5)
        assert math.isfinite(s1) and math.isfinite(s2)
        assert abs(s1 - s2) <= 1e-4 * max(abs(s1), abs(s2))


class TestLossConfig:
    def test_positivity_validated(self):
        with pytest.raises(ValueError):
            LossConfig(beta1=0.0)
        with pytest.raises(ValueError):
            LossConfig(n_s=0)
        for field in ("beta1", "beta2", "l_v_m", "k_norm"):
            for value in (math.nan, math.inf, -math.inf, -1.0):
                with pytest.raises(ValueError, match="finite and positive"):
                    LossConfig(**{field: value})

    def test_negative_rng_seed_rejected(self):
        with pytest.raises(ValueError, match="^rng_seed must be non-negative, got -1$"):
            LossConfig(rng_seed=-1)
        with pytest.raises(ValueError, match="^rng_seed must be non-negative, got -1$"):
            LossConfig.from_json_dict({"rng_seed": -1})

    # at construction, not in scene_loss_report after the ground similarity has run
    @pytest.mark.parametrize("field, value", [
        ("n_v", 10.0), ("n_v", "10"), ("n_s", True), ("rng_seed", 1.5), ("rng_seed", False),
    ])
    def test_integer_field_of_another_kind_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {value!r}$"):
            LossConfig(**{field: value})

    def test_json_round_trip(self):
        cfg = LossConfig(beta1=0.5, beta2=2.0, n_v=7, l_v_m=3.0, n_s=12,
                         k_norm=50.0, rng_seed=9)
        assert LossConfig.from_json_dict(dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("field, value", [
        ("l_v_m", "5"), ("beta2", False), ("k_norm", None),
        ("n_v", 2.7), ("n_v", 2.0), ("n_v", True), ("rng_seed", True), ("n_s", "16"),
        ("beta1", "2"), ("beta1", True), ("beta1", None), ("k_norm", [1.0]),
    ])
    def test_json_value_of_wrong_kind_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected "):
            LossConfig.from_json_dict({field: value})

    def test_json_takes_int_for_float_and_defaults_for_missing_keys(self):
        cfg = LossConfig.from_json_dict({"beta1": 2, "n_v": 7})
        assert cfg == LossConfig(beta1=2.0, n_v=7)
        assert type(cfg.beta1) is float

    def test_json_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="^unknown loss config key\\(s\\): 'beta_1', 'x'$"):
            LossConfig.from_json_dict({"beta_1": 5.0, "x": 1, "n_v": 7})
        # heights have one unit, the layer index: no key switches them to meters
        with pytest.raises(ValueError,
                           match="^unknown loss config key\\(s\\): 'height_in_meters'$"):
            LossConfig.from_json_dict({"height_in_meters": True})
