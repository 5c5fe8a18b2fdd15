from dataclasses import replace

import numpy as np
import pytest

from segdebias.bank import Centroid, CentroidBank
from segdebias.selection import (
    score_foreground,
    select_debiased,
    selected_count,
    selection_rows,
)

from conftest import cosine_distance


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_bank(fg_vectors, bg_vectors, d=None):
    foreground = {}
    for i, (class_id, vec) in enumerate(fg_vectors):
        foreground.setdefault(class_id, []).append(
            Centroid(unit(vec), class_id, f"im_{i:03d}", 0, 1)
        )
    background = tuple(
        Centroid(unit(vec), 0, f"bg_{i:03d}", 0, 1) for i, vec in enumerate(bg_vectors)
    )
    return CentroidBank(
        foreground={k: tuple(v) for k, v in foreground.items()},
        background=background,
        k_fg=2,
        k_bg=2,
    )


def random_bank(rng, d=6, n_fg=8, n_bg=10, classes=(1, 2)):
    fg = [(classes[i % len(classes)], rng.normal(size=d)) for i in range(n_fg)]
    bg = [rng.normal(size=d) for _ in range(n_bg)]
    return make_bank(fg, bg)


def background_distance(vector, bank) -> float:
    """Eq. 1 as selection scores it: the dist of the only class-1 centroid."""
    probe = Centroid(unit(vector), 1, "probe", 0, 1)
    scored = score_foreground(replace(bank, foreground={1: (probe,)}))
    return scored[1][0].dist


class TestBackgroundDistance:
    def test_arithmetic_mean(self):
        # backgrounds at cosine distance 0.2 and 0.4 from the probe
        v = np.zeros(4)
        v[0] = 1.0
        bg1 = [0.6, 0.8, 0, 0]  # sim 0.6 -> dist 0.2
        bg2 = [0.2, np.sqrt(1 - 0.04), 0, 0]  # sim 0.2 -> dist 0.4
        bank = make_bank([(1, v)], [bg1, bg2])
        assert background_distance(v, bank) == pytest.approx(0.3, abs=1e-12)

    def test_identity(self):
        v = unit([1, 2, 3])
        bank = make_bank([(1, v)], [v, v, v])
        assert background_distance(v, bank) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(17)
        bank = random_bank(rng, n_bg=100)
        for scored in score_foreground(bank)[1]:
            naive = sum(
                cosine_distance(scored.centroid.vector, b.vector) for b in bank.background
            ) / len(bank.background)
            assert scored.dist == pytest.approx(naive, abs=1e-12)

    def test_empty_background(self):
        bank = CentroidBank(
            foreground={1: (Centroid(unit([1, 0]), 1, "a", 0, 1),)},
            background=(),
            k_fg=2,
            k_bg=2,
        )
        with pytest.raises(ValueError, match="no background centroids"):
            score_foreground(bank)


class TestSelect:
    def test_ceiling_count(self):
        # 5 candidates at alpha 0.40 -> ceil(2.0) = 2, despite float round-up
        rng = np.random.default_rng(5)
        fg = [(1, rng.normal(size=4)) for _ in range(5)]
        bank = make_bank(fg, [rng.normal(size=4) for _ in range(6)])
        picked = select_debiased(bank, 0.40)
        assert picked.selected_counts[1] == 2

    def test_selected_count_guard(self):
        assert selected_count(5, 0.40) == 2
        assert selected_count(5, 1.0) == 5
        assert selected_count(5, 0.41) == 3
        assert selected_count(1, 0.2) == 1

    def test_singleton_class(self):
        v = unit([0.3, 0.4, 0.5])
        bank = make_bank([(2, v)], [[1, 0, 0], [0, 1, 0]])
        picked = select_debiased(bank, 0.7)
        assert np.allclose(picked.per_class[2], v, atol=1e-12)

    def test_alpha_range(self):
        rng = np.random.default_rng(0)
        bank = random_bank(rng)
        for alpha in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                select_debiased(bank, alpha)

    def test_result_is_unit_norm(self):
        rng = np.random.default_rng(1)
        picked = select_debiased(random_bank(rng), 0.5)
        for vec in picked.per_class.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_empty_class_absent(self):
        rng = np.random.default_rng(2)
        bank = random_bank(rng, classes=(1,))
        picked = select_debiased(bank, 0.5)
        assert set(picked.per_class) == {1}

    def test_class_with_empty_centroid_list_rejected(self):
        rng = np.random.default_rng(6)
        base = random_bank(rng, classes=(1,))
        with pytest.raises(ValueError, match="class 2 has no centroids"):
            CentroidBank(
                foreground={**base.foreground, 2: ()},
                background=base.background,
                k_fg=2,
                k_bg=2,
            )

    def test_ordering_invariant(self):
        rng = np.random.default_rng(3)
        bank = random_bank(rng, n_fg=12, n_bg=20)
        rows = selection_rows(bank, 0.4)
        for class_id in {r["class_id"] for r in rows}:
            sel = [r["dist"] for r in rows if r["class_id"] == class_id and r["selected"]]
            rej = [r["dist"] for r in rows if r["class_id"] == class_id and not r["selected"]]
            if sel and rej:
                assert min(sel) >= max(rej)

    def test_alpha_monotone_selection(self):
        rng = np.random.default_rng(4)
        bank = random_bank(rng, n_fg=14, n_bg=15)
        def chosen(alpha):
            return {
                (r["class_id"], r["image_id"], r["cluster_index"])
                for r in selection_rows(bank, alpha)
                if r["selected"]
            }
        for lo, hi in [(0.1, 0.3), (0.3, 0.6), (0.6, 1.0)]:
            assert chosen(lo) <= chosen(hi)

    def test_tie_break_on_equal_distances(self):
        v = unit([1, 0, 0])
        fg = [(1, v), (1, v), (1, v)]
        bank = make_bank(fg, [[0, 1, 0]])
        scored = score_foreground(bank)[1]
        ids = [s.centroid.image_id for s in scored]
        assert ids == sorted(ids)

    def test_orthogonal_transform_equivariance(self):
        rng = np.random.default_rng(8)
        bank = random_bank(rng, d=5, n_fg=8, n_bg=12)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))

        def rotate(bank):
            fg = {
                c: tuple(
                    Centroid(unit(q @ x.vector), c, x.image_id, x.cluster_index, 1)
                    for x in v
                )
                for c, v in bank.foreground.items()
            }
            bg = tuple(
                Centroid(unit(q @ x.vector), 0, x.image_id, x.cluster_index, 1)
                for x in bank.background
            )
            return CentroidBank(foreground=fg, background=bg, k_fg=2, k_bg=2)

        rotated = rotate(bank)
        base_scores = score_foreground(bank)
        rot_scores = score_foreground(rotated)
        for class_id in base_scores:
            for a, b in zip(base_scores[class_id], rot_scores[class_id]):
                assert a.dist == pytest.approx(b.dist, abs=1e-9)
        base_sel = select_debiased(bank, 0.5)
        rot_sel = select_debiased(rotated, 0.5)
        for class_id in base_sel.per_class:
            assert np.allclose(
                q @ base_sel.per_class[class_id], rot_sel.per_class[class_id], atol=1e-9
            )
