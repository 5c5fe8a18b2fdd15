import pytest

from segdebias import formats
from segdebias.analysis import selection_accuracy
from segdebias.core import LabelMap
from segdebias.selection import score_foreground, selected_count

from conftest import centroid_quality


def _quality(corpus, bank):
    return centroid_quality(
        bank,
        formats.load_features(corpus.manifest),
        formats.load_pseudo_labels(corpus.manifest),
        formats.load_ground_truth(corpus.manifest),
    )


def test_centroid_quality_covers_bank(standard_corpus, standard_bank):
    quality = _quality(standard_corpus, standard_bank)
    keys = {
        (class_id, c.image_id, c.cluster_index)
        for class_id, centroids in standard_bank.foreground.items()
        for c in centroids
    }
    assert set(quality) == keys
    for members, matches in quality.values():
        assert members >= 1
        assert 0 <= matches <= members


def test_member_counts_match_bank(standard_corpus, standard_bank):
    quality = _quality(standard_corpus, standard_bank)
    for class_id, centroids in standard_bank.foreground.items():
        for c in centroids:
            assert quality[(class_id, c.image_id, c.cluster_index)][0] == c.member_count


def test_selection_accuracy_is_per_class(standard_corpus, standard_bank):
    accuracy = selection_accuracy(
        standard_bank,
        0.4,
        formats.load_features(standard_corpus.manifest),
        formats.load_pseudo_labels(standard_corpus.manifest),
        formats.load_ground_truth(standard_corpus.manifest),
    )
    assert set(accuracy) == set(standard_bank.foreground_classes())
    assert all(0.0 <= a <= 1.0 for a in accuracy.values())


def test_selection_accuracy_holds_ground_truth_to_the_contract(standard_corpus, standard_bank):
    short = {
        image_id: LabelMap(gt.data[:, :-1], gt.num_classes)
        for image_id, gt in formats.load_ground_truth(standard_corpus.manifest).items()
    }
    with pytest.raises(ValueError, match=r"img_0000: ground truth shape \(24, 39\) != label shape \(24, 40\)"):
        selection_accuracy(
            standard_bank,
            0.4,
            formats.load_features(standard_corpus.manifest),
            formats.load_pseudo_labels(standard_corpus.manifest),
            short,
        )


@pytest.mark.parametrize("alpha", [0.2, 0.4, 1.0])
def test_selection_accuracy_matches_all_centroid_oracle(standard_corpus, standard_bank, alpha):
    quality = _quality(standard_corpus, standard_bank)
    expected = {}
    for class_id, scored in score_foreground(standard_bank).items():
        take = selected_count(len(scored), alpha)
        hits = 0
        for s in scored[:take]:
            members, matches = quality[(class_id, s.centroid.image_id, s.centroid.cluster_index)]
            hits += matches * 2 > members
        expected[class_id] = hits / take
    accuracy = selection_accuracy(
        standard_bank,
        alpha,
        formats.load_features(standard_corpus.manifest),
        formats.load_pseudo_labels(standard_corpus.manifest),
        formats.load_ground_truth(standard_corpus.manifest),
    )
    assert accuracy == expected
