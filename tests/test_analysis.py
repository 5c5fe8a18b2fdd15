from segdebias.analysis import centroid_quality, selection_accuracy


def test_centroid_quality_covers_bank(standard_corpus, standard_bank):
    quality = centroid_quality(
        standard_bank,
        standard_corpus.features(),
        standard_corpus.pseudo_labels(),
        standard_corpus.ground_truth(),
    )
    keys = {
        (class_id, c.image_id, c.cluster_index)
        for class_id, centroids in standard_bank.foreground.items()
        for c in centroids
    }
    assert set(quality) == keys
    for stats in quality.values():
        assert stats.member_count >= 1
        assert 0 <= stats.gt_match_count <= stats.member_count


def test_member_counts_match_bank(standard_corpus, standard_bank):
    quality = centroid_quality(
        standard_bank,
        standard_corpus.features(),
        standard_corpus.pseudo_labels(),
        standard_corpus.ground_truth(),
    )
    for class_id, centroids in standard_bank.foreground.items():
        for c in centroids:
            stats = quality[(class_id, c.image_id, c.cluster_index)]
            assert stats.member_count == c.member_count


def test_selection_accuracy_is_per_class(standard_corpus, standard_bank):
    accuracy = selection_accuracy(
        standard_bank,
        0.4,
        standard_corpus.features(),
        standard_corpus.pseudo_labels(),
        standard_corpus.ground_truth(),
    )
    assert set(accuracy) == set(standard_bank.foreground_classes())
    assert all(0.0 <= a <= 1.0 for a in accuracy.values())
