"""Output checks made apart from the program, and their self-test.

Every check recomputes what it can with its own numpy code (cosine
similarities, nearest-centroid assignment, bincount confusion matrices) or
tests a property the method must have.  None compares against a stored copy
of an earlier output, so a change that truly improves the method still
passes.  The checks decide whether a run is correct; the method's quality
floors (`shortfalls`) are reported beside the result, since whether the
method clears them depends on the corpus.  `self_test` corrupts one output at
a time and requires the check or floor that guards it to reject the
corruption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from segdebias import analysis, bank as bank_mod
from segdebias.bank import Centroid, CentroidBank
from segdebias.core import LabelMap

TOL = 1e-9  # float64 recomputations in another summation order
MIOU_TOL = 1e-12
MIN_ACCURACY = 0.85
MIN_REMOVAL = 0.95
MIN_RETENTION = 0.95


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Outputs:
    """One chain's inputs, oracles and outputs, whichever way it ran."""

    manifest: object
    features: dict
    pseudo: dict
    gt: dict
    bias: dict
    problematic: tuple
    params: object  # PipelineParams
    bank: CentroidBank
    cset: object  # DebiasedCentroidSet
    debiased: dict
    predictions: dict
    reported_miou: float

    def regions(self) -> dict:
        """{(image_id, class_id): (cluster indices, (m, D) centroids, counts)}."""
        groups: dict = {}
        for c in self.bank.background + tuple(
            c for v in self.bank.foreground.values() for c in v
        ):
            groups.setdefault((c.image_id, c.class_id), []).append(c)
        out = {}
        for key, cs in groups.items():
            cs.sort(key=lambda c: c.cluster_index)
            out[key] = (
                [c.cluster_index for c in cs],
                np.stack([c.vector for c in cs]),
                np.array([c.member_count for c in cs]),
            )
        return out


def _unit_columns(fmap, mask=None) -> np.ndarray:
    data = fmap.data.astype(np.float64)
    vectors = data[:, mask].T if mask is not None else data.reshape(data.shape[0], -1).T
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _fail(message: str):
    raise CheckFailed(message)


def check_bank(o: Outputs, regions=None) -> dict:
    """Unit-norm centroids, member counts summing to each region's pixel
    count, and the k-means fixpoint; a region off its fixpoint passes only if
    the program's own k-means hit its iteration cap there (reported)."""
    regions = o.regions() if regions is None else regions
    cap_hits = 0
    seen = set()
    for rec in o.manifest.records:
        label = o.pseudo[rec.image_id].data
        for cls in np.unique(label).tolist():
            key = (rec.image_id, cls)
            if key not in regions:
                _fail(f"bank: no centroid for region {key}")
            seen.add(key)
            _, centroids, counts = regions[key]
            norms = np.linalg.norm(centroids, axis=1)
            if np.abs(norms - 1.0).max() > TOL:
                _fail(f"bank: centroid of {key} has norm {norms.tolist()}")
            mask = label == cls
            if int(counts.sum()) != int(mask.sum()):
                _fail(f"bank: {key} member counts {counts.tolist()} != {int(mask.sum())} pixels")
            vectors = _unit_columns(o.features[rec.image_id], mask)
            assign = np.argmax(vectors @ centroids.T, axis=1)
            m = centroids.shape[0]
            own_counts = np.bincount(assign, minlength=m)
            sums = np.stack([vectors[assign == j].sum(axis=0) for j in range(m)])
            norms = np.linalg.norm(sums, axis=1, keepdims=True)
            fixed = (own_counts == counts).all() and (norms > 0).all() and (
                np.abs(sums / np.where(norms > 0, norms, 1.0) - centroids).max() <= TOL
            )
            if not fixed:
                k = o.params.k_bg if cls == 0 else o.params.k_fg
                seed = bank_mod.derive_seed(o.params.seed, rec.image_id, cls)
                result = bank_mod.kmeans_spherical(vectors, k, seed)
                if len(result.objective_trace) - 1 < bank_mod.MAX_LLOYD_ITERATIONS:
                    _fail(f"bank: region {key} is not at a k-means fixpoint")
                cap_hits += 1
    extra = set(regions) - seen
    if extra:
        _fail(f"bank: centroids for regions absent from the labels: {sorted(extra)[:3]}")
    return {"cap_hits_off_fixpoint": cap_hits}


def check_selection(o: Outputs, regions=None) -> dict:
    """Rescore every foreground centroid against the background bank and
    rebuild the top ceil(M * alpha) mean per class."""
    regions = o.regions() if regions is None else regions
    background = np.concatenate([c for (_, cls), (_, c, _) in regions.items() if cls == 0])
    per_class: dict = {}
    for (image_id, cls), (indices, centroids, _) in regions.items():
        if cls == 0:
            continue
        dist = ((1.0 - np.clip(centroids @ background.T, -1.0, 1.0)) / 2.0).mean(axis=1)
        for j, idx in enumerate(indices):
            per_class.setdefault(cls, []).append((-dist[j], image_id, idx, centroids[j]))
    if set(per_class) != set(o.cset.per_class):
        _fail(f"selection: classes {sorted(o.cset.per_class)} != bank classes {sorted(per_class)}")
    scored = 0
    for cls, rows in per_class.items():
        rows.sort(key=lambda r: r[:3])
        take = max(1, min(len(rows), math.ceil(len(rows) * o.params.alpha - 1e-9)))
        mean = np.mean([r[3] for r in rows[:take]], axis=0)
        mean /= np.linalg.norm(mean)
        if o.cset.selected_counts[cls] != take:
            _fail(f"selection: class {cls} averaged {o.cset.selected_counts[cls]} != {take}")
        if np.abs(np.asarray(o.cset.per_class[cls]) - mean).max() > TOL:
            _fail(f"selection: class {cls} centroid differs from the top-alpha mean")
        scored += len(rows)
    return {"centroids_scored": scored}


def check_debias(o: Outputs) -> dict:
    """Recompute the keep-mask from cosine similarities; -1 only on pixels
    that were foreground, everything else unchanged."""
    rewritten = 0
    for rec in o.manifest.records:
        pseudo = o.pseudo[rec.image_id].data
        got = o.debiased[rec.image_id].data
        vectors = _unit_columns(o.features[rec.image_id])
        classes = [c for c in sorted(rec.truth_classes) if c in o.cset.per_class]
        if not classes:
            _fail(f"debias: {rec.image_id} has no usable centroid")
        best = np.full(vectors.shape[0], -1.0)
        for cls in classes:
            vec = np.asarray(o.cset.per_class[cls])
            np.maximum(best, np.clip(vectors @ (vec / np.linalg.norm(vec)), -1.0, 1.0), out=best)
        best = np.maximum(best, 0.0).reshape(pseudo.shape)
        # first, so that it holds even within TOL of the threshold, where the
        # keep-mask comparison below looks away
        if ((got == -1) & (pseudo <= 0)).any():
            _fail(f"debias: {rec.image_id} has -1 on a pixel that was not foreground")
        expected = np.where((pseudo > 0) & (best < o.params.threshold), -1, pseudo)
        wrong = (got != expected) & (np.abs(best - o.params.threshold) > TOL)
        if wrong.any():
            _fail(f"debias: {rec.image_id} differs from the recomputed keep-mask at {int(wrong.sum())} pixels")
        rewritten += int((got == -1).sum())
    return {"pixels_rewritten": rewritten}


def quality_figures(o: Outputs) -> dict:
    """Selection accuracy on the problematic classes, impostor removal and
    target retention, against the generator's oracles."""
    acc = analysis.selection_accuracy(o.bank, o.params.alpha, o.features, o.pseudo, o.gt)
    accuracy_min = min(acc[c] for c in o.problematic if c in acc)
    removed = bias_total = kept = target_total = 0
    for rec in o.manifest.records:
        got = o.debiased[rec.image_id].data
        bias = o.bias[rec.image_id]
        gt = o.gt[rec.image_id].data
        target = gt > 0
        removed += int(((got == -1) & bias).sum())
        bias_total += int(bias.sum())
        kept += int(((got == gt) & target).sum())
        target_total += int(target.sum())
    return {"accuracy_min": accuracy_min, "removal": removed / bias_total,
            "retention": kept / target_total}


FLOORS = {
    "accuracy_min": (MIN_ACCURACY, "selection accuracy"),
    "removal": (MIN_REMOVAL, "impostor removal"),
    "retention": (MIN_RETENTION, "target retention"),
}


def check_floor(figures: dict, key: str) -> None:
    """One quality figure against the method's floor for it."""
    floor, what = FLOORS[key]
    if figures[key] < floor:
        _fail(f"quality: {what} {figures[key]:.4f} < {floor}")


def check_gain(figures: dict) -> None:
    """The final mIoU above the raw pseudo labels' mIoU."""
    if not figures["miou"] > figures["raw_miou"]:
        _fail(f"quality: mIoU {figures['miou']:.6f} does not exceed the raw pseudo labels' "
              f"{figures['raw_miou']:.6f}")


def shortfalls(figures: dict) -> list[str]:
    """The floors the method falls short of on this corpus.

    Whether the method clears them depends on the corpus the seed draws, so a
    shortfall is reported beside the result and does not make it incorrect;
    `self_test` still requires each floor to reject a corrupted output.
    """
    missed = []
    for check in [lambda k=k: check_floor(figures, k) for k in FLOORS] + [lambda: check_gain(figures)]:
        try:
            check()
        except CheckFailed as exc:
            missed.append(str(exc))
    return missed


def miou(gt: dict, pred: dict, num_classes: int) -> float:
    """mIoU from a bincount confusion matrix; classes absent from both the
    truth and the prediction are left out of the mean."""
    k = num_classes + 1
    counts = np.zeros(k * k, dtype=np.int64)
    for image_id, g in gt.items():
        g = g.data.astype(np.int64)
        p = pred[image_id].data.astype(np.int64)
        valid = g != -1
        counts += np.bincount(g[valid] * k + p[valid], minlength=k * k)
    counts = counts.reshape(k, k)
    tp = np.diag(counts).astype(np.float64)
    union = counts.sum(axis=0) + counts.sum(axis=1) - tp
    return float(np.mean(tp[union > 0] / union[union > 0]))


def check_predictions(o: Outputs) -> dict:
    """Every image predicted, only {0} and its truth classes used, and the
    reported mIoU equal to our own; the raw pseudo labels' mIoU beside it."""
    ids = [r.image_id for r in o.manifest.records]
    if sorted(o.predictions) != sorted(ids):
        _fail(f"predictions: {len(o.predictions)} images predicted, {len(ids)} in the manifest")
    for rec in o.manifest.records:
        allowed = np.array([0] + sorted(rec.truth_classes))
        if not np.isin(o.predictions[rec.image_id].data, allowed).all():
            _fail(f"predictions: {rec.image_id} uses a class outside {allowed.tolist()}")
    num_classes = o.manifest.num_classes
    own = miou(o.gt, o.predictions, num_classes)
    if abs(own - o.reported_miou) > MIOU_TOL:
        _fail(f"predictions: reported mIoU {o.reported_miou!r} != recomputed {own!r}")
    return {"miou": own, "raw_miou": miou(o.gt, o.pseudo, num_classes)}


def check_all(o: Outputs, values: dict) -> None:
    """Run every check in order, adding its figures to `values` as it goes,
    so that the figures measured before a failing check are kept.  The
    quality figures are measured here; `shortfalls` holds them to the floors."""
    regions = o.regions()
    values.update(check_bank(o, regions))
    values.update(check_selection(o, regions))
    values.update(check_debias(o))
    values.update(quality_figures(o))
    values.update(check_predictions(o))


# -- self-test -------------------------------------------------------------------


def _label(data, like: LabelMap) -> LabelMap:
    return LabelMap(data, like.num_classes)


def _mutants(o: Outputs):
    """(description, the failure the guarding check must report, a call of
    that check on the corrupted outputs) triples."""
    regions = o.regions()
    first = o.manifest.records[0]
    fg_key = next(k for k in regions if k[0] == first.image_id and k[1] > 0 and len(regions[k][0]) > 1)
    rng = np.random.default_rng(0)

    # the bank mutants are checked on the first image alone, which is where they sit
    sub = replace(o, manifest=replace(o.manifest, records=(first,)))

    def with_region(centroids=None, counts=None):
        out = {k: v for k, v in regions.items() if k[0] == first.image_id}
        idx, c, n = out[fg_key]
        out[fg_key] = (idx, c if centroids is None else centroids, n if counts is None else counts)
        return out

    _, cents, counts = regions[fg_key]
    scaled = cents.copy()
    scaled[0] *= 1.0 + 1e-6
    yield "centroid off the unit sphere", "has norm", (
        lambda: check_bank(sub, with_region(centroids=scaled))
    )
    bumped = counts.copy()
    bumped[0] += 1
    yield "member count off by one", "member counts", (
        lambda: check_bank(sub, with_region(counts=bumped))
    )
    nudged = cents.copy()
    nudged[0] += 1e-3 * rng.standard_normal(nudged.shape[1])
    nudged[0] /= np.linalg.norm(nudged[0])
    yield "centroid nudged off its fixpoint", "not at a k-means fixpoint", (
        lambda: check_bank(sub, with_region(centroids=nudged))
    )

    cls = o.cset.classes()[0]
    vec = np.asarray(o.cset.per_class[cls]) + 1e-4 * rng.standard_normal(len(o.cset.per_class[cls]))
    cset = replace(o.cset, per_class={**o.cset.per_class, cls: vec / np.linalg.norm(vec)})
    yield "debiased centroid moved", "top-alpha mean", (
        lambda: check_selection(replace(o, cset=cset), regions)
    )

    impostor = next(r for r in o.manifest.records if (o.bias[r.image_id] & (o.debiased[r.image_id].data == -1)).any())
    iid = impostor.image_id
    data = o.debiased[iid].data.copy()
    y, x = np.argwhere(o.bias[iid] & (data == -1))[0]
    data[y, x] = o.pseudo[iid].data[y, x]
    restored_one = {**o.debiased, iid: _label(data, o.debiased[iid])}
    yield "one impostor pixel restored", "recomputed keep-mask", (
        lambda: check_debias(replace(o, debiased=restored_one))
    )
    data = o.debiased[iid].data.copy()
    y, x = np.argwhere(o.pseudo[iid].data == 0)[0]
    data[y, x] = -1
    background_hit = {**o.debiased, iid: _label(data, o.debiased[iid])}
    yield "-1 on a background pixel", "not foreground", (
        lambda: check_debias(replace(o, debiased=background_hit))
    )

    flipped_bank = CentroidBank(
        foreground=o.bank.foreground,
        background=tuple(
            Centroid(-c.vector, c.class_id, c.image_id, c.cluster_index, c.member_count)
            for c in o.bank.background
        ),
        k_fg=o.bank.k_fg,
        k_bg=o.bank.k_bg,
    )
    yield "background bank pointing the wrong way", "selection accuracy", (
        lambda: check_floor(quality_figures(replace(o, bank=flipped_bank)), "accuracy_min")
    )
    restored_all = {
        i: _label(np.where(o.bias[i], o.pseudo[i].data, d.data), d) for i, d in o.debiased.items()
    }
    yield "every impostor pixel restored", "impostor removal", (
        lambda: check_floor(quality_figures(replace(o, debiased=restored_all)), "removal")
    )
    dropped_targets = {
        i: _label(np.where(o.gt[i].data > 0, -1, d.data), d) for i, d in o.debiased.items()
    }
    yield "every target pixel dropped", "target retention", (
        lambda: check_floor(quality_figures(replace(o, debiased=dropped_targets)), "retention")
    )

    pred = o.predictions[first.image_id].data.copy()
    truth = sorted(first.truth_classes)
    pred[0, 0] = truth[0] if pred[0, 0] == 0 else 0
    flipped = {**o.predictions, first.image_id: _label(pred, o.predictions[first.image_id])}
    yield "one prediction pixel flipped", "reported mIoU", (
        lambda: check_predictions(replace(o, predictions=flipped))
    )
    outside = [c for c in range(1, o.manifest.num_classes + 1) if c not in first.truth_classes]
    if outside:
        pred = o.predictions[first.image_id].data.copy()
        pred[0, 0] = outside[0]
        stray = {**o.predictions, first.image_id: _label(pred, o.predictions[first.image_id])}
        own = miou(o.gt, stray, o.manifest.num_classes)
        yield "a class outside the truth set", "uses a class outside", lambda: check_predictions(
            replace(o, predictions=stray, reported_miou=own)
        )
    raw = miou(o.gt, o.pseudo, o.manifest.num_classes)
    yield "raw pseudo labels as predictions", "does not exceed", lambda: check_gain(
        check_predictions(replace(o, predictions=dict(o.pseudo), reported_miou=raw))
    )
    partial = {k: v for k, v in o.predictions.items() if k != first.image_id}
    yield "one prediction missing", "images predicted", (
        lambda: check_predictions(replace(o, predictions=partial))
    )


def self_test(o: Outputs) -> int:
    """Run every mutant; return how many were caught, raise if one was not
    caught by the guard meant for it."""
    caught = 0
    for description, expected, run in _mutants(o):
        try:
            run()
        except CheckFailed as exc:
            if expected not in str(exc):
                raise CheckFailed(
                    f"self-test: {description} was rejected for another reason ({exc})"
                ) from None
            caught += 1
            continue
        raise CheckFailed(f"self-test: the check passed a corrupted output ({description})")
    return caught
