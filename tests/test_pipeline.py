from dataclasses import fields, replace

import pytest

from segdebias.pipeline import PipelineParams
from segdebias.trainloop import TrainConfig


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", 1.5),
        ("alpha", 0.0),
        ("threshold", -0.1),
        ("threshold", 1.5),
        ("k_bg", 1.5),
        ("k_fg", 0),
        ("epochs", -1),
        ("epochs", 2.5),
        ("learning_rate", 0.0),
        ("ema_momentum", 1.0),
        ("seed", -1),
        ("seed", 1.5),
    ],
)
def test_out_of_range_value_rejected_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineParams(**{field: value})
    with pytest.raises(ValueError, match=field):
        replace(PipelineParams(), **{field: value})


def test_whole_numbers_stored_as_int():
    params = PipelineParams(k_fg=3.0, k_bg=1.0, epochs=2.0, seed=5.0)
    assert (params.k_fg, params.k_bg, params.epochs, params.seed) == (3, 1, 2, 5)
    assert all(type(v) is int for v in (params.k_fg, params.k_bg, params.epochs, params.seed))


def test_train_config_carries_the_training_fields():
    params = PipelineParams(epochs=3, learning_rate=0.01, seed=4, complement=False)
    config = params.train_config()
    assert type(config) is TrainConfig
    assert all(getattr(config, f.name) == getattr(params, f.name) for f in fields(TrainConfig))
