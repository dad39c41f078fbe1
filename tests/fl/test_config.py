"""Training and DAG configuration."""

import numpy as np
import pytest

from repro.fl.config import DagConfig, TABLE1_CONFIGS, TrainingConfig, table1_config
from repro.service import GatewayConfig


def test_table1_values_match_paper():
    fmnist = TABLE1_CONFIGS["fmnist-clustered"]
    assert (fmnist.local_epochs, fmnist.local_batches, fmnist.batch_size) == (1, 10, 10)
    assert fmnist.learning_rate == 0.05

    poets = TABLE1_CONFIGS["poets"]
    assert (poets.local_epochs, poets.local_batches) == (1, 35)
    assert poets.learning_rate == 0.8

    cifar = TABLE1_CONFIGS["cifar100"]
    assert (cifar.local_epochs, cifar.local_batches) == (5, 45)
    assert cifar.learning_rate == 0.01


def test_table1_lookup_by_prefix():
    assert table1_config("fmnist-clustered-relaxed") is TABLE1_CONFIGS["fmnist-clustered"]


def test_table1_unknown_raises():
    with pytest.raises(KeyError):
        table1_config("imagenet")


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(local_epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="^learning_rate must be finite"):
        TrainingConfig(learning_rate=float("inf"))
    with pytest.raises(ValueError):
        TrainingConfig(local_batches=0)


@pytest.mark.parametrize("momentum", [1.5, -0.5, float("nan")])
def test_training_config_rejects_momentum_outside_sgd_range(momentum):
    # SGD's [0, 1) rule holds at construction, so a bad momentum fails
    # the same way whether a round trains through the fused plane or
    # builds an SGD.
    with pytest.raises(ValueError, match="momentum"):
        TrainingConfig(momentum=momentum)


def test_training_config_scaled_copy():
    base = TrainingConfig(learning_rate=0.05)
    scaled = base.scaled(local_batches=3)
    assert scaled.local_batches == 3
    assert scaled.learning_rate == 0.05
    assert base.local_batches == 10  # original untouched


def test_dag_config_defaults_match_paper():
    cfg = DagConfig()
    assert cfg.num_tips == 2
    assert cfg.depth_range == (15, 25)
    assert cfg.publish_gate is True
    assert cfg.selector == "accuracy"


def test_dag_config_validation():
    with pytest.raises(ValueError):
        DagConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        DagConfig(normalization="nope")
    with pytest.raises(ValueError):
        DagConfig(selector="nope")
    with pytest.raises(ValueError):
        DagConfig(num_tips=0)
    with pytest.raises(ValueError):
        DagConfig(depth_range=(10, 5))


def test_dag_config_walk_engine_and_auto_parallelism():
    # Every pool routes itself: "auto" is no setting.
    with pytest.raises(ValueError, match="parallelism"):
        DagConfig(parallelism="auto")
    # The two retired knobs are inert: True only, and True by default, so
    # passing them (as the frozen e2e benchmark does) changes nothing.
    assert DagConfig(walk_engine=True, training_plane=True) == DagConfig()
    for retired in ("walk_engine", "training_plane"):
        with pytest.raises(ValueError, match="sequential_select_tips"):
            DagConfig(**{retired: False})
    with pytest.raises(ValueError):
        DagConfig(parallelism="turbo")
    with pytest.raises(ValueError):
        DagConfig(parallelism=-2)


@pytest.mark.parametrize("parallelism", [2.5, 2.0, True, False, "2", None])
def test_dag_config_rejects_non_integer_parallelism(parallelism):
    # A float would fail only in the first pool round, inside
    # ProcessPoolExecutor; True would silently mean serial.
    with pytest.raises(ValueError, match="parallelism"):
        DagConfig(parallelism=parallelism)


@pytest.mark.parametrize(
    "config, field",
    [(DagConfig, "alpha"), (DagConfig, "weighted_alpha"), (GatewayConfig, "alpha")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_walk_alphas_must_be_finite_and_non_negative(config, field, value):
    # A NaN alpha would serve every walk NaN weights and a negative one
    # fail only deep inside a selector: both are refused at construction.
    with pytest.raises(ValueError, match=f"^{field} must be"):
        config(**{field: value})


def test_zero_walk_alphas_are_uniform_walks_and_allowed():
    assert DagConfig(alpha=0.0, weighted_alpha=0.0).alpha == 0.0
    assert GatewayConfig(alpha=0.0).alpha == 0.0


# A count that is not an integer must fail when the config is built:
# otherwise a float epoch or tip count raises TypeError only inside the
# first round, a fractional visibility delay or walk depth runs without
# error, and a fractional gateway batch kills the coalescer worker on
# every respawn.
BAD_COUNT = [1.5, 2.0, True]


@pytest.mark.parametrize("value", BAD_COUNT)
@pytest.mark.parametrize("field", ["local_epochs", "batch_size", "local_batches"])
def test_training_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainingConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, name",
    [
        *[(field, value, field) for field in ("num_tips", "personal_params")
          for value in BAD_COUNT],
        *[("visibility_delay", value, "visibility_delay") for value in (0.5, 1.0, True)],
        ("depth_range", (2.5, 4), "depth_range low"),
        ("depth_range", (2, 4.0), "depth_range high"),
        ("depth_range", (-1, 4), "depth_range low"),
    ],
)
def test_dag_config_rejects_non_integer_counts(field, value, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        DagConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, name",
    [
        *[
            (field, value, field)
            for field in (
                "admission_capacity",
                "max_pending",
                "max_batch",
                "breaker_failure_threshold",
            )
            for value in (*BAD_COUNT, 0)
        ],
        ("depth_range", (2.5, 4), "depth_range low"),
    ],
)
def test_gateway_config_rejects_non_integer_counts(field, value, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        GatewayConfig(**{field: value})


def test_numpy_integer_counts_are_accepted():
    n = np.int64
    assert TrainingConfig(local_epochs=n(2), batch_size=n(8), local_batches=n(3))
    assert DagConfig(
        num_tips=n(3),
        depth_range=(n(2), n(5)),
        personal_params=n(2),
        visibility_delay=n(1),
        parallelism=n(1),
    )
    assert GatewayConfig(max_batch=n(4), depth_range=(n(1), n(3)))
