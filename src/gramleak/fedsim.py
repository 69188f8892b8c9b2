"""Deterministic simulator of averaged-gradient federated training.

Parties share a linear model trained on the quadratic surrogate of the
logistic loss, ``log 2 - (theta.x) y / 2 + (theta.x)^2 / 8``, whose batch
gradient is linear in the model. Each round every party pushes its scaled
local gradient (synchronized) or the accumulated difference of a sequential
per-batch pass (asynchronized); the server averages the pushes in plaintext
and the transcript records what an honest-but-curious participant can see:
the model point of the round and the aggregate minus its own push.

Every round probes the victim at an independently drawn model point so that
the recorded observations are in general position; see ``run_training``.
Since no round depends on another and every push is linear in the model, a
run is computed as a few stacked products: the gradient and round functions
take one model ``(d,)`` or a stack of models ``(r, d)``, one per row.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import numkit

SYNCHRONIZED = "synchronized"
ASYNCHRONIZED = "asynchronized"
MODES = (SYNCHRONIZED, ASYNCHRONIZED)


@dataclass(frozen=True)
class Batch:
    """One party's private training batch: binary features, sign labels."""

    x: np.ndarray  # (m, d), every entry exactly 0.0 or 1.0
    y: np.ndarray  # (m,), every entry exactly -1.0 or +1.0

    def __post_init__(self):
        x = numkit.as_matrix(self.x)
        y = numkit.as_vector(self.y)
        if y.shape[0] != x.shape[0]:
            raise numkit.DimensionMismatch(
                f"{y.shape[0]} labels for {x.shape[0]} samples"
            )
        if not np.all((x == 0.0) | (x == 1.0)):
            raise ValueError("batch features must be exactly 0 or 1")
        if not np.all((y == -1.0) | (y == 1.0)):
            raise ValueError("batch labels must be exactly -1 or +1")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def width(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float
    mode: str = SYNCHRONIZED
    parties: int = 2
    rounds: int = 1
    shuffle: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parties < 2:
            raise ValueError("need at least two parties")
        if self.rounds < 1:
            raise ValueError("need at least one round")


@dataclass(frozen=True)
class Observation:
    """One round as seen by the attacker: model before the round, victim push."""

    theta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        theta = numkit.as_vector(self.theta)
        delta = numkit.as_vector(self.delta)
        if theta.shape != delta.shape:
            raise numkit.DimensionMismatch(
                f"theta length {theta.shape[0]} != delta length {delta.shape[0]}"
            )
        theta.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class Transcript:
    observations: tuple[Observation, ...]
    config: TrainingConfig
    ground_truth: tuple[Batch, ...]  # victim's secret data, kept for test oracles

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        if len(self.observations) != self.config.rounds:
            raise ValueError(
                f"{len(self.observations)} observations for {self.config.rounds} rounds"
            )
        widths = sorted({o.theta.shape[0] for o in self.observations})
        if len(widths) > 1:
            raise numkit.DimensionMismatch(f"observations differ in width: {widths}")


def batch_gradient(batch: Batch, theta: np.ndarray) -> np.ndarray:
    """Summed gradient of the surrogate loss over the batch: X'X theta/4 - X'Y/2.

    ``theta`` is one model ``(d,)`` or a stack of models ``(r, d)``, one per
    row; the result has its shape, row i the gradient at model i.
    """
    theta = numkit.as_vector_or_matrix(theta)
    if theta.shape[-1] != batch.width:
        raise numkit.DimensionMismatch(
            f"model length {theta.shape[-1]} != feature count {batch.width}"
        )
    grad = (theta @ batch.x.T) @ batch.x
    grad *= 0.25
    grad -= 0.5 * (batch.x.T @ batch.y)
    return grad


def sync_round(
    batches_per_party: list[Batch], theta: np.ndarray, learning_rate: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One synchronized round: each party pushes its scaled batch gradient.

    Returns the averaged update applied to the model and the per-party pushes.
    Given a stack of models ``(r, d)``, it runs r independent rounds at once
    and every result is stacked the same way.
    """
    if not batches_per_party:
        raise ValueError("need at least one party batch")
    deltas = [batch_gradient(b, theta) for b in batches_per_party]
    for push in deltas:
        push *= learning_rate
    new_theta = theta - sum(deltas) / len(deltas)
    return new_theta, deltas


def async_local_pass(
    batches: list[Batch], theta: np.ndarray, learning_rate: float
) -> np.ndarray:
    """Sequential per-batch descent; returns start-model minus end-model.

    Given a stack of start models ``(r, d)``, it runs r independent passes
    over the same batch order and returns their differences stacked.
    """
    if not batches:
        raise ValueError("need at least one batch")
    start = numkit.as_vector_or_matrix(theta)
    current = start
    for batch in batches:
        step = batch_gradient(batch, current)
        step *= learning_rate
        current = current - step
    return np.subtract(start, current, out=current)


def random_batch(rng: np.random.Generator, m: int, d: int) -> Batch:
    """Uniform random binary batch with uniform sign labels."""
    x = rng.integers(0, 2, size=(m, d)).astype(float)
    y = 2.0 * rng.integers(0, 2, size=m).astype(float) - 1.0
    return Batch(x=x, y=y)


def run_training(
    victim_data: list[Batch], attacker_data: Batch, config: TrainingConfig
) -> Transcript:
    """Simulate ``config.rounds`` rounds and record the attacker's view.

    Synchronized mode models ``parties - 1`` victim parties holding one batch
    each plus the attacker; asynchronized mode is the two-party protocol with
    the victim walking its batch list sequentially (re-permuted per round when
    ``shuffle`` is set). Each round the model is drawn fresh from the seeded
    generator, uniform in [-1, 1]^d: the recovery needs model points in
    general position, which the contraction of repeated averaged updates
    cannot supply. The recorded push is the aggregate identity
    ``parties * mean(update) - own push``, exactly what a curious participant
    computes.

    All rounds are computed together. A synchronized run draws its models as
    one ``(rounds, d)`` block, the same stream as one draw per round, and
    makes one ``sync_round`` call on the stack. An asynchronized run draws
    per round, model then permutation, and makes one ``async_local_pass``
    call per distinct batch order. A row can differ from a round computed
    alone in its last bits, as a matrix product sums in another order than
    a matrix-vector product.
    """
    victim_data = list(victim_data)
    if not victim_data:
        raise ValueError("victim needs at least one batch")
    d = attacker_data.width
    for batch in victim_data:
        if batch.width != d:
            raise numkit.DimensionMismatch(
                f"victim batch width {batch.width} != attacker width {d}"
            )
    if config.mode == SYNCHRONIZED:
        if len(victim_data) != config.parties - 1:
            raise ValueError(
                f"synchronized run with {config.parties} parties needs "
                f"{config.parties - 1} victim batches, got {len(victim_data)}"
            )
    else:
        if config.parties != 2:
            raise ValueError("asynchronized runs are two-party only")
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    if config.mode == SYNCHRONIZED:
        thetas = rng.uniform(-1.0, 1.0, size=(config.rounds, d))
        new_thetas, deltas = sync_round(victim_data + [attacker_data], thetas, lr)
        attacker_delta = deltas[-1]
        leaked = np.subtract(thetas, new_thetas, out=new_thetas)  # the aggregate
    else:
        thetas = np.empty((config.rounds, d))
        rounds_by_order: dict[tuple[int, ...], list[int]] = {}
        for k in range(config.rounds):
            thetas[k] = rng.uniform(-1.0, 1.0, size=d)
            order = range(len(victim_data))
            if config.shuffle:
                order = rng.permutation(len(victim_data))
            rounds_by_order.setdefault(tuple(int(i) for i in order), []).append(k)
        leaked = np.empty_like(thetas)
        for order, rows in rounds_by_order.items():
            leaked[rows] = async_local_pass(
                [victim_data[i] for i in order], thetas[rows], lr
            )
        attacker_delta = async_local_pass([attacker_data], thetas, lr)
        leaked += attacker_delta
        leaked /= 2.0  # the aggregate
    leaked *= config.parties
    leaked -= attacker_delta
    observations = [Observation(theta=t, delta=v) for t, v in zip(thetas, leaked)]
    return Transcript(
        observations=tuple(observations),
        config=config,
        ground_truth=tuple(victim_data),
    )


def dump_transcript(transcript: Transcript) -> str:
    """Serialize a transcript to the JSON interchange format (deterministic bytes)."""
    cfg = transcript.config
    doc = {
        "config": {
            "lambda": cfg.learning_rate,
            "mode": cfg.mode,
            "parties": cfg.parties,
            "rounds": cfg.rounds,
            "shuffle": cfg.shuffle,
            "seed": cfg.seed,
        },
        "observations": [
            {"theta": list(obs.theta), "delta": list(obs.delta)}
            for obs in transcript.observations
        ],
        "ground_truth": [
            {
                "x": [[int(v) for v in row] for row in batch.x],
                "y": [int(v) for v in batch.y],
            }
            for batch in transcript.ground_truth
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_JSON_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}


def config_value(config: dict, key: str, kind: type):
    """``config[key]``, which must already have ``kind``'s JSON type, else a ValueError.

    An int passes as a float if a float can hold it, a float must be finite,
    and true and false are not numbers: no string is parsed or fraction truncated.
    """
    value = config[key]
    if kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        raise ValueError(f"config value {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return kind(value)


def _float_array(value, where: str) -> np.ndarray:
    """``value`` as a float array, or a ValueError naming ``where``."""
    try:
        return np.array(value, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load_transcript(text: str) -> Transcript:
    """Parse the JSON interchange format.

    A config value of the wrong type, or an array entry that is not a number a
    float holds, is a ValueError naming the field.
    """
    doc = json.loads(text)
    cfg = doc["config"]
    config = TrainingConfig(
        learning_rate=config_value(cfg, "lambda", float),
        mode=config_value(cfg, "mode", str),
        parties=config_value(cfg, "parties", int),
        rounds=config_value(cfg, "rounds", int),
        shuffle=config_value(cfg, "shuffle", bool),
        seed=config_value(cfg, "seed", int),
    )
    observations = tuple(
        Observation(theta=_float_array(o["theta"], f"observations[{i}].theta"),
                    delta=_float_array(o["delta"], f"observations[{i}].delta"))
        for i, o in enumerate(doc["observations"])
    )
    ground_truth = tuple(
        Batch(x=_float_array(b["x"], f"ground_truth[{i}].x"),
              y=_float_array(b["y"], f"ground_truth[{i}].y"))
        for i, b in enumerate(doc["ground_truth"])
    )
    return Transcript(observations=observations, config=config, ground_truth=ground_truth)
