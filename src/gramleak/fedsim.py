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
"""

from __future__ import annotations

import json
import math
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


def approx_loss(theta: np.ndarray, x: np.ndarray, y: float) -> float:
    """Quadratic surrogate loss of one sample: log2 - z*y/2 + z^2/8, z = theta.x."""
    theta = numkit.as_vector(theta)
    x = numkit.as_vector(x)
    if theta.shape != x.shape:
        raise numkit.DimensionMismatch(
            f"model length {theta.shape[0]} != sample length {x.shape[0]}"
        )
    if y not in (-1.0, 1.0):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    z = float(theta @ x)
    return math.log(2.0) - 0.5 * z * y + 0.125 * z * z


def batch_gradient(batch: Batch, theta: np.ndarray) -> np.ndarray:
    """Summed gradient of ``approx_loss`` over the batch: X'X theta/4 - X'Y/2."""
    theta = numkit.as_vector(theta)
    if theta.shape[0] != batch.width:
        raise numkit.DimensionMismatch(
            f"model length {theta.shape[0]} != feature count {batch.width}"
        )
    return 0.25 * (batch.x.T @ (batch.x @ theta)) - 0.5 * (batch.x.T @ batch.y)


def sync_round(
    batches_per_party: list[Batch], theta: np.ndarray, learning_rate: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One synchronized round: each party pushes its scaled batch gradient.

    Returns the averaged update applied to the model and the per-party pushes.
    """
    if not batches_per_party:
        raise ValueError("need at least one party batch")
    deltas = [learning_rate * batch_gradient(b, theta) for b in batches_per_party]
    new_theta = theta - sum(deltas) / len(deltas)
    return new_theta, deltas


def async_local_pass(
    batches: list[Batch], theta: np.ndarray, learning_rate: float
) -> np.ndarray:
    """Sequential per-batch descent; returns start-model minus end-model."""
    if not batches:
        raise ValueError("need at least one batch")
    current = numkit.as_vector(theta)
    for batch in batches:
        current = current - learning_rate * batch_gradient(batch, current)
    return theta - current


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
    observations = []
    for _ in range(config.rounds):
        theta = rng.uniform(-1.0, 1.0, size=d)
        if config.mode == SYNCHRONIZED:
            new_theta, deltas = sync_round(
                victim_data + [attacker_data], theta, config.learning_rate
            )
            attacker_delta = deltas[-1]
            aggregate = theta - new_theta
        else:
            order = np.arange(len(victim_data))
            if config.shuffle:
                order = rng.permutation(len(victim_data))
            victim_delta = async_local_pass(
                [victim_data[i] for i in order], theta, config.learning_rate
            )
            attacker_delta = async_local_pass(
                [attacker_data], theta, config.learning_rate
            )
            aggregate = (victim_delta + attacker_delta) / 2.0
        leaked = config.parties * aggregate - attacker_delta
        observations.append(Observation(theta=theta, delta=leaked))
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


def load_transcript(text: str) -> Transcript:
    doc = json.loads(text)
    cfg = doc["config"]
    config = TrainingConfig(
        learning_rate=float(cfg["lambda"]),
        mode=cfg["mode"],
        parties=int(cfg["parties"]),
        rounds=int(cfg["rounds"]),
        shuffle=bool(cfg["shuffle"]),
        seed=int(cfg["seed"]),
    )
    observations = tuple(
        Observation(theta=np.array(o["theta"], dtype=float),
                    delta=np.array(o["delta"], dtype=float))
        for o in doc["observations"]
    )
    ground_truth = tuple(
        Batch(x=np.array(b["x"], dtype=float), y=np.array(b["y"], dtype=float))
        for b in doc["ground_truth"]
    )
    return Transcript(observations=observations, config=config, ground_truth=ground_truth)
