"""Spans around gramleak's public functions, recorded from outside the package.

The tracer swaps the listed functions on their module objects for wrappers
while a traced case runs. gramleak calls across modules by module lookup
(``numkit.solve_linear`` inside ``attack``, ``solve`` inside
``reconstruct.discover_batch_size``), so nested calls become child spans.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from gramleak import attack, fedsim, numkit, reconstruct

CLI_COMMANDS = ("simulate", "attack", "reconstruct", "table1", "theorems")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    case: str | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _recover_attrs(args, kwargs, result) -> dict:
    return {"d": int(args[0][0].theta.shape[0])}


def _build_attrs(args, kwargs, result) -> dict:
    out = {"m": int(args[1]), "d": int(len(args[0]))}
    if result is not None:
        out["constraints"] = result.constraint_count
    return out


def _solve_attrs(args, kwargs, result) -> dict:
    model = args[0]
    out = {"m": model.m, "d": model.d}
    if result is not None:
        stats = result[1]
        limit = kwargs.get("limit", args[1] if len(args) > 1 else None)
        out.update(nodes=stats.nodes_explored, exhausted=int(stats.exhausted),
                   deadline_hits=int(not stats.exhausted and
                                     (limit is None or stats.solutions_found < limit)))
    return out


def _bytes_attrs(args, kwargs, result) -> dict:
    return {} if result is None else {"bytes": len(result.encode())}


# (module, function, attributes recorded on the span)
TARGETS = (
    (numkit, "solve_linear", None),
    (numkit, "rank", None),
    (numkit, "round_integral", None),
    (attack, "recover_alpha_beta", _recover_attrs),
    (attack, "recover_gamma_eta", _recover_attrs),
    (attack, "closed_form_params", None),
    (reconstruct, "build_model", _build_attrs),
    (reconstruct, "export_model_text", _bytes_attrs),
    (reconstruct, "solve", _solve_attrs),
    (reconstruct, "discover_batch_size", None),
    (reconstruct, "recover_labels", None),
    (reconstruct, "verify_solution", None),
    (fedsim, "run_training", None),
    (fedsim, "dump_transcript", _bytes_attrs),
    (fedsim, "load_transcript", None),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


SPAN_NAMES = tuple(f"{_layer(m)}.{f}" for m, f, _ in TARGETS) + tuple(
    f"cli.{c}" for c in CLI_COMMANDS
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._case: str | None = None

    def begin(self, case_id: str) -> None:
        """Install the wrappers; spans until ``end`` belong to ``case_id``."""
        self._case = case_id
        for module, name, attrs in TARGETS:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(f"{_layer(module)}.{name}", original, attrs))

    def end(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self._case = None

    def _push(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else None, self._case)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _pop(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if error is not None:
            span.error = type(error).__name__

    @contextmanager
    def span(self, name: str):
        span = self._push(name)
        try:
            yield span
        except BaseException as exc:
            self._pop(span, exc)
            raise
        self._pop(span)

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._pop(span, exc)
                if attrs:
                    span.attrs = attrs(args, kwargs, None)
                raise
            self._pop(span)
            if attrs:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "case": s.case, "error": s.error, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def layer_metrics(spans: list[Span], cases: int) -> dict[str, float]:
    """Per-layer figures for every known span name.

    Counts, busy and self times and attribute sums are means per traced case;
    ``wall_s`` is the mean per call; ratios are taken over the whole run.
    """
    child_seconds = [0.0] * len(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
            children.setdefault(span.parent, []).append(span)
    by_name: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    out: dict[str, float] = {}
    for name, idx in by_name.items():
        mine = [spans[i] for i in idx]
        busy = sum(s.seconds for s in mine)
        out[f"{name}.calls"] = len(mine) / cases
        out[f"{name}.busy_s"] = busy / cases
        out[f"{name}.self_s"] = sum(spans[i].seconds - child_seconds[i] for i in idx) / cases
        out[f"{name}.errors"] = sum(s.error is not None for s in mine) / cases
        out[f"{name}.wall_s"] = busy / len(mine) if mine else 0.0
        for key in ("constraints", "bytes", "nodes", "deadline_hits"):
            out[f"{name}.{key}"] = sum(s.attrs.get(key, 0) for s in mine) / cases
    solves = [spans[i] for i in by_name["reconstruct.solve"]]
    solve_busy = sum(s.seconds for s in solves)
    out["reconstruct.solve.nodes_per_s"] = (
        sum(s.attrs.get("nodes", 0) for s in solves) / solve_busy if solve_busy else 0.0)
    out["reconstruct.solve.exhausted_ratio"] = (
        sum(s.attrs.get("exhausted", 0) for s in solves) / len(solves) if solves else 0.0)
    discovers = by_name["reconstruct.discover_batch_size"]
    tried = sum(c.name == "reconstruct.solve" for i in discovers for c in children.get(i, ()))
    out["reconstruct.discover_batch_size.sizes_tried"] = (
        tried / len(discovers) if discovers else 0.0)
    return out


# Rows of the ROADMAP baseline table (Open item 1): span name, cell, ROADMAP figure.
ROADMAP_ROWS = (
    ("attack.recover_alpha_beta", {"d": 20}, "8.5 ms"),
    ("attack.recover_alpha_beta", {"d": 100}, "0.27 s"),
    ("attack.recover_alpha_beta", {"d": 200}, "2.4 s"),
    ("reconstruct.build_model", {"m": 11, "d": 20}, "10.7 ms (4390 constraints)"),
    ("reconstruct.solve", {"m": 11, "d": 20}, "13 ms, 2 850 nodes"),
    ("reconstruct.solve", {"m": 16, "d": 30}, "1.1 s, 280 k nodes, no deadline"),
)


def roadmap_lines(spans: list[Span]) -> list[str]:
    """One reference line per ROADMAP baseline row that this run exercised."""
    lines = []
    for name, cell, roadmap in ROADMAP_ROWS:
        mine = [s for s in spans if s.name == name and s.error is None
                and all(s.attrs.get(k) == v for k, v in cell.items())]
        if not mine:
            continue
        where = " ".join(f"{k}={v}" for k, v in cell.items())
        text = (f"roadmap {name} {where}: median {statistics.median(s.seconds for s in mine):.4g} s"
                f" over {len(mine)} calls")
        if name == "reconstruct.build_model":
            text += f", {mine[0].attrs['constraints']} constraints"
        if name == "reconstruct.solve":
            text += (f", median {statistics.median(s.attrs['nodes'] for s in mine):.0f} nodes,"
                     f" {sum(s.attrs['deadline_hits'] for s in mine)} deadline hits")
        lines.append(f"{text} (ROADMAP: {roadmap})")
    cli = [s for s in spans if s.name.startswith("cli.")]
    for command in CLI_COMMANDS:
        mine = [s.seconds for s in cli if s.name == f"cli.{command}"]
        if mine:
            lines.append(f"roadmap cli {command} in-process: median {statistics.median(mine):.4g} s"
                         f" over {len(mine)} calls (ROADMAP: 0.28-0.35 s per subprocess call)")
    return lines
