"""In-memory spans recorded around calls into the library's public functions.

A span is a dict with id, name, layer, parent, job, start and end
(time.perf_counter, which is the system-wide monotonic clock on Linux, so
spans written by a child process line up with the parent's).  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str, layer: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(fn.__name__, layer):
                return fn(*args, **kwargs)

        return traced

    def adopt(self, child_spans: list[dict], parent: int):
        """Merge spans written by a child process under one of our spans."""
        offset = len(self.spans)
        for s in child_spans:
            self.spans.append(dict(
                s,
                id=s["id"] + offset,
                parent=parent if s["parent"] is None else s["parent"] + offset,
                job=self.job,
            ))


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return [duration(s) - covered[s["id"]] for s in spans]


@contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Temporarily set attributes; restores the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    for obj, attr, new in replacements:
        setattr(obj, attr, new)
    try:
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def cli_wrappers(rec: Recorder) -> list[tuple[object, str, object]]:
    """Spans around the library calls the census and norm subcommands make.

    The CLI binds these names at import, so they are replaced in its
    namespace; width_census_csv looks width_bfs up in the census module.
    """
    import congwidth.census as census
    import congwidth.cli as cli

    out = [(census, "width_bfs", rec.wrap(census.width_bfs, "census"))]
    for name, layer in (
        ("enumerate_sl", "census"),
        ("width_census_csv", "census"),
        ("filtration_norm", "norms"),
        ("conjugation_closure", "norms"),
        ("word_norm_eval", "norms"),
        ("axiom_harness", "norms"),
    ):
        out.append((cli, name, rec.wrap(getattr(cli, name), layer)))
    return out
