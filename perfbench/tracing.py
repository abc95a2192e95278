"""In-memory spans around the benchmark's calls into the library.

A span is [sample, parent, name, start_ns, end_ns, attrs]; its id is its
position in the list. Spans of one sample share the sample number, and the
sample's own span ("bench.sample") is the root the others hang from. The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sample = -1

    def open(self, name: str, parent: int | None, start: int) -> int:
        self.spans.append([self.sample, parent, name, start, None, None])
        return len(self.spans) - 1

    def close(self, span: int, end: int, attrs: dict | None = None) -> None:
        self.spans[span][4] = end
        self.spans[span][5] = attrs

    def add(self, name: str, parent: int | None, start: int, end: int, attrs: dict | None = None) -> int:
        self.spans.append([self.sample, parent, name, start, end, attrs])
        return len(self.spans) - 1

    def self_times(self) -> dict[int, dict[str, int]]:
        """Per sample, the nanoseconds each layer spent outside its child
        spans. Spans are sequential (one thread), so children never
        overlap and a span's self time is its duration minus theirs."""
        child_ns = [0] * len(self.spans)
        for _sample, parent, _name, start, end, _attrs in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span, (sample, _parent, name, start, end, _attrs) in enumerate(self.spans):
            out[sample][name.split(".", 1)[0]] += end - start - child_ns[span]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span, (sample, parent, name, start, end, attrs) in enumerate(self.spans):
                record = {"id": span, "sample": sample, "parent": parent, "name": name,
                          "start_ns": start, "end_ns": end}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")
