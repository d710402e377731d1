"""Spans around the public functions of ``beamseq``, recorded from outside.

The tracer replaces module attributes such as ``beamseq.nn.lstm_cell_forward``
with a timing wrapper. The package looks these names up at call time, so the
program's own calls are caught without editing any file under ``src/``.
``install`` and ``uninstall`` swap the wrappers in and out, so an operation run
without them pays nothing.

Each span is ``[name, start_ns, end_ns, parent_index, op_id, phase]`` and is
kept in memory until ``write_jsonl`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _bs_label(args, kwargs):
    bs_ids = kwargs.get("bs_ids", args[1] if len(args) > 1 else None)
    return "scene.build_channel_grid." + ("+".join(bs_ids) if bs_ids else "all")


def _capture_clip(tracer, args, kwargs, out):
    norm, clipped = out
    tracer.values["nn.grad_norm"].append(float(norm))
    tracer.values["nn.clip_events"].append(int(clipped))


def _capture_file_size(key, path_arg):
    def capture(tracer, args, kwargs, out):
        tracer.values[key].append(os.path.getsize(args[path_arg]))

    return capture


# Forward/backward functions of the NN kernel; their spans are the kernel's
# busy time.
NN_LAYERS = (
    "lstm_cell_forward",
    "lstm_cell_backward",
    "attention_forward",
    "attention_backward",
    "dense_forward",
    "dense_backward",
    "embedding_forward",
    "embedding_backward",
    "dropout_forward",
    "dropout_backward",
    "softmax_cross_entropy_batch",
)

# (module, attribute, span name or label function, capture or None). The
# module is the one whose global the program reads at call time, which for
# ``from .x import f`` is the importing module, not the defining one.
TARGETS = [
    ("beamseq.scene", "generate_scene", "scene.generate_scene", None),
    ("beamseq.scene", "build_channel_grid", _bs_label, None),
    ("beamseq.phy", "synthesize_channel", "phy.synthesize_channel", None),
    ("beamseq.phy", "optimal_beam", "phy.optimal_beam", None),
    ("beamseq.data", "sample_trajectory", "mobility.sample_trajectory", None),
    ("beamseq.data", "snap_positions", "data.snap_positions", None),
    ("beamseq.data", "grid_features", "data.grid_features", None),
    ("beamseq.data", "grid_beam_labels", "data.grid_beam_labels", None),
    ("beamseq.data", "make_dataset", "data.make_dataset", None),
    ("beamseq.data", "save_dataset", "data.save_dataset",
     _capture_file_size("data.dataset_bytes", 1)),
    ("beamseq.data", "load_dataset", "data.load_dataset", None),
    *[("beamseq.nn", fn, f"nn.{fn}", None) for fn in NN_LAYERS],
    ("beamseq.nn", "clip_global_norm", "nn.clip_global_norm", _capture_clip),
    ("beamseq.nn", "adam_step", "nn.adam_step", None),
    ("beamseq.nn", "save_tensors", "nn.save_tensors", None),
    ("beamseq.nn", "load_tensors", "nn.load_tensors", None),
    ("beamseq.seq2seq", "accumulate_params", "seq2seq.accumulate_params", None),
    ("beamseq.seq2seq", "train", "seq2seq.train", None),
    ("beamseq.seq2seq", "save_train_state", "seq2seq.save_train_state",
     _capture_file_size("nn.checkpoint_bytes", 0)),
    ("beamseq.seq2seq", "load_train_state", "seq2seq.load_train_state", None),
    ("beamseq.seq2seq", "encode", "seq2seq.encode", None),
    ("beamseq.seq2seq", "decode_greedy", "seq2seq.decode_greedy", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, list] = defaultdict(list)
        self.op_id = -1
        self.phase = "op"
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, op_id: int, phase: str = "op") -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self.op_id, self.phase = op_id, phase
        for module_name, attr, label, capture in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label, capture))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, label, capture):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id, self.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if capture is not None:
                capture(self, args, kwargs, out)
            return out

        return traced

    def summary(self, phase: str | None = None) -> dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds (busy minus the
        time covered by direct children). ``phase`` restricts to one phase."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, _, span_phase) in enumerate(self.spans):
            if phase is not None and span_phase != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[idx]) * 1e-9
        return out

    def top_level_seconds(self, op_id: int) -> float:
        """Time covered by the outermost spans of one operation."""
        return 1e-9 * sum(
            end - start
            for _, start, end, parent, span_op, phase in self.spans
            if parent < 0 and span_op == op_id and phase == "op"
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op_id, phase) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op_id, "phase": phase}
                    )
                    + "\n"
                )
