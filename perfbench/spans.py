"""Span tracing for the benchmark, installed from outside the program.

Each traced function is replaced by a wrapper wherever a caller looks it
up: in the module that defines it and in every ``crowdmeta`` module that
imported the name.  Methods and constructors are wrapped on their class.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
original binding.

A span's self time is its duration minus the time covered by the spans it
called.  Spans are aggregated per name as they close (calls, self time,
exceptions by type), so memory stays constant however long a run is.

Self times partition the root spans' time by construction, so their sum
says nothing about coverage.  :meth:`Tracer.audit` does: it counts every
execution of a listed function's own code, whichever reference called it,
and each count must equal the span's calls.  A call that missed the wrapper
(a reference captured before installation) or a function wrapped twice
makes the two differ.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, attribute) for plain functions; "Class.attr" names a
# method or constructor on a class defined in that module.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("autodiff.backward", "crowdmeta.autodiff", "backward"),
    ("metatrain.meta_gradient", "crowdmeta.metatrain", "meta_gradient"),
    ("metatrain.unrolled_adapt_graph", "crowdmeta.metatrain", "unrolled_adapt_graph"),
    ("metatrain.query_loss_graph", "crowdmeta.metatrain", "query_loss_graph"),
    ("metatrain.adam_update", "crowdmeta.metatrain", "adam_update"),
    ("metatrain.evaluate", "crowdmeta.metatrain", "evaluate"),
    ("em.adapt", "crowdmeta.em", "adapt"),
    ("em.m_step", "crowdmeta.em", "m_step"),
    ("em.e_step", "crowdmeta.em", "e_step"),
    ("em.confusion_update", "crowdmeta.em", "confusion_update"),
    ("em.annotation_log_likelihood", "crowdmeta.em", "annotation_log_likelihood"),
    ("em.init_responsibilities", "crowdmeta.em", "init_responsibilities"),
    ("em.SupportSet", "crowdmeta.em", "SupportSet.__init__"),
    ("em.AdaptedClassifier", "crowdmeta.em", "AdaptedClassifier.__init__"),
    ("em.predict_labels", "crowdmeta.em", "predict_labels"),
    ("baselines.dawid_skene", "crowdmeta.baselines", "dawid_skene"),
    ("baselines.majority_vote", "crowdmeta.baselines", "majority_vote"),
    ("annotators.pseudo_annotate", "crowdmeta.annotators", "pseudo_annotate"),
    ("annotators.sample_annotator_pool", "crowdmeta.annotators", "sample_annotator_pool"),
    ("annotators.annotate", "crowdmeta.annotators", "annotate"),
    ("episodes.sample_episode", "crowdmeta.episodes", "sample_episode"),
    ("seeding.stream", "crowdmeta.seeding", "stream"),
    ("encoder.forward", "crowdmeta.encoder", "forward"),
    ("encoder.forward_graph", "crowdmeta.encoder", "forward_graph"),
    ("encoder.unflatten", "crowdmeta.encoder", "EncoderParams.unflatten"),
    ("cli.main", "crowdmeta.cli", "main"),
    ("config.build_run_setup", "crowdmeta.config", "build_run_setup"),
)

LAYERS = tuple(sorted({name.split(".")[0] for name, _, _ in SPANS}))
ROOT = "bench.root"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)


class Tracer:
    """Aggregates nested spans and the counts taken at layer boundaries."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        # child time accumulated by each open span; the bottom entry
        # collects the time of top-level spans
        self._open: list[float] = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self._codes: dict = {}  # code object of each wrapped function -> span name

    def reset(self) -> None:
        self.stats = {}
        self.counts = Counter()
        self._open[:] = [0.0]  # wrappers hold this list

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name``."""
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stats.errors[type(exc).__name__] += 1
                raise
            finally:
                duration = clock() - start
                stats.calls += 1
                stats.self_s += duration - open_spans.pop()
                open_spans[-1] += duration
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args, **kwargs):
        """Run one timed call of the benchmark as the root span."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "crowdmeta" or n.startswith("crowdmeta."))]
        for name, module_name, target in SPANS:
            # a function that a later version removes reads as zero
            module = sys.modules.get(module_name)
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            fn = original.__func__ if isinstance(original, classmethod) else original
            self._codes[fn.__code__] = name
            if name == "annotators.annotate":
                fn = self._count_annotations(fn)
            if owner_name:  # a method or constructor, wrapped on its class
                wrapped = self.wrap(name, fn)
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                self._rebind(owner, attr, wrapped)
                continue
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
        # Tensors are counted, not timed: a span per node would cost more
        # than the node itself.
        tensor = getattr(sys.modules.get("crowdmeta.autodiff"), "Tensor", None)
        if tensor is None:
            return
        init = tensor.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["autodiff.tensors"] += 1
            init(obj, *args, **kwargs)

        self._rebind(tensor, "__init__", counted_init)

    def _count_annotations(self, annotate):
        """``annotate`` counting the labels drawn and the labels kept."""

        def counted(true_labels, confusions, *args, **kwargs):
            result = annotate(true_labels, confusions, *args, **kwargs)
            self.counts["annotators.drawn"] += len(true_labels) * len(confusions)
            self.counts["annotators.labels"] += sum(len(ann) for ann in result)
            return result

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._codes = {}

    @contextmanager
    def audit(self):
        """Count the executions of each wrapped function's own code.

        Yields a Counter by span name, filled while the block runs.  Uses a
        profile hook, so timings taken inside the block are not meaningful.
        """
        codes = dict(self._codes)
        seen: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    seen[name] += 1

        sys.setprofile(profile)
        try:
            yield seen
        finally:
            sys.setprofile(None)
