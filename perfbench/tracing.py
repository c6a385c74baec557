"""Per-layer tracing by wrapping the library's functions from outside.

The package's modules are the layers.  Each traced function gets a span
(name, start, end, parent span); a layer's self time is the duration of its
spans minus the time their child spans cover.  The wrappers replace every
module attribute that binds the original function, because the modules
import names directly (``maniplexes.maniplex.components``,
``maniplexes.posets.diamond`` called from ``_build_report``, ...).  The two
hot methods, ``InducedPoset.leq`` and ``Maniplex.components_of``, get counts
only.  Nothing is wrapped until :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional


# (module, attribute, span name).  Generator families share one span name,
# since only their total cost (the set-up) is of interest.
SPANNED = (
    ("mpxio", "read_mpx", "mpxio.read_mpx"),
    ("mpxio", "write_json", "mpxio.write_json"),
    ("graphs", "build_graph", "graphs.build_graph"),
    ("graphs", "components", "graphs.components"),
    ("graphs", "partition_meet", "graphs.partition_meet"),
    ("graphs", "are_isomorphic", "graphs.are_isomorphic"),
    ("posets", "induced_poset", "posets.induced_poset"),
    ("posets", "is_faithful", "posets.is_faithful"),
    ("posets", "uniform_chain_length", "posets.uniform_chain_length"),
    ("posets", "diamond", "posets.diamond"),
    ("posets", "strong_flag_connectivity", "posets.strong_flag_connectivity"),
    ("polytopality", "check_cip", "polytopality.check_cip"),
    ("polytopality", "check_wpip", "polytopality.check_wpip"),
    ("polytopality", "check_spip", "polytopality.check_spip"),
    ("polytopality", "flag_graph", "polytopality.flag_graph"),
    ("polytopality", "is_polytopal", "polytopality.is_polytopal"),
    ("mix", "mix", "mix.mix"),
    ("mix", "find_covering", "mix.find_covering"),
    ("generators", "polygon", "generators"),
    ("generators", "hypercube", "generators"),
    ("generators", "torus_44", "generators"),
    ("generators", "klein_44", "generators"),
    ("generators", "rectified_cubic_3torus", "generators"),
    ("generators", "random_maniplex", "generators"),
)

# Layers reported with a `.self_s` metric; the generators' span is taken
# from a traced set-up instead of the traced passes.
SELF_TIME_LAYERS = tuple(
    dict.fromkeys(name for *_, name in SPANNED if name != "generators")
) + ("maniplex.validate",)

COUNTS = (
    "posets.leq.calls",
    "posets.chains.count",
    "graphs.components.calls",
    "graphs.partition_meet.calls",
    "maniplex.components_of.calls",
    "graphs.are_isomorphic.anchors_tried",
    "mix.find_covering.anchors_tried",
)


def _module(name: str) -> Any:
    # `maniplexes.mix` the attribute is the function, not the module.
    return importlib.import_module(f"maniplexes.{name}")


def _anchors_isomorphic(args: tuple, result: Any) -> int:
    """Anchors ``are_isomorphic`` tried: every flag of ``h`` up to the image
    of flag 0, or all of them when there is no isomorphism."""
    g, h = args[0], args[1]
    if result is not None:
        return result[0] + 1
    return h.size if (g.rank, g.size) == (h.rank, h.size) else 0


def _anchors_covering(args: tuple, result: Any) -> int:
    m, n = args[0], args[1]
    if result is not None:
        return result.map[0] + 1
    return n.size if m.rank == n.rank else 0


class Tracer:
    """Spans and counts of the library calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrappers -------------------------------------------------------------

    def _spanned(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, name: str) -> Optional[Callable[[tuple, Any], None]]:
        counts = self.counts
        if name in ("graphs.components", "graphs.partition_meet"):

            def count_call(args: tuple, result: Any) -> None:
                counts[name + ".calls"] += 1

            return count_call
        if name == "graphs.are_isomorphic":

            def anchors(args: tuple, result: Any) -> None:
                counts[name + ".anchors_tried"] += _anchors_isomorphic(args, result)

            return anchors
        if name == "mix.find_covering":

            def cover_anchors(args: tuple, result: Any) -> None:
                counts[name + ".anchors_tried"] += _anchors_covering(args, result)

            return cover_anchors
        if name == "polytopality.is_polytopal":

            def chains(args: tuple, result: Any) -> None:
                counts["posets.chains.count"] += result.poset.chain_count

            return chains
        return None

    def _replace(self, original: Any, wrapped: Any) -> None:
        """Rebind ``original`` to ``wrapped`` in every library module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "maniplexes" or modname.startswith("maniplexes.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in SPANNED:
            original = getattr(_module(modname), attr)
            self._replace(original, self._spanned(name, original, self._after(name)))
        self._install_methods()

    def _install_methods(self) -> None:
        counts = self.counts
        maniplex_cls = _module("maniplex").Maniplex
        poset_cls = _module("posets").InducedPoset

        leq = poset_cls.leq

        def counted_leq(self_: Any, a: Any, b: Any) -> bool:
            counts["posets.leq.calls"] += 1
            return leq(self_, a, b)

        components_of = maniplex_cls.components_of

        def counted_components_of(self_: Any, colours: Any) -> Any:
            built = counts["graphs.components.calls"]
            part = components_of(self_, colours)
            counts["maniplex.components_of.calls"] += 1
            if counts["graphs.components.calls"] != built:
                counts["maniplex.components_of.built"] += 1
            return part

        validate = maniplex_cls._validate
        for cls, attr, wrapped in (
            (poset_cls, "leq", counted_leq),
            (maniplex_cls, "components_of", counted_components_of),
            (maniplex_cls, "_validate", self._spanned("maniplex.validate", validate)),
        ):
            self._patches.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-span-name self time in seconds over the recorded spans."""
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child[idx]
        return dict(out)

    def layer_counts(self) -> dict[str, float]:
        """The :data:`COUNTS` plus the ``components_of`` cache hit ratio."""
        out: dict[str, float] = {name: self.counts[name] for name in COUNTS}
        requested = self.counts["maniplex.components_of.calls"]
        built = self.counts["maniplex.components_of.built"]
        out["maniplex.components_of.hit_ratio"] = (
            1 - built / requested if requested else 0.0
        )
        return out
