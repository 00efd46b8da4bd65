"""Spans and counters around the public functions of each horaprove module.

The benchmark wraps functions from outside the program.  A module that
imports a function by name holds its own binding (`prover` imports
`product`, `symbolic_term`, `slope_annihilator` and `identity_goal`), so
every binding of a target is replaced, in every horaprove module, not only
the one in the defining module.

Each wrapped call pushes a frame; on return its duration is charged to the
enclosing frame, and its self time is the duration minus what its child
frames took.  "Span" layers also record a span (name, parent span, start,
end, self time, request id), where the request is the enclosing `prove` or
`fuzz` call.  "Hot" layers (ring arithmetic, term expansion, substitution,
evaluation) are too frequent for one span each: they are aggregated per
layer and per parent span name.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import horaprove
from horaprove import cfinite, cli, lang, linalg, prover, ring, sequences

MODULES = (horaprove, cli, prover, lang, cfinite, linalg, sequences, ring)

# layer name -> (owner, attribute, kind); kind is "span" or "hot"
TARGETS = (
    ("cli.main", cli, "main", "span"),
    ("prover.prove", prover, "prove", "span"),
    ("prover.fuzz", prover, "fuzz", "span"),
    ("lang.parse", lang, "parse_file", "span"),
    ("lang.normalize", lang, "identity_goal", "span"),
    ("prover.synth", prover, "annihilator_for", "span"),
    ("cfinite.product", cfinite, "product", "span"),
    ("cfinite.sum", cfinite, "sum_annihilators", "span"),
    ("linalg.charpoly", linalg, "charpoly", "span"),
    ("prover.cert_render", prover.Certificate, "to_json_dict", "span"),
    ("lang.substitute", lang.NormalForm, "substitute_index", "hot"),
    ("sequences.term", sequences, "symbolic_term", "hot"),
    ("sequences.slope", sequences, "slope_annihilator", "hot"),
    ("sequences.numeric", sequences, "numeric_term", "hot"),
    ("prover.eval", prover, "evaluate_expr", "hot"),
    ("ring.mul", ring.LaurentPoly, "__mul__", "hot"),
    ("ring.mul", ring.LaurentPoly, "__rmul__", "hot"),
    ("ring.add", ring.LaurentPoly, "__add__", "hot"),
    ("ring.add", ring.LaurentPoly, "__radd__", "hot"),
    ("ring.pin", ring.LaurentPoly, "pin_substitute", "hot"),
)

# Layers that call themselves through their public name: only the outermost
# call is timed, so self time is not split across recursion levels.
NON_REENTRANT = {"prover.eval"}

REQUEST_LAYERS = {"prover.prove", "prover.fuzz"}

# Layers whose call count the input fixes (one per file or identity): only
# their self time is reported.
FIXED_COUNT = {
    "cli.main", "prover.prove", "prover.fuzz", "lang.parse", "lang.normalize",
    "prover.cert_render",
}

# Per-layer metric -> (end-to-end metric it should move, workloads on which it
# should move it).  Each metric must be nonzero on each workload named here.
PREDICTIONS = {
    **dict.fromkeys(
        ("ring.mul_calls", "ring.mul_term_pairs", "ring.mul_s", "ring.mul_max_terms",
         "ring.add_s"),
        ("wall_s", ("multi_index",)),
    ),
    # pins occur only in corpus identities (`with p := 1, q := -1`)
    "ring.pin_s": ("wall_s", ("corpus",)),
    **dict.fromkeys(
        ("linalg.charpoly_calls", "linalg.charpoly_dim_max", "linalg.charpoly_s",
         "cfinite.product_calls", "cfinite.product_s", "cfinite.sum_s"),
        ("wall_s on multi_index, identity_ms_p50 on corpus", ("multi_index", "corpus")),
    ),
    **dict.fromkeys(
        ("prover.synth_calls", "prover.synth_s", "prover.synth_repeat_ratio"),
        ("wall_s", ("multi_index",)),
    ),
    **dict.fromkeys(
        ("prover.order_max", "prover.order_sum", "prover.leaves"),
        ("wall_s on multi_index, output_kb on every verify workload",
         ("multi_index", "corpus")),
    ),
    **dict.fromkeys(
        ("lang.parse_s", "lang.normalize_s", "lang.substitute_calls", "lang.substitute_s"),
        ("identity_ms_p50 on corpus, wall_s on multi_index", ("corpus", "multi_index")),
    ),
    **dict.fromkeys(
        ("sequences.term_calls", "sequences.term_s", "sequences.term_repeat_ratio",
         "sequences.slope_s"),
        ("wall_s and peak_rss_mb", ("multi_index",)),
    ),
    "prover.cert_render_s": ("identity_ms_p50, wall_s and output_kb", ("corpus",)),
    **dict.fromkeys(
        ("prover.fuzz_trials", "prover.eval_s", "sequences.numeric_s"),
        ("wall_s", ("oracle",)),
    ),
}


def _nterms(x) -> int:
    return len(x.terms()) if isinstance(x, ring.LaurentPoly) else 1


class Tracer:
    """Counters and spans of one pass; `install()` wraps, `uninstall()` restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.by_parent = defaultdict(lambda: [0, 0.0])  # (parent span, layer) -> [calls, self]
        self.spans = []  # (id, name, parent id, request id, start, end, self)
        self.extra = defaultdict(int)
        self._stack = [[0.0, 0, "root"]]  # [child time, span id, span name]
        self._request = 0
        self._next_id = 1
        self._seen_terms: set = set()
        self._seen_anns: set = set()
        self._active = defaultdict(int)
        self._undo = []

    # -- installation ------------------------------------------------

    def install(self):
        wrappers = {}
        for name, owner, attr, kind in TARGETS:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            key = (id(orig), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(name, orig, kind)
            self._set(owner, attr, wrappers[key])
            if not isinstance(owner, type):
                for module in MODULES:
                    for mattr, value in list(vars(module).items()):
                        if value is orig and module is not owner:
                            self._set(module, mattr, wrappers[key])

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, orig, kind):
        stack = self._stack
        calls, self_s, by_parent = self.calls, self.self_s, self.by_parent
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        span = kind == "span"
        guard = name in NON_REENTRANT
        active = self._active

        def wrapper(*args, **kwargs):
            if guard:
                if active[name]:
                    return orig(*args, **kwargs)
                active[name] += 1
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]  # a hot frame stands for its span
            if span:
                frame[1] = self._next_id
                frame[2] = name
                self._next_id += 1
                if name in REQUEST_LAYERS:
                    self._begin_request(frame[1])
            stack.append(frame)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if guard:
                    active[name] -= 1
                elapsed = end - start
                own = elapsed - frame[0]
                stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += own
                slot = by_parent[(parent[2], name)]
                slot[0] += 1
                slot[1] += own
                if span:
                    self.spans.append(
                        (frame[1], name, parent[1], self._request, start, end, own)
                    )
            if note is not None:
                # counting is tracing overhead: keep it out of every self time
                t0 = perf_counter()
                note(args, result)
                stack[-1][0] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _begin_request(self, span_id):
        self._request = span_id
        self._seen_anns = set()

    # -- counters measured where the work happens ---------------------

    def _note_ring_mul(self, args, result):
        a, b = args
        self.extra["ring.mul_term_pairs"] += _nterms(a) * _nterms(b)
        n = _nterms(result)
        if n > self.extra["ring.mul_max_terms"]:
            self.extra["ring.mul_max_terms"] = n

    def _note_linalg_charpoly(self, args, result):
        dim = len(args[0])
        if dim > self.extra["linalg.charpoly_dim_max"]:
            self.extra["linalg.charpoly_dim_max"] = dim

    def _note_prover_synth(self, args, result):
        if result in self._seen_anns:
            self.extra["prover.synth_repeats"] += 1
        else:
            self._seen_anns.add(result)
        self.extra["prover.order_sum"] += result.order
        if result.order > self.extra["prover.order_max"]:
            self.extra["prover.order_max"] = result.order

    def _note_prover_prove(self, args, result):
        self.extra["prover.leaves"] += len(result.leaves)

    def _note_sequences_term(self, args, result):
        key = (args[0], args[1])
        if key in self._seen_terms:
            self.extra["sequences.term_repeats"] += 1
        else:
            self._seen_terms.add(key)

    def _note_prover_fuzz(self, args, result):
        self.extra["prover.fuzz_trials"] += result.trials

    # -- report --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and ratios, named as in BENCHMARK.json."""
        out = {}
        for name in sorted({t[0] for t in TARGETS}):
            if name not in FIXED_COUNT:
                out[name + "_calls"] = self.calls[name]
            out[name + "_s"] = self.self_s[name]
        for name in (
            "ring.mul_term_pairs", "ring.mul_max_terms", "linalg.charpoly_dim_max",
            "prover.order_max", "prover.order_sum", "prover.leaves", "prover.fuzz_trials",
        ):
            out[name] = self.extra[name]
        out["prover.synth_repeat_ratio"] = _ratio(
            self.extra["prover.synth_repeats"], self.calls["prover.synth"]
        )
        out["sequences.term_repeat_ratio"] = _ratio(
            self.extra["sequences.term_repeats"], self.calls["sequences.term"]
        )
        return out

    def trace_dump(self) -> dict:
        return {
            "spans": [
                dict(zip(("id", "name", "parent", "request", "start", "end", "self_s"), s))
                for s in self.spans
            ],
            "hot_by_parent": [
                {"parent": parent, "layer": layer, "calls": calls, "self_s": own}
                for (parent, layer), (calls, own) in sorted(self.by_parent.items())
            ],
        }


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
