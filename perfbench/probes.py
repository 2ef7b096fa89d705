"""Where a traced run records spans: the module-level names of the halc
package that it wraps, one span name per function across every module that
imports it, and the counters measured where the work happens.
"""

from __future__ import annotations

import sys

from tracer import NO_PARENT, Tracer
from workloads import ratio

# span name -> (halc module, attribute) pairs that refer to that function
SPANS = {
    "world.model": [("decoding", "toy_model_logits"), ("harness", "toy_model_logits"),
                    ("theory", "toy_model_logits")],
    "world.detector": [("world", "toy_detector")],
    "world.scorer": [("world", "oracle_match_score"), ("harness", "oracle_match_score")],
    "world.corpus": [("world", "generate_corpus"), ("harness", "generate_corpus")],
    "geometry.sample": [("decoding", "sample_fovs_exponential"), ("decoding", "sample_fovs_normal"),
                        ("decoding", "sample_fovs_random")],
    "geometry.clamp": [("geometry", "clamp_to_image"), ("harness", "clamp_to_image"),
                       ("world", "clamp_to_image")],
    "distributions.softmax": [("decoding", "softmax"), ("distributions", "softmax"),
                              ("harness", "softmax"), ("theory", "softmax")],
    "distributions.jsd": [("decoding", "jsd"), ("distributions", "jsd"), ("theory", "jsd")],
    "distributions.top_m_pairs": [("decoding", "top_m_pairs")],
    "distributions.contrast": [("decoding", "contrast_distribution")],
    "decoding.halc_step": [("decoding", "halc_step")],
    "decoding.select_beams": [("decoding", "select_beams")],
    "decoding.loop": [("decoding", "decode_greedy"), ("decoding", "decode_beam"),
                      ("decoding", "decode_halc"), ("harness", "decode_greedy"),
                      ("harness", "decode_beam"), ("harness", "decode_halc"),
                      ("cli", "decode_greedy"), ("cli", "decode_halc")],
    "metrics.chair": [("harness", "chair")],
    "metrics.opope": [("harness", "opope")],
    "metrics.bleu": [("harness", "corpus_bleu")],
    "metrics.queries": [("harness", "build_corpus_stats"), ("harness", "sample_query_objects")],
    "theory.dists": [("theory.GaussianBumpModel", "dists"), ("theory.SceneFovAdapter", "dists")],
    "theory.min_deviation": [("theory", "min_deviation_mc")],
    "theory.estimate_delta": [("theory", "estimate_delta")],
    "theory.c_analytic": [("theory", "c_g_analytic"), ("theory", "c_e_closed_form")],
    "harness.grid_fovs": [("harness", "grid_fovs")],
    "harness.write": [("cli", "write_csv"), ("cli", "write_json"), ("cli", "write_manifest")],
    "cli.main": [("cli", "main")],
}

LAYERS = ("world", "geometry", "distributions", "decoding", "metrics", "theory", "harness", "cli")


def _owner(path: str):
    """The loaded halc module (or class in it) named by `path`, else None.

    Only modules the workload already imported are patched, so a traced run
    imports nothing the untraced run does not.
    """
    module, _, cls = path.partition(".")
    owner = sys.modules.get(f"halc.{module}")
    if owner is not None and cls:
        owner = getattr(owner, cls)
    return owner


def install(tracer: Tracer) -> None:
    """Wrap every name in SPANS, with observers that count useful work."""
    counters = tracer.counters
    jsd_pairs: set[tuple[int, int, int]] = set()

    def on_detector(idx, args, result):
        counters["world.detector.hits"] += result is not None

    def on_jsd(idx, args, result):
        step = tracer.ancestor(idx, "decoding.halc_step")
        if step != NO_PARENT:
            # The distributions of one step stay alive for the whole step,
            # so their ids name the (step, i, j) pair.
            a, b = sorted((id(args[0]), id(args[1])))
            jsd_pairs.add((step, a, b))
            counters["distributions.jsd.step_calls"] += 1
            counters["distributions.jsd.distinct_pairs"] = len(jsd_pairs)

    def on_step(idx, args, result):
        counters["decoding.candidates.total"] += len(result.candidates)
        counters["decoding.candidates.distinct"] += len({tok for tok, _ in result.candidates})

    observers = {
        "world.detector": on_detector,
        "distributions.jsd": on_jsd,
        "decoding.halc_step": on_step,
    }
    for name, targets in SPANS.items():
        for path, attr in targets:
            owner = _owner(path)
            if owner is not None:
                tracer.patch(owner, attr, name, observers.get(name))


def layer_metrics(tracer: Tracer, run_span: int) -> dict[str, float]:
    """Per-span calls and self time, per-layer self time, the ratios measured
    at the layer boundaries, and the part of the run no layer span covers."""
    selfs = tracer.self_times()
    summary = tracer.summary(selfs)
    out: dict[str, float] = {}
    for name in SPANS:
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, (_, s) in summary.items() if name.startswith(layer + ".")
        )
    c = tracer.counters
    out["world.detector.hit_ratio"] = ratio(c["world.detector.hits"], out["world.detector.calls"])
    out["distributions.jsd.useful_ratio"] = ratio(
        c["distributions.jsd.distinct_pairs"], c["distributions.jsd.step_calls"]
    )
    out["decoding.candidates.distinct_ratio"] = ratio(
        c["decoding.candidates.distinct"], c["decoding.candidates.total"]
    )
    out["trace.unattributed_s"] = selfs[run_span]
    out["trace.spans"] = len(tracer.start)
    return out
