"""The benchmark's metric catalogue and its layer-to-end-to-end table.

Every metric the benchmark reports is declared here, once: the end-to-end
metrics (printed by an untraced run) and the per-layer metrics (printed by
a traced run).  ``BENCHMARK.json`` lists the same names; the self-test
checks that the two agree.

``MOVES`` is the prediction written down before any optimisation: for each
traced layer, the end-to-end metric and workload it should move, and where
it should stay flat.  Later changes cite it by layer name.
"""

from __future__ import annotations

# Why each workload was chosen (BENCHMARK.json's "why").
WORKLOADS = {
    "verify": "ROADMAP headline: whole run_verify suites, the only workload "
              "running every module; ~40% of a suite builds tensors "
              "(transport, isotope, classical) and corpora",
    "classify": "batch classification, one d=2, d=4 and d=8 algebra per "
                "item: sign_pair, is_division and the dim2/quat normal "
                "forms, where per-call overhead dominates; no transport",
    "oneshot": "one CLI command per fresh interpreter on files written at "
               "set-up; start-up and import dominate, so only import-time "
               "and io/cli work shows here",
}

# name -> (unit, better, bound).  Bounds are the share of the parent's
# median a metric may worsen by before a change counts as a regression.
# Times are divided by their run's host factor (see hostspeed.py), so
# they read as times on a host running at nominal speed.  Even so,
# classify throughput spread 10% of its median over six seeds, hence
# the wide bounds.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "item_p50_ms": ("ms", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Printed by untraced runs next to the end-to-end metrics, but not listed
# in BENCHMARK.json:
# - item_tail_ms, the highest percentile with at least ten items beyond
#   it, is below the median for verify, whose runs hold about ten suites,
#   so it is printed only from 20 items up;
# - failed_ratio is 0 on correct code, so no relative bound applies; the
#   result line's `failed` and `attempted` carry it;
# - the wall.* times, before the host factor, and the factor itself.
REPORTED = {
    "item_tail_ms": ("ms", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "wall.setup_s": ("s", "lower"),
    "wall.items_per_s": ("1/s", "higher"),
    "wall.item_p50_ms": ("ms", "lower"),
    "host_factor": ("ratio", "lower"),
}

# Traced public functions, "<module>.<function>", with the end-to-end
# metric each should move.  Each gets <name>.calls and <name>.self_ms,
# both per item of the traced phase.
MOVES = {
    "core.transport": "verify items_per_s; flat on classify, which never "
                      "calls it",
    "core.isotope": "verify items_per_s; classify builds only d=4 isotopes",
    "core.sign_pair": "classify items_per_s and item_p50_ms; also verify",
    "core.is_division": "classify items_per_s and item_p50_ms; also verify",
    "core.morphism_residual": "classify items_per_s and item_p50_ms; "
                              "also verify",
    "matkit.sign_det_many": "classify items_per_s and item_p50_ms; "
                            "also verify",
    "core.classical": "verify items_per_s, and setup_s",
    "dim2.normal_form_2d": "classify items_per_s and item_p50_ms",
    "dim2.hom2d": "verify items_per_s (classify never calls hom2d)",
    "quat.quat_normal_form": "classify items_per_s and item_tail_ms",
    "quat.so4_factor": "classify items_per_s and item_tail_ms",
    "quat.functor_h": "classify items_per_s and item_tail_ms",
    "matkit.polar_decompose": "classify items_per_s and item_tail_ms",
    "equadratic.functor_g": "verify items_per_s; oneshot (equad)",
    "equadratic.central_idempotents": "verify items_per_s",
    "equadratic.im_e": "verify items_per_s",
    "decorated.functor_i": "verify items_per_s",
    "decorated.decorate": "verify items_per_s",
}

# Traced functions reported by self time only.  samples.* run at set-up
# (classify, oneshot) or inside the suite (verify), so their self_ms is
# the ms of one traced set-up plus the ms per traced item.
SELF_ONLY = {
    "samples.division_corpus": "setup_s; verify items_per_s",
    "samples.decorated_corpus": "setup_s; verify items_per_s",
    "samples.e_quadratic_corpus": "setup_s; verify items_per_s",
    "samples.random_2d_division": "setup_s; verify items_per_s",
    "io.read_json": "oneshot item_p50_ms only",
    "io.write_json": "oneshot item_p50_ms only",
    "cli.main": "oneshot item_p50_ms only",
}

RATIOS = {
    # morphisms returned / group elements tried
    "dim2.hom2d.accept_ratio": "verify items_per_s",
    # algebras returned / exact2d division checks made
    "samples.random_2d_division.accept_ratio": "setup_s; verify items",
}

PROCESS = {
    "cli.interpreter_start_ms": "oneshot item_p50_ms only",
    "cli.import_ms": "oneshot item_p50_ms only",
}

# The ROADMAP primitive table, timed untraced as the min of repeats.
PRIMITIVES_BY_DIM = ("isotope", "transport", "sign_pair",
                     "morphism_residual", "is_division")
PRIMITIVES = ("normal_form_2d", "quat_normal_form", "functor_g", "classical")

TRACE = {
    "trace.untraced_items_per_s": ("1/s", "higher"),
    "trace.traced_items_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

CHECK_PREFIX = "verify.check."


def primitive_names() -> list[str]:
    return ([f"{p}.d{d}.us_per_call" for p in PRIMITIVES_BY_DIM
             for d in (2, 4, 8)]
            + [f"{p}.us_per_call" for p in PRIMITIVES])


def per_layer(check_names) -> dict[str, tuple[str, str]]:
    """Every per-layer metric, name -> (unit, better)."""
    out = {}
    for fn in MOVES:
        out[f"{fn}.calls"] = ("count", "lower")
        out[f"{fn}.self_ms"] = ("ms", "lower")
    for fn in SELF_ONLY:
        out[f"{fn}.self_ms"] = ("ms", "lower")
    for name in RATIOS:
        out[name] = ("ratio", "higher")
    for name in PROCESS:
        out[name] = ("ms", "lower")
    for name in primitive_names():
        out[name] = ("us", "lower")
    for name in check_names:
        out[f"{CHECK_PREFIX}{name}.self_ms"] = ("ms", "lower")
    out.update(TRACE)
    return out
