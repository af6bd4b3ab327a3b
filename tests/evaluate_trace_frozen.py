"""``bench.evaluate_trace`` as it was when every ground-truth case was
classified on its own, in both modes, even where a case's two object
states were those of a case already scored.  Frozen as the oracle of
``test_bench.py``'s label-memo tests, which require equal reports.

Only the report, the geometry cache and the classifier are taken from the
package: they did not change.
"""

from manipsem.bench import MODES, AccuracyReport
from manipsem.config import RunConfig
from manipsem.events import GeometryCache
from manipsem.relations import PATTERN_LABELS, classify_ssr


def frozen_evaluate_trace(trace, relations, cfg=None):
    """Score both models on one trace against its relation ground truth."""
    cfg = cfg or RunConfig()
    rep = AccuracyReport()
    by_frame = {}
    for gt in relations:
        if gt.frame < len(trace.frames):
            by_frame.setdefault(gt.frame, []).append(gt)
    evaluated = sorted(by_frame)
    cache = GeometryCache([trace.frames[f] for f in evaluated], cfg)
    for k, f_idx in enumerate(evaluated):
        present = cache.ids[k]
        for gt in by_frame[f_idx]:
            if gt.a not in present or gt.b not in present:
                continue
            rep.total += 1
            sa, sb, memo = cache.state(gt.a, k), cache.state(gt.b, k), cache.pair(gt.a, gt.b, k)
            truth = gt.label.value
            for mode in MODES:
                pred = classify_ssr(sa, sb, cfg.relation, cfg.geometry, mode=mode, memo=memo)
                rep.confusion[mode][(truth, pred.value)] += 1
                if pred in PATTERN_LABELS:
                    rep.emitted[mode][pred.value] += 1
                if pred is gt.label:
                    rep.correct[mode] += 1
    return rep
