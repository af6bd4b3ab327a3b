"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line on the real stdout so the
criterion verdicts are visible regardless of capture settings.
"""

import itertools
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from manipsem.actions import GROUND
from manipsem.bench import compare_models
from manipsem.bleu import bleu
from manipsem.config import RunConfig
from manipsem.events import dump_trace, extract_atomic_actions, load_trace, segment_actions
from manipsem.geometry import (
    RegionClass,
    classify_points,
    compute_aabb,
    compute_convex_hull,
)
from manipsem.grammar import parse
from manipsem.library import decompose, default_library, recognize
from manipsem.pipeline import analyze_trace, describe_hand
from manipsem.realizer import available_levels, realize_level
from manipsem.relations import classify_ssr, ssr_dual
from manipsem.synth import (
    SCENARIOS,
    ScenarioSpec,
    Script,
    generate_synthetic_trace,
    make_corpus,
)
from helpers import NOISY_OVERRIDES, directed_edge_multiset, euler_counts
from test_relations import catalogue

EPS_GEOM = 1e-9


def report(num: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} {label}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- criterion 1: geometry oracle -------------------------------------------

def _supporting_planes(verts, tol):
    idx = np.array(list(itertools.combinations(range(len(verts)), 3)))
    a, b, c = verts[idx[:, 0]], verts[idx[:, 1]], verts[idx[:, 2]]
    n = np.cross(b - a, c - a)
    norms = np.linalg.norm(n, axis=1)
    keep = norms > 1e-12
    n = n[keep] / norms[keep, None]
    d = -np.einsum("ij,ij->i", n, a[keep])
    side = verts @ n.T + d
    pos = side.max(axis=0) <= tol
    neg = side.min(axis=0) >= -tol
    return np.vstack([
        np.hstack([n[pos], d[pos, None]]),
        np.hstack([-n[neg], -d[neg, None]]),
    ])


def test_criterion_1_geometry_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    trials = 0
    disagreements = 0
    while trials < 10_000:
        pts = rng.uniform(0, 1, size=(12, 3))
        hull = compute_convex_hull(pts)
        planes = _supporting_planes(hull.vertices, EPS_GEOM)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        probes = rng.uniform(lo - 0.2, hi + 0.2, size=(100, 3))
        ours = classify_points(hull, probes, EPS_GEOM)
        worst = (probes @ planes[:, :3].T + planes[:, 3]).max(axis=1)
        oracle = np.full(len(probes), RegionClass.BOUNDARY, dtype=np.intp)
        oracle[worst < -EPS_GEOM] = RegionClass.INTERIOR
        oracle[worst > EPS_GEOM] = RegionClass.EXTERIOR
        disagreements += int((ours != oracle).sum())
        trials += len(probes)
    elapsed = time.perf_counter() - t0
    report(1, "point-classification oracle", disagreements == 0 and elapsed < 10.0,
           f"{trials} trials, {disagreements} disagreements, {elapsed:.1f}s")


# -- criterion 2: hull invariant suite ---------------------------------------

def test_criterion_2_hull_invariants():
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        pts = rng.uniform(-1, 1, size=(n, 3))
        try:
            h = compute_convex_hull(pts)
            worst = (pts @ h.face_planes[:, :3].T + h.face_planes[:, 3]).max()
            assert worst <= EPS_GEOM
            assert not np.any(classify_points(h, pts, 1e-7) == RegionClass.EXTERIOR)
            v, e, f = euler_counts(h)
            assert v - e + f == 2
            de = directed_edge_multiset(h)
            assert len(set(de)) == len(de)
            und = {}
            for a, b in de:
                und[(min(a, b), max(a, b))] = und.get((min(a, b), max(a, b)), 0) + 1
            assert set(und.values()) == {2}
            bb = compute_aabb(pts)
            assert bb.contains(h.vertices, 1e-12).all()
        except Exception:
            failures += 1
    report(2, "hull invariants on 1000 random clouds", failures == 0,
           f"{failures} failures")


# -- criterion 3: the 13-relation catalogue ----------------------------------

def test_criterion_3_relation_catalogue():
    cases = catalogue()
    correct = 0
    dual_ok = True
    for want, (a, b) in cases.items():
        fwd = classify_ssr(a, b)
        rev = classify_ssr(b, a)
        correct += fwd.value == want
        dual_ok &= ssr_dual(rev) is fwd
    report(3, "13-relation catalogue with duality",
           correct == 13 and dual_ok, f"{correct}/13, duality={dual_ok}")


# -- criterion 4: hull vs box comparison -------------------------------------

@pytest.fixture(scope="module")
def corpus_500():
    return make_corpus(500, seed=42)


def test_criterion_4_model_comparison(corpus_500):
    rep = compare_models(corpus_500)
    hull_acc = rep.accuracy("hull")
    box_acc = rep.accuracy("aabb")
    no_patterns = sum(rep.emitted["aabb"].values()) == 0
    ok = hull_acc > box_acc and no_patterns
    report(4, "hull accuracy strictly above box accuracy", ok,
           f"hull {hull_acc:.3f} vs box {box_acc:.3f}, "
           f"box containment emissions {sum(rep.emitted['aabb'].values())}")


# -- criterion 5: grammar round trip -----------------------------------------

POOLS = {
    "?tool": ["knife", "spoon", "cup", "hammer", "saw", "screwdriver", "sponge"],
    "?object": ["apple", "bowl", "board", "disk", "mouth", "nail", "mug"],
    "?place": [GROUND, "tray"],
    "?target": [GROUND, "counter"],
}


def test_criterion_5_grammar_round_trip():
    lib = default_library()
    rng = random.Random(5)
    total = 0
    good = 0
    for name in SCENARIOS:
        entry = lib[name]
        for _ in range(20):
            binds = {}
            used = set()
            for var in entry.variables:
                pool = [v for v in POOLS.get(var, ["thing"])
                        if v == GROUND or v not in used]
                binds[var] = rng.choice(pool)
                used.add(binds[var])
            reps = rng.randint(1, 5)
            acts = decompose(name, binds, lib, hand=rng.choice(["left", "right"]),
                             repeats=reps)
            rec = recognize(acts, lib)
            total += 1
            good += ([r.name for r in rec] == [name]
                     and rec[0].bindings == binds)
    push = ("Hand_L T O1 ArT Ground "
            "Hand_L O1 Fmt Ground To Ground "
            "Hand_L U O1 Ar Ground").split()
    tree = parse(push)
    push_ok = tree.leaves() == push and tree.symbol == "S"
    report(5, "library round trip and push parse",
           good == total == 280 and push_ok, f"{good}/{total}, push={push_ok}")


# -- criterion 6: pipeline closure -------------------------------------------

def _aa_key(aa):
    return (aa.subject.side, aa.subject.carried, aa.primitive.value,
            aa.object_token(), aa.relation.value, aa.place)


def _closure_case(args):
    name, seed, noise = args
    cfg = RunConfig().with_overrides(**NOISY_OVERRIDES) if noise else RunConfig()
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=seed, noise=noise))
    got = extract_atomic_actions(gen.trace, cfg).for_hand(gen.hand)
    exact = [_aa_key(a) for a in got] == [_aa_key(a) for a in gen.actions]
    names = [r.name for r in recognize(got, default_library())]
    return exact, names == [name]


def _sweep(noise):
    cases = [(name, seed, noise) for name in SCENARIOS for seed in range(20)]
    with ProcessPoolExecutor() as pool:
        results = list(pool.map(_closure_case, cases, chunksize=8))
    return results


def test_criterion_6_pipeline_closure():
    clean = _sweep(0.0)
    exact = sum(e for e, _ in clean)
    recovered = sum(r for _, r in clean)
    noisy = _sweep(0.01)
    noisy_recovered = sum(r for _, r in noisy)
    ok = exact == 280 and recovered == 280 and noisy_recovered >= 0.9 * 280
    report(6, "generator/extractor/grammar closure", ok,
           f"noise-free exact {exact}/280, recovered {recovered}/280, "
           f"noisy recovered {noisy_recovered}/280")


# -- criterion 7: description golden files -----------------------------------

GOLDEN_SCREW = ("The left hand performs screwing inside of a hard disk "
                "on the table by a screwdriver.")
GOLDEN_WIPE = "The left hand wipes the table by a sponge."


def _top_sentences(name, seed=7):
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=seed))
    analysis = analyze_trace(gen.trace)
    ha = analysis.hands["left"]
    assert len(ha.episodes) == 1
    ep = ha.episodes[0]
    levels = sorted(ep.levels())
    per_level = {k: realize_level(ep.snippet, ep.recognized, k,
                                  analysis.templates, analysis.lib,
                                  analysis.labels())
                 for k in levels}
    return ep, levels, per_level


def test_criterion_7_description_goldens():
    ep_s, levels_s, per_s = _top_sentences("Screw")
    ep_w, levels_w, per_w = _top_sentences("Wipe")
    screw_top = per_s[levels_s[-1]].texts()
    wipe_top = per_w[levels_w[-1]].texts()
    tiers_ok = levels_s == [1, 2, 3] and levels_w == [1, 2, 3]
    bijection = (len(per_s[1].sentences) == len(ep_s.snippet.actions)
                 and len(per_w[1].sentences) == len(ep_w.snippet.actions))
    ok = (screw_top == [GOLDEN_SCREW] and wipe_top == [GOLDEN_WIPE]
          and tiers_ok and bijection)
    report(7, "three-tier goldens byte-equal", ok,
           f"tiers={tiers_ok}, level-1 bijection={bijection}")


# -- criterion 8: BLEU --------------------------------------------------------

def test_criterion_8_bleu():
    cand = "the left hand wipes the table by a sponge".split()
    self_exact = bleu(cand, [cand]).score == 1.0
    clipped = bleu("the the the the".split(), ["the cat sat".split()], max_n=1)
    clip_ok = abs(clipped.precisions[0] - 0.25) <= 1e-9
    disjoint = bleu("alpha beta".split(), ["gamma delta".split()]).score == 0.0
    ok = self_exact and clip_ok and disjoint
    report(8, "BLEU exactness", ok,
           f"self={self_exact}, clip={clip_ok}, disjoint={disjoint}")


# -- criterion 9: performance -------------------------------------------------

def _performance_trace(tmp_path):
    """1000 frames, six 60-point objects (plus the ground box)."""
    rng = np.random.default_rng(0)
    sc = Script(rng, 0.0, per_edge=4)   # 57 lattice points
    sc.add_ground()
    for oid, label, role, size, at in (
            ("hand_l", "left hand", "hand_left", (0.08, 0.08, 0.08), (0, 0.4, 0)),
            ("tool", "screwdriver", "object", (0.03, 0.1, 0.03), (-0.25, 0.05, 0)),
            ("disk", "hard disk", "object", (0.12, 0.1, 0.12), (0.2, 0.05, 0)),
            ("block1", "box", "object", (0.1, 0.16, 0.1), (-0.5, 0.08, 0.4)),
            ("block2", "box", "object", (0.1, 0.16, 0.1), (0.5, 0.08, -0.4)),
            ("block3", "box", "object", (0.12, 0.12, 0.12), (-0.5, 0.06, -0.4))):
        sc.add(oid, label, role, size, at)
        extra = sc.clouds[oid][:3] * 0.5   # top up to exactly 60 points
        sc.clouds[oid] = np.vstack([sc.clouds[oid], extra])
        assert len(sc.clouds[oid]) == 60
    sc.pos["hand_l"] = np.array([-0.25, 0.1 + 0.04 + 0.15, 0.0])
    sc.hold(40)
    pair = ["hand_l", "tool"]
    sc.move({"hand_l": (0, -0.15, 0)}, 8)
    sc.hold(30)
    sc.move({i: (0, 0.2, 0) for i in pair}, 12)
    sc.move({i: (0.45, 0, 0) for i in pair}, 24)
    sc.move({i: (0, -0.2 + 0.003, 0) for i in pair}, 10)
    sc.shake(pair, 60, axis=0, amp=0.01)
    sc.hold(120)
    sc.shake(pair, 60, axis=2, amp=0.01)
    sc.move({i: (0, 0.2, 0) for i in pair}, 12)
    sc.move({i: (-0.45, 0, 0) for i in pair}, 24)
    sc.move({i: (0, -0.2, 0) for i in pair}, 10)
    sc.hold(20)
    sc.move({"hand_l": (0, 0.25, 0)}, 10)
    trace = sc.build_trace("bench-1000", min_frames=1000)
    path = tmp_path / "perf.jsonl"
    dump_trace(trace, str(path))
    return path


def test_criterion_9_performance(tmp_path, corpus_500):
    path = _performance_trace(tmp_path)
    t0 = time.perf_counter()
    trace = load_trace(str(path))
    analysis = analyze_trace(trace)
    for hand in ("left", "right"):
        describe_hand(analysis, hand)
    pipeline_s = time.perf_counter() - t0
    assert len(trace) == 1000
    assert len(trace.frames[0].objects) == 7  # six cloud objects + ground box

    t0 = time.perf_counter()
    compare_models(corpus_500)
    bench_s = time.perf_counter() - t0
    ok = pipeline_s < 5.0 and bench_s < 60.0
    report(9, "throughput bounds", ok,
           f"pipeline {pipeline_s:.2f}s < 5s, corpus bench {bench_s:.1f}s < 60s")
