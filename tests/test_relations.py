import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manipsem.config import RelationConfig
from manipsem.relations import (
    DsrLabel,
    ObjectState,
    PATTERN_LABELS,
    SsrLabel,
    WindowTooShort,
    classify_dsr,
    classify_ssr,
    ssr_dual,
)
from conftest import box_cloud


def state(lo, hi, per_edge=4, **kw):
    return ObjectState.from_cloud(box_cloud(lo, hi, per_edge, **kw))


def catalogue():
    """One constructed cube-pair fixture per static label."""
    cases = {}
    cases["Ab"] = (state((0, 2, 0), (1, 3, 1)), state((0, 0, 0), (1, 1, 1)))
    cases["Be"] = (state((0, 0, 0), (1, 1, 1)), state((0, 2, 0), (1, 3, 1)))
    cases["To"] = (state((0, 1, 0), (1, 2, 1)), state((0, 0, 0), (1, 1, 1)))
    cases["Bo"] = (state((0, 0, 0), (1, 1, 1)), state((0, 1, 0), (1, 2, 1)))
    cases["Ar"] = (state((1.05, 0, 0), (2.05, 1, 1)), state((0, 0, 0), (1, 1, 1)))
    cases["ArT"] = (state((1, 0, 0), (2, 1, 1)), state((0, 0, 0), (1, 1, 1)))
    cases["In"] = (state((0.6, 0.2, 0.2), (0.999, 0.6, 0.6)),
                   state((0, 0, 0), (1, 1, 1), center=False))
    cases["Su"] = (state((0, 0, 0), (1, 1, 1), center=False),
                   state((0.6, 0.2, 0.2), (0.999, 0.6, 0.6)))
    cases["Cr"] = (state((0.5, 0, 0), (1.5, 1, 1)), state((0, 0, 0), (1, 1, 1)))
    cases["Wi"] = (state((0.3, 0.3, 0.3), (0.7, 0.7, 0.7)),
                   state((0, 0, 0), (1, 1, 1), center=False))
    cases["Co"] = (state((0, 0, 0), (1, 1, 1), center=False),
                   state((0.3, 0.3, 0.3), (0.7, 0.7, 0.7)))
    rod = ObjectState.from_cloud(box_cloud((0.4, 0.5, 0.4), (0.6, 1.5, 0.6)))
    openbox = ObjectState.from_cloud(
        box_cloud((0, 0, 0), (1, 1, 1), per_edge=5, skip_top_inner=True, center=False))
    cases["Pwi"] = (rod, openbox)
    cases["Pco"] = (openbox, rod)
    return cases


class TestCatalogue:
    def test_all_thirteen(self):
        hits = 0
        for want, (a, b) in catalogue().items():
            got = classify_ssr(a, b)
            assert got.value == want, f"{want}: got {got.value}"
            hits += 1
        assert hits == 13

    def test_duality_on_all_ordered_pairs(self):
        for want, (a, b) in catalogue().items():
            fwd = classify_ssr(a, b)
            rev = classify_ssr(b, a)
            assert ssr_dual(rev) is fwd
            assert ssr_dual(fwd) is rev

    def test_no_relation_when_far(self):
        a = state((0, 0, 0), (1, 1, 1))
        b = state((3, 0, 0), (4, 1, 1))
        assert classify_ssr(a, b) is SsrLabel.NoRelation

    def test_aabb_mode_never_emits_patterns(self):
        for name in ("In", "Su", "Cr", "Wi", "Co", "Pwi", "Pco"):
            a, b = catalogue()[name]
            assert classify_ssr(a, b, mode="aabb") not in PATTERN_LABELS

    def test_aabb_mode_keeps_directional_labels(self):
        a, b = catalogue()["To"]
        assert classify_ssr(a, b, mode="aabb") is SsrLabel.To

    def test_in_su_alias_toggle(self):
        a, b = catalogue()["In"]
        cfg = RelationConfig(distinguish_in_su=False)
        assert classify_ssr(a, b, cfg) is SsrLabel.Wi
        assert classify_ssr(b, a, cfg) is SsrLabel.Co

    def test_unknown_mode(self):
        a, b = catalogue()["To"]
        with pytest.raises(ValueError):
            classify_ssr(a, b, mode="voxels")


class TestDuals:
    def test_pairings(self):
        assert ssr_dual(SsrLabel.Wi) is SsrLabel.Co
        assert ssr_dual(SsrLabel.Pwi) is SsrLabel.Pco
        assert ssr_dual(SsrLabel.In) is SsrLabel.Su
        assert ssr_dual(SsrLabel.Ab) is SsrLabel.Be
        assert ssr_dual(SsrLabel.To) is SsrLabel.Bo

    def test_self_duals(self):
        for lab in (SsrLabel.Cr, SsrLabel.Ar, SsrLabel.ArT, SsrLabel.NoRelation):
            assert ssr_dual(lab) is lab

    def test_involution(self):
        for lab in SsrLabel:
            assert ssr_dual(ssr_dual(lab)) is lab


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=99_999))
def test_duality_random_pairs(seed):
    rng = np.random.default_rng(seed)
    a = state(rng.uniform(-1, 0, 3), rng.uniform(0.05, 1, 3), per_edge=3)
    lo = rng.uniform(-1.2, 1.2, 3)
    b = state(lo, lo + rng.uniform(0.1, 1, 3), per_edge=3)
    assert classify_ssr(a, b) is ssr_dual(classify_ssr(b, a))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=99_999),
       st.floats(min_value=-2, max_value=2, allow_nan=False),
       st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_translation_invariance_xz(seed, dx, dz):
    rng = np.random.default_rng(seed)
    a_lo, a_hi = rng.uniform(-1, 0, 3), rng.uniform(0.05, 1, 3)
    b_lo = rng.uniform(-1.2, 1.2, 3)
    b_hi = b_lo + rng.uniform(0.1, 1, 3)
    shift = np.array([dx, 0.0, dz])
    base = classify_ssr(state(a_lo, a_hi), state(b_lo, b_hi))
    moved = classify_ssr(state(a_lo + shift, a_hi + shift),
                         state(b_lo + shift, b_hi + shift))
    assert base is moved


def test_determinism():
    a, b = catalogue()["Pwi"]
    labels = {classify_ssr(a, b) for _ in range(5)}
    assert len(labels) == 1


class TestDsr:
    def tracks(self, w=10):
        still = np.zeros((w, 3))
        move = np.cumsum(np.tile([[0.05, 0, 0]], (w, 1)), axis=0)
        return still, move

    def test_moving_together(self):
        _, move = self.tracks()
        assert classify_dsr(move, move + [0.1, 0, 0], True) is DsrLabel.Mt

    def test_fixed_moving_together(self):
        still, _ = self.tracks()
        ang = np.linspace(0, np.pi, 10)
        orbit = np.stack([0.3 * np.cos(ang), np.zeros(10), 0.3 * np.sin(ang)], axis=1)
        assert classify_dsr(orbit, still, True) is DsrLabel.Fmt

    def test_halting_together(self):
        still, _ = self.tracks()
        assert classify_dsr(still, still + [0.05, 0, 0], True) is DsrLabel.Ht

    def test_stable_apart(self):
        still, _ = self.tracks()
        assert classify_dsr(still, still + [1.0, 0, 0], False) is DsrLabel.S

    def test_getting_close_and_apart(self):
        still, move = self.tracks()
        target = still + [2.0, 0, 0]
        assert classify_dsr(move, target, False) is DsrLabel.Gc
        assert classify_dsr(move[::-1].copy(), target, False) is DsrLabel.Ma

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            classify_dsr(np.zeros((1, 3)), np.zeros((1, 3)), False)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            classify_dsr(np.zeros((5, 3)), np.zeros((6, 3)), False)

    def test_onset_ramp_is_not_fmt(self):
        # both ramp up together but cross the threshold on different frames
        ramp_a = np.cumsum(np.tile([[0.003, 0, 0]], (10, 1)), axis=0)
        ramp_b = ramp_a * 0.9 + [0.1, 0, 0]
        cfg = RelationConfig(delta_move=2.95e-3)
        assert classify_dsr(ramp_a, ramp_b, True, cfg) is not DsrLabel.Fmt


def test_relation_config_validation():
    with pytest.raises(ValueError):
        RelationConfig(theta_near=0.0)
    with pytest.raises(ValueError):
        RelationConfig(window=1)


@pytest.mark.parametrize("flat", [False, True])
def test_from_cloud_takes_its_cloud_as_given(monkeypatch, flat):
    """The hull, its box fallback and the AABB take the array as given,
    unchecked; the state equals one built by the public functions."""
    from manipsem import geometry

    cloud = box_cloud((0, 0, 0), (1, 1, 1), 3)
    if flat:
        cloud[:, 1] = 0.0
    calls, check = [], geometry.as_cloud

    def counted(points):
        calls.append(1)
        return check(points)

    monkeypatch.setattr(geometry, "as_cloud", counted)
    got = ObjectState.from_cloud(cloud)
    assert got.cloud is cloud
    assert calls == []
    monkeypatch.undo()
    want = geometry.hull_with_fallback(cloud)
    assert got.hull.degenerate == flat == want.degenerate
    assert np.array_equal(got.hull.vertices, want.vertices)
    assert np.array_equal(got.hull.face_planes, want.face_planes)
    box = geometry.compute_aabb(cloud)
    assert np.array_equal(got.aabb.min_corner, box.min_corner)
    assert np.array_equal(got.aabb.max_corner, box.max_corner)
