"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight scene suites are computed once per session and shared across
criteria. A suite simulates, runs and drops one scene at a time, so it holds
one scene at once. Each scene runs the library's seeded front-end once and
then its post-tracking step, with the one distractor rule, so tracking and
enrollment are reused across sweep cells exactly like the batch runner does.
"""

import time

import numpy as np
import pytest
import yaml

from embtrack.beamforming import mvdr_weights, steering_vector
from embtrack.cli import main as cli_main
from embtrack.embedding import embed
from embtrack.fragments import DurationPolicy
from embtrack.geometry import DoA, angular_distance, doa_from_unit_vector, uniform_sphere
from embtrack.metrics import assa, evaluate_scene, le, match_frames, swap_frag_rates
from embtrack.reassignment import enroll_speakers, reassign_scene, shared_distractors, track_and_enroll
from embtrack.scene import SceneSpec, simulate, synthesize_voice
from embtrack.seeding import derive_seed
from embtrack.tracking import (
    NoiseModel,
    gt_tracker_config,
    observe_est,
    observe_gt,
    track,
)

from conftest import cosine, encode_foa
from test_metrics import brute_force_match, matching_from_pairs

MASTER = 20_25
N_SCENES = 50
CORE = ("ideal", "whole", "oracle")  # the cell of the improvement claim


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def suite_scene(tag, i, **spec):
    """Scene i of a suite, simulated from derive_seed(MASTER, tag, i, "scene")."""
    return simulate(SceneSpec(seed=derive_seed(MASTER, tag, i, "scene"), **spec))


def front_end(scene, tag, i, m, distractors):
    """The library's seeded front-end, track_and_enroll with key (MASTER,
    tag, scene index), the speakers' entries gen would write for that key
    and the shared distractors of MASTER."""
    key = (MASTER, tag, i)
    return track_and_enroll(scene, key, "gt", [m], enroll_speakers(scene.voices, key), distractors)


def run_cells(scene, tracks_by_m, pool, m, cells, after):
    """Each (beamformer, duration, noise covariance source) cell's
    post-tracking step on one scene, as the batch runner runs it; appends
    the cell's metrics to after[cell]."""
    specs = [(m, bf, DurationPolicy.parse(dur), source) for bf, dur, source in cells]
    for cell, result in zip(cells, reassign_scene(scene, tracks_by_m, pool, specs)):
        after.setdefault(cell, []).append(
            evaluate_scene(scene.ground_truth, result.after, scene.duration)
        )


def mean_assa(metrics_list):
    return float(np.mean([m.assa for m in metrics_list]))


@pytest.fixture(scope="session")
def distant_suite():
    """50 distant jump scenes with the full beamformer/duration grid. The
    runtime of criterion 1 sums, over scenes, the time to simulate the scene,
    run its front-end and its CORE cell, and evaluate both; the other cells
    reuse the front-end untimed."""
    rest = [
        ("ideal", "750", "oracle"),
        ("ideal", "250", "oracle"),
        ("ds", "whole", "oracle"),
        ("ds", "750", "oracle"),
        ("ds", "250", "oracle"),
        ("mvdr", "whole", "oracle"),
        ("mvdr", "whole", "gated"),
    ]
    t0 = time.perf_counter()
    distractors = shared_distractors(MASTER, [2], 2)
    runtime = time.perf_counter() - t0
    before, after = [], {}
    for i in range(N_SCENES):
        t0 = time.perf_counter()
        scene = suite_scene("distant", i, duration=30.0)
        tracks_by_m, pool = front_end(scene, "distant", i, 2, distractors)
        before.append(evaluate_scene(scene.ground_truth, tracks_by_m[2], scene.duration))
        run_cells(scene, tracks_by_m, pool, 2, [CORE], after)
        runtime += time.perf_counter() - t0
        run_cells(scene, tracks_by_m, pool, 2, rest, after)
    return {"before": before, "after": after, "runtime": runtime}


@pytest.fixture(scope="session")
def close_suite():
    cells = [("ds", "whole", "oracle"), ("mvdr", "whole", "gated")]
    distractors = shared_distractors(MASTER, [2], 2)
    after = {}
    for i in range(N_SCENES):
        scene = suite_scene("close", i, duration=30.0, separation_regime="close")
        tracks_by_m, pool = front_end(scene, "close", i, 2, distractors)
        run_cells(scene, tracks_by_m, pool, 2, cells, after)
    return {"after": after}


@pytest.fixture(scope="session")
def enrollment_sweep():
    """Longer scenes with fast turn-taking so the identity budget binds for
    every M in the sweep; pre and post (ideal, whole) AssA per M. Each M has
    its own front-end (tag msweep<M>) on the same scenes."""
    sizes = (2, 10, 20, 30)
    # 28 distractors; the pool for a smaller M takes their prefix
    distractors = shared_distractors(MASTER, sizes, 2)
    before = {m: [] for m in sizes}
    after = {m: {} for m in sizes}
    for i in range(20):
        scene = suite_scene(
            "msweep", i, duration=90.0, segment_range=(1.5, 3.5), pause_range=(0.7, 2.0)
        )
        for m in sizes:
            tracks_by_m, pool = front_end(scene, f"msweep{m}", i, m, distractors)
            before[m].append(evaluate_scene(scene.ground_truth, tracks_by_m[m], scene.duration))
            run_cells(scene, tracks_by_m, pool, m, [CORE], after[m])
    pre = {m: mean_assa(before[m]) for m in sizes}
    post = {m: mean_assa(after[m][CORE]) for m in sizes}
    return pre, post


class TestCriterion1Improvement:
    def test_reassignment_improves_assa_by_15_points(self, distant_suite):
        before = mean_assa(distant_suite["before"])
        after = mean_assa(distant_suite["after"][CORE])
        ok = after >= before + 0.15
        report(
            1,
            ok and distant_suite["runtime"] < 300.0,
            f"AssA before={100 * before:.1f}% after={100 * after:.1f}% "
            f"(needs +15 pts), runtime {distant_suite['runtime']:.0f}s < 300s",
        )


class TestCriterion2DurationTrend:
    def test_duration_ordering_for_ideal_and_ds(self, distant_suite):
        details = []
        ok = True
        for bf in ("ideal", "ds"):
            whole = mean_assa(distant_suite["after"][(bf, "whole", "oracle")])
            d750 = mean_assa(distant_suite["after"][(bf, "750", "oracle")])
            d250 = mean_assa(distant_suite["after"][(bf, "250", "oracle")])
            ok = ok and (whole >= d750 - 0.02) and (d750 >= d250 - 0.02)
            details.append(f"{bf}: whole={100 * whole:.1f} 750={100 * d750:.1f} 250={100 * d250:.1f}")
        report(2, ok, "; ".join(details))


class TestCriterion3EnrollmentTrend:
    def test_pre_assa_decreases_and_post_assa_resilient(self, enrollment_sweep):
        pre, post = enrollment_sweep
        sizes = (2, 10, 20, 30)
        decreasing = all(
            pre[b] < pre[a] + 0.01 for a, b in zip(sizes, sizes[1:])
        )
        resilient = post[2] - post[30] <= 0.10
        detail = (
            "pre: " + " ".join(f"M{m}={100 * pre[m]:.1f}" for m in sizes)
            + " | post: " + " ".join(f"M{m}={100 * post[m]:.1f}" for m in sizes)
        )
        report(3, decreasing and resilient, detail)


class TestCriterion4BeamformerOrdering:
    def test_ideal_mvdr_ds_ordering(self, distant_suite):
        ideal = mean_assa(distant_suite["after"][CORE])
        mvdr = mean_assa(distant_suite["after"][("mvdr", "whole", "oracle")])
        ds = mean_assa(distant_suite["after"][("ds", "whole", "oracle")])
        ok = ideal >= mvdr >= ds - 0.02
        report(
            4,
            ok,
            f"ideal={100 * ideal:.1f} >= mvdr(oracle)={100 * mvdr:.1f} >= ds={100 * ds:.1f} - 2",
        )


class TestCriterion5SpeakerProximity:
    def test_distant_at_least_close(self, distant_suite, close_suite):
        details = []
        ok = True
        for cell in (("ds", "whole", "oracle"), ("mvdr", "whole", "gated")):
            distant = mean_assa(distant_suite["after"][cell])
            close = mean_assa(close_suite["after"][cell])
            ok = ok and distant >= close
            details.append(f"{cell[0]}: distant={100 * distant:.1f} close={100 * close:.1f}")
        report(5, ok, "; ".join(details))


class TestCriterion6MetricOracles:
    def test_handcrafted_instances_and_brute_force(self):
        checks = []

        # 1: perfect single-track
        m = matching_from_pairs([([("g", "p", 0.0)], [], [])] * 40)
        checks.append(assa(m) == 1.0)
        # 2: split track (TPA=FNA=T/2, FPA=0) -> exactly 0.5
        m = matching_from_pairs(
            [([("g", "A", 0.0)], [], [])] * 20 + [([("g", "B", 0.0)], [], [])] * 20
        )
        checks.append(assa(m) == pytest.approx(0.5))
        # 3: full swap of two GTs at midpoint: every class 50/150
        m = matching_from_pairs(
            [([("g0", "A", 0.0), ("g1", "B", 0.0)], [], [])] * 50
            + [([("g0", "B", 0.0), ("g1", "A", 0.0)], [], [])] * 50
        )
        checks.append(assa(m) == pytest.approx(1.0 / 3.0))
        # 4: missed frames dilute association
        m = matching_from_pairs(
            [([("g", "A", 0.0)], [], [])] * 30 + [([], ["g"], [])] * 10
        )
        checks.append(assa(m) == pytest.approx(0.75))
        # 5: no TPs
        m = matching_from_pairs([([], ["g"], ["p"])] * 4)
        checks.append(assa(m) == 0.0)
        # 6: LE zero on exact prediction
        m = matching_from_pairs([([("g", "p", 0.0)], [], [])] * 10)
        checks.append(le(m) == 0.0)
        # 7: LE equals a constant offset
        m = matching_from_pairs([([("g", "p", 5.0)], [], [])] * 10)
        checks.append(le(m) == pytest.approx(5.0))
        # 8: LE averages over TPs only
        m = matching_from_pairs(
            [([("g", "p", 4.0)], [], []), ([], ["g"], ["p"]), ([("g", "p", 8.0)], [], [])]
        )
        checks.append(le(m) == pytest.approx(6.0))
        # 9: stable matching has zero event rates
        m = matching_from_pairs([([("g", "p", 0.0)], [], [])] * 100)
        checks.append(swap_frag_rates(m, 10.0) == (0.0, 0.0))
        # 10: handover = one fragmentation, no swap
        m = matching_from_pairs(
            [([("g", "A", 0.0)], [], [])] * 50 + [([("g", "B", 0.0)], [], [])] * 50
        )
        tsr, tfr = swap_frag_rates(m, 10.0)
        checks.append((tsr, tfr) == (0.0, pytest.approx(0.1)))
        # 11: full exchange = two swaps and two fragmentations
        m = matching_from_pairs(
            [([("g0", "A", 0.0), ("g1", "B", 0.0)], [], [])] * 50
            + [([("g0", "B", 0.0), ("g1", "A", 0.0)], [], [])] * 50
        )
        tsr, tfr = swap_frag_rates(m, 10.0)
        checks.append((tsr, tfr) == (pytest.approx(0.2), pytest.approx(0.2)))
        # 12: events persist across inactivity gaps
        m = matching_from_pairs(
            [([("g", "A", 0.0)], [], []), ([], ["g"], []), ([("g", "B", 0.0)], [], [])]
        )
        _, tfr = swap_frag_rates(m, 3.0)
        checks.append(tfr == pytest.approx(1.0 / 3.0))

        # Hungarian equals permutation brute-force on 1000 random instances
        rng = np.random.default_rng(123)
        agree = True
        for _ in range(1000):
            n_gt = int(rng.integers(0, 6))
            n_pred = int(rng.integers(0, 6))
            gt = {
                g: DoA(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
                for g in range(n_gt)
            }
            pred = {
                p: DoA(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
                for p in range(n_pred)
            }
            alpha = float(rng.uniform(10, 120))
            matching = match_frames([gt], [pred], alpha_deg=alpha)
            tp_oracle, dist_oracle = brute_force_match(gt, pred, alpha)
            total = sum(d for _, _, d in matching.matches[0])
            agree = agree and matching.tp == tp_oracle and abs(total - dist_oracle) < 1e-9

        ok = all(bool(c) for c in checks) and agree
        report(
            6,
            ok,
            f"{len(checks)} handcrafted instances exact; Hungarian == brute force on 1000 instances",
        )


class TestCriterion7BeamformerAlgebra:
    def test_distortionless_and_passthrough(self):
        rng = np.random.default_rng(7)
        doas = [doa_from_unit_vector(v) for v in uniform_sphere(rng, 1000)]

        ds_ok = True
        for doa in doas:
            d = steering_vector(doa)
            w = d / float(d @ d)
            ds_ok = ds_ok and abs(float(w @ d) - 1.0) < 1e-10

        raw = rng.standard_normal((1000, 4, 8)) + 1j * rng.standard_normal((1000, 4, 8))
        covs = np.einsum("bck,bdk->bcd", raw, np.conj(raw)) / 8.0
        mvdr_ok = True
        for i, doa in enumerate(doas):
            d = steering_vector(doa)
            weights, _ = mvdr_weights(covs[i : i + 1], d)
            mvdr_ok = mvdr_ok and abs(np.conj(weights[0]) @ d - 1.0) < 1e-10

        s = rng.standard_normal(3200)
        passthrough_ok = True
        for doa in doas[:20]:
            from embtrack.beamforming import beamform_ds

            out = beamform_ds(encode_foa(s, doa), doa)
            passthrough_ok = passthrough_ok and np.allclose(out, s, atol=1e-12)

        from embtrack.beamforming import beamform_ds
        from embtrack.dsp import istft, stft
        from embtrack.scene import FoaSignal

        mixture = FoaSignal(rng.standard_normal((4, 8000)))
        identity_ok = True
        for doa in doas[:20]:
            d = steering_vector(doa)
            weights, _ = mvdr_weights(np.tile(np.eye(4, dtype=complex), (257, 1, 1)), d)
            spec = stft(mixture.channels)
            out = istft(np.einsum("fc,cft->ft", np.conj(weights), spec), 8000)
            ds = beamform_ds(mixture, doa)
            identity_ok = identity_ok and np.max(np.abs(out - ds)) < 1e-9 * np.max(np.abs(ds))

        ok = ds_ok and mvdr_ok and passthrough_ok and identity_ok
        report(
            7,
            ok,
            "w^H d = 1 within 1e-10 (1000 DoAs, DS and loaded MVDR); DS pass-through exact; "
            "identity-covariance MVDR == DS to 1e-9",
        )


class TestCriterion8EmbedderSeparation:
    def test_panel_margin_and_gain_invariance(self, panel_similarities):
        same, cross = panel_similarities
        margin = float(same.mean() - cross.mean())

        rng = np.random.default_rng(88)
        from embtrack.scene import sample_voice_params

        voice = sample_voice_params(rng)
        s = synthesize_voice(voice, 2.0, seed=1)
        gain_err = max(
            float(np.max(np.abs(embed(a * s).vector - embed(s).vector)))
            for a in (0.1, 2.0, 25.0)
        )
        ok = margin >= 0.2 and gain_err < 1e-6
        report(
            8,
            ok,
            f"same-vs-cross cosine margin {margin:.3f} >= 0.2; gain invariance err {gain_err:.2e}",
        )


class TestCriterion9TrackerSanity:
    def test_static_source_and_est_calibration(self):
        from embtrack.scene import SpeakerGroundTruth, VoiceParams

        voice = VoiceParams(120.0, -6.0, (), 3.0)
        gt = SpeakerGroundTruth(0, voice)
        gt.segments = [(0.0, 20.0, DoA(40, 10))]
        trajectories = track(observe_gt([gt]), gt_tracker_config(2, seed=0))
        metrics = evaluate_scene([gt], trajectories, 20.0)
        static_ok = (
            len(trajectories) == 1
            and metrics.le <= 5.0
            and metrics.tsr == 0.0
            and metrics.tfr == 0.0
        )

        frames = observe_est(
            [gt], NoiseModel(kappa_error=124.0, miss_prob=0.0, false_alarm_rate=0.0), seed=1
        )
        errors = [
            angular_distance(f.detections[0][0], DoA(40, 10)) for f in frames
        ]
        mean_err = float(np.mean(errors))
        est_ok = 6.0 <= mean_err <= 7.0
        report(
            9,
            static_ok and est_ok,
            f"single source: {len(trajectories)} track, LE={metrics.le:.2f} deg, "
            f"TSR={metrics.tsr}, TFR={metrics.tfr}; EST mean error {mean_err:.2f} deg in [6, 7]",
        )


class TestCriterion10Determinism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = {
            "master_seed": 11,
            "dataset": {"count": 3, "duration": 8.0},
            "run": {
                "beamformers": ["ideal", "ds"],
                "durations": ["whole"],
                "enrollment_sizes": [2],
            },
            "eval": {"bootstrap_iters": 25},
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        reports = []
        for run in ("a", "b"):
            data = tmp_path / f"data_{run}"
            results = tmp_path / f"results_{run}"
            out = tmp_path / f"report_{run}.json"
            assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
            assert (
                cli_main(
                    ["run", "--config", str(cfg_path), "--dataset", str(data), "--out", str(results)]
                )
                == 0
            )
            assert (
                cli_main(
                    [
                        "eval",
                        "--config",
                        str(cfg_path),
                        "--dataset",
                        str(data),
                        "--results",
                        str(results),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            reports.append(out.read_bytes())
        ok = reports[0] == reports[1]
        report(10, ok, f"two full pipeline runs produced byte-identical report JSON ({len(reports[0])} bytes)")
