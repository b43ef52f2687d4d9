"""Synthetic FOA acoustic scenes: intermittent speakers that move only while silent.

Channel convention is ACN order (W, Y, Z, X) with SN3D normalization, so a
plane wave s from (az, el) encodes as
    W = s,  Y = s sin(az) cos(el),  Z = s sin(el),  X = s cos(az) cos(el).

Every signal is at dsp.SAMPLE_RATE; the sample rate is a constant, not a
field of a scene, its spec or a signal.

render_scene is the one rendering path: it builds each speaker's wet signal
in turn, adds it to the mixture and hands it to its caller before building
the next. simulate collects the wet signals it hands over into a Scene;
fileio.write_scene writes each one to disk and drops it.

Each voice segment is synthesized from one wavetable of its harmonic
waveform (2^15 nodes per period, read by cubic Hermite interpolation,
within 1e-9 of the per-harmonic sin sum at unit RMS), a block of samples at
a time: besides the segment itself, synthesis holds the 1 MB table, one
block's arrays and, for the RMS, one segment-length temporary.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .dsp import SAMPLE_RATE
from .geometry import DoA, angular_distance, doa_from_unit_vector, uniform_sphere

SEPARATION_REGIMES = {
    "distant": (60.0, 180.0),
    "close": (25.0, 60.0),
}


class SceneConstraintError(RuntimeError):
    """Raised when the separation regime cannot be satisfied after bounded retries."""


@dataclass(frozen=True)
class VoiceParams:
    """Parametric stand-in for a speaker's vocal identity."""

    f0: float
    spectral_tilt: float
    resonances: tuple[tuple[float, float, float], ...]
    modulation_rate: float

    def __post_init__(self):
        if not (80.0 <= self.f0 <= 300.0):
            raise ValueError(f"f0 {self.f0} outside [80, 300] Hz")
        centers = [r[0] for r in self.resonances]
        if any(c2 <= c1 for c1, c2 in zip(centers, centers[1:])):
            raise ValueError("resonance centers must be strictly increasing")


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    _: KW_ONLY  # every other field by name
    num_speakers: int = 2
    duration: float = 20.0
    snr: float | None = 15.0
    level_diff_range: tuple[float, float] = (2.0, 4.0)
    separation_regime: str = "distant"
    segment_range: tuple[float, float] = (2.0, 6.0)
    pause_range: tuple[float, float] = (1.0, 4.0)
    jump_on_silence: bool = True

    def __post_init__(self):
        if not (0.0 < self.duration and math.isfinite(self.duration * SAMPLE_RATE)):
            raise ValueError(f"duration {self.duration} s must be positive, with a finite sample count")
        if self.snr is not None and not math.isfinite(self.snr):
            raise ValueError(f"snr {self.snr} is not finite (None adds no noise)")
        if self.num_speakers < 1:
            raise ValueError("need at least one speaker")
        if self.level_diff_range[0] > self.level_diff_range[1]:
            raise ValueError("level_diff_range low > high")
        if self.separation_regime not in SEPARATION_REGIMES:
            raise ValueError(f"unknown separation regime {self.separation_regime!r}")
        lo, hi = SEPARATION_REGIMES[self.separation_regime]
        # A crude satisfiability check: J mutually separated directions need room.
        if self.num_speakers > max(2, int(360.0 / max(lo, 1.0))):
            raise ValueError("separation regime unsatisfiable for this many speakers")


@dataclass
class SpeakerGroundTruth:
    speaker_id: int
    voice: VoiceParams
    segments: list[tuple[float, float, DoA]] = field(default_factory=list)

    def doa_at(self, t: float) -> DoA | None:
        """DoA if the speaker is active at time t, else None."""
        for onset, offset, doa in self.segments:
            if onset <= t < offset:
                return doa
        return None

    def nearest_segment_doa(self, t: float) -> DoA:
        """DoA of the segment whose span is closest in time to t."""
        best, best_dist = None, math.inf
        for onset, offset, doa in self.segments:
            d = 0.0 if onset <= t < offset else min(abs(t - onset), abs(t - offset))
            if d < best_dist:
                best, best_dist = doa, d
        assert best is not None
        return best


# Samples per channel in a block of FoaSignal's finiteness check (256 KB of booleans).
_FINITE_BLOCK = 65536


@dataclass
class FoaSignal:
    """4 x T sample matrix in ACN order (W, Y, Z, X), SN3D normalization.

    A float32 array is kept as it is: fileio.read_wav gives the read-only
    float32 samples of the file, and every consumer widens them to float64
    exactly where it computes. Any other input is converted to float64. The
    samples are checked to be finite _FINITE_BLOCK samples at a time, so the
    check holds no full-size boolean array.
    """

    channels: np.ndarray

    def __post_init__(self):
        channels = np.asarray(self.channels)
        if channels.dtype != np.float32:
            channels = channels.astype(np.float64, copy=False)
        self.channels = np.atleast_2d(channels)
        if self.channels.shape[0] != 4:
            raise ValueError("FOA signal must have exactly 4 channels")
        for start in range(0, self.num_samples, _FINITE_BLOCK):
            if not np.isfinite(self.channels[:, start : start + _FINITE_BLOCK]).all():
                raise ValueError("FOA samples must be finite")

    @property
    def num_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / SAMPLE_RATE


def foa_gains(doa: DoA) -> np.ndarray:
    """SN3D plane-wave encoding gains (W, Y, Z, X) for a direction."""
    az = math.radians(doa.azimuth)
    el = math.radians(doa.elevation)
    return np.array(
        [1.0, math.sin(az) * math.cos(el), math.sin(el), math.cos(az) * math.cos(el)]
    )


def sample_voice_params(rng: np.random.Generator) -> VoiceParams:
    """Draw a voice from the identity prior used for speakers and distractors.

    Ranges kept wide on purpose: the panel separation of the reference embedder
    depends on the spread of this prior.
    """
    f0 = float(np.exp(rng.uniform(np.log(80.0), np.log(300.0))))
    tilt = float(rng.uniform(-16.0, -1.0))
    resonances = (
        (float(rng.uniform(250.0, 900.0)), float(rng.uniform(60.0, 300.0)), float(rng.uniform(0.0, 18.0))),
        (float(rng.uniform(950.0, 2400.0)), float(rng.uniform(80.0, 400.0)), float(rng.uniform(0.0, 18.0))),
        (float(rng.uniform(2500.0, 5000.0)), float(rng.uniform(120.0, 600.0)), float(rng.uniform(0.0, 18.0))),
    )
    rate = float(rng.uniform(1.5, 8.0))
    return VoiceParams(f0, tilt, resonances, rate)


def _slow_noise_controls(rng: np.random.Generator, n: int, rate_hz: float) -> np.ndarray:
    """The control points of n samples of band-limited unit-variance-ish
    noise at about rate_hz, drawn from rng (_slow_noise_block reads it)."""
    n_ctrl = max(2, int(math.ceil(n / SAMPLE_RATE * rate_hz)) + 2)
    return rng.standard_normal(n_ctrl)


def _slow_noise_block(ctrl: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """Samples start:stop of the n-sample slow noise on the control points
    ctrl: np.interp(np.linspace(0, len(ctrl) - 1, n), np.arange(len(ctrl)),
    ctrl)[start:stop], with linspace's bits (i * step, and the end point
    itself as the last sample).

    np.interp's own formula is applied one control segment at a time, so no
    sample is searched for: x in [j, j + 1) gives
    (ctrl[j + 1] - ctrl[j]) (x - j) + ctrl[j], and the end point ctrl[-1].
    """
    last = len(ctrl) - 1.0
    x = np.arange(start, stop, dtype=np.float64)
    if n > 1:
        x *= last / (n - 1)
        if stop == n:
            x[-1] = last
    first, end = int(x[0]), int(x[-1])
    # Where each control segment after the first starts.
    cuts = np.searchsorted(x, np.arange(first + 1, end + 1)).tolist()
    for j, lo, hi in zip(range(first, end + 1), [0, *cuts], [*cuts, len(x)]):
        segment = x[lo:hi]
        if j == last:
            segment[...] = ctrl[j]
        else:
            segment -= j
            segment *= ctrl[j + 1] - ctrl[j]
            segment += ctrl[j]
    return x


# Samples from one anchor of a sine oscillator to the next (_oscillator).
_OSC_PERIOD = 2048


def _oscillator(rate_hz: float, phase: float, n: int) -> tuple[np.ndarray, ...]:
    """Tables for sin(2 pi rate_hz t + phase) at t = i / SAMPLE_RATE, i < n,
    by angle addition: sample i = q P + r (P = _OSC_PERIOD, r < P) is
    sin(a_q) cos(w r) + cos(a_q) sin(w r), w = 2 pi rate_hz / SAMPLE_RATE,
    read by _oscillator_block. The anchor angle a_q is the plain expression's
    own at sample q P. Returns (sin a, cos a, sin w r, cos w r).
    """
    omega = 2.0 * np.pi * rate_hz
    anchors = np.arange(0, n, _OSC_PERIOD, dtype=np.float64)
    anchors /= SAMPLE_RATE
    anchors *= omega
    anchors += phase
    offsets = np.arange(min(n, _OSC_PERIOD), dtype=np.float64)
    offsets /= SAMPLE_RATE
    offsets *= omega
    return np.sin(anchors), np.cos(anchors), np.sin(offsets), np.cos(offsets)


def _oscillator_block(oscillator: tuple[np.ndarray, ...], start: int, stop: int) -> np.ndarray:
    """Samples start:stop of an _oscillator's sine, one anchor's span at a
    time. Each sample is computed from its own anchor, which sits at a fixed
    sample, so the bits do not depend on start and stop."""
    sin_a, cos_a, sin_r, cos_r = oscillator
    out = np.empty(stop - start)
    for q in range(start // _OSC_PERIOD, (stop - 1) // _OSC_PERIOD + 1):
        lo = max(start, q * _OSC_PERIOD)
        hi = min(stop, (q + 1) * _OSC_PERIOD)
        r = slice(lo - q * _OSC_PERIOD, hi - q * _OSC_PERIOD)
        # sin(a_q + w r) = sin(a_q) cos(w r) + cos(a_q) sin(w r)
        span = out[lo - start : hi - start]
        np.multiply(sin_a[q], cos_r[r], out=span)
        span += cos_a[q] * sin_r[r]
    return out


# Nodes of a voice's wavetable. At most 92 harmonics are far below the
# L / 2 the nodes resolve, so the nodes are exact; the cubic Hermite read
# between them errs by O(L^-4). At unit RMS, 2^15 nodes stay within 1.3e-10
# of the per-harmonic sum over 300 voices of the prior and its corner (flat
# tilt, f0 80 Hz, loud high resonances); 2^14 reach 1.9e-9 there.
_WAVETABLE_SIZE = 2**15
_SYNTH_BLOCK = 8192  # samples per block of the synthesis


def _wavetable(amps: np.ndarray, phases0: np.ndarray) -> np.ndarray:
    """Cubic Hermite coefficients of the period
    W(theta) = sum_k amps[k-1] sin(k theta + phases0[k-1]) on
    L = _WAVETABLE_SIZE nodes, as an (L, 4) array whose row j is
    (w0, d0, a, b): W(h (j + f)) is read as w0 + f (d0 + f (a + f b)) for f
    in [0, 1), the Hermite cubic with W's values and slopes at nodes j and
    j + 1 (node L wraps to 0). A row holds what one sample reads, so one
    gather reads it.

    W and h W' (h = 2 pi / L, the node spacing) are exact at the nodes: one
    inverse real FFT of their two coefficient rows gives both.
    """
    size = _WAVETABLE_SIZE
    harmonics = np.arange(1, len(amps) + 1)
    # irfft(X, L)[m] = (2 / L) Re sum_k X_k exp(i k theta_m) for harmonics
    # below L / 2; it pads the spectrum with zeros above the last harmonic.
    coeffs = (0.5 * size) * amps * np.exp(1j * phases0)
    spectrum = np.zeros((2, len(amps) + 1), dtype=np.complex128)
    spectrum[0, 1:] = -1j * coeffs  # sin(x) = Re(-i exp(i x))
    spectrum[1, 1:] = (2.0 * np.pi / size) * harmonics * coeffs
    values, slopes = np.fft.irfft(spectrum, n=size, axis=1)
    table = np.empty((size, 4))
    table[:, 0] = values
    table[:, 1] = slopes
    # rise = W(j + 1) - W(j); both = slope(j + 1) + slope(j), node L being 0
    # a = 3 rise - slope(j) - both; b = both - 2 rise
    rise = np.empty(size)
    np.subtract(values[1:], values[:-1], out=rise[:-1])
    np.subtract(values[:1], values[-1:], out=rise[-1:])
    both = table[:, 3]
    np.add(slopes[1:], slopes[:-1], out=both[:-1])
    np.add(slopes[:1], slopes[-1:], out=both[-1:])
    a = table[:, 2]
    np.multiply(rise, 3.0, out=a)
    a -= slopes
    a -= both
    rise *= 2.0
    both -= rise
    return table


def synthesize_voice(voice: VoiceParams, duration: float, seed: int) -> np.ndarray:
    """Unit-RMS harmonic complex shaped by tilt and resonances, with slow AM.

    Deterministic for a given seed; two different seeds give independent
    utterances of the same voice.

    The amplitudes a_k and start phases p_k hold for the whole utterance,
    so the harmonic sum sum_k a_k sin(k phase + p_k) is one periodic
    function W of the instantaneous phase. W is tabulated on
    _WAVETABLE_SIZE = 2^15 nodes per period (_wavetable) and read by cubic
    Hermite interpolation: at x = phase L / (2 pi), the phase in nodes, one
    gather of the four coefficients of node floor(x) mod L and a cubic in
    f = x - floor(x) in Horner form, so a sample costs the same whatever
    the number of harmonics (up to 92).

    The vibrato and envelope sines are oscillators (_oscillator): each
    sample adds its offset from an anchor every _OSC_PERIOD samples by
    angle addition, from tables made once per call, in place of an np.sin
    per sample. Both slow noises apply np.interp's formula one control
    segment at a time (_slow_noise_block), with np.interp's bits. Against
    np.sin, the sines move by at most about 1e-12 over 60 s; the phase
    cumsum carries the vibrato's change, and the voice stays within 1e-9 of
    the per-harmonic np.sin sum at unit RMS.

    Every random value is drawn first, in a fixed order (vibrato phase,
    drift control points, harmonic start phases, envelope phase, envelope
    control points); then the voice is computed _SYNTH_BLOCK samples at a
    time: vibrato, drift and instantaneous f0, the phase (a cumsum carried
    from block to block, so its bits are those of one cumsum over the whole
    utterance), the table read, then the envelope. Every other step is
    elementwise, and each oscillator sample is computed from its own fixed
    anchor, so the block size changes no bit. Besides the returned signal,
    the table (1 MB), the oscillator tables and one block's arrays, only one
    full-length temporary is held, for the RMS, which is a plain mean of
    squares (never a BLAS reduction, whose bits could depend on the thread
    count). Each step keeps the operands and their order of the plain
    expression in the comment above it.
    """
    n = int(round(duration * SAMPLE_RATE))
    if n == 0:
        return np.zeros(0)
    max_freq = min(7400.0, 0.45 * SAMPLE_RATE)
    n_harm = max(1, int(max_freq / voice.f0))
    freqs = voice.f0 * np.arange(1, n_harm + 1)
    level_db = voice.spectral_tilt * np.log2(freqs / voice.f0)
    for center, bandwidth, gain_db in voice.resonances:
        if center >= 0.5 * SAMPLE_RATE:
            raise ValueError("resonance center above Nyquist")
        level_db = level_db + gain_db * np.exp(-0.5 * ((freqs - center) / bandwidth) ** 2)
    amps = 10.0 ** (level_db / 20.0)

    rng = np.random.default_rng(seed)
    vibrato = _oscillator(4.7, rng.uniform(0.0, 2.0 * np.pi), n)
    drift_ctrl = _slow_noise_controls(rng, n, 3.0)
    table = _wavetable(amps, rng.uniform(0.0, 2.0 * np.pi, size=n_harm))
    envelope = _oscillator(voice.modulation_rate, rng.uniform(0.0, 2.0 * np.pi), n)
    env_ctrl = _slow_noise_controls(rng, n, 2.0)

    sig = np.empty(n)
    carry = 0.0
    for start in range(0, n, _SYNTH_BLOCK):
        stop = min(start + _SYNTH_BLOCK, n)
        # Small vibrato plus stochastic drift on the fundamental.
        # inst_f0 = f0 * (1 + 0.004 sin(2 pi 4.7 t + u) + 0.006 slow_noise)
        x = _oscillator_block(vibrato, start, stop)
        x *= 0.004
        x += 1.0
        drift = _slow_noise_block(drift_ctrl, n, start, stop)
        drift *= 0.006
        x += drift
        x *= voice.f0
        # The phase 2 pi cumsum(inst_f0) / SAMPLE_RATE in table nodes:
        # x = cumsum(inst_f0) (L / SAMPLE_RATE)
        x[0] += carry
        np.cumsum(x, out=x)
        carry = x[-1]
        x *= _WAVETABLE_SIZE / SAMPLE_RATE

        # j = floor(x), f = x - j; w0 + f (d0 + f (a + f b)) at node j mod L
        node = np.floor(x)
        x -= node
        index = node.astype(np.intp)
        index &= _WAVETABLE_SIZE - 1
        w0, d0, a, b = table.take(index, axis=0).T
        out = sig[start:stop]
        np.multiply(b, x, out=out)
        out += a
        out *= x
        out += d0
        out *= x
        out += w0

        # env = max((1 + 0.35 sin(2 pi rate t + u)) (1 + 0.15 slow_noise), 0.05)
        env = _oscillator_block(envelope, start, stop)
        env *= 0.35
        env += 1.0
        slow = _slow_noise_block(env_ctrl, n, start, stop)
        slow *= 0.15
        slow += 1.0
        env *= slow
        np.maximum(env, 0.05, out=env)
        out *= env

    # rms = sqrt(mean(sig**2)); sig / rms
    rms = math.sqrt(float(np.mean(np.square(sig))))
    if rms > 0:
        sig /= rms
    return sig


# SN3D isotropic channel variances 1, 1/3, 1/3, 1/3, as standard deviations.
_DIFFUSE_SCALES = (1.0, 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))


def _diffuse_noise_channels(seed: int, out: np.ndarray) -> Iterator[np.ndarray]:
    """The four channels of generate_diffuse_noise(out.size samples, seed) in
    turn, each drawn into out, which the next one overwrites: channel c is the
    c-th standard_normal(out.size) draw of the seed's generator, scaled by
    _DIFFUSE_SCALES[c] (four successive draws are the bits of one
    standard_normal((4, out.size)))."""
    rng = np.random.default_rng(seed)
    for scale in _DIFFUSE_SCALES:
        rng.standard_normal(out=out)
        out *= scale
        yield out


def generate_diffuse_noise(duration: float, seed: int) -> FoaSignal:
    """Isotropic diffuse noise with inter-channel covariance diag(1, 1/3, 1/3, 1/3).

    Sampled directly as independent Gaussian channels with the SN3D isotropic
    variances, which is the exact infinite-direction limit of superposing
    uncorrelated plane waves from a uniform direction field. The channels
    come from _diffuse_noise_channels, the definition render_scene mixes
    in one channel at a time.
    """
    n = int(round(duration * SAMPLE_RATE))
    channels = np.empty((4, n))
    for row, channel in zip(channels, _diffuse_noise_channels(seed, np.empty(n))):
        row[:] = channel
    return FoaSignal(channels)


def _sample_activity(
    rng: np.random.Generator, spec: SceneSpec
) -> list[tuple[float, float]]:
    """Alternating pause/speech timeline clipped to the scene duration."""
    segments: list[tuple[float, float]] = []
    t = float(rng.uniform(0.0, spec.pause_range[1]))
    while t < spec.duration:
        seg = float(rng.uniform(*spec.segment_range))
        onset, offset = t, min(t + seg, spec.duration)
        if offset - onset >= 0.25:
            segments.append((onset, offset))
        t = t + seg + float(rng.uniform(*spec.pause_range))
    if not segments:
        segments.append((0.0, spec.duration))
    return segments


def _overlapping_doas(
    placed: list[SpeakerGroundTruth], onset: float, offset: float
) -> list[DoA]:
    doas = []
    for gt in placed:
        for s_on, s_off, doa in gt.segments:
            if s_on < offset and onset < s_off:
                doas.append(doa)
    return doas


def _draw_doa(
    rng: np.random.Generator,
    others: list[DoA],
    lo: float,
    hi: float,
    avoid: DoA | None = None,
    max_tries: int = 2000,
) -> DoA:
    for _ in range(max_tries):
        doa = doa_from_unit_vector(uniform_sphere(rng, 1)[0])
        if avoid is not None and angular_distance(doa, avoid) < 1.0:
            continue
        if all(lo <= angular_distance(doa, o) <= hi for o in others):
            return doa
    raise SceneConstraintError(
        f"could not place a source satisfying separation in [{lo}, {hi}] degrees"
    )


def _add_noise(mixture: np.ndarray, snr: float, noise_seed: int) -> None:
    """Add to mixture, in place, the diffuse noise generate_diffuse_noise
    draws from noise_seed, scaled so that the W channel's speech-to-noise
    ratio is snr dB (no noise is added to silence).

    One channel-length buffer holds in turn the squares of mixture's W row,
    the W noise and its squares, then each noise channel as it is scaled and
    added: the W noise is drawn twice rather than kept beside its squares.
    """
    buffer = np.empty(mixture.shape[1])
    speech_power = float(np.mean(np.square(mixture[0], out=buffer)))
    w_noise = next(_diffuse_noise_channels(noise_seed, buffer))
    noise_power = float(np.mean(np.square(w_noise, out=buffer)))
    if noise_power > 0 and speech_power > 0:
        target = speech_power / (10.0 ** (snr / 10.0))
        noise_gain = math.sqrt(target / noise_power)
        for row, channel in zip(mixture, _diffuse_noise_channels(noise_seed, buffer)):
            channel *= noise_gain
            row += channel


def _place_speakers(
    rng: np.random.Generator, spec: SceneSpec
) -> tuple[list[SpeakerGroundTruth], list[float]]:
    """Draw each speaker's voice, activity and segment DoAs, and its level in
    dB, from rng."""
    lo, hi = SEPARATION_REGIMES[spec.separation_regime]
    speakers: list[SpeakerGroundTruth] = []
    activities: list[list[tuple[float, float]]] = []
    for j in range(spec.num_speakers):
        voice = sample_voice_params(rng)
        speakers.append(SpeakerGroundTruth(speaker_id=j, voice=voice))
        activities.append(_sample_activity(rng, spec))

    if spec.jump_on_silence:
        # Place segment DoAs in global onset order: each draw is constrained by
        # the concurrent positions already placed, so the regime holds between
        # every pair of temporally overlapping segments.
        events = sorted(
            (onset, j, offset)
            for j, activity in enumerate(activities)
            for onset, offset in activity
        )
        for onset, j, offset in events:
            others = _overlapping_doas(
                [s for k, s in enumerate(speakers) if k != j], onset, offset
            )
            prev_doa = speakers[j].segments[-1][2] if speakers[j].segments else None
            doa = _draw_doa(rng, others, lo, hi, avoid=prev_doa)
            speakers[j].segments.append((onset, offset, doa))
        for gt in speakers:
            gt.segments.sort(key=lambda s: s[0])
    else:
        for j, activity in enumerate(activities):
            # one DoA for every segment: it must respect every placed DoA that
            # overlaps any of them
            others = [o for on, off in activity for o in _overlapping_doas(speakers[:j], on, off)]
            doa = _draw_doa(rng, others, lo, hi)
            for onset, offset in activity:
                speakers[j].segments.append((onset, offset, doa))

    # Per-speaker levels: offsets built from successive draws in level_diff_range,
    # randomly permuted so the louder speaker is not always the first one.
    offsets = [0.0]
    for _ in range(1, spec.num_speakers):
        offsets.append(offsets[-1] - float(rng.uniform(*spec.level_diff_range)))
    return speakers, list(rng.permutation(offsets))


def _speaker_channels(
    rng: np.random.Generator, gt: SpeakerGroundTruth, gain_db: float, n: int
) -> np.ndarray:
    """gt's (4, n) wet signal at gain_db: each voice segment, synthesized from
    a seed drawn from rng and faded in place, is added to it one channel at
    a time, scaled in one segment-length buffer."""
    channels = np.zeros((4, n))
    gain = 10.0 ** (gain_db / 20.0)
    for onset, offset, doa in gt.segments:
        seg_seed = int(rng.integers(0, 2**63 - 1))
        a = int(round(onset * SAMPLE_RATE))
        b = int(round(offset * SAMPLE_RATE))
        mono = synthesize_voice(gt.voice, (b - a) / SAMPLE_RATE, seg_seed)
        _apply_fades(mono)
        scaled = np.empty_like(mono)
        for row, foa_gain in zip(channels, foa_gains(doa)):
            # row[a : a + len(mono)] += foa_gain * mono * gain
            np.multiply(foa_gain, mono, out=scaled)
            scaled *= gain
            row[a : a + len(mono)] += scaled
    return channels


def render_scene(
    spec: SceneSpec, on_wet: Callable[[int, FoaSignal], None]
) -> tuple[FoaSignal, list[SpeakerGroundTruth]]:
    """Render spec's scene one speaker at a time; returns (mixture, ground truth).

    Each speaker's wet signal is built, added to a float64 mixture
    accumulator and handed to on_wet(speaker index, wet signal) before the
    next one is built; nothing here refers to it once on_wet returns. Then
    the diffuse noise at spec.snr is drawn, scaled and added one channel at a
    time (_add_noise). So besides what on_wet keeps, the mixture, one wet
    signal and one voice segment's arrays are held, then the mixture and one
    channel-length buffer. Every row sums the speakers in the same order as
    adding the whole wet signals one after another, so the bits do not
    depend on this order of work. All of it is deterministic in spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    speakers, gains_db = _place_speakers(rng, spec)
    n = int(round(spec.duration * SAMPLE_RATE))
    mixture = np.zeros((4, n))
    for gt, gain_db in zip(speakers, gains_db):
        channels = _speaker_channels(rng, gt, gain_db, n)
        mixture += channels
        on_wet(gt.speaker_id, FoaSignal(channels))
        del channels  # the next speaker is built without this one held
    if spec.snr is not None:
        _add_noise(mixture, spec.snr, int(rng.integers(0, 2**63 - 1)))
    return FoaSignal(mixture), speakers


@dataclass
class Scene:
    """A generated scene bundled with its ground truth."""

    mixture: FoaSignal
    wet: list[FoaSignal]
    ground_truth: list[SpeakerGroundTruth]

    @property
    def duration(self) -> float:
        return self.mixture.duration

    @property
    def voices(self) -> list[VoiceParams]:
        return [gt.voice for gt in self.ground_truth]


def simulate(spec: SceneSpec) -> Scene:
    """Build mixture = sum of per-speaker wet FOA signals + diffuse noise at spec.snr.

    The mixture, wet signals and ground truth are all deterministic in
    spec.seed: render_scene with the wet signals collected. Besides the
    returned arrays, at most one voice segment's arrays or one channel-length
    buffer is held.
    """
    wet: list[FoaSignal] = []
    mixture, ground_truth = render_scene(spec, lambda _j, signal: wet.append(signal))
    return Scene(mixture, wet, ground_truth)


def _apply_fades(mono: np.ndarray, *, fade_s: float = 0.02) -> None:
    """Short raised-cosine fades, applied to mono in place, avoid
    onset/offset clicks in the mixture."""
    n_fade = min(int(fade_s * SAMPLE_RATE), len(mono) // 2)
    if n_fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)
        mono[:n_fade] *= ramp
        mono[-n_fade:] *= ramp[::-1]
