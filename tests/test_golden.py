"""Golden digests of the bytes the scenarios and the eavesdropper path write.

A changed CSV byte changes what a run at a given version means, so it comes
with a version bump and a CHANGES.md entry (ROADMAP, aim 3). The reruns in
test_acceptance.py only check that a run repeats itself; these digests pin
the bytes across changes. The MLP scenarios are left out, because their
bytes depend on the BLAS thread count; the transport digest pins the bytes
they send instead. The privacy_utility_sweep digest, which draws nothing,
dates from fblink 0.2.1, and the plans.csv digest of the outage case from
0.3.0. The rates.csv digests and the other two plans.csv digests were
retaken at 0.7.0, when the Gaussian tail moved from scipy to the C
library's erfc and q_inv, then Acklam's seed with two Newton steps, moved
in the last ulp. They and the two 20000-block codec_validation digests
were retaken at 0.9.0, when q_inv became the standard library's normal
quantile and the fold budgets moved by a few ulps. The two 45000-block
codec_validation digests, three batches each, were taken at 0.9.0 before
the next batch's noise moved to a helper thread, and that move kept them.
The eavesdropper path and transport digests date from 0.6.0, when
substreams became SFC64; test_streams.py pins the stream's own first
draws. After a deliberate change,

    PYTHONPATH=src python tests/test_golden.py

prints the current digest of every pinned case.
"""

import hashlib
import tempfile

import numpy as np
import pytest

from fblink import adversary, codec, source_coding
from fblink.channel import NoiseSpec, Realization
from fblink.expcli import SystemConfig, _send_bits, parse_config, run_scenario
from fblink.streams import substream

from conftest import SNR, SNR_FB, draw_messages

# a rotated channel that carries full chunks at the default config
ROTATED = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)

BUMP = ("bytes changed: bump fblink.__version__, record the change in "
        "CHANGES.md, then update the digest in tests/test_golden.py")


CASES = [
    ("rate_vs_blocklength", {"realizations": 50}, {
        "rates.csv":
            "f3977159a45f027ea5cd2fce72f6651d6cca0590a95253f186a14b2f1a8da43b",
        "plans.csv":
            "64a0deebdc05973c5928d2501c249785abf7ebcba6c61e4249f177acb26c8bca",
    }),
    ("codec_validation", {"fixed_gains": 1, "n_t": 10, "n_blocks": 20000}, {
        "codec_validation.csv":
            "ac4083918a7834acc53a99f25cd0dd5dbdb0aa874b86be38b9518831e91c86bb",
    }),
    ("codec_validation", {"realizations": 2, "n_blocks": 20000}, {
        "codec_validation.csv":
            "8b15989cb209a3ee4bf45d7b9731c314607b28f248cdbab728bbea9dbd5cda1b",
    }),
    ("privacy_utility_sweep", {}, {
        "privacy_utility_sweep.csv":
            "cd7ba3b6fe49e0db7e72449d88800cae1783036d34efa2aab6a2ff00f70fef7f",
    }),
    # 77 is not a multiple of the realizations a batched task holds, so
    # the last task is a short one
    ("rate_vs_blocklength", {"realizations": 77}, {
        "rates.csv":
            "5067a102c81b5f0e157989eb4c3a6e141100e9f49647e19c9eda37f04b116f72",
        "plans.csv":
            "56acdb666049c21073e344d0d259594d4cf8d0024881600fd09cb4befbd034e5",
    }),
    # a weak feedback link and a large payload: most scan points are in
    # feedback outage and no plan is feasible
    ("rate_vs_blocklength", {"realizations": 77, "snr_fb_db": 5,
                             "payload_bits": 200, "n_t_max_scan": 40}, {
        "rates.csv":
            "752bcf8e3a5266da606ae3c2e6326dcb474797e34716a4d24c518677bc6f7baf",
        "plans.csv":
            "f6fd9052cde1acf0c463b4b2c498ceadde485d1d7f1f5050b83d9891ce4c4158",
    }),
    # three batches of blocks, the last one short: the noise of batches 1
    # and 2 is drawn while the engine runs the batch before
    ("codec_validation", {"fixed_gains": 1, "n_t": 10, "n_blocks": 45000}, {
        "codec_validation.csv":
            "e0b3dbff368ff619625138a58b7cb85bc65e902c256f5327a20acae739efb1fb",
    }),
    ("codec_validation", {"realizations": 2, "n_blocks": 45000}, {
        "codec_validation.csv":
            "b8a75274c246a0c5c803bbd796b3c1bdf48ca8de665ac560af60f089639f2b0d",
    }),
]


def scenario_digests(scenario, overrides, out_dir):
    man = run_scenario(parse_config(None, **overrides), scenario, out_dir)
    return {name: info["sha256"] for name, info in man["files"].items()}


@pytest.mark.parametrize("scenario,overrides,want", CASES)
def test_scenario_csv_digests(tmp_path, scenario, overrides, want):
    got = scenario_digests(scenario, overrides, str(tmp_path))
    assert got == want, "%s %s: %s" % (scenario, overrides, BUMP)


def eavesdropper_path_digest():
    # a rotated channel, a loose tau so that some blocks alias, and the
    # dither on: z_seq, the receiver's decisions, the alias counts and the
    # fold-ladder attack's decisions all go into one digest
    real = ROTATED
    noise = NoiseSpec(1.0, 1.0, 1.0)
    sched = codec.build_schedule(SNR, SNR_FB, 0.05, 10, real, noise)
    const = codec.build_constellation(12)
    rng = substream(7, 0)
    msg = draw_messages(rng, const, 2000)
    dith, ef, eb, ee = codec.draw_block_noise(rng, 2000, 10, noise, sched.d,
                                              capture_eve=True)
    out = codec.run_block_batch(sched, real, const, msg, dith, ef, eb,
                                eta_eve=ee)
    att = adversary.attack_full_sequence(out.z_seq, real.g, real.g_fb, sched,
                                         const, rng)
    assert out.alias_events.sum() > 0
    digest = hashlib.sha256()
    for arr in (out.z_seq, out.dec, out.alias_events, att):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def test_eavesdropper_path_digest():
    assert eavesdropper_path_digest() == (
        "2ea8e17883d7af3a3ad9278dc98fc822db56da4dcf8047f0766087b8abf66fee"
    ), BUMP


def transport_digest():
    # 239 bits, two full chunks and a tail padded into the same batch, sent
    # with the eavesdropper tap: the decoded bits, her bits and the link
    # counters go into one digest
    cfg = SystemConfig()
    bits = substream(11, 0).integers(0, 2, 239, dtype=np.uint8)
    (grp,) = source_coding.chunk(239, cfg.snr, cfg.snr_fb, ROTATED.gain_fwd,
                                 ROTATED.gain_fb, cfg.tau, cfg.n_max)
    dec, eve, link = _send_bits(bits, grp, ROTATED, cfg, cfg.noise_spec(),
                                (7, 0, 0), capture_eve=True)
    digest = hashlib.sha256()
    for arr in (dec, eve):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(repr(sorted(link.items())).encode())
    return digest.hexdigest()


def test_transport_digest():
    assert transport_digest() == (
        "778f2b57d96a253da6f6fdf8623a5d5219a012be3b0b5383cf03fe2d24845c07"
    ), BUMP


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, overrides, _ in CASES:
            print(scenario, overrides, scenario_digests(scenario, overrides,
                                                        tmp))
    print("eavesdropper path", eavesdropper_path_digest())
    print("transport", transport_digest())
