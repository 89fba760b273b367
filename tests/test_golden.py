"""Golden digests of the bytes the scenarios and the eavesdropper path write.

A changed CSV byte changes what a run at a given version means, so it comes
with a version bump and a CHANGES.md entry (ROADMAP, aim 3). The reruns in
test_acceptance.py only check that a run repeats itself; these digests pin
the bytes across changes. The MLP scenarios are left out, because their
bytes depend on the BLAS thread count; the transport digest pins the bytes
they send instead. The 50-realization rate_vs_blocklength and
privacy_utility_sweep digests date from fblink 0.2.1, the 77-realization
ones from 0.3.0; the eavesdropper-path digest was retaken at 0.3.0, when
the block noise became component first; the transport digest dates from
0.4.0, when a round became one block batch; the codec_validation digests
were retaken at 0.5.0, when its power sums became sums of real squares.
After a deliberate change,

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

from conftest import SNR, SNR_FB

# a rotated channel that carries full chunks at the default config
ROTATED = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)

BUMP = ("bytes changed: bump fblink.__version__, record the change in "
        "CHANGES.md, then update the digest in tests/test_golden.py")


CASES = [
    ("rate_vs_blocklength", {"realizations": 50}, {
        "rates.csv":
            "d1b27490e782c93a1526ab4b3ed1db04f130b1dac7f38d74a032df05b6f172d0",
        "plans.csv":
            "6743dc29e94b4e23629e4e50bbb0667388b1d3fbf8a9ecadc7af4ffa0a06d525",
    }),
    ("codec_validation", {"fixed_gains": 1, "n_t": 10, "n_blocks": 20000}, {
        "codec_validation.csv":
            "f78f1118ff22a9b4ae08f8586e88158d9cd2be2b113ba024a2bc28e5f9cc9564",
    }),
    ("codec_validation", {"realizations": 2, "n_blocks": 20000}, {
        "codec_validation.csv":
            "d1927cec79116c181ddd0203095c6bdf7938983ac543889bf1171ce885a78233",
    }),
    ("privacy_utility_sweep", {}, {
        "privacy_utility_sweep.csv":
            "cd7ba3b6fe49e0db7e72449d88800cae1783036d34efa2aab6a2ff00f70fef7f",
    }),
    # 77 is not a multiple of the realizations a batched task holds, so
    # the last task is a short one
    ("rate_vs_blocklength", {"realizations": 77}, {
        "rates.csv":
            "cb6b825574cda98d3eca7e63c9872676a784ec0d7a47f2ff6b97319eb6204096",
        "plans.csv":
            "a3159bca22772fdcf09f7dfee6c67c74cf1db24b7a215707320627a4a8e3e3e8",
    }),
    # a weak feedback link and a large payload: most scan points are in
    # feedback outage and no plan is feasible
    ("rate_vs_blocklength", {"realizations": 77, "snr_fb_db": 5,
                             "payload_bits": 200, "n_t_max_scan": 40}, {
        "rates.csv":
            "5d4f8479eaf2149eb1a2be64c244d1b1e77506d889734ceaf6b5f1ad04a3d94f",
        "plans.csv":
            "f6fd9052cde1acf0c463b4b2c498ceadde485d1d7f1f5050b83d9891ce4c4158",
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
    msg_r = rng.integers(0, const.m_levels, 2000)
    msg_i = rng.integers(0, const.m_levels, 2000)
    dith, ef, eb, ee = codec.draw_block_noise(rng, 2000, 10, noise, sched.d,
                                              capture_eve=True)
    out = codec.run_block_batch(sched, real, const, msg_r, msg_i, dith, ef,
                                eb, eta_eve=ee)
    att_r, att_i = adversary.attack_full_sequence(
        out.z_seq, real.g, real.g_fb, sched, const, rng)
    assert out.alias_events.sum() > 0
    digest = hashlib.sha256()
    for arr in (out.z_seq, out.dec_r, out.dec_i, out.alias_events, att_r,
                att_i):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def test_eavesdropper_path_digest():
    assert eavesdropper_path_digest() == (
        "e605f094728c9c7ecbac55ccc838dfb091cc6f472c05fb7a835a03b485ca0c30"
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
        "50df6f26c352c21ffd3c7f5edc45c7b11d1baaaeb9e5a8af04a880a8351c9e79"
    ), BUMP


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, overrides, _ in CASES:
            print(scenario, overrides, scenario_digests(scenario, overrides,
                                                        tmp))
    print("eavesdropper path", eavesdropper_path_digest())
    print("transport", transport_digest())
