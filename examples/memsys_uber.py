"""System-level UBER: what the density cost looks like to a user.

The paper quantifies how magnetic coupling degrades per-cell write
current, switching time, and thermal stability; this scenario carries
that to the number a memory designer budgets — the uncorrectable
bit-error rate of a coupled array under read/write traffic, with and
without SEC-DED ECC, across data patterns and pitches.

Run:  python examples/memsys_uber.py
"""

from repro import MTJDevice, PAPER_EVAL_DEVICE
from repro.memsys import build_engine, secded_margin_pitch, uber_sweep
from repro.memsys.sweeps import SWEEP_HEADERS
from repro.reporting import format_table

PITCH_RATIOS = (3.0, 2.0, 1.5)
TRANSACTIONS = 30_000
UBER_TARGET = 3.5e-4


def main():
    device = MTJDevice(PAPER_EVAL_DEVICE)

    print("Monte-Carlo runs (64x64 array, random traffic, "
          f"{TRANSACTIONS} transactions):")
    rows = []
    for ratio in PITCH_RATIOS:
        for ecc in ("none", "secded"):
            engine = build_engine(device,
                                  pitch=ratio * device.params.ecd,
                                  ecc=ecc, workload="random")
            result = engine.run(TRANSACTIONS, rng=2020)
            rows.append((f"{ratio:g}x", ecc, result.raw_ber,
                         result.uber, result.word_fail_rate,
                         result.words_corrected))
    print(format_table(
        ["pitch", "ecc", "raw BER", "UBER", "word fail", "#corrected"],
        rows, float_format=".3e"))

    print()
    print("Expectation-mode sweep (noise-free, worst-case pattern):")
    sweep = uber_sweep(device, pitch_ratios=PITCH_RATIOS,
                       patterns=("solid0", "checkerboard"))
    print(format_table(SWEEP_HEADERS, sweep.rows, float_format=".3e"))

    print()
    print("Rare-event trim (256x256 array at nominal WER 1e-6):")
    engine = build_engine(device, pitch=2.0 * device.params.ecd,
                          rows=256, cols=256, workload="read-heavy",
                          nominal_wer=1e-6)
    result = engine.run(100_000, rng=2020)
    print(f"  {result.n_transactions} transactions, "
          f"{result.raw_bit_errors} raw bit errors observed, "
          f"UBER {result.uber:.2e} — the class-grouped binomial "
          "sampler draws flip counts per coupling class, so a "
          "per-cell draw budget never limits this regime.")

    ratio, uber = secded_margin_pitch(device, UBER_TARGET)
    print()
    if ratio is not None:
        print(f"SEC-DED holds a {UBER_TARGET:g} UBER budget down to "
              f"{ratio:g}x eCD (UBER {uber:.2e}); denser arrays need "
              "stronger ECC, longer pulses, or wider margins.")
    else:
        print(f"Even the widest pitch misses the {UBER_TARGET:g} UBER "
              f"budget (UBER {uber:.2e}).")
    print()
    print("Reading: ECC hides most of the coupling-induced write-error "
          "inflation, but the worst-case data pattern erodes the "
          "SEC-DED margin faster than the raw BER suggests — two "
          "coupled errors in one 72-bit word defeat the code, and the "
          "pair probability grows quadratically with the per-bit "
          "inflation the paper's Figs. 5/6 measure per cell.")


if __name__ == "__main__":
    main()
