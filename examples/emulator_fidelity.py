#!/usr/bin/env python
"""§IV in action: probe the emulator latency models for fidelity.

Builds a device per emulator latency model (FEMU, NVMeVirt, ConfZNS, and
the calibrated reference), probes the observation-relevant quantities,
prints the raw quantities side by side, and renders the reproduction
matrix the paper's §IV argues in prose.

Run: ``python examples/emulator_fidelity.py``
"""

from repro.core import render_table
from repro.emulators import ALL_MODELS
from repro.exec import execute_experiments


def main() -> None:
    results, _report = execute_experiments(["sec4"])
    matrix = results["sec4"]

    # Raw probed quantities per model.
    quantity_labels = [
        ("lat_w4", "write 4 KiB QD1 (us)"),
        ("lat_a4", "append 4 KiB QD1 (us)"),
        ("write_intra_qd8", "write intra QD8 (KIOPS)"),
        ("write_inter_8z", "write inter 8 zones (KIOPS)"),
        ("append_intra_qd4", "append intra QD4 (KIOPS)"),
        ("read_intra_qd64", "read intra QD64 (KIOPS)"),
        ("open_us", "zone open (us)"),
        ("reset_empty_ms", "reset empty zone (ms)"),
        ("reset_full_ms", "reset full zone (ms)"),
        ("finish_low_ms", "finish ~empty zone (ms)"),
        ("reset_loaded_p95_ms", "reset p95 under writes (ms)"),
    ]
    rows = []
    for key, label in quantity_labels:
        row = {"quantity": label}
        for model in ALL_MODELS:
            row[model.name] = matrix.meta[model.name][key]
        rows.append(row)
    print(render_table(
        ["quantity"] + [m.name for m in ALL_MODELS], rows,
        title="Probed quantities per emulator latency model",
    ))
    print()
    print(matrix.table())
    print()
    for model in ALL_MODELS:
        verdicts = matrix.meta["verdicts"][model.name]
        reproduced = sorted(obs for obs, ok in verdicts.items() if ok)
        print(f"{model.name:<10} ({model.description}): reproduces "
              f"{reproduced if reproduced else 'none'}")


if __name__ == "__main__":
    main()
