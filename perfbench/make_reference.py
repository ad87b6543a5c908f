"""Write the committed cycle-mode epoch hashes the serve gate checks.

    PYTHONPATH=src python3 perfbench/make_reference.py --seed 7

Each epoch of the seed's serve block (``loads.BLOCK_EPOCHS``) is
replayed with ``sim_mode="cycle"``, the reference every fast path is
proven against, and its result hash is stored in
``perfbench/reference.json`` under workload and seed.  Every run also
replays its block in cycle mode; the committed hashes additionally pin
the default seed against changes to cycle mode itself.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import loads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        with open(loads.REFERENCE_FILE, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    for workload, epochs in sorted(loads.BLOCK_EPOCHS.items()):
        stream = loads.EpochStream(workload, args.seed)
        table.setdefault(workload, {})[str(args.seed)] = [
            loads.replay_epoch(stream.next_epoch()) for _ in range(epochs)]
    with open(loads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
