"""Write one workload's inputs and oracle values, in a process of its own.

    python3 bench/prepare.py WORKLOAD SEED WORKDIR

``run.py`` runs this before it sets up the workload, so that the memory of
the benchmark's own preparation (the generated arrays, the CSV text, the
bundles it hashes into fixtures, the neighbor oracle) does not count in the
measured process's ``ru_maxrss``. The prepared workload is pickled to
``WORKDIR/workload.pickle``; it holds paths and expected values, no arrays.
"""

from __future__ import annotations

import os
import pickle
import sys

import run


def main(argv) -> int:
    name, seed, work = argv
    run.import_program()
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.prepare(work, int(seed))
    with open(os.path.join(work, run.PREPARED), "wb") as f:
        pickle.dump(wl, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
