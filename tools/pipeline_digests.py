"""SHA-256 digests of the reference CLI pipeline's output files.

Runs twelve ``bandsel`` commands in-process inside a temporary directory
(four synthetic cubes, five trainings, two metrics runs and one eval
sweep) and prints ``sha256  name`` for each of the 28 non-cube files they
write. The second conv training (1,156 patches of 3 x 3 x 8) splits its
averaging pass into two blocks, the second ragged. The third (batches of
64 patches of 7 x 7 x 100) splits each training batch's forward correlations
into chunks of 53 and 11 patches. The digests depend on
the BLAS build, so they are only comparable between runs on the same
machine; BLAS is limited to one thread before ``bandsel`` (and numpy) is
imported.

Usage:
    python3 tools/pipeline_digests.py                  # print the digests
    python3 tools/pipeline_digests.py --check tools/pipeline_digests.txt
        # exit 1 and name each file whose digest differs or is missing
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ["BANDSEL_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

COMMANDS = [
    "synth --rows 64 --cols 64 --bands 100 --informative 5 --seed 3 --out fc.hsic",
    "synth --rows 48 --cols 48 --bands 100 --informative 5 --seed 4 --out conv.hsic",
    "synth --rows 13 --cols 5 --bands 30 --informative 3 --seed 5 --out rag.hsic",
    "synth --rows 36 --cols 36 --bands 8 --informative 3 --seed 6 --out pat.hsic",
    "train --input fc.hsic --maxiter 5 --seed 1 --out-prefix fc",
    "train --input conv.hsic --variant conv --a 7 --t 2 --maxiter 1 --seed 2 --out-prefix conv",
    "train --input rag.hsic --maxiter 7 --seed 3 --out-prefix rag",
    "train --input pat.hsic --variant conv --a 3 --t 1 --maxiter 1 --seed 4 --out-prefix pat",
    "metrics --input fc.hsic --k 2:50:2 --out-prefix mv",
    "metrics --input fc.hsic --ranking fc.json --k 2:50:2 --out-prefix mr",
    "eval --input fc.hsic --selection net=fc.json --variance-baseline --include-random"
    " --k 10:40:10 --runs 2 --out-prefix ev",
    "train --input conv.hsic --variant conv --a 7 --t 2 --batch-size 64 --maxiter 1 --seed 5 --out-prefix cb",
]


def pipeline_digests():
    """Run the pipeline in a fresh directory; returns {file name: sha256 hex}."""
    from bandsel.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(command.split())
                if code != 0:
                    raise SystemExit(f"`bandsel {command}` exited {code}")
            return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(Path(work).iterdir()) if path.suffix != ".hsic"}
        finally:
            os.chdir(cwd)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="DIGESTS",
                        help="file of recorded 'sha256  name' lines to compare against")
    args = parser.parse_args(argv)
    digests = pipeline_digests()
    if args.check is None:
        for name, digest in digests.items():
            print(f"{digest}  {name}")
        return 0
    fields = Path(args.check).read_text().split()  # sha256, name, sha256, name, ...
    recorded = dict(zip(fields[1::2], fields[::2]))
    differing = sorted(name for name in recorded.keys() | digests.keys()
                       if recorded.get(name) != digests.get(name))
    for name in differing:
        print(f"differs: {name}")
    if not differing:
        print(f"all {len(digests)} files match {args.check}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
