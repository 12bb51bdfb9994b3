"""Print the SHA-256 of every file that the five commands write.

Run from the root of a checkout, with a directory to write into:

    python tools/artifact_digests.py OUT_DIR

It runs `synth` on both bundled grids, `cascade` and `run` on the three
shipped scenarios, and `estimate` on every availability mask that `cascade`
wrote; `validate` writes no file and runs within each of the others.  Each
command writes into its own subdirectory of OUT_DIR, and the tool prints one
line per file written, `<sha256>  <command>_<input>/<file>`, sorted by path.
The availability masks embed the absolute grid path; it is replaced by
`"<grid>"` before hashing, so two checkouts give the same digests.  BLAS is
pinned to one thread, since `errors.csv` and `report.json` hold the bits of
a least-squares solve.  Two checkouts whose outputs diff empty write the
same bytes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jointgrid.cli import main  # noqa: E402

FIXTURES = ROOT / "src" / "jointgrid" / "fixtures"
GRIDS = ("ieee14", "ieee118")
SCENARIOS = ("ieee14_substation6_attack", "ieee118_gateway_sadm_failure", "ieee118_substation_damage")


def commands(out: Path):
    """Each command's output directory and its argument list.  The
    ``estimate`` commands are listed once the cascades before them ran."""
    for grid in GRIDS:
        target = out / f"synth_{grid}"
        yield target, ["synth", "--grid", str(FIXTURES / f"{grid}.json"), "--out-dir", str(target)]
    for command in ("cascade", "run"):
        for scenario in SCENARIOS:
            target = out / f"{command}_{scenario}"
            yield target, [command, "--scenario", str(FIXTURES / f"{scenario}.json"), "--out-dir", str(target)]
    for scenario in SCENARIOS:
        for mask in sorted((out / f"cascade_{scenario}").glob("availability_*.json")):
            target = out / f"estimate_{scenario}_{mask.stem.removeprefix('availability_')}"
            yield target, ["estimate", "--mask", str(mask), "--out", str(target / "errors.csv")]


def digests(out: Path) -> dict:
    masks = [json.dumps(str((FIXTURES / f"{grid}.json").resolve())).encode() for grid in GRIDS]
    found = {}
    for target, argv in commands(out):
        target.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"exit {code}: jointgrid {' '.join(argv)}")
        for path in sorted(target.iterdir()):
            data = path.read_bytes()
            for mask in masks:
                data = data.replace(mask, b'"<grid>"')
            found[f"{target.name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/artifact_digests.py OUT_DIR")
    for name, digest in sorted(digests(Path(sys.argv[1])).items()):
        print(f"{digest}  {name}")
