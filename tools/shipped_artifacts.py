"""Dump the command-line artifacts of the shipped inputs, for byte comparison.

    python tools/shipped_artifacts.py OUTDIR [NAME ...]

For every `data/NAME` (default: every `data/*.json`) this runs, with the
`nilflat` of this checkout and in one process:

  * `validate`;
  * `peel`;
  * `extend`, once per shipped cocycle (every `data/*.json` that loads as a
    cocycle), with NAME as the base;
  * `curvature` with default flags;
  * `certify --eps 0.01`;
  * where NAME is an n-dimensional algebra, `curvature` and
    `certify --eps 0.01` once more with each `data/metricN_LABEL.json` of
    that n (labels `curvature-LABEL`, `certify-LABEL`): non-diagonal seed
    metrics, whose orthonormal frames are not the identity.

Each run leaves `OUTDIR/STEM/LABEL.stdout`, `.stderr` and `.exit`, and its
`--out` files next to them. The inputs are copied to `OUTDIR/data` and the
runs start from OUTDIR, so the paths echoed in the artifacts are the same
relative paths for every checkout. Two checkouts are compared with
`diff -r OUTDIR_A OUTDIR_B`. No golden bytes are kept: numpy is not pinned,
and another LAPACK may differ in the last ulp.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from nilflat import cli, fileio  # noqa: E402
from nilflat.errors import SchemaError  # noqa: E402


def _is_cocycle(path: Path) -> bool:
    try:
        fileio.load_cocycle(path)
    except SchemaError:
        return False
    return True


def _algebra_dim(path: Path):
    """The dimension of an algebra file, or None for any other file."""
    try:
        return fileio.load_algebra(path).dim
    except SchemaError:
        return None


def _run(argv: list, prefix: Path) -> None:
    """Run the CLI on argv; write its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    prefix.with_suffix(".stdout").write_text(out.getvalue())
    prefix.with_suffix(".stderr").write_text(err.getvalue())
    prefix.with_suffix(".exit").write_text(f"{code}\n")


def dump(outdir: Path, names: list) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    shipped = sorted((REPO / "data").glob("*.json"))
    shutil.copytree(REPO / "data", outdir / "data", dirs_exist_ok=True)
    cocycles = [p.name for p in shipped if _is_cocycle(p)]
    metrics = sorted(p.name for p in shipped if p.name.startswith("metric"))
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name in names or [p.name for p in shipped]:
            stem = Path(name).stem
            Path(stem).mkdir(exist_ok=True)
            path = f"data/{name}"
            _run(["validate", path], Path(stem, "validate"))
            _run(["peel", path, "--out", f"{stem}/peel.json"], Path(stem, "peel"))
            for cocycle in cocycles:
                label = f"extend+{Path(cocycle).stem}"
                _run(["extend", path, f"data/{cocycle}", "--out", f"{stem}/{label}.json"],
                     Path(stem, label))
            _run(["curvature", path, "--out", f"{stem}/curvature.csv"],
                 Path(stem, "curvature"))
            _run(["certify", path, "--eps", "0.01", "--out", f"{stem}/certify.json"],
                 Path(stem, "certify"))
            dim = _algebra_dim(Path(path))
            for metric in metrics:
                prefix, _, label = Path(metric).stem.partition("_")
                if prefix != f"metric{dim}":
                    continue
                seeded = ["--metric", f"data/{metric}"]
                _run(["curvature", path, *seeded, "--out", f"{stem}/curvature-{label}.csv"],
                     Path(stem, f"curvature-{label}"))
                _run(["certify", path, "--eps", "0.01", *seeded,
                      "--out", f"{stem}/certify-{label}.json"], Path(stem, f"certify-{label}"))
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    dump(Path(sys.argv[1]).resolve(), sys.argv[2:])
