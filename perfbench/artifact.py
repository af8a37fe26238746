"""The serving workloads' model: the quickstart spec's exported artifact.

Built by a fresh ``repro run`` of ``examples/specs/quickstart.json`` as
shipped, then reused by every serving run; building it is not part of any
measured number.  Next to it the build stores the quickstart dataset's
serving rows (stacked feature matrix, group ids, labels), from which the
serving workload draws its requests.  The files live in a directory named by
a digest of the program's sources, the spec and this builder, so a checkout
of other code never serves a model that different code searched and
exported.

    python3 perfbench/artifact.py      # build (normally done on demand)
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from common import (
    SPEC_PATH,
    BenchmarkFailure,
    require_program,
    run_child,
    source_digest,
    work_dir,
)

ARTIFACT_NAME = "quickstart-muffin.json"
ROWS_NAME = "quickstart-rows.npz"


def paths() -> Tuple[Path, Path]:
    key = hashlib.sha256(
        source_digest().encode() + SPEC_PATH.read_bytes() + Path(__file__).read_bytes()
    ).hexdigest()[:16]
    directory = work_dir("artifact", key)
    return directory / ARTIFACT_NAME, directory / ROWS_NAME


def ensure_artifact() -> Tuple[Path, Path]:
    """Return the artifact and rows paths, building them when absent."""
    artifact, rows = paths()
    if not (artifact.is_file() and rows.is_file()):
        run_child([str(Path(__file__).resolve())], timeout=600)
    if not (artifact.is_file() and rows.is_file()):
        raise BenchmarkFailure("building the serving artifact produced no files")
    return artifact, rows


def load_rows(path: Path) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def build() -> None:
    require_program()
    from repro.api import MuffinPipeline, RunSpec
    from repro.data.schema import FeatureSchema

    artifact, rows = paths()
    cache = work_dir("artifact", "cache")
    shutil.rmtree(cache)
    spec = RunSpec.from_json(SPEC_PATH)
    result = MuffinPipeline(spec, cache_dir=cache).run()
    dataset = result.dataset
    schema = FeatureSchema.from_dataset(dataset)
    arrays = {
        "features": schema.features(dataset),
        "labels": np.asarray(dataset.labels, dtype=np.int64),
    }
    for name in schema.attribute_names:
        arrays[f"group:{name}"] = np.asarray(dataset.group_ids(name), dtype=np.int64)
    # write-then-rename, so a killed build never leaves a half file behind
    tmp_rows = rows.with_suffix(".tmp.npz")
    np.savez(tmp_rows, **arrays)
    os.replace(tmp_rows, rows)
    tmp_artifact = artifact.with_suffix(".tmp")
    result.save_artifact(tmp_artifact, overwrite=True)
    os.replace(tmp_artifact, artifact)
    shutil.rmtree(cache)
    print(json.dumps({"artifact": str(artifact), "rows": int(arrays["labels"].shape[0])}))


if __name__ == "__main__":
    build()
