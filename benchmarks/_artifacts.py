"""Machine-readable benchmark artifacts.

Benchmarks that produce headline numbers write them into JSON artifacts
(``BENCH_engine.json`` / ``BENCH_service.json`` next to this file) through
:func:`record_bench`; CI uploads the files per matrix leg, so the
performance trajectory of the project is tracked run over run instead of
living only in scrollback.
"""

import json
import os
from pathlib import Path

#: Directory the benchmark artifacts are written into.
ARTIFACT_DIR = Path(__file__).resolve().parent


def record_bench(artifact: str, section: str, payload: dict) -> Path:
    """Merge one benchmark's numbers into a JSON artifact.

    ``artifact`` is the file name (e.g. ``"BENCH_engine.json"``); each
    benchmark owns one ``section`` key so reruns replace their own numbers
    without clobbering the other sections.  Environment context that
    affects interpretation (core count, smoke mode) is stamped at the top
    level.
    """
    path = ARTIFACT_DIR / artifact
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        data = {}
    data[section] = payload
    data["context"] = {
        "cpu_count": os.cpu_count(),
        "smoke": bool(os.environ.get("REPRO_BENCH_SMOKE")),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
