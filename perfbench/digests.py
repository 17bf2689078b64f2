"""Stored output digests: the benchmark's correctness reference.

``digests.json`` holds, for every workload and every chunk of its
universe (full size and tiny preset), the sha256 of the chunk's
records — ``ExperimentResult.canonical_json()`` of each grid, which
carries no timing — and of the rows of the chunk's store query.  The
table is built with the serial backend, so a pipelined run that
matches it also matches its serial-backend digest.

Regenerate it (only when a change is *meant* to alter simulated
results, and say so in CHANGES.md) with::

    python3 perfbench/digests.py [WORKLOAD ...]
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

TABLE = pathlib.Path(__file__).resolve().with_name("digests.json")


def records_digest(results) -> str:
    """Digest of a chunk's records (one ExperimentResult per grid)."""
    blob = "\n".join(result.canonical_json() for result in results)
    return hashlib.sha256(blob.encode()).hexdigest()


def rows_digest(rows_per_grid: list[list[dict]]) -> str:
    """Digest of a chunk's query rows (one row list per grid)."""
    blob = json.dumps(rows_per_grid, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_table() -> dict:
    return json.loads(TABLE.read_text())


def build(workload, tiny: bool) -> dict[str, list[str]]:
    """Run every chunk of ``workload`` serially and digest it."""
    from perfbench.harness import query_chunk, run_chunk, save_chunk
    from repro.runner import ResultStore

    records, rows = [], []
    with tempfile.TemporaryDirectory(prefix="_work-", dir=TABLE.parent) as tmp:
        store = ResultStore(tmp)
        for chunk_id in range(workload.chunks):
            results = run_chunk(workload, chunk_id, tiny=tiny)
            failed = sum(result.failed for result in results)
            if failed:
                raise SystemExit(
                    f"{workload.name} chunk {chunk_id}: {failed} failed "
                    "trial(s); a workload must run without failures"
                )
            save_chunk(store, results)
            records.append(records_digest(results))
            rows.append(rows_digest(query_chunk(store, workload, results)))
    return {"records": records, "query": rows}


def main(argv: list[str]) -> int:
    from perfbench.workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; "
                         f"known: {', '.join(WORKLOADS)}")
    table = load_table() if TABLE.exists() else {"version": 1}
    for name in names:
        workload = WORKLOADS[name]
        table[name] = {
            "full": build(workload, tiny=False),
            "tiny": build(workload, tiny=True),
        }
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {workload.chunks} chunks digested", file=sys.stderr)
    return 0


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(main(sys.argv[1:]))
