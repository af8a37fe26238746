"""Self-test: the benchmark's correctness gate fails on a wrong reference.

    python3 perfbench/selftest.py

1. ``run.py --workload search_quickstart`` with a copy of ``references.json``
   whose hash for the seed's variant is corrupted must exit non-zero and
   print no result line; with the real table the same run must pass.
2. A short ``serve_http_mixed`` closed loop against the live HTTP server
   must pass the serving check; it must fail once the oracle's reference
   labels are flipped, and fail on a loop in which one request body is
   malformed, so the server answers it with 400.

Exits 0 when every check behaves as stated.  Takes about 30 seconds.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys

from common import BENCH_DIR, BenchmarkFailure, require_program, work_dir


def run_search(references) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "search_quickstart",
         "--seed", "0", "--seconds", "1", "--trace", "0", "--references", str(references)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def has_result(stdout: str) -> bool:
    lines = [line for line in stdout.splitlines() if line.strip()]
    return bool(lines) and lines[-1].startswith("{") and '"correct"' in lines[-1]


def check_search() -> None:
    table = json.loads((BENCH_DIR / "references.json").read_text())
    entry = table["variants"]["0"]
    entry["result_hash"] = "0" * len(entry["result_hash"])
    corrupt = work_dir("selftest") / "references-corrupt.json"
    corrupt.write_text(json.dumps(table))
    bad = run_search(corrupt)
    assert bad.returncode != 0, "a corrupted search reference did not fail the run"
    assert not has_result(bad.stdout), "a failed search run still printed a result"
    assert "result_hash" in bad.stderr, bad.stderr[-2000:]
    good = run_search(BENCH_DIR / "references.json")
    assert good.returncode == 0 and has_result(good.stdout), good.stderr[-2000:]
    print("search gate: corrupted reference fails, true reference passes")


def check_serving() -> None:
    from artifact import ensure_artifact, load_rows
    from serve_http import Bodies, ServerProcess, account_and_check, closed_loop
    from serving import Oracle

    artifact, rows_path = ensure_artifact()
    rows = load_rows(rows_path)
    bodies = Bodies(rows, seed=0)
    oracle = Oracle(artifact, rows["features"])
    server = ServerProcess(artifact, rows_path)
    try:
        sent, _, elapsed = closed_loop(server.port, bodies, 1.0, bodies.order(1.0))
        order = bodies.order(1.0)
        first = next(order)
        bodies.encoded[first] = b"{not json"
        malformed, _, malformed_elapsed = closed_loop(
            server.port, bodies, 1.0, itertools.chain([first], order)
        )
        server.command("stop")
    finally:
        server.close()
    account = account_and_check(sent, elapsed, bodies, oracle, "selftest")
    assert account.ok > 0, "the live server answered nothing"
    expect_failure(
        lambda: account_and_check(malformed, malformed_elapsed, bodies, oracle, "selftest-400"),
        "a request answered with 400",
    )
    oracle.predictions = oracle.predictions + 1
    expect_failure(
        lambda: account_and_check(sent, elapsed, bodies, oracle, "selftest-corrupt"),
        "a corrupted serving reference",
    )
    print("serving gate: true reference passes; corrupted reference and a 400 fail")


def expect_failure(check, what: str) -> None:
    try:
        check()
    except BenchmarkFailure as exc:
        print(f"  {what} fails the run: {str(exc)[:160]}")
    else:
        raise AssertionError(f"{what} did not fail the check")


def main() -> int:
    require_program()
    check_serving()
    check_search()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
