#!/usr/bin/env python3
"""Selftest for check_bench.py against canned fixtures.

Runs the gate script as a subprocess (exactly as CI does) and asserts
the normalized exit-code contract on good, gate-failing and malformed
artifacts: 0 pass / 1 gate fail / 2 malformed input.
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(HERE, "check_bench.py")
FIX = os.path.join(HERE, "fixtures")


def run(argv, env_extra=None):
    env = dict(os.environ)
    env.pop("GITHUB_STEP_SUMMARY", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, CHECK] + argv,
        capture_output=True,
        text=True,
        env=env,
    )


def expect(expected, argv, why, env_extra=None):
    r = run(argv, env_extra)
    assert r.returncode == expected, (
        f"{why}: check_bench {' '.join(argv)} exited {r.returncode}, "
        f"expected {expected}\nstdout: {r.stdout}\nstderr: {r.stderr}"
    )
    return r


def fx(name):
    return os.path.join(FIX, name)


def main():
    # 0: a healthy artifact passes, with and without the perf gates.
    expect(0, ["vmperf", fx("vmperf_good.json")], "good artifact")
    expect(
        0,
        ["vmperf", fx("vmperf_good.json"),
         "--min-cg-speedup", "1.5", "--min-dslash-speedup", "2.0",
         "--min-cg-reference-speedup", "2.0", "--max-padded-ratio", "1.3"],
        "good artifact with every perf gate",
    )

    # Normalized degraded semantics: a missing "degraded" key means not
    # degraded, so the scaling gates apply (and hold) exactly as they do
    # when the key is present and false.
    expect(
        0,
        ["vmperf", fx("vmperf_no_degraded_key.json"), "--min-cg-speedup", "1.5"],
        "missing degraded key treated as not degraded",
    )

    # 1: gate failures.  A degraded sweep stays informational, but
    # asserting a scaling gate on it is itself a gate failure...
    expect(0, ["vmperf", fx("vmperf_degraded.json")], "degraded artifact, no gates")
    r = expect(
        1,
        ["vmperf", fx("vmperf_degraded.json"), "--min-cg-speedup", "1.5"],
        "scaling gate on a degraded run",
    )
    assert "GATE FAILED" in r.stderr, f"no GATE FAILED banner: {r.stderr}"
    # ...and the dslash superinstruction gate still applies on degraded
    # runs (the A/B is single-worker and interleaved).
    expect(
        1,
        ["vmperf", fx("vmperf_slow_dslash.json"), "--min-dslash-speedup", "2.0"],
        "dslash superinstruction speedup below the gate",
    )
    # The single-worker CG solve against the Reference engine: same
    # artifact shape, a reference solve only 1.55x slower than w=1.
    r = expect(
        1,
        ["vmperf", fx("vmperf_slow_cg_reference.json"), "--min-cg-reference-speedup", "2.0"],
        "single-worker CG speedup over the Reference engine below the gate",
    )
    assert "Reference engine" in r.stderr, f"violation not attributed to CG: {r.stderr}"
    expect(
        0,
        ["vmperf", fx("vmperf_slow_cg_reference.json")],
        "the CG reference gate is opt-in",
    )

    # The padded-launch gate: the same kernel at block 1024 against
    # block 32, here 2.40x slower (every tile of the wide cta swept).
    r = expect(
        1,
        ["vmperf", fx("vmperf_slow_padded.json"), "--max-padded-ratio", "1.3"],
        "padded launch ratio above the gate",
    )
    assert "padded launch" in r.stderr, f"violation not attributed to the padded row: {r.stderr}"
    expect(
        0,
        ["vmperf", fx("vmperf_slow_padded.json")],
        "the padded-launch gate is opt-in",
    )
    expect(
        2,
        ["vmperf", fx("vmperf_degraded.json"), "--max-padded-ratio", "1.3"],
        "padded-launch gate on an artifact without the padded row",
    )

    # The dispatch-ratio gate is decode-time, so it holds (and fails)
    # independently of degraded status, and it covers every kernel —
    # the high-dispatch fixture drifts only the non-dslash kernel.
    expect(
        0,
        ["vmperf", fx("vmperf_good.json"), "--max-dispatch-ratio", "0.35"],
        "dispatch ratios under the gate",
    )
    expect(
        0,
        ["vmperf", fx("vmperf_degraded.json"), "--max-dispatch-ratio", "0.35"],
        "dispatch-ratio gate applies on a degraded run",
    )
    r = expect(
        1,
        ["vmperf", fx("vmperf_high_dispatch.json"), "--max-dispatch-ratio", "0.35"],
        "worst-kernel dispatch ratio above the gate",
    )
    assert "lcm" in r.stderr, f"violation not attributed to the worst kernel: {r.stderr}"

    # Register rows are decode-time counts, gated on every run: a plan
    # row may not allocate more rows than it has virtual registers, and
    # dslash must decode to fewer.
    r = expect(
        1,
        ["vmperf", fx("vmperf_rows_grow.json")],
        "a plan allocating more rows than its virtual registers",
    )
    assert "reduce8" in r.stderr, f"violation not attributed to reduce8: {r.stderr}"
    r = expect(
        1,
        ["vmperf", fx("vmperf_dslash_unallocated.json")],
        "dslash decoded without register allocation",
    )
    assert "dslash register rows" in r.stderr, f"violation not attributed to dslash: {r.stderr}"
    expect(2, ["vmperf", fx("vmperf_no_rows.json")], "artifact without register rows")

    # 2: malformed input is never reported as a gate failure.
    r = expect(2, ["vmperf", fx("vmperf_truncated.json")], "truncated JSON")
    assert "MALFORMED INPUT" in r.stderr, f"no MALFORMED INPUT banner: {r.stderr}"
    expect(2, ["vmperf", fx("no_such_artifact.json")], "missing artifact file")

    # Fusion: every reduction reads back once and pages nothing out.
    expect(0, ["fusion", fx("fusion_good.json")], "good fusion artifact")
    r = expect(
        1,
        ["fusion", fx("fusion_readback_per_plane.json")],
        "one readback per component plane",
    )
    assert "readbacks" in r.stderr, f"violation not attributed to readbacks: {r.stderr}"
    r = expect(1, ["fusion", fx("fusion_pageouts.json")], "page-outs in a steady solve")
    assert "page-outs" in r.stderr, f"violation not attributed to page-outs: {r.stderr}"
    expect(2, ["fusion", fx("fusion_no_readbacks.json")], "fusion artifact without readbacks")

    # Baseline comparison: matching baseline passes, drifted deterministic
    # counters fail with exit 1, a missing baseline dir is malformed input.
    with tempfile.TemporaryDirectory() as td:
        summary = os.path.join(td, "summary.md")
        expect(
            0,
            ["vmperf", fx("vmperf_good.json"), "--baseline", fx("baseline_ok")],
            "artifact matching its committed baseline",
            env_extra={"GITHUB_STEP_SUMMARY": summary},
        )
        with open(summary) as f:
            text = f.read()
        assert "| metric | baseline | fresh |" in text, (
            f"step summary has no metric table:\n{text}"
        )
        r = expect(
            1,
            ["vmperf", fx("vmperf_good.json"), "--baseline", fx("baseline_drift")],
            "drifted superinstruction counters vs baseline",
            env_extra={"GITHUB_STEP_SUMMARY": summary},
        )
        assert "superinsns" in r.stderr, f"drift not attributed to superinsns: {r.stderr}"
        expect(
            0,
            ["fusion", fx("fusion_good.json"), "--baseline", fx("baseline_ok")],
            "fusion artifact matching its committed baseline",
        )
        r = expect(
            1,
            ["fusion", fx("fusion_good.json"), "--baseline", fx("baseline_drift")],
            "drifted readback counters vs baseline",
        )
        assert "readbacks" in r.stderr, f"drift not attributed to readbacks: {r.stderr}"
        # JIT-cache counters are exact too: a warm run that hits the
        # persistent cache a different number of times is a regression.
        r = expect(
            1,
            ["fusion", fx("fusion_good.json"), "--baseline", fx("baseline_cache_drift")],
            "moved JIT-cache hit counter vs baseline",
        )
        assert "cache_warm.hits" in r.stderr, f"drift not attributed to cache hits: {r.stderr}"
    expect(
        2,
        ["vmperf", fx("vmperf_good.json"), "--baseline", fx("no_such_dir")],
        "missing baseline dir",
    )

    print("check_bench selftest OK: 29 cases (exit codes 0/1/2, degraded "
          "normalization, dslash + CG-reference + padded-launch + dispatch-ratio + register-row "
          "gates, fusion readback and page-out gates, baseline compare incl. cache "
          "counters + step summary)")


if __name__ == "__main__":
    main()
