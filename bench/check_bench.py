#!/usr/bin/env python3
"""CI gates over the JSON artifacts the bench harness writes.

Each subcommand validates one artifact:

  check_bench.py streams    BENCH_streams.json + trace_streams.json
  check_bench.py jitopt     BENCH_jitopt.json
  check_bench.py fusion     BENCH_fusion.json
  check_bench.py fusion-eo  BENCH_fusion_eo.json
  check_bench.py vmperf     BENCH_vmperf.json
  check_bench.py serve      BENCH_serve.json
  check_bench.py precision  BENCH_precision.json

Exit status is uniform across subcommands:

  0  every gate held
  1  a gate failed (the violated invariant is printed)
  2  malformed input (missing/unparseable artifact, missing keys)

`--baseline <dir>` additionally compares the fresh artifact against the
committed one in <dir> (same canonical file name): deterministic
counters (launches, iterations, instruction counts, modeled bytes) must
match exactly, modeled timings (sim_ms and friends) within a relative
tolerance; host wall-clock numbers are never compared.  A numeric key in
none of those classes fails the comparison.  When
GITHUB_STEP_SUMMARY is set, the comparison is also appended there as a
markdown table of metric deltas.

The gates are deliberately data-driven (no hardcoded kernel counts):
they assert relations the runtime must preserve, not the exact workload
the bench happens to run.  A missing "degraded" key means the run was
not degraded — every subcommand goes through the same helper.
"""

import argparse
import json
import os
import sys

# PR 3 shipped the CG solve at 25.2 launches per iteration (fused groups
# plus a radix-2 fold chain per reduction).  Reduction fusion plus the
# radix-8 fold must land strictly below that.
PR3_LAUNCHES_PER_ITER = 25.2

DEFAULT_FILES = {
    "streams": "BENCH_streams.json",
    "jitopt": "BENCH_jitopt.json",
    "fusion": "BENCH_fusion.json",
    "fusion-eo": "BENCH_fusion_eo.json",
    "vmperf": "BENCH_vmperf.json",
    "serve": "BENCH_serve.json",
    "precision": "BENCH_precision.json",
}


def load(path):
    with open(path) as f:
        return json.load(f)


def is_degraded(data):
    """Uniform degraded semantics: a missing key means not degraded."""
    return bool(data.get("degraded", False))


def check_streams(args):
    data = load(args.file or "BENCH_streams.json")
    assert data["sync_ns"] > 0 and data["overlap_ns"] > 0, "non-positive timings"
    assert data["overlap_ns"] < data["sync_ns"], (
        "overlapped Dslash not faster than synchronous "
        f"({data['overlap_ns']} >= {data['sync_ns']} ns)"
    )
    assert data["trace_bytes"] > 256, "Chrome trace suspiciously small"
    assert data["rank0_streams_with_spans"] >= 2, "expected spans on at least two streams"
    trace = load(data.get("trace_file", "trace_streams.json"))  # must parse as JSON
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert len(events) > 0, "Chrome trace has no events"
    print(
        f"streams OK: {data['sync_ns']:.0f} -> {data['overlap_ns']:.0f} ns "
        f"({100 * data['saved_fraction']:.1f}% saved), "
        f"{len(events)} trace events on >= {data['rank0_streams_with_spans']} streams"
    )


def check_jitopt(args):
    data = load(args.file or "BENCH_jitopt.json")
    kernels = data["kernels"]
    assert kernels, "no kernels in BENCH_jitopt.json"
    improved = 0
    for k in kernels:
        name = k["name"]
        assert k["opt_instructions"] <= k["raw_instructions"], (
            f"{name}: optimized instruction count exceeds raw"
        )
        assert k["opt_registers"] <= k["raw_registers"], (
            f"{name}: optimized register demand exceeds raw"
        )
        assert k["opt_load_bytes"] <= k["raw_load_bytes"], (
            f"{name}: optimized load bytes exceed raw"
        )
        if k["opt_instructions"] < k["raw_instructions"]:
            improved += 1
        print(
            f"{name}: {k['raw_instructions']} -> {k['opt_instructions']} instrs, "
            f"{k['raw_registers']} -> {k['opt_registers']} regs"
        )
    assert improved > 0, "middle-end improved no kernel at all"
    print(f"jitopt OK: {improved}/{len(kernels)} kernels improved")


def check_fusion(args):
    data = load(args.file or "BENCH_fusion.json")
    cg = data["cg"]
    assert cg["bit_identical"], "fused CG solution diverged from unfused"
    lu = cg["unfused"]["launches"]
    lf = cg["fused"]["launches"]
    lr = cg["fused_reduction"]["launches"]
    assert lr < lf < lu, f"launch counts not strictly decreasing: {lu} / {lf} / {lr}"
    assert cg["fused"]["kernel_bytes"] < cg["unfused"]["kernel_bytes"], (
        "fusion did not reduce kernel global traffic"
    )
    assert cg["fused_reduction"]["kernel_bytes"] <= cg["fused"]["kernel_bytes"], (
        "reduction fusion increased kernel global traffic"
    )
    per_iter = lr / cg["iterations"]
    assert per_iter < PR3_LAUNCHES_PER_ITER, (
        f"{per_iter:.1f} launches/iter not below the PR 3 baseline "
        f"({PR3_LAUNCHES_PER_ITER})"
    )
    # Simulated device time is deterministic, so the fusion win is
    # asserted strictly on it; host wall (steady-state, caches warm)
    # only gets a noise-tolerant sanity bound.
    mu = cg["unfused"]["sim_ms"]
    mf = cg["fused"]["sim_ms"]
    mr = cg["fused_reduction"]["sim_ms"]
    assert mr <= mf < mu, f"simulated time not improved by fusion: {mu} / {mf} / {mr} ms"
    # Every global sum reads its result back in exactly one copy and
    # leaves nothing on the device to page out.
    for config in ("unfused", "fused", "fused_reduction"):
        c = cg[config]
        assert c["readbacks"] == c["reductions"], (
            f"{config}: {c['readbacks']} reduction readbacks for "
            f"{c['reductions']} reductions (want one each)"
        )
        assert c["pageouts"] == 0, f"{config}: {c['pageouts']} page-outs in a steady solve"
    assert cg["fused"]["wall_s"] <= cg["unfused"]["wall_s"] * 1.25, (
        f"fused steady-state wall {cg['fused']['wall_s']}s far exceeds "
        f"unfused {cg['unfused']['wall_s']}s"
    )
    planner = data["planner"]
    assert planner["fused_groups"] > 0, "planner fused no groups"
    assert planner["fallbacks"] == 0, f"{planner['fallbacks']} fusion fallbacks"
    # Persistent JIT cache: a warm-cache engine must replay every kernel
    # (zero compiles, hits on disk) and its first solve must cost no more
    # than a steady-state one — both sides are min-of-N resamples, so the
    # 1.1x headroom covers only residual timer noise, not compile work.
    jc = data["jit_cache"]
    assert jc is not None, "jit_cache section missing (REPRO_JIT_CACHE=off during bench?)"
    warm = jc["cache_warm"]
    assert warm["kernels_built"] == 0, (
        f"warm-cache engine compiled {warm['kernels_built']} kernels (want 0)"
    )
    assert warm["hits"] > 0, "warm-cache engine hit nothing in the cache"
    assert jc["cache_cold"]["stores"] > 0 or warm["hits"] > 0, "cache never populated"
    assert warm["cold_s"] <= 1.1 * warm["warm_s"], (
        f"warm-cache first solve {warm['cold_s']}s exceeds 1.1x steady "
        f"{warm['warm_s']}s — warm startup is doing compile-shaped work"
    )
    print(
        f"fusion OK: CG {cg['iterations']} iters, launches {lu} -> {lf} -> {lr} "
        f"({per_iter:.1f}/iter, baseline {PR3_LAUNCHES_PER_ITER}), "
        f"sim {mu:.2f} -> {mf:.2f} -> {mr:.2f} ms, "
        f"{planner['fused_groups']} groups, {planner['launches_saved']} launches saved, "
        f"warm cache: {warm['hits']} hits, 0 compiles, "
        f"cold {warm['cold_s']:.2f}s vs steady {warm['warm_s']:.2f}s"
    )


def check_vmperf(args):
    data = load(args.file or "BENCH_vmperf.json")
    for k in data["kernels"]:
        assert k["bit_identical"], f"kernel {k['name']} diverged across worker counts"
        assert k["scalar_bit_identical"], (
            f"kernel {k['name']}: runtime checksum diverged from the Reference "
            "engine (scalar interpreter)"
        )
    cg = data["cg"]
    assert cg["bit_identical"], "CG solution diverged across worker counts"
    assert cg["scalar_bit_identical"], (
        "CG: runtime solution diverged from the Reference engine (scalar interpreter)"
    )
    ws = data["workers"]
    walls = cg["wall_s"]
    w1 = walls[ws.index(1)]
    best_w = ws[walls.index(min(walls))]
    speedup = w1 / min(walls)
    degraded = is_degraded(data)
    line = (
        f"cg {cg['iterations']} iters: {w1:.2f}s at 1 worker, best "
        f"{min(walls):.2f}s at {best_w} ({speedup:.2f}x), runtime "
        f"{data['runtime']}, {data['available_domains']} domains"
        + (" [DEGRADED]" if degraded else "")
    )
    # Register allocation is decode-time, so it is asserted on every
    # run: no program may carry more register rows than its virtual
    # registers, and dslash must actually shrink.
    for k in data["kernels"] + data.get("plans", []):
        assert k["rows"] <= k["virtual_rows"], (
            f"kernel {k['name']} allocates {k['rows']} register rows, more than "
            f"its {k['virtual_rows']} virtual registers"
        )
    kd = {k["name"]: k for k in data["kernels"]}
    assert "dslash" in kd, "no dslash kernel in the vmperf sweep"
    d = kd["dslash"]
    assert d["rows"] < d["virtual_rows"], (
        f"dslash register rows not allocated: {d['rows']} rows for "
        f"{d['virtual_rows']} virtual registers"
    )
    line += f", dslash rows {d['rows']}/{d['virtual_rows']}"
    # The superinstruction dispatch gate: the A/B is single-worker and
    # interleaved on one engine (host noise hits both strategies), so
    # it holds even on degraded multicore sweeps.
    if args.min_dslash_speedup is not None:
        assert d["superinsns"] >= 1, "dslash decoded to no superinstruction spans"
        assert d["dispatch_ratio"] < 1.0, (
            f"dslash dispatch ratio {d['dispatch_ratio']} not below 1 "
            "(superinstructions fused nothing)"
        )
        sp = d["scalar_ms"] / d["soa_ms"]
        assert sp >= args.min_dslash_speedup, (
            f"dslash superinstruction speedup is {sp:.2f}x "
            f"({d['scalar_ms']:.2f} -> {d['soa_ms']:.2f} ms), below the "
            f"{args.min_dslash_speedup:.2f}x gate"
        )
        line += f", dslash superinsn {sp:.2f}x"
    # The CG reference gate: a whole single-worker solve on the runtime
    # against the same solve on the Reference engine (the scalar
    # interpreter).  Like the dslash A/B it is single-worker, so it holds
    # on degraded runs too.
    if args.min_cg_reference_speedup is not None:
        sp = cg["scalar_wall_s"] / w1
        assert sp >= args.min_cg_reference_speedup, (
            f"CG at 1 worker is only {sp:.2f}x faster than the Reference engine "
            f"({cg['scalar_wall_s']:.2f}s -> {w1:.2f}s), below the "
            f"{args.min_cg_reference_speedup:.2f}x gate"
        )
        line += f", cg vs reference {sp:.2f}x"
    # The padded-launch row: a 16-site kernel at block 1024 against the
    # same kernel at block 32.  Its bit-identity is asserted whenever the
    # row is present; the ratio gate is opt-in and, single-worker and
    # interleaved like the A/Bs above, holds on degraded runs too.  A
    # ratio near 1 means the wide cta ran only its live tile.
    if "padded" in data:
        assert data["padded"]["bit_identical"], (
            "padded launch diverged from the tight launch or the Reference device"
        )
    if args.max_padded_ratio is not None:
        pd = data["padded"]
        ratio = pd["padded_us"] / pd["tight_us"]
        assert ratio <= args.max_padded_ratio, (
            f"padded launch ({pd['sites']} sites at block {pd['block']}) is {ratio:.2f}x "
            f"the block-{pd['tight_block']} launch ({pd['tight_us']:.2f} -> "
            f"{pd['padded_us']:.2f} us), above the {args.max_padded_ratio:.2f}x gate"
        )
        line += f", padded launch {ratio:.2f}x"
    # The fusion-coverage gate: dispatch_ratio is a pure decode-time
    # metric ((units + uncovered instrs) / decoded instrs), so like the
    # A/B above it is asserted on every run, degraded or not.
    if args.max_dispatch_ratio is not None:
        worst = max(data["kernels"], key=lambda k: k["dispatch_ratio"])
        assert worst["dispatch_ratio"] <= args.max_dispatch_ratio, (
            f"kernel {worst['name']} dispatch ratio {worst['dispatch_ratio']:.4f} "
            f"exceeds the {args.max_dispatch_ratio:.2f} gate (planner fusing "
            "too little per unit)"
        )
        line += (
            f", worst dispatch ratio {worst['dispatch_ratio']:.3f} ({worst['name']})"
        )
    # Timing gates only make sense when the host actually has spare
    # cores; single-core runners and degraded sweeps (more workers
    # requested than domains available) stay informational — the bench
    # stamps "degraded" into the artifact for exactly this decision.
    if data["available_domains"] >= 2 and not degraded:
        assert min(walls) <= w1, f"no multi-worker config beat 1 worker: {line}"
        # The batched-sweep scaling gate: asserted only where it can
        # physically hold — at least 4 real domains and a 4-worker column.
        if args.min_cg_speedup is not None:
            assert data["available_domains"] >= 4, (
                f"--min-cg-speedup requires a >= 4-domain runner "
                f"(got {data['available_domains']}): {line}"
            )
            assert 4 in ws, f"no 4-worker column in the sweep: {line}"
            s4 = w1 / walls[ws.index(4)]
            assert s4 >= args.min_cg_speedup, (
                f"CG speedup at 4 workers is {s4:.2f}x, below the "
                f"{args.min_cg_speedup:.2f}x gate: {line}"
            )
            # No kernel may scale backwards at 4 workers (5% timer noise).
            for k in data["kernels"]:
                k1 = k["wall_ms"][ws.index(1)]
                k4 = k["wall_ms"][ws.index(4)]
                assert k4 <= 1.05 * k1, (
                    f"kernel {k['name']} slower at 4 workers "
                    f"({k4:.2f} ms) than at 1 ({k1:.2f} ms)"
                )
        print(f"vmperf OK: {line}")
    else:
        assert args.min_cg_speedup is None, (
            f"--min-cg-speedup asserted on an ineligible run: {line}"
        )
        print(f"vmperf OK (bit-identical; scaling informational): {line}")


def check_fusion_eo(args):
    data = load(args.file or "BENCH_fusion_eo.json")
    eo = data["eo"]
    assert eo["bit_identical"], "eo fused solution diverged from unfused"
    lu = eo["unfused"]["launches"]
    lr = eo["fused_reduction"]["launches"]
    assert lr < lu, f"eo solve: fusion saved no launches ({lr} >= {lu})"
    planner = data["planner"]
    assert planner["fused_groups"] > 0, "eo solve fused no groups (cross-subset grouping broken)"
    avg = planner["avg_members_per_fused_group"]
    assert avg > 1.0, f"eo fused groups average {avg} members (need > 1)"
    assert planner["fallbacks"] == 0, f"{planner['fallbacks']} fusion fallbacks"
    print(
        f"fusion-eo OK: {eo['iterations']} iters, launches {lu} -> {lr}, "
        f"{planner['fused_groups']} groups at {avg:.2f} members/group"
    )


def check_serve(args):
    data = load(args.file or "BENCH_serve.json")
    n = data["sessions"]
    assert n >= 2, f"serving bench ran only {n} sessions"
    assert data["bit_identical"], "served solutions diverged from dedicated engines"
    assert data["tasks"] == sum(s["tasks"] for s in data["sessions_detail"]), (
        "executed task count does not match per-session totals"
    )
    serve = data["serve"]
    serial = data["serial"]
    # Aggregate modeled device time: sharing one engine (kernel pool +
    # autotune state) must cost at most 20% over dedicated engines; in
    # practice it is cheaper because tuning probes run once, not N times.
    ratio = serve["sim_ms_total"] / serial["sim_ms_total"]
    assert ratio <= 1.2, (
        f"served aggregate sim time {serve['sim_ms_total']:.1f} ms is {ratio:.2f}x "
        f"serial {serial['sim_ms_total']:.1f} ms (limit 1.2x)"
    )
    # The serial baseline populated the shared cache dir, so the serving
    # engine must start fully warm: zero compiles, hits on disk.
    jc = data["jit_cache"]
    assert jc is not None, "jit_cache section missing (REPRO_JIT_CACHE=off during bench?)"
    assert serve["kernels_built"] == 0, (
        f"serving engine compiled {serve['kernels_built']} kernels against a warm cache"
    )
    assert jc["hits"] > 0, "serving engine hit nothing in the shared cache"
    assert jc["corrupt"] == 0, f"{jc['corrupt']} corrupt cache entries"
    assert data["resident_after_close"] == 0, (
        f"{data['resident_after_close']} fields still device-resident after teardown"
    )
    for s in data["sessions_detail"]:
        assert s["launches"] > 0, f"session {s['name']} launched nothing"
        assert s["sim_ms"] > 0, f"session {s['name']} has no attributed device time"
        assert s["queue_wait_s"] >= 0, f"session {s['name']} has negative queue wait"
    if args.reused:
        # Second bench invocation against a persistent REPRO_JIT_CACHE dir:
        # every kernel, including the serial tenants' first engine, must
        # come from the previous run's cache.
        assert jc["misses"] == 0, (
            f"{jc['misses']} cache misses on a reused cache dir (expected full reuse)"
        )
        assert serial["kernels_built_first"] == 0, (
            f"first serial tenant compiled {serial['kernels_built_first']} kernels "
            "on a reused cache dir"
        )
    print(
        f"serve OK: {n} sessions, {data['tasks']} tasks, bit-identical, "
        f"sim ratio {ratio:.3f} (limit 1.2), {jc['hits']} cache hits / "
        f"{jc['misses']} misses, 0 compiles on the serving engine, "
        f"0 resident after teardown" + (" [reused dir]" if args.reused else "")
    )


def check_precision(args):
    data = load(args.file or "BENCH_precision.json")
    assert data["bit_identical"], "a scheme diverged across VM worker counts / CPU"
    tol = data["tol"]
    schemes = {s["name"]: s for s in data["schemes"]}
    for name in ("cg_f64", "dc_f32", "ru_f16"):
        s = schemes[name]
        assert s["converged"], f"{name} did not converge"
        assert s["residual"] <= tol, f"{name} residual {s['residual']} above tol {tol}"
        assert s["kernel_bytes"] > 0 and s["sim_ms"] > 0, f"{name} has no measured traffic"
    f64, f32, f16 = schemes["cg_f64"], schemes["dc_f32"], schemes["ru_f16"]
    # Storage tiers must land where they should: the f64 baseline moves no
    # narrow traffic, each mixed scheme is dominated by its low tier with a
    # nonzero f64 remainder (outer residuals / reliable updates).
    assert f64["bytes_f16"] == 0 and f64["bytes_f32"] == 0, "f64 CG moved sub-f64 traffic"
    assert f32["bytes_f32"] > f32["bytes_f64"] > 0, "defect-correction not f32-dominated"
    assert f16["bytes_f16"] > f16["bytes_f64"] > 0, "reliable-update not f16-dominated"
    ratio = data["bytes_ratio_f64_over_f16"]
    assert ratio >= 1.8, (
        f"f16 reliable-update saved only {ratio:.2f}x model traffic (need >= 1.8x)"
    )
    recomputed = f64["kernel_bytes"] / f16["kernel_bytes"]
    assert abs(ratio - recomputed) <= 1e-3 * recomputed, (
        f"reported ratio {ratio} inconsistent with per-scheme bytes ({recomputed:.4f})"
    )
    m = data["model_trajectory_s"]
    assert m["f16"] < m["f32"] < m["f64"], (
        "production model does not improve monotonically with narrower solver storage"
    )
    print(
        f"precision OK: tol {tol:g} reached by all 3 schemes "
        f"(f64 {f64['iterations']}, f32 {f32['iterations']}, f16 {f16['iterations']} iters, "
        f"{f16['aux_iterations']} reliable updates), bit-identical, "
        f"f16 traffic {ratio:.2f}x below f64 (gate 1.8x), "
        f"modeled trajectory {m['f64']:.0f} -> {m['f16']:.0f} s"
    )


# ---------------------------------------------------------------------------
# Baseline regression comparison.
#
# Every numeric key an artifact carries is classified exactly once:
# deterministic counters must match the committed artifact exactly;
# modeled timings within a relative tolerance (they depend on the block
# autotuner, which measures the host); host wall-clock metrics and
# environment descriptors are never compared, each for the reason
# recorded in UNGATED_KEYS.  A numeric key in none of the three sets
# fails the comparison, so a new counter cannot slip past the gate.

EXACT_KEYS = {
    "launches",
    "launches_total",
    "readbacks",
    "pageouts",
    "reductions",
    "iterations",
    "aux_iterations",
    "max_iter",
    "tol",
    "residual",
    "raw_instructions",
    "opt_instructions",
    "raw_registers",
    "opt_registers",
    "raw_load_bytes",
    "opt_load_bytes",
    "kernel_bytes",
    "kernel_bytes_f16",
    "kernel_bytes_f32",
    "kernel_bytes_f64",
    "bytes_f16",
    "bytes_f32",
    "bytes_f64",
    "eliminated_load_bytes",
    "eliminated_store_bytes",
    "kernels_built",
    "kernels_built_first",
    "superinsns",
    "fused_units",
    "covered_instrs",
    "decoded_instrs",
    "rows",
    "virtual_rows",
    "fused_groups",
    "launches_saved",
    "fallbacks",
    "sessions",
    "tasks",
    "resident_after_close",
    "rank0_streams_with_spans",
    "sites",
    "block",
    "tight_block",
    "hits",
    "misses",
    "stores",
    "corrupt",
    "evictions",
}

TOLERANT_KEYS = {
    "sim_ms",
    "sim_ms_total",
    "sim_ratio_vs_serial",
    "sync_ns",
    "overlap_ns",
    "saved_fraction",
    "dispatch_ratio",
    "bytes_ratio_f64_over_f16",
    "avg_members_per_fused_group",
    "f16",
    "f32",
    "f64",
}

UNGATED_KEYS = {
    "available_domains": "host core count: CI runners and dev machines differ",
    "workers": "worker counts swept, which follow available_domains",
    "wall_s": "host wall clock",
    "wall_s_total": "host wall clock",
    "scalar_wall_s": "host wall clock",
    "cold_s": "host wall clock of a cold run (compile included)",
    "warm_s": "host wall clock of a warm run",
    "run_s": "host wall clock of one tenant's tasks",
    "queue_wait_s": "host wall clock a tenant waited, set by thread scheduling",
    "queue_wait_s_total": "host wall clock, summed over tenants",
    "wall_ms": "host wall clock per launch",
    "scalar_ms": "host wall clock per launch",
    "soa_ms": "host wall clock per launch",
    "padded_us": "host wall clock per launch",
    "tight_us": "host wall clock per launch",
    "ratio": "quotient of two host wall clocks; --max-padded-ratio bounds it",
    "trace_bytes": "trace text length, whose modeled timestamps follow the autotuner",
}

BASELINE_TOLERANCE = 0.25


GATED_KEYS = EXACT_KEYS | TOLERANT_KEYS
assert not (EXACT_KEYS & TOLERANT_KEYS) and not (GATED_KEYS & UNGATED_KEYS.keys())


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_numeric(v):
    """A number, or a non-empty list of numbers."""
    return is_number(v) or (isinstance(v, list) and bool(v) and all(map(is_number, v)))


def compare_baseline(check, fresh, base):
    """Returns (rows, failures): rows for the step-summary table, and
    human-readable failure strings (empty when the baseline holds)."""
    rows = []
    failures = []

    def scalar(path, key, bv, fv):
        if not isinstance(bv, (int, float)) or isinstance(bv, bool):
            return
        if not isinstance(fv, (int, float)) or isinstance(fv, bool):
            failures.append(f"{path}: baseline {bv!r} but fresh value {fv!r}")
            return
        delta = fv - bv
        rel = delta / bv if bv else (0.0 if fv == 0 else float("inf"))
        if key in EXACT_KEYS:
            ok = bv == fv
            kind = "exact"
        else:
            ok = abs(delta) <= BASELINE_TOLERANCE * max(abs(bv), 1e-12)
            kind = f"±{100 * BASELINE_TOLERANCE:.0f}%"
        rows.append((path, bv, fv, rel, kind, ok))
        if not ok:
            failures.append(
                f"{path}: baseline {bv} vs fresh {fv} ({100 * rel:+.1f}%, {kind})"
            )

    def classified(path, obj):
        for key, v in obj.items():
            if is_numeric(v) and key not in GATED_KEYS and key not in UNGATED_KEYS:
                p = f"{path}.{key}" if path else key
                failures.append(
                    f"{p}: numeric key {key!r} is unclassified "
                    "(add it to EXACT_KEYS, TOLERANT_KEYS or UNGATED_KEYS)"
                )

    def walk(path, b, f):
        if isinstance(b, dict):
            if not isinstance(f, dict):
                failures.append(f"{path or '<root>'}: not an object in fresh artifact")
                return
            classified(path, b)
            classified(path, {k: v for k, v in f.items() if k not in b})
            for key, bv in b.items():
                p = f"{path}.{key}" if path else key
                if key in GATED_KEYS:
                    if key not in f:
                        failures.append(f"{p}: missing from fresh artifact")
                    else:
                        scalar(p, key, bv, f[key])
                elif isinstance(bv, (dict, list)) and not is_numeric(bv):
                    if key in f:
                        walk(p, bv, f[key])
        elif isinstance(b, list):
            named = [x for x in b if isinstance(x, dict) and "name" in x]
            if named and isinstance(f, list):
                fmap = {x.get("name"): x for x in f if isinstance(x, dict)}
                for x in named:
                    p = f"{path}[{x['name']}]"
                    if x["name"] in fmap:
                        walk(p, x, fmap[x["name"]])
                    else:
                        failures.append(f"{p}: missing from fresh artifact")

    walk("", base, fresh)
    if not rows and not failures:
        failures.append(f"{check}: baseline comparison matched no metrics at all")
    return rows, failures


def write_step_summary(check, rows, failures):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as f:
        verdict = "✅ within tolerance" if not failures else "❌ regression"
        f.write(f"### `{check}` vs committed baseline — {verdict}\n\n")
        f.write("| metric | baseline | fresh | delta | gate | ok |\n")
        f.write("|---|---:|---:|---:|---|---|\n")
        for path_, bv, fv, rel, kind, ok in rows:
            f.write(
                f"| `{path_}` | {bv:g} | {fv:g} | {100 * rel:+.1f}% | {kind} | "
                f"{'✅' if ok else '❌'} |\n"
            )
        for msg in failures:
            f.write(f"- ❌ {msg}\n")
        f.write("\n")


def run_baseline(args):
    fresh_path = args.file or DEFAULT_FILES[args.check]
    base_path = os.path.join(args.baseline, DEFAULT_FILES[args.check])
    fresh = load(fresh_path)
    base = load(base_path)
    rows, failures = compare_baseline(args.check, fresh, base)
    write_step_summary(args.check, rows, failures)
    assert not failures, (
        f"baseline regression vs {base_path}:\n  " + "\n  ".join(failures)
    )
    print(
        f"baseline OK: {len(rows)} metrics within tolerance of {base_path} "
        f"(counters exact, modeled timings ±{100 * BASELINE_TOLERANCE:.0f}%)"
    )


CHECKS = {
    "streams": check_streams,
    "jitopt": check_jitopt,
    "fusion": check_fusion,
    "fusion-eo": check_fusion_eo,
    "vmperf": check_vmperf,
    "serve": check_serve,
    "precision": check_precision,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("check", choices=sorted(CHECKS))
    parser.add_argument("file", nargs="?", help="artifact path (defaults per check)")
    parser.add_argument(
        "--baseline",
        metavar="DIR",
        default=None,
        help="compare the fresh artifact against the committed one in DIR "
        "(deterministic counters exact, modeled timings within tolerance)",
    )
    parser.add_argument(
        "--min-cg-speedup",
        type=float,
        default=None,
        help="vmperf: require at least this CG speedup at 4 workers; only valid "
        "on non-degraded multicore runs with >= 4 available domains",
    )
    parser.add_argument(
        "--min-dslash-speedup",
        type=float,
        default=None,
        help="vmperf: require at least this single-worker dslash speedup of the "
        "runtime over the Reference engine (the interleaved A/B timings)",
    )
    parser.add_argument(
        "--min-cg-reference-speedup",
        type=float,
        default=None,
        help="vmperf: require the single-worker CG solve to run at least this much "
        "faster than on the Reference engine (cg.scalar_wall_s / cg.wall_s at w=1); "
        "valid on degraded runs",
    )
    parser.add_argument(
        "--max-padded-ratio",
        type=float,
        default=None,
        help="vmperf: require the 16-site kernel launched at block 1024 to take at "
        "most this multiple of its block-32 launch (padded.padded_us / "
        "padded.tight_us); valid on degraded runs",
    )
    parser.add_argument(
        "--max-dispatch-ratio",
        type=float,
        default=None,
        help="vmperf: require every kernel's superinstruction dispatch ratio "
        "((units + uncovered instrs) / decoded instrs) at or below this bound; "
        "decode-time metric, valid on degraded runs",
    )
    parser.add_argument(
        "--reused",
        action="store_true",
        help="serve: the bench ran against an already-populated REPRO_JIT_CACHE dir; "
        "additionally require zero misses and zero compiles anywhere",
    )
    args = parser.parse_args()
    try:
        CHECKS[args.check](args)
        if args.baseline is not None:
            run_baseline(args)
    except AssertionError as e:
        print(f"GATE FAILED ({args.check}): {e}", file=sys.stderr)
        sys.exit(1)
    except (FileNotFoundError, KeyError, IndexError, TypeError, ValueError) as e:
        # json.JSONDecodeError is a ValueError; .index() misses are
        # ValueErrors; missing keys are KeyErrors — all of these mean the
        # artifact (or the committed baseline) is malformed, not that a
        # gate failed.
        print(f"MALFORMED INPUT ({args.check}): {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
