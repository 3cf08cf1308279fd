"""Time-to-verified-certificate benchmark for palfree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's fixed job list through palfree.cli.run_command, one job
at a time (a closed loop with one client), in one fresh interpreter per
pass, for about S seconds, and checks every certificate against the stored
reference.  --trace 0 reports the end-to-end metrics, --trace 1 alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
--workload all runs the four workloads one after another.

    python3 perfbench/run.py --write-reference    # re-render the references

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".perfbench"
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
UNITS["failed_frac"] = "frac"  # printed, but not a BENCHMARK.json metric: it is 0
SETUP_SPAWNS_PER_PASS = 2  # setup-only spawns before each untraced pass
CHILD_DEADLINE_S = 170    # the whole run must end within 180 s
# The host the benchmark was written on (2 vCPUs, shared) ran the same pass
# anywhere from 1.0 to 1.7 times its fastest, in phases from under a second
# to longer than a run.  Time metrics are therefore rescaled, by a probe run
# before, every 50 ms during and after every job (child.HostSpeed), to the
# host speed at which the probe takes this long; the measured times are
# printed and kept as well.
PROBE_NOMINAL_S = 0.0005

WORKLOADS = {
    "uniform_transfer": [
        ("transfer-thm3a", "verify-morphism --instance thm3a"),
        ("transfer-thm3b", "verify-morphism --instance thm3b"),
        ("transfer-thm3c", "verify-morphism --instance thm3c"),
        ("transfer-thm3d", "verify-morphism --instance thm3d"),
        ("transfer-thm3h", "verify-morphism --instance thm3h"),
    ],
    "prefix_scan": [
        ("exponent-nu-empirical",
         "exponent --word nu_p --method empirical --prefix 50000 --expect 5/2"),
        ("exponent-mu-empirical",
         "exponent --word mu_p --method empirical --prefix 50000 --expect 28/11"),
        ("exponent-mu-bound",
         "exponent --word mu_p --method empirical --prefix 50000 --bound 28/11+"),
        ("splice-x", "splice --prefix 100000 --center 200"),
    ],
    "factor_profile": [
        ("palindromes-baseline", "palindromes --word 001011 --prefix 100000 --expect 9"),
        ("palindromes-mu", "palindromes --word mu_p --prefix 100000 --expect 18"),
        ("palindromes-nu", "palindromes --word nu_p --prefix 100000 --expect 20"),
        ("exponent-nu-structural", "exponent --word nu_p --method bispecial --expect 5/2"),
        ("exponent-mu-structural", "exponent --word mu_p --method bispecial --expect 28/11"),
        ("exponent-closed-form", "exponent --word p --method closed-form --expect 2.48"),
        ("structure-p", "structure --word p --max-bs 200 --complexity-n 500"),
    ],
    "backtrack": [
        ("table1-p10-b10_3", "table1 --p 10 --beta 10/3"),
        ("table1-p11-b23_7", "table1 --p 11 --beta 23/7"),
        ("table1-p12-b3", "table1 --p 12 --beta 3"),
        ("table1-p14-b8_3", "table1 --p 14 --beta 8/3"),
        ("table1-p17-b13_5", "table1 --p 17 --beta 13/5"),
        ("table1-p17-b28_11", "table1 --p 17 --beta 28/11"),
        ("table1-p19-b5_2", "table1 --p 19 --beta 5/2"),
        ("table1-p24-b7_3", "table1 --p 24 --beta 7/3"),
        ("optimality-pal8", "optimality --alphabet 2 --pal 8 --cap 400 --symmetry"),
        ("optimality-cubefree14",
         "optimality --alphabet 2 --exp 3 --strict false --pal 14 --cap 400 --symmetry"),
        ("growth-pal11", "growth --pal 11 --max-n 60 --expect 1.1127756842787 --tol 0.01"),
        ("rauzy-mu", "rauzy --exp 13/5 --strict false --pal 18 --ell 20 --mode weak "
                     "--margin 40 --trim --compare mu_p --select-avoiding 1101"),
        ("preimage-mu", "preimage-prove --morphism mu --family F18"),
        ("preimage-nu", "preimage-prove --morphism nu --family F20"),
    ],
    # the self-test's workload, not part of BENCHMARK.json
    "mini": [
        ("transfer-thm3c", "verify-morphism --instance thm3c"),
        ("optimality-pal8", "optimality --alphabet 2 --pal 8 --cap 400 --symmetry"),
        ("palindromes-mu-1e4", "palindromes --word mu_p --prefix 10000 --expect 18"),
    ],
}
MAIN_WORKLOADS = [w for w in WORKLOADS if w != "mini"]

class ChildError(RuntimeError):
    pass


def child_env(seed: int) -> dict[str, str]:
    """The caller's environment without the variables that cap or
    parallelize palfree runs, with the hash seed fixed by --seed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PALFREE_NODE_BUDGET", "PALFREE_JOBS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


def spawn(jobs, seed: int, timeout: float, trace: bool = False,
          trace_out: Path | None = None) -> tuple[float, dict]:
    """Run one child; returns (setup seconds, the child's reply).  The setup
    seconds exclude the child's probes and are rescaled like job times."""
    request = json.dumps({"jobs": jobs, "trace": trace,
                          "trace_out": str(trace_out) if trace_out else None})
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(ROOT)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(seed), cwd=ROOT, text=True)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        try:
            proc.stdin.write(request)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != "ready\n" or code != 0:
        raise ChildError(f"benchmark child exited with code {code}")
    reply = json.loads(rest)
    reply["measured_setup_s"] = setup_s
    probes = reply["setup_probe_s"]  # all ran before "ready"
    setup_s = (setup_s - sum(probes)) * PROBE_NOMINAL_S / statistics.median(probes)
    return setup_s, reply


def load_references(ref_dir: Path, names, parse) -> dict:
    refs = {}
    for name in names:
        path = ref_dir / f"{name}.cert"
        if path.exists():
            refs[name] = parse(path.read_text()).comparable()
    return refs


def job_failures(reply: dict, refs: dict, parse) -> dict[str, str]:
    """job name -> why it failed, for each failed job of one pass."""
    bad = {}
    for job in reply["jobs"]:
        name = job["name"]
        if job["error"] is not None:
            bad[name] = "raised"
            continue
        cert = parse(job["cert"])
        if cert.outcome != "pass":
            bad[name] = f"outcome {cert.outcome}"
        elif name not in refs:
            bad[name] = "no reference certificate"
        elif cert.comparable() != refs[name]:
            bad[name] = "differs from the reference certificate"
    return bad


def median(values):
    return statistics.median(values) if values else 0.0


def adjusted(reply: dict, key: str = "wall_s") -> list[float]:
    """Each job's time rescaled to the host speed at which the probe takes
    PROBE_NOMINAL_S, by the median of the probe samples taken around and
    during the job (a median, so that one descheduled sample does not
    rescale the whole job)."""
    return [j[key] * PROBE_NOMINAL_S / statistics.median(j["probe_s"])
            for j in reply["jobs"]]


def pass_time(reply: dict, key: str = "wall_s") -> float:
    return sum(j[key] for j in reply["jobs"])


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ref_dir: Path, parse) -> dict:
    jobs = [list(j) for j in WORKLOADS[workload]]
    refs = load_references(ref_dir, [j[0] for j in jobs], parse)
    rng = random.Random(seed)
    start = perf_counter()
    deadline = start + seconds

    def timeout():
        return CHILD_DEADLINE_S - (perf_counter() - start)

    plain, traced, rounds, setups, setup_replies = [], [], [], [], []
    failures: dict[str, int] = {}
    attempted = failed = 0
    trace_mismatch = []
    spawn([], seed, timeout())  # warm-up: fills the bytecode cache
    while True:
        t = perf_counter()
        if not trace:
            for _ in range(SETUP_SPAWNS_PER_PASS):
                setup_s, reply = spawn([], seed, timeout())
                setups.append(setup_s)
                setup_replies.append(reply)
        order = rng.sample(jobs, len(jobs))
        setup_s, reply = spawn(order, seed, timeout())
        setups.append(setup_s)
        setup_replies.append(reply)
        plain.append(reply)
        replies = [reply]
        if trace:
            out = OUT_DIR / f"{workload}-seed{seed}-pass{len(traced)}.spans.json"
            treply = spawn(order, seed, timeout(), trace=True, trace_out=out)[1]
            traced.append(treply)
            replies.append(treply)
            for a, b in zip(reply["jobs"], treply["jobs"]):
                if (a["cert"] and b["cert"] and parse(a["cert"]).comparable()
                        != parse(b["cert"]).comparable()):
                    trace_mismatch.append(a["name"])
        for r in replies:
            bad = job_failures(r, refs, parse)
            attempted += len(r["jobs"])
            failed += len(bad)
            for name, why in bad.items():
                key = f"{name}: {why}"
                failures[key] = failures.get(key, 0) + 1
        rounds.append(perf_counter() - t)
        if perf_counter() + statistics.mean(rounds) > deadline:
            break

    job_wall = {name: median([t for r in plain for j, t in zip(r["jobs"], adjusted(r))
                              if j["name"] == name]) for name, _ in jobs}
    measured = {"wall_s": median([pass_time(r) for r in plain]),
                "cpu_s": median([pass_time(r, "cpu_s") for r in plain]),
                "setup_s": median([r["measured_setup_s"] for r in setup_replies]),
                "probe_s": median([p for r in plain for j in r["jobs"] for p in j["probe_s"]])}
    if trace:
        per_layer = {k: statistics.median_low([r["layers"][k] for r in traced])
                     for k in traced[0]["layers"]}
        per_layer["trace_overhead_frac"] = (median([sum(adjusted(r)) for r in traced])
                                            / median([sum(adjusted(r)) for r in plain]) - 1)
        metrics = per_layer
    else:
        metrics = {
            "wall_s": median([sum(adjusted(r)) for r in plain]),
            "cpu_s": median([sum(adjusted(r, "cpu_s")) for r in plain]),
            "slowest_cert_s": median([max(adjusted(r)) for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mib": median([r["maxrss_kib"] / 1024 for r in plain]),
        }
    return {
        "workload": workload,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "trace_mismatch": sorted(set(trace_mismatch)),
        "metrics": metrics,
        "job_wall_s": job_wall,
        "measured": measured,
        "setup_samples_s": setups,
        "pass_wall_s": [pass_time(r) for r in plain],
        "pass_adjusted_wall_s": [sum(adjusted(r)) for r in plain],
        "pass_job_wall_s": [{j["name"]: j["wall_s"] for j in r["jobs"]} for r in plain],
        "pass_job_probe_s": [{j["name"]: statistics.median(j["probe_s"]) for j in r["jobs"]}
                             for r in plain],
        "traced_pass_wall_s": [pass_time(r) for r in traced],
    }


def report(res: dict, seed: int, trace: bool, provenance: dict) -> None:
    """Human-readable lines, then the result file."""
    kind = "traced + untraced" if trace else "untraced"
    print(f"workload {res['workload']}: {res['passes']} {kind} passes, seed {seed}")
    for name, value in res["metrics"].items():
        print(f"  {name:34s} {value:.6g} {UNITS[name]}")
    m = res["measured"]
    print(f"  measured, not rescaled: wall {m['wall_s']:.6g} s, cpu {m['cpu_s']:.6g} s, "
          f"setup {m['setup_s']:.6g} s, probe {m['probe_s']:.6g} s (nominal {PROBE_NOMINAL_S} s)")
    print(f"  {'failed_frac':34s} {res['failed_frac']:.6g} {UNITS['failed_frac']} "
          f"({res['failed']} of {res['attempted']} certificates)")
    for why, n in sorted(res["failures"].items()):
        print(f"  FAILED x{n}: {why}")
    for name in res["trace_mismatch"]:
        print(f"  TRACE MISMATCH: {name} renders differently when traced")
    out = OUT_DIR / f"{res['workload']}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(dict(res, provenance=provenance), indent=1) + "\n")


def write_references(seed: int, parse) -> int:
    jobs = {}
    for wl in WORKLOADS.values():
        for name, argv in wl:
            if jobs.setdefault(name, argv) != argv:
                raise SystemExit(f"job name {name} is used for two commands")
    REFERENCE_DIR.mkdir(exist_ok=True)
    _, reply = spawn([[n, a] for n, a in jobs.items()], seed, 3600)
    status = 0
    for job in reply["jobs"]:
        if job["error"] is not None or parse(job["cert"]).outcome != "pass":
            print(f"not written, did not pass: {job['name']}", file=sys.stderr)
            status = 1
            continue
        (REFERENCE_DIR / f"{job['name']}.cert").write_text(job["cert"])
        print(f"wrote {job['name']}.cert ({job['wall_s']:.3f} s)")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="render every job once and store it as the reference")
    args = ap.parse_args(argv)
    # a terminated run still stops its child (spawn's finally kills it)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "palfree" / "__init__.py").is_file():
        print(f"no palfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import palfree
    from palfree.certificates import parse_certificate
    if args.write_reference:
        return write_references(args.seed, parse_certificate)
    if args.workload is None:
        ap.error("--workload is required")
    trace = bool(args.trace)
    names = MAIN_WORKLOADS if args.workload == "all" else [args.workload]
    provenance = {"commit": git_commit(), "src_sha256": src_digest(),
                  "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
                  "palfree_version": palfree.__version__, "seed": args.seed}
    OUT_DIR.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, trace,
                               REFERENCE_DIR, parse_certificate)
            report(res, args.seed, trace, provenance)
            results.append(res)
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"provenance": dict(provenance, job_wall_s={
        r["workload"]: r["job_wall_s"] for r in results})}))
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": UNITS[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["trace_mismatch"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
