"""Self-test of the benchmark on its mini workload (thm3c transfer,
optimality-pal8, a 1e4-letter palindromes job).

    python3 perfbench/selftest.py

Checks that an untraced and a traced run print every metric BENCHMARK.json
names, and failed_frac, with its unit; that the traced run renders the same
certificates as the untraced one; that a corrupted reference certificate is
counted in failed_frac; and that a pass doing a job REPEAT times reports
about REPEAT times the rescaled wall_s of a pass doing it once.  Exits 0
when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a job of about 0.2 s, so that probe samples are taken while it runs
SCALED_JOB = next(j for j in run.WORKLOADS["factor_profile"] if j[0] == "palindromes-mu")
REPEAT = 4


def bench(*extra: str) -> tuple[list[str], dict]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "mini",
                          "--seed", "7", "--seconds", "1", *extra],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"run.py {' '.join(extra)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(lines, result, specs, problems, label) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    for spec in specs + [{"name": "failed_frac", "unit": "frac"}]:
        name, unit = spec["name"], spec["unit"]
        printed = re.compile(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b")
        if not any(printed.match(line) for line in lines):
            problems.append(f"{label}: {name} not printed with unit {unit}")
        if name != "failed_frac" and result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{label}: {name} missing from the result or not in {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    lines, result = bench("--trace", "0")
    check_metrics(lines, result, spec["end_to_end"], problems, "untraced")
    if not result["correct"] or result["failed"]:
        problems.append(f"untraced: mini workload not correct: {result}")

    lines, result = bench("--trace", "1")
    check_metrics(lines, result, spec["per_layer"], problems, "traced")
    if not result["correct"] or result["failed"]:
        problems.append("traced: certificates differ from the untraced run or the reference")

    sys.path.insert(0, str(run.SRC))
    from palfree.certificates import parse_certificate
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        for cert in run.REFERENCE_DIR.glob("*.cert"):
            shutil.copy(cert, tmp / cert.name)
        bad = tmp / "transfer-thm3c.cert"
        bad.write_text(bad.read_text().replace("[evidence]\n", "[evidence]\ncorrupted: yes\n"))
        res = run.run_workload("mini", 7, 1, False, tmp, parse_certificate)
    finally:
        shutil.rmtree(tmp)
    if res["failed"] < 1 or not res["failed_frac"] > 0 \
            or not any(k.startswith("transfer-thm3c:") for k in res["failures"]):
        problems.append(f"corrupted reference not counted in failed_frac: {res['failures']}")

    run.WORKLOADS["once"] = [SCALED_JOB]
    run.WORKLOADS["repeated"] = [SCALED_JOB] * REPEAT
    walls = {name: run.run_workload(name, 7, 4, False, run.REFERENCE_DIR,
                                    parse_certificate)["metrics"]["wall_s"]
             for name in ("once", "repeated")}
    ratio = walls["repeated"] / walls["once"]
    print(f"rescaled wall_s: {walls['once']:.4g} s once, {walls['repeated']:.4g} s "
          f"{REPEAT} times, ratio {ratio:.3g}")
    if not 0.8 * REPEAT <= ratio <= 1.25 * REPEAT:
        problems.append(f"{REPEAT} times the work gave {ratio:.3g} times the rescaled wall_s")

    for p in problems:
        print("FAIL", p)
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
