"""hodp benchmark harness: one workload, one seed, untraced or traced.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Set-up generates the workload's `.hodp` files in a fresh interpreter.
Each instance then runs as `hodp.cli.main(["check", FILE, *flags])` in a
child forked from this process, one at a time, so every analysis starts
with empty caches, a crash stays contained, and `os.wait4` gives the
child's peak memory.  This process imports hodp but analyses nothing.
Passes over the instances repeat until the time is up; an instance that
crashed or hit the cap is not run again, as it stands at the cap
whatever happens.  Failures are counted per instance, so the failure
share repeats exactly.

The harness, its children and set-up share one core.  Between
instances it times reference.work(), a fixed workload that hodp cannot
move, and scales each measured time to a host of fixed speed by the
reference times around it (local_scale): on a shared host the speed of
a core swings by half and more for seconds to minutes at a time.  An
instance's time is the median of its scaled passes.  The lines above
the result also print the unscaled metrics.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics untraced, the
per-layer ones traced).  The lines above it print every metric with its
unit, the run's facts, and each failed instance.  A result file with the
per-instance records, and for a traced run a span file, go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Per-instance wall-clock cap.  The slowest instance that finishes at the
# seed needs about 2.8 s; capped instances (7- and 8-symbol foldr) need
# 61 s and 17 min, so the cap sits far from both.
CAP_S = 8.0
GRACE_S = 2.0  # after the cap, before the child is killed outright
SETUP_RUNS = 9
REFERENCE_SHARE = 0.08  # of a run's time, spent on reference.work()
WINDOW = 8  # reference times on either side of a measured time, in local_scale

END_TO_END = {
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "systems_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class _Capped(BaseException):
    """Raised in a child when its time is up; not an Exception, so no
    handler in the program can swallow it."""


# ------------------------------------------------------------------ set-up


class Setup:
    """Times a fresh interpreter that imports hodp and generates and
    writes the workload's inputs.  The first run makes the inputs; the
    others repeat it between instances of the first pass, so that the
    median spans the run rather than one stretch of it."""

    def __init__(self, workload: str, seed: int, size: float):
        self.target = OUT / f"inputs-{workload}-{seed}"
        self.cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(self.target), "--size", str(size)]
        self.times: list[float] = []
        self.host_at: list[int] = []  # len(host) at each time

    def once(self, host: list[float]) -> None:
        start = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True)
        self.times.append(time.perf_counter() - start)
        self.host_at.append(len(host))
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")

    def manifest(self) -> list[dict]:
        return json.loads((self.target / "manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- children


def outcome(code: int, report: str, flags: list[str]) -> str:
    """Exit code, verdict and MAYBE stage, as in workloads.py."""
    if code != 0:
        return str(code)
    if "--json" in flags:
        data = json.loads(report)
        verdict, stage = data["verdict"], data["stage"]
    else:
        lines = report.splitlines()
        verdict = lines[0]
        stage = lines[1][len("stage: "):] if lines[1].startswith("stage: ") else None
    return f"0 {verdict} {stage}" if verdict == "MAYBE" else f"0 {verdict}"


def _child(inst: dict, tracer) -> dict:
    """Body of a forked child: run the CLI once under the cap."""
    from hodp import cli

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)

    def on_alarm(signum, frame):
        raise _Capped()

    # the harness froze its own objects to fork cheaply; as in a fresh
    # `hodp check`, the collector here sees them all again
    gc.unfreeze()
    signal.signal(signal.SIGALRM, on_alarm)
    out, err = io.StringIO(), io.StringIO()
    status, code, error = "done", None, ""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", inst["file"], *inst["flags"]])
    except _Capped:
        status, error = "capped", f"over the {CAP_S:g} s cap"
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code
    except Exception as exc:  # RecursionError, MemoryError, program bugs
        status, error = "crash", f"{type(exc).__name__}: {exc}"[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    result = {"status": status, "seconds": seconds, "error": error or err.getvalue()[:200]}
    if status == "done":
        try:
            result["outcome"] = outcome(code, out.getvalue(), inst["flags"])
        except (ValueError, KeyError, IndexError) as exc:
            result["status"], result["error"] = "crash", f"unreadable report: {exc}"
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    return result


def run_instance(inst: dict, tracer=None) -> dict:
    """Fork, run one instance, collect its record.  Failed and capped
    instances enter the timings at the cap."""
    read_fd, write_fd = os.pipe()
    # the child inherits the collector's counts: start each from zero, so
    # that its collections, and so its peak memory, repeat
    gc.collect()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            data = json.dumps(_child(inst, tracer)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + CAP_S + GRACE_S
    killed = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([read_fd], [], [], left)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    record = {"name": inst["name"], "family": inst["family"], "expect": inst["expect"],
              "rss_mb": usage.ru_maxrss / 1024}
    try:
        record.update(json.loads(b"".join(chunks)))
    except ValueError:
        why = "killed at the cap" if killed else f"child ended with status {status}"
        record.update(status="capped" if killed else "crash", seconds=CAP_S, error=why)
    if record["status"] == "done":
        record["status"] = "ok" if record["outcome"] in inst["expect"] else "wrong"
    if record["status"] in ("capped", "crash"):
        record["seconds"] = CAP_S
    return record


def run_passes(manifest: list[dict], seconds: float, host: list[float],
               tracer=None, setup=None) -> list[dict]:
    """Passes over the instances until the time is up; the first is
    always whole, the last may stop part way.  A crashed or capped
    instance is left out of later passes.  Between instances, reference
    times go to host, enough to fill REFERENCE_SHARE of the time.  With
    setup, the first pass repeats it until it has SETUP_RUNS times."""
    records: list[dict] = []
    start = time.perf_counter()
    spent = 0.0  # on the reference, in this call
    every = max(1, len(manifest) // SETUP_RUNS)
    todo, first = manifest, True
    while todo:
        again: list[dict] = []
        for i, inst in enumerate(todo):
            if not first and time.perf_counter() - start >= seconds:
                return records
            record = run_instance(inst, tracer)
            record["host_at"] = len(host)
            records.append(record)
            if record["status"] not in ("capped", "crash"):
                again.append(inst)
            while spent < REFERENCE_SHARE * (time.perf_counter() - start):
                host.append(reference.timed())
                spent += host[-1]
            if setup is not None and (i + 1) % every == 0 and len(setup.times) < SETUP_RUNS:
                setup.once(host)
        todo, first = again, False
    return records


def local_scale(host: list[float], at: int) -> float:
    """Factor from this host's seconds around host[at] to seconds of the
    host that reference.REFERENCE_S describes: the mean of the WINDOW
    reference times on either side, less their highest and lowest tenth.
    The host's speed holds for seconds at a time, about the span of the
    window."""
    window = sorted(host[max(0, at - WINDOW):at + WINDOW])
    cut = len(window) // 10
    return reference.REFERENCE_S / statistics.fmean(window[cut:len(window) - cut])


def per_instance(records: list[dict], host: list[float] | None = None) -> list[dict]:
    """One record per instance, in first-run order: its median time, its
    largest peak memory and its first status other than ok, if any.
    With host, each measured time is scaled by local_scale first; the
    cap, at which failed instances enter, is a wall-clock limit and is
    never scaled."""
    merged: dict[str, dict] = {}
    for r in records:
        seconds = r["seconds"]
        if host and r["status"] not in ("capped", "crash"):
            seconds *= local_scale(host, r["host_at"])
        m = merged.get(r["name"])
        if m is None:
            merged[r["name"]] = m = dict(r, times=[])
        m["times"].append(seconds)
        m["rss_mb"] = max(m["rss_mb"], r["rss_mb"])
        if m["status"] == "ok" and r["status"] != "ok":
            m.update(status=r["status"], error=r.get("error", ""), outcome=r.get("outcome"))
    for m in merged.values():
        m["seconds"] = statistics.median(m.pop("times"))
    return list(merged.values())


# ----------------------------------------------------------------- metrics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(instances: list[dict], setup: Setup,
               host: list[float] | None = None) -> dict[str, float]:
    """End-to-end metrics over per_instance records; with host, set-up
    times are scaled as per_instance scales instance times."""
    times = [r["seconds"] for r in instances]
    ok = sum(r["status"] == "ok" for r in instances)
    setup_s = [t * (local_scale(host, at) if host else 1.0)
               for t, at in zip(setup.times, setup.host_at)]
    return {
        "verdict_s.p50": percentile(times, 50),
        "verdict_s.p90": percentile(times, 90),
        "systems_per_s": ok / sum(times),
        "ok_share": ok / len(instances),
        "peak_rss_mb": max(r["rss_mb"] for r in instances),
        "setup_s": statistics.median(setup_s),
    }


def tally(records: list[dict]) -> dict:
    """Failure counts over per_instance records: a wrong verdict or exit
    code, a crash and an over-cap run each fail an instance; only a wrong
    one is incorrect."""
    counts = {s: sum(r["status"] == s for r in records) for s in ("wrong", "crash", "capped")}
    failed = sum(counts.values())
    return {"attempted": len(records), "failed": failed,
            "fail_share": failed / len(records), "correct": counts["wrong"] == 0, **counts}


def facts(workload: str, seed: int) -> dict:
    """Commit, Python version, nproc, seed and src/hodp line count."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "hodp").glob("*.py"))
    )
    return {"workload": workload, "seed": seed, "commit": commit,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": src_lines, "cap_s": CAP_S}


def _print_metrics(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=float, default=1.0,
                    help="scale every instance family (smoke tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hodp").is_dir():
        print(f"error: no hodp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hodp.cli  # noqa: F401  -- imported once, before any fork

    # one core for the harness, its children and set-up, so that the
    # reference times see the speed the instances see
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # frozen objects are neither scanned by gc.collect() here nor copied
    # on write in the children, which unfreeze them
    gc.collect()
    gc.freeze()

    info = facts(args.workload, args.seed)
    host: list[float] = []
    setup = Setup(args.workload, args.seed, args.size)
    setup.once(host)
    manifest = setup.manifest()
    budget = args.seconds / 2 if args.trace else args.seconds
    records = run_passes(manifest, budget, host, setup=setup)
    instances = per_instance(records)
    metrics = end_to_end(per_instance(records, host), setup, host)
    unscaled = end_to_end(instances, setup)
    final, units = metrics, END_TO_END
    traced: list[dict] = []
    traced_host: list[float] = []
    if args.trace:
        from layers import LAYER_UNITS, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        traced = run_passes(manifest, budget, traced_host, tracer)
        instances = per_instance(traced)
        overhead = (end_to_end(per_instance(traced, traced_host), setup, host)["verdict_s.p50"]
                    - metrics["verdict_s.p50"])
        final = layer_metrics([r["trace"] for r in traced if "trace" in r], overhead)
        units = LAYER_UNITS

    counts = tally(instances)
    info |= {"instances": len(manifest), "samples": len(records),
             "traced_samples": len(traced), "reference_s": statistics.median(host),
             "reference_samples": len(host), **counts}
    for k, v in info.items():
        print(f"{k}: {v}")
    _print_metrics("end to end (untraced, unscaled):", unscaled, END_TO_END)
    _print_metrics("end to end (untraced):", metrics, END_TO_END)
    if args.trace:
        _print_metrics("per layer (traced):", final, units)
    for r in instances:
        if r["status"] != "ok":
            got = r.get("outcome") or r.get("error", "")
            print(f"FAIL {r['status']} {r['name']}: expected {r['expect']}, got {got!r}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    spans = []
    for r in traced:
        for sid, parent, name, start, end in r.get("trace", {}).pop("spans", []):
            spans.append({"instance": r["name"], "id": sid, "parent": parent,
                          "name": name, "start": start, "end": end})
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    result = {"facts": info, "end_to_end": metrics, "unscaled": unscaled,
              "per_layer": final if args.trace else None, "host": host,
              "traced_host": traced_host, "records": records + traced}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in final.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
