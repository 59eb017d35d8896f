#!/usr/bin/env python3
"""Mutation runner: which gtest cases kill each mutant in tools/mutants.json.

Each mutant is a one-line source edit: a file, a `match` that occurs
exactly once in it, and its `replace`ment. The runner copies the tracked
files of this checkout into a work directory (it never edits the checkout),
builds every test binary once, then for each mutant applies the edit,
rebuilds incrementally and runs every test binary -- unit and integration
-- under a per-binary timeout. A test case kills a mutant when it prints
`[  FAILED  ]`, or when its binary crashes or times out while it runs.

  tools/mutate.py --check            # every match is unique (seconds)
  tools/mutate.py                    # full run: prints each mutant's killers
  tools/mutate.py --only ID,ID       # a subset
  tools/mutate.py --json kills.json  # also write the killer table

Exit status: 0 when every mutant is killed and every match is unique,
1 otherwise (2 when the unmutated tree does not build or pass).
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tools", "mutants.json")
JOBS = os.cpu_count() or 1  # build jobs and concurrent test binaries
TIMEOUT = 60  # seconds per test binary

FAILED = re.compile(r"^\[  FAILED  \] (\S+\.\S+?)(?:,| \(|$)")
RUN = re.compile(r"^\[ RUN      \] (\S+)")
ENDED = re.compile(r"^\[ +(?:OK|FAILED|SKIPPED) +\] (\S+)")


def load_mutants():
    with open(MUTANTS) as f:
        return json.load(f)


def check(mutants, root):
    """Every id is unique and every match occurs exactly once; returns the
    list of problems."""
    problems = []
    seen = set()
    for m in mutants:
        if m["id"] in seen:
            problems.append(f"{m['id']}: duplicate id")
        seen.add(m["id"])
        with open(os.path.join(root, m["file"])) as f:
            count = f.read().count(m["match"])
        if count != 1:
            problems.append(
                f"{m['id']}: match occurs {count} times in {m['file']}")
        if m["match"] == m["replace"]:
            problems.append(f"{m['id']}: replacement equals the match")
    return problems


def sync_tree(work):
    """Copies the tracked files into `work`, writing only files whose bytes
    differ so a reused work directory rebuilds incrementally."""
    files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, files):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the checkout but not yet staged
        dst = os.path.join(work, rel)
        with open(src, "rb") as f:
            data = f.read()
        if os.path.exists(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
        shutil.copymode(src, dst)
    tracked = {os.path.join(work, rel) for rel in files if rel}
    for name in os.listdir(os.path.join(work, "tests")):
        path = os.path.join(work, "tests", name)
        if path not in tracked:
            os.remove(path)  # a test deleted since the last run


def test_binaries(work):
    return sorted(name[:-4] for name in os.listdir(os.path.join(work, "tests"))
                  if name.startswith("test_") and name.endswith(".cpp"))


def build(src, build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", src, "-B", build_dir, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, capture_output=True)
    r = subprocess.run(["cmake", "--build", build_dir, "-j", str(JOBS),
                        "--target", *targets], capture_output=True, text=True)
    return r.returncode == 0, r.stdout + r.stderr


def run_binary(build_dir, name):
    """Returns the cases this binary reports as failed: a `[  FAILED  ]`
    case, or the case that was running when it crashed or timed out."""
    try:
        r = subprocess.run([os.path.join(build_dir, name)], cwd=build_dir,
                           capture_output=True, text=True, timeout=TIMEOUT,
                           errors="replace")
        out, verdict = r.stdout, None if r.returncode in (0, 1) else "crash"
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode(errors="replace") if e.stdout else ""
        verdict = "timeout"
    failed, running = set(), None
    for line in out.splitlines():
        if m := FAILED.match(line):
            failed.add(m.group(1))
        if m := RUN.match(line):
            running = m.group(1)
        elif (m := ENDED.match(line)) and m.group(1) == running:
            running = None
    if verdict is not None:
        failed.add(f"{running or name} ({verdict})")
    return {f"{name}:{case}" for case in failed}


def run_all(build_dir, binaries):
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = pool.map(lambda b: run_binary(build_dir, b), binaries)
        return sorted(set().union(*results))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="only verify that every match is unique")
    ap.add_argument("--only", help="comma-separated mutant ids to run")
    ap.add_argument("--workdir", help="work directory to build in (reused "
                    "across runs; default: a fresh temporary one)")
    ap.add_argument("--json", help="write the killer table here")
    args = ap.parse_args()

    mutants = load_mutants()
    problems = check(mutants, ROOT)
    for p in problems:
        print("mutate:", p, file=sys.stderr)
    if args.check:
        if not problems:
            print(f"mutate: {len(mutants)} mutants, every match unique")
        return 1 if problems else 0
    if problems:
        return 1
    if args.only:
        wanted = set(args.only.split(","))
        mutants = [m for m in mutants if m["id"] in wanted]
        if len(mutants) != len(wanted):
            print("mutate: unknown id in --only", file=sys.stderr)
            return 1

    work = args.workdir or tempfile.mkdtemp(prefix="lfi-mutate-")
    src = os.path.join(work, "src")
    build_dir = os.path.join(work, "build")
    os.makedirs(src, exist_ok=True)
    sync_tree(src)
    binaries = test_binaries(src)

    begin = time.monotonic()
    ok, log = build(src, build_dir, binaries)
    if not ok:
        print(log[-4000:], "\nmutate: the unmutated tree does not build",
              file=sys.stderr)
        return 2
    failing = run_all(build_dir, binaries)
    if failing:
        print("mutate: the unmutated tree fails:", *failing, sep="\n  ",
              file=sys.stderr)
        return 2
    print(f"mutate: baseline built and passed in "
          f"{time.monotonic() - begin:.0f} s ({len(binaries)} binaries)",
          flush=True)

    table = []
    for m in mutants:
        t0 = time.monotonic()
        path = os.path.join(src, m["file"])
        with open(path) as f:
            original = f.read()
        with open(path, "w") as f:
            f.write(original.replace(m["match"], m["replace"]))
        try:
            ok, log = build(src, build_dir, binaries)
            killers = run_all(build_dir, binaries) if ok else None
        finally:
            # Restored now, recompiled together with the next mutant.
            with open(path, "w") as f:
                f.write(original)
        entry = {"id": m["id"], "killers": killers,
                 "seconds": round(time.monotonic() - t0, 1)}
        table.append(entry)
        if killers is None:
            print(f"{m['id']}: DOES NOT BUILD\n{log[-2000:]}", flush=True)
        elif not killers:
            print(f"{m['id']}: SURVIVED ({entry['seconds']} s)", flush=True)
        else:
            print(f"{m['id']}: {len(killers)} killer(s) "
                  f"({entry['seconds']} s)", *killers, sep="\n  ", flush=True)

    if args.workdir:
        # Rebuild the restored tree so the reused directory starts clean.
        build(src, build_dir, binaries)
    sole = {}
    for e in table:
        if e["killers"] and len(e["killers"]) == 1:
            sole.setdefault(e["killers"][0], []).append(e["id"])
    print("\nsole killers:")
    for test, ids in sorted(sole.items()):
        print(f"  {test}: {', '.join(ids)}")
    bad = [e["id"] for e in table if not e["killers"]]
    print(f"\nmutate: {len(table) - len(bad)}/{len(table)} killed in "
          f"{time.monotonic() - begin:.0f} s"
          + (f"; not killed: {', '.join(bad)}" if bad else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)
    if not args.workdir:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
