#!/usr/bin/env python3
"""Pin the count columns of Figs. 7, 8 and 13, and the paper's claims on them.

    check_figures.py <bench dir> <golden dir>            # diff + claims
    check_figures.py <bench dir> <golden dir> --record   # rewrite golden

Runs fig7_breakdown, fig8_ido and fig13_optimization in a temporary
directory and keeps only what is exact for a fixed op count: fig7's
log entries, log bytes and fences per transaction, every column of
fig8, fig13's extra-entries and extra-bytes columns and its static
view. Throughput columns are simulated time and are dropped. The
result is diffed against paper_claims.txt in the golden directory,
and the paper's count-based claims are asserted on it:

  - Clobber-NVM logs fewer entries and issues fewer fences than PMDK
    on every structure (Fig. 7);
  - the v_log alone logs one entry per transaction (Fig. 7);
  - the refined pass keeps 5 of skiplist's 7 candidate sites (Fig. 13);
  - the conservative policy logs at least 25% more clobber entries on
    insert-heavy memcached (Fig. 13);
  - iDO logs more bytes than Clobber-NVM on every structure (Fig. 8).

The golden was recorded with CNVM_OPS=3000 and CNVM_POOL_MB=64 (the
paper_claims ctest's environment); the counts do not depend on
CNVM_SMOKE. A change that moves a count on purpose re-records with
--record (the claims are still asserted) and shows the diff.
"""
import difflib
import os
import subprocess
import sys
import tempfile

BINARIES = ("fig7_breakdown", "fig8_ido", "fig13_optimization")
GOLDEN = "paper_claims.txt"
STATIC_HEADER = "=== Compiler-pass refinement per module (static view) ==="


def rows(path):
    """The data rows of a figure CSV, split into fields."""
    with open(path) as f:
        return [line.rstrip("\n").split(",") for line in f
                if line.strip() and not line.startswith("#")]


def run_figures(bench_dir, work):
    """Run the three binaries in `work`; return fig13's stdout."""
    out = {}
    for name in BINARIES:
        proc = subprocess.run([os.path.join(bench_dir, name)], cwd=work,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {name} exited {proc.returncode}\n"
                     f"{proc.stderr}")
        out[name] = proc.stdout
    return out["fig13_optimization"]


def counts(work, fig13_stdout):
    """The pinned lines, each tagged with the figure it comes from."""
    lines = []
    for cfg, structure, _tput, entries, nbytes, fences in rows(
            os.path.join(work, "fig7.csv")):
        lines.append(f"fig7 {cfg},{structure},{entries},{nbytes},{fences}")
    for row in rows(os.path.join(work, "fig8.csv")):
        lines.append("fig8 " + ",".join(row))
    for workload, _c, _r, _imp, entries, nbytes in rows(
            os.path.join(work, "fig13.csv")):
        lines.append(f"fig13 {workload},{entries},{nbytes}")
    static = fig13_stdout.split(STATIC_HEADER, 1)
    if len(static) != 2:
        sys.exit("FAIL: fig13_optimization printed no static view")
    for line in static[1].strip().splitlines():
        lines.append("fig13-static " + " ".join(line.split()))
    return lines


def check_claims(lines):
    """Assert the scorecard rows; return the number that failed."""
    fig7 = {}
    fig8 = {}
    fig13 = {}
    static = {}
    for line in lines:
        tag, rest = line.split(" ", 1)
        if tag == "fig7":
            cfg, structure, entries, _b, fences = rest.split(",")
            fig7[cfg, structure] = (float(entries), float(fences))
        elif tag == "fig8":
            system, structure, _e, nbytes = rest.split(",")
            fig8[system, structure] = float(nbytes)
        elif tag == "fig13":
            workload, entries, _b = rest.split(",")
            fig13[workload] = float(entries)
        else:
            words = rest.split()
            static[words[0]] = (int(words[1]), int(words[5]))
    structures = sorted({s for _c, s in fig7})

    claims = []
    for s in structures:
        (ce, cf), (pe, pf) = fig7["clobber-full", s], fig7["pmdk", s]
        claims.append((ce < pe and cf < pf,
                       f"{s}: clobber-full logs fewer entries "
                       f"({ce:.3f} < {pe:.3f}) and fences "
                       f"({cf:.3f} < {pf:.3f}) than pmdk"))
    for s in structures:
        e = fig7["clobber-vlog", s][0]
        claims.append((e == 1.0, f"{s}: clobber-vlog logs {e:.3f} "
                                 "entries per transaction (1.000)"))
    cons, refined = static.get("skiplist", (None, None))
    claims.append(((cons, refined) == (7, 5),
                   f"skiplist: {cons} conservative sites -> {refined} "
                   "refined (7 -> 5)"))
    extra = fig13.get("memcached-insert-intensive")
    claims.append((extra is not None and extra >= 25.0,
                   f"memcached-insert-intensive: conservative logs "
                   f"{extra}% more clobber entries (>= 25%)"))
    for s in structures:
        ido, clob = fig8["ido", s], fig8["clobber", s]
        claims.append((ido > clob, f"{s}: ido logs more bytes than "
                                   f"clobber ({ido} > {clob})"))

    failed = 0
    for ok, text in claims:
        print(("PASS: " if ok else "FAIL: ") + text)
        failed += not ok
    return failed


def main(argv):
    args = [a for a in argv[1:] if a != "--record"]
    record = len(args) != len(argv) - 1
    if len(args) != 2:
        sys.exit(f"usage: {argv[0]} <bench dir> <golden dir> [--record]")
    bench_dir, golden_dir = (os.path.abspath(a) for a in args)
    golden = os.path.join(golden_dir, GOLDEN)

    with tempfile.TemporaryDirectory() as work:
        lines = counts(work, run_figures(bench_dir, work))
    text = "\n".join(lines) + "\n"
    status = 0
    if record:
        with open(golden, "w") as f:
            f.write(text)
        print(f"recorded {golden}")
    else:
        with open(golden) as f:
            want = f.read()
        if text != want:
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), text.splitlines(True), golden,
                "this run"))
            print(f"FAIL: the figures' counts differ from {golden}")
            status = 1
    if check_claims(lines) != 0:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
