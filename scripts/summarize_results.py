#!/usr/bin/env python3
"""Summarize the bench outputs into markdown.

Usage: scripts/summarize_results.py [results-dir ...]

Reads, from each directory (default: the current one), the figN.csv
files the figure benches write (artifact-style rows) and every
BENCH_*.json report of the wall-clock suites, and prints the
comparison tables EXPERIMENTS.md embeds: single-thread and max-thread
throughputs with ratios for Figure 6/10, per-transaction log volumes
for Figures 7/8, and so on; per suite, every label's rows, the log
writer against baseline, batch 8 against batch 1 and lazy restart
against full. Exits non-zero when a BENCH_*.json row does not parse.
"""
import csv
import glob
import json
import os
import sys
from collections import defaultdict


def read(path):
    rows = []
    if not os.path.exists(path):
        return rows
    with open(path) as f:
        for row in csv.reader(f):
            if not row or row[0].startswith('#'):
                continue
            rows.append(row)
    return rows


def fig6(d):
    rows = read(os.path.join(d, 'fig6.csv'))
    if not rows:
        return
    # system,structure,threads,run,valsize,tput
    data = defaultdict(dict)
    threads = set()
    for sysname, structure, t, _run, _vs, tput in rows:
        data[structure][(sysname, int(t))] = float(tput)
        threads.add(int(t))
    tmax = max(threads)
    print('\n### Figure 6 — data-structure throughput (ops/s)\n')
    print('| structure | system | 1 thread | %d threads | clobber/x @1T |' % tmax)
    print('|---|---|---|---|---|')
    for structure in sorted(data):
        base = data[structure].get(('clobber', 1), 0)
        for sysname in ('clobber', 'pmdk', 'mnemosyne', 'atlas'):
            t1 = data[structure].get((sysname, 1))
            tn = data[structure].get((sysname, tmax))
            if t1 is None:
                continue
            ratio = base / t1 if t1 else float('nan')
            print('| %s | %s | %.0f | %.0f | %.2fx |' %
                  (structure, sysname, t1, tn or 0, ratio))


def fig7(d):
    rows = read(os.path.join(d, 'fig7.csv'))
    if not rows:
        return
    print('\n### Figure 7 — logging breakdown (single thread)\n')
    print('| config | structure | ops/s | entries/tx | bytes/tx |'
          ' fences/tx |')
    print('|---|---|---|---|---|---|')
    for cfg, structure, tput, entries, byts, fences in rows:
        print('| %s | %s | %.0f | %s | %s | %s |' %
              (cfg, structure, float(tput), entries, byts, fences))


def fig8(d):
    rows = read(os.path.join(d, 'fig8.csv'))
    if not rows:
        return
    data = defaultdict(dict)
    for sysname, structure, entries, byts in rows:
        data[structure][sysname] = (float(entries), float(byts))
    print('\n### Figure 8 — iDO vs Clobber log volume per transaction\n')
    print('| structure | ido bytes/tx | clobber bytes/tx | ratio |'
          ' entries ratio |')
    print('|---|---|---|---|---|')
    for structure in sorted(data):
        if 'ido' not in data[structure]:
            continue
        ie, ib = data[structure]['ido']
        ce, cb = data[structure]['clobber']
        print('| %s | %.0f | %.0f | %.1fx | %.1fx |' %
              (structure, ib, cb, ib / cb, ie / ce))


def fig9(d):
    rows = read(os.path.join(d, 'fig9.csv'))
    if not rows:
        return
    agg = defaultdict(lambda: [0.0, 0.0, 0])
    for sysname, structure, _crash, total, rebuild in rows:
        a = agg[(structure, sysname)]
        a[0] += float(total)
        a[1] += float(rebuild)
        a[2] += 1
    print('\n### Figure 9 — recovery latency (us, mean over runs)\n')
    print('| structure | system | recover | pool mgmt (rebuild) |')
    print('|---|---|---|---|')
    for (structure, sysname) in sorted(agg):
        t, r, n = agg[(structure, sysname)]
        print('| %s | %s | %.0f | %.0f |' %
              (structure, sysname, t / n, r / n))


def fig10(d):
    rows = read(os.path.join(d, 'fig10.csv'))
    if not rows:
        return
    data = defaultdict(dict)
    threads = set()
    for sysname, wl, lock, t, tput in rows:
        data[(wl, lock)][(sysname, int(t))] = float(tput)
        threads.add(int(t))
    tmax = max(threads)
    print('\n### Figure 10 — memcached model (ops/s)\n')
    print('| workload | lock | system | 1 thread | %d threads |' % tmax)
    print('|---|---|---|---|---|')
    for (wl, lock) in sorted(data):
        for sysname in ('clobber', 'pmdk', 'mnemosyne'):
            t1 = data[(wl, lock)].get((sysname, 1))
            tn = data[(wl, lock)].get((sysname, tmax))
            if t1 is None:
                continue
            print('| %s | %s | %s | %.0f | %.0f |' %
                  (wl, lock, sysname, t1, tn or 0))


def fig11(d):
    rows = read(os.path.join(d, 'fig11.csv'))
    if not rows:
        return
    print('\n### Figure 11 — vacation (tasks/s, overhead vs No-log)\n')
    print('| system | table | queries/task | tasks/s | overhead % |')
    print('|---|---|---|---|---|')
    for sysname, table, q, tput, ovh in rows:
        print('| %s | %s | %s | %.0f | %s |' %
              (sysname, table, q, float(tput), ovh))


def fig12(d):
    rows = read(os.path.join(d, 'fig12.csv'))
    if not rows:
        return
    print('\n### Figure 12 — yada (simulated seconds per full run)\n')
    print('| system | angle | elapsed (s) | steps | mesh size |'
          ' overhead % |')
    print('|---|---|---|---|---|---|')
    for sysname, angle, secs, steps, mesh, ovh in rows:
        print('| %s | %s | %s | %s | %s | %s |' %
              (sysname, angle, secs, steps, mesh, ovh))


def fig13(d):
    rows = read(os.path.join(d, 'fig13.csv'))
    if not rows:
        return
    print('\n### Figure 13 — refinement effectiveness\n')
    print('| workload | conservative ops/s | refined ops/s |'
          ' improvement % | unopt extra entries % | extra bytes % |')
    print('|---|---|---|---|---|---|')
    for wl, ct, rt, imp, ee, eb in rows:
        print('| %s | %.0f | %.0f | %s | %s | %s |' %
              (wl, float(ct), float(rt), imp, ee, eb))


def fig14(d):
    rows = read(os.path.join(d, 'fig14.csv'))
    if not rows:
        return
    print('\n### Figure 14 — compile-time overhead\n')
    print('| module | functions | baseline (ms) | with passes (ms) |'
          ' overhead % |')
    print('|---|---|---|---|---|')
    for mod, fns, base, full, ovh in rows:
        print('| %s | %s | %s | %s | %s |' % (mod, fns, base, full, ovh))


def ablation(d):
    rows = read(os.path.join(d, 'ablation_lazy_begin.csv'))
    if not rows:
        return
    print('\n### Ablation — lazy vs eager begin persistence\n')
    print('| system | workload | mode | ops/s | fences/op |')
    print('|---|---|---|---|---|')
    for sysname, wl, mode, tput, fences in rows:
        print('| %s | %s | %s | %.0f | %s |' %
              (sysname, wl, mode, float(tput), fences))


STATS = ('median', 'best', 'one')


def check_run(run, where):
    """Raise ValueError unless `run` is one report of the JSON schema.

    A run is {"suite", "reps", "params", "rows", and "nproc" and "sha"
    (null when unknown)}. A row is {"dims": {name: str|number},
    "metrics": {name: metric}}. A metric is a number (a count), or a
    timing {"stat": median|best|one, "n": reps, "value"} where a median
    also carries "min" <= value <= "max"; "best" is the best of n reps
    (the row's other timings come from the same rep), "one" a single
    run.
    """
    def num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def fail(msg):
        raise ValueError('%s: %s' % (where, msg))

    for key in ('suite', 'reps', 'params', 'rows', 'nproc', 'sha'):
        if not isinstance(run, dict) or key not in run:
            fail('not a run with "%s"' % key)
    for i, row in enumerate(run['rows']):
        dims, metrics = row.get('dims'), row.get('metrics')
        if not dims or not isinstance(dims, dict) or not all(
                isinstance(v, str) or num(v) for v in dims.values()):
            fail('row %d: bad dims %r' % (i, dims))
        if not metrics or not isinstance(metrics, dict):
            fail('row %d: bad metrics %r' % (i, metrics))
        for name, m in metrics.items():
            if num(m):
                continue
            ok = (isinstance(m, dict) and m.get('stat') in STATS and
                  isinstance(m.get('n'), int) and num(m.get('value')))
            if ok and m['stat'] == 'median':
                ok = (num(m.get('min')) and num(m.get('max')) and
                      m['min'] <= m['value'] <= m['max'])
            if not ok:
                fail('row %d: bad metric %s = %r' % (i, name, m))


def load_bench(dirs):
    """{suite: {label: run}} from every BENCH_*.json under `dirs`.

    A merged file maps labels to runs; a bench's own output (a smoke
    report, say) is one bare run and is labelled with its file name.
    """
    out = defaultdict(dict)
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, 'BENCH_*.json'))):
            with open(path) as f:
                doc = json.load(f)
            runs = {os.path.basename(path): doc} if 'suite' in doc else doc
            for label, run in runs.items():
                check_run(run, '%s [%s]' % (path, label))
                out[run['suite']][label] = run
    return out


def value(metric):
    """A count, or a timing's statistic (see check_run)."""
    return metric['value'] if isinstance(metric, dict) else metric


def fmt(v):
    return '%.0f' % v if abs(v) >= 100 else '%.3g' % v


def runs_table(suite, runs):
    print('\n### %s — runs\n' % suite)
    print('| label | sha | cores | reps | timing statistic | params |')
    print('|---|---|---|---|---|---|')
    for label, run in runs.items():
        stats = {m['stat'] for r in run['rows']
                 for m in r['metrics'].values() if isinstance(m, dict)}
        print('| %s | %s | %s | %d | %s | %s |' %
              (label, run['sha'] or 'n/a', run['nproc'] or 'n/a',
               run['reps'], '/'.join(sorted(stats)),
               ', '.join('%s=%s' % kv for kv in run['params'].items())))


def by_label(title, runs, dims, keep=lambda dims: True):
    """One line per `dims` cell, one Mops/s column per label."""
    table = defaultdict(dict)
    for label, run in runs.items():
        for r in run['rows']:
            if keep(r['dims']):
                key = tuple(r['dims'][k] for k in dims)
                table[key][label] = value(r['metrics']['ops_per_sec'])
    print('\n### %s (Mops/s)\n' % title)
    print('| %s | %s |' % (' | '.join(dims), ' | '.join(runs)))
    print('|---' * (len(dims) + len(runs)) + '|')
    for key in sorted(table, key=str):
        print('| %s | %s |' % (
            ' | '.join(str(k) for k in key),
            ' | '.join('%.2f' % (table[key][l] / 1e6)
                       if l in table[key] else '' for l in runs)))


def versus(title, runs, dim, base, metric, extra=()):
    """Each row against its label's row that differs only in `dim`,
    which reads `base` there: `metric` of both and their ratio, then
    the row's own `extra` metrics."""
    print('\n### %s\n' % title)
    others = None
    for label, run in runs.items():
        index = {frozenset(r['dims'].items()): r['metrics']
                 for r in run['rows']}
        for r in run['rows']:
            dims, m = r['dims'], r['metrics']
            ref = index.get(frozenset({**dims, dim: base}.items()))
            if dims[dim] == base or ref is None:
                continue
            if others is None:
                others = [k for k in dims if k != dim]
                cols = (['label'] + others +
                        [dim, '%s @%s=%s' % (metric, dim, base), metric,
                         'ratio'] + list(extra))
                print('| %s |\n%s|' % (' | '.join(cols),
                                       '|---' * len(cols)))
            a, b = value(ref[metric]), value(m[metric])
            print('| %s |' % ' | '.join(
                [label] + [str(dims.get(k, '')) for k in others] +
                [str(dims[dim]), fmt(a), fmt(b), '%.2fx' % (b / a)] +
                [fmt(value(m[k])) if k in m else '' for k in extra]))


SUITES = {
    'hotpath': lambda runs: by_label(
        'hotpath — NVM model primitives', runs, ('op', 'threads')),
    'txpath': lambda runs: (
        by_label('txpath — baseline log writer', runs,
                 ('op', 'system', 'threads'),
                 lambda d: d['writer'] == 'baseline'),
        versus('txpath — log writer against baseline', runs, 'writer',
               'baseline', 'ops_per_sec',
               ('fences_per_tx', 'log_flushes_per_tx'))),
    'kvserver': lambda runs: versus(
        'kvserver — group commit, batch 8 against batch 1', runs,
        'batch', 1, 'ops_per_sec', ('p50_us', 'p95_us', 'p99_us')),
    'recovery': lambda runs: versus(
        'recovery — time to first transaction, lazy against full',
        runs, 'mode', 'full', 'ttft_us',
        ('recover_us', 'pending_at_first_tx')),
}


def main():
    dirs = sys.argv[1:] or ['.']
    for d in dirs:
        for fn in (fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
                   fig14, ablation):
            fn(d)
    try:
        suites = load_bench(dirs)
    except (ValueError, KeyError, TypeError) as e:
        sys.exit('summarize_results: %s' % e)
    for suite, show in SUITES.items():
        if suite in suites:
            runs_table(suite, suites[suite])
            show(suites[suite])

if __name__ == '__main__':
    main()
