/**
 * @file
 * Figure 11: STAMP vacation throughput — No-log / Clobber-NVM / PMDK /
 * Mnemosyne, on red-black-tree vs AVL-tree tables, sweeping queries
 * per task (the read share of each transaction).
 *
 * Expected shape (paper Section 5.7): every system gains a few
 * percent on the AVL tables; PMDK's and Clobber-NVM's overhead vs
 * No-log *shrinks* as queries/task grows (more reads, same logging),
 * while Mnemosyne's *grows* (every read pays redo interposition).
 */
#include <map>
#include <tuple>

#include "apps/vacation/vacation.h"
#include "bench_common.h"

namespace {

using namespace cnvm;

bench::Csv csv("fig11.csv",
               "fig11: system,table,queries_per_task,"
               "throughput_tasks_per_sec,overhead_vs_nolog_pct");

/**
 * Records per table. The paper loads 100k; 32,768 keeps a cell to
 * seconds, and CI smoke mode takes Vacation::Config's 4,096.
 */
uint64_t
recordsPerTable()
{
    return bench::smokeMode() ? apps::Vacation::Config{}.recordsPerTable
                              : 32768;
}

double
measure(txn::RuntimeKind kind, apps::TableKind table, unsigned q,
        size_t tasks)
{
    bench::Env env(kind, rt::ClobberPolicy::refined, 512ULL << 20);
    auto eng = env.engine();
    apps::Vacation::Config cfg;
    cfg.tableKind = table;
    cfg.recordsPerTable = recordsPerTable();
    cfg.queriesPerTask = q;
    apps::Vacation vac(eng, 0, cfg);

    sim::Executor exec(1);
    double simSeconds =
        exec.run(tasks, [&](sim::ThreadCtx&, size_t i) {
            vac.runTask(i + 1);
        });
    return static_cast<double>(tasks) / simSeconds;
}

/** The No-log baseline, computed once per (table, q). */
double
baseline(apps::TableKind table, unsigned q, size_t tasks)
{
    static std::map<std::tuple<int, unsigned, size_t>, double> cache;
    auto key = std::make_tuple(static_cast<int>(table), q, tasks);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    double v = measure(txn::RuntimeKind::noLog, table, q, tasks);
    cache[key] = v;
    return v;
}

const char*
tableName(apps::TableKind table)
{
    return table == apps::TableKind::rbtree ? "rbtree" : "avltree";
}

double
runFig11(benchmark::State& state, txn::RuntimeKind kind,
         apps::TableKind table)
{
    auto q = static_cast<unsigned>(state.range(0));
    size_t tasks = bench::totalOps(8000);

    double base = baseline(table, q, tasks);
    double tput = kind == txn::RuntimeKind::noLog
                      ? base
                      : measure(kind, table, q, tasks);
    double overhead = (base / tput - 1.0) * 100.0;
    state.counters["tasks_per_sec"] = tput;
    state.counters["overhead_vs_nolog_pct"] = overhead;
    csv.row("%s,%s,%u,%.0f,%.1f", rt::kindName(kind), tableName(table),
            q, tput, overhead);
    return static_cast<double>(tasks) / tput;
}

}  // namespace

int
main(int argc, char** argv)
{
    for (auto table :
         {apps::TableKind::rbtree, apps::TableKind::avltree}) {
        for (auto kind :
             {txn::RuntimeKind::noLog, txn::RuntimeKind::clobber,
              txn::RuntimeKind::undo, txn::RuntimeKind::redo}) {
            std::string name = std::string("fig11/") +
                               rt::kindName(kind) + "/" + tableName(table);
            auto* b = bench::addCase(
                name, [kind, table](benchmark::State& st) {
                    return runFig11(st, kind, table);
                });
            for (unsigned q : {2u, 4u, 6u})
                b->Arg(q);
        }
    }
    return bench::runFigure(argc, argv);
}
