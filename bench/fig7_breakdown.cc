/**
 * @file
 * Figure 7 (and the Section 5.3 headline ratios): logging-strategy
 * breakdown on single-threaded YCSB-Load inserts.
 *
 * Configurations, as in the paper:
 *   No-log                — no logging at all (baseline)
 *   Clobber-NVM-vlog      — only the v_log enabled
 *   Clobber-NVM-clobberlog— only the clobber_log enabled
 *   Clobber-NVM-full      — both logs (the real system)
 *   PMDK                  — full undo logging
 *
 * For each configuration it reports simulated throughput plus log
 * entries and log bytes per transaction; the footer prints the
 * paper's headline ratios (PMDK vs Clobber log bytes / fences).
 */
#include "bench_common.h"
#include "runtimes/clobber.h"

namespace {

using namespace cnvm;
using stats::Counter;

struct Config {
    const char* name;
    txn::RuntimeKind kind;
    bool vlog;
    bool clobberLog;
};

const Config kConfigs[] = {
    {"nolog", txn::RuntimeKind::noLog, false, false},
    {"clobber-vlog", txn::RuntimeKind::clobber, true, false},
    {"clobber-clobberlog", txn::RuntimeKind::clobber, false, true},
    {"clobber-full", txn::RuntimeKind::clobber, true, true},
    {"pmdk", txn::RuntimeKind::undo, false, false},
};

bench::Csv csv("fig7.csv",
               "fig7: config,structure,throughput_ops_per_sec,"
               "log_entries_per_tx,log_bytes_per_tx,fences_per_tx");

struct Measured {
    double seconds;  ///< simulated
    double entriesPerTx;
    double bytesPerTx;
    double fencesPerTx;
};

Measured
measure(const Config& cfg, const std::string& structure, size_t ops)
{
    bench::KvEnv env(cfg.kind, structure);
    if (cfg.kind == txn::RuntimeKind::clobber) {
        auto* cl = dynamic_cast<rt::ClobberRuntime*>(env.runtime.get());
        cl->setVlogEnabled(cfg.vlog);
        cl->setClobberLogEnabled(cfg.clobberLog);
    }
    double simSeconds = 0;
    auto d = bench::counted([&] { simSeconds = env.inserts(1, ops); });

    double n = static_cast<double>(ops);
    double entries = 0;
    double bytes = 0;
    if (cfg.kind == txn::RuntimeKind::undo) {
        entries = static_cast<double>(d[Counter::undoEntries]);
        bytes = static_cast<double>(d[Counter::undoBytes]);
    } else {
        entries = static_cast<double>(d[Counter::clobberEntries] +
                                      d[Counter::vlogEntries]);
        bytes = static_cast<double>(d[Counter::clobberBytes] +
                                    d[Counter::vlogBytes]);
    }
    return Measured{simSeconds, entries / n, bytes / n,
                    static_cast<double>(d[Counter::fences]) / n};
}

/** Section 5.3 headline ratios, printed after the sweep. */
void
printHeadline()
{
    size_t ops = bench::totalOps(30000) / 2;
    std::printf("\n=== Section 5.3 headline ratios "
                "(PMDK undo vs Clobber-NVM) ===\n");
    for (const auto& structure : ds::benchmarkStructures()) {
        Measured pmdk = measure(kConfigs[4], structure, ops);
        Measured clob = measure(kConfigs[3], structure, ops);
        std::printf("%-10s bytes %.1fx  entries %.1fx  fences %.1fx\n",
                    structure.c_str(),
                    pmdk.bytesPerTx / clob.bytesPerTx,
                    pmdk.entriesPerTx / clob.entriesPerTx,
                    pmdk.fencesPerTx / clob.fencesPerTx);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    for (const auto& structure : ds::benchmarkStructures()) {
        for (const auto& cfg : kConfigs) {
            auto run = [structure, &cfg](benchmark::State& state) {
                size_t ops = bench::totalOps(30000);
                Measured m = measure(cfg, structure, ops);
                double tput = static_cast<double>(ops) / m.seconds;
                state.counters["ops_per_sec"] = tput;
                state.counters["entries_per_tx"] = m.entriesPerTx;
                state.counters["bytes_per_tx"] = m.bytesPerTx;
                state.counters["fences_per_tx"] = m.fencesPerTx;
                csv.row("%s,%s,%.0f,%.3f,%.1f,%.3f", cfg.name,
                        structure.c_str(), tput, m.entriesPerTx,
                        m.bytesPerTx, m.fencesPerTx);
                return m.seconds;
            };
            bench::addCase(std::string("fig7/") + cfg.name + "/" +
                               structure,
                           run);
        }
    }
    return bench::runFigure(argc, argv, printHeadline);
}
