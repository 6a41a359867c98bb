/**
 * @file
 * Figure 8: log volume per transaction, iDO vs Clobber-NVM, on the
 * four data-structure benchmarks (single thread, YCSB-Load inserts).
 *
 * iDO logs a register snapshot at every idempotent-region boundary and
 * keeps the stack in NVM; Clobber-NVM logs only clobbered inputs plus
 * one v_log record. Paper: iDO logs 1x-23x more frequently and on
 * average 4.2x more bytes (up to 7.2x on skiplist).
 */
#include "bench_common.h"

namespace {

using namespace cnvm;
using stats::Counter;

bench::Csv csv("fig8.csv", "fig8: system,structure,log_entries_per_tx,"
                           "log_bytes_per_tx");

struct Volume {
    double seconds;  ///< simulated
    double entriesPerTx;
    double bytesPerTx;
};

Volume
measure(txn::RuntimeKind kind, const std::string& structure,
        size_t ops)
{
    bench::KvEnv env(kind, structure);
    double simSeconds = 0;
    auto d = bench::counted([&] { simSeconds = env.inserts(1, ops); });

    double n = static_cast<double>(ops);
    if (kind == txn::RuntimeKind::ido) {
        return {simSeconds,
                static_cast<double>(d[Counter::idoEntries]) / n,
                static_cast<double>(d[Counter::idoBytes]) / n};
    }
    return {simSeconds,
            static_cast<double>(d[Counter::clobberEntries] +
                                d[Counter::vlogEntries]) / n,
            static_cast<double>(d[Counter::clobberBytes] +
                                d[Counter::vlogBytes]) / n};
}

}  // namespace

int
main(int argc, char** argv)
{
    for (const auto& structure : ds::benchmarkStructures()) {
        auto run = [structure](benchmark::State& state) {
            size_t ops = bench::totalOps(20000);
            Volume ido = measure(txn::RuntimeKind::ido, structure, ops);
            Volume clob =
                measure(txn::RuntimeKind::clobber, structure, ops);
            state.counters["ido_bytes_per_tx"] = ido.bytesPerTx;
            state.counters["clobber_bytes_per_tx"] = clob.bytesPerTx;
            state.counters["bytes_ratio"] =
                ido.bytesPerTx / clob.bytesPerTx;
            state.counters["entries_ratio"] =
                ido.entriesPerTx / clob.entriesPerTx;
            csv.row("ido,%s,%.3f,%.1f", structure.c_str(),
                    ido.entriesPerTx, ido.bytesPerTx);
            csv.row("clobber,%s,%.3f,%.1f", structure.c_str(),
                    clob.entriesPerTx, clob.bytesPerTx);
            return ido.seconds + clob.seconds;
        };
        bench::addCase("fig8/" + structure, run);
    }
    return bench::runFigure(argc, argv);
}
