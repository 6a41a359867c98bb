/**
 * @file
 * cnvm_torture: crash-point torture harness CLI.
 *
 * Drives the three src/testing drivers over a protocol × structure
 * matrix:
 *
 *   exhaustive   crash insert/update/remove at every persistency-event
 *                index (store/clwb/sfence) until each sweep quiesces;
 *   random       seeded multi-thread fuzz histories crashed at random
 *                event indices with randomized torn-write survival,
 *                with greedy shrinking of any failing case;
 *   media        crash × media-fault sweep: every tear additionally
 *                lands seeded bit flips / poisoned lines / transient
 *                read faults, and the post-recovery audit is strict
 *                unless the RecoveryReport declared salvage aborts.
 *
 * A failing run prints (and optionally writes via --report) the exact
 * reproduction invocation (--replay for fuzz cases, --index for media
 * cases), and exits nonzero — this is what CI uploads on failure.
 *
 * Usage:
 *   cnvm_torture [--protocol NAME|all] [--structure NAME|all]
 *                [--mode exhaustive|random|media|both] [--seed N]
 *                [--budget N] [--threads N] [--tear alllost|random]
 *                [--recovery full|lazy]
 *                [--fault FLIPS:POISONS:TRANSIENTS] [--fault-seed N]
 *                [--fault-regions LIST] [--fault-recovery ROUNDS]
 *                [--index N] [--list-sites] [--report PATH]
 *                [--replay SEED:NOPS:CRASHAT]
 *
 * --budget is a global operation budget divided evenly across the
 * selected matrix (0 = uncapped); the CI smoke tier uses a small
 * budget, the nightly tier runs uncapped. --fault also arms the random
 * mode's tears; --index replays exactly one media case. --recovery
 * lazy routes every post-crash recovery through the instant-restart
 * path (triage + first-touch heals + settle) under the exact same
 * shadow-oracle and allocator audits.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "nvm/fault_model.h"
#include "runtimes/factory.h"
#include "testing/torture.h"

using namespace cnvm;

namespace {

struct Options {
    std::string protocol = "all";
    std::string structure = "all";
    std::string mode = "both";
    uint64_t seed = 1;
    uint64_t budget = 0;
    unsigned threads = 2;
    torture::Tear tear = torture::Tear::randomTear;
    txn::RecoveryMode recovery = txn::RecoveryMode::full;
    torture::FaultSpec faults;  ///< armed by --fault*, or mode media
    uint64_t faultSeed = 0;     ///< 0 = use --seed
    uint64_t index = 0;         ///< media: replay exactly this index
    bool listSites = false;
    std::string reportPath;
    bool haveReplay = false;
    torture::FuzzCase replay;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--protocol NAME|all] [--structure NAME|all]\n"
        "          [--mode exhaustive|random|media|both] [--seed N]\n"
        "          [--budget N] [--threads N] [--tear alllost|random]\n"
        "          [--recovery full|lazy]\n"
        "          [--fault FLIPS:POISONS:TRANSIENTS] [--fault-seed N]\n"
        "          [--fault-regions LIST] [--fault-recovery ROUNDS]\n"
        "          [--index N] [--list-sites] [--report PATH]\n"
        "          [--replay SEED:NOPS:CRASHAT]\n"
        "LIST is a comma list of header, desc, log, alloc, heap, all\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options o;
    auto value = [&](int& i) -> const char* {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--protocol") {
            o.protocol = value(i);
        } else if (a == "--structure") {
            o.structure = value(i);
        } else if (a == "--mode") {
            o.mode = value(i);
            if (o.mode != "exhaustive" && o.mode != "random" &&
                o.mode != "media" && o.mode != "both")
                usage(argv[0]);
        } else if (a == "--fault") {
            unsigned f = 0, p = 0, t = 0;
            if (std::sscanf(value(i), "%u:%u:%u", &f, &p, &t) != 3)
                usage(argv[0]);
            o.faults.enabled = true;
            o.faults.bitFlips = f;
            o.faults.poisons = p;
            o.faults.transients = t;
        } else if (a == "--fault-seed") {
            o.faultSeed = std::strtoull(value(i), nullptr, 0);
        } else if (a == "--fault-regions") {
            // 0 means an unknown token, and an empty mask would arm
            // the fault model with nowhere to inject.
            o.faults.regionMask = nvm::parseFaultRegions(value(i));
            if (o.faults.regionMask == 0)
                usage(argv[0]);
            o.faults.enabled = true;
        } else if (a == "--fault-recovery") {
            o.faults.duringRecoveryRounds =
                static_cast<int>(std::strtol(value(i), nullptr, 0));
        } else if (a == "--index") {
            o.index = std::strtoull(value(i), nullptr, 0);
        } else if (a == "--seed") {
            o.seed = std::strtoull(value(i), nullptr, 0);
        } else if (a == "--budget") {
            o.budget = std::strtoull(value(i), nullptr, 0);
        } else if (a == "--threads") {
            o.threads = static_cast<unsigned>(
                std::strtoul(value(i), nullptr, 0));
        } else if (a == "--tear") {
            std::string t = value(i);
            if (t == "alllost")
                o.tear = torture::Tear::allLost;
            else if (t == "random")
                o.tear = torture::Tear::randomTear;
            else
                usage(argv[0]);
        } else if (a == "--recovery") {
            std::string r = value(i);
            if (r == "full")
                o.recovery = txn::RecoveryMode::full;
            else if (r == "lazy")
                o.recovery = txn::RecoveryMode::lazy;
            else
                usage(argv[0]);
        } else if (a == "--list-sites") {
            o.listSites = true;
        } else if (a == "--report") {
            o.reportPath = value(i);
        } else if (a == "--replay") {
            unsigned long long s = 0, c = 0;
            unsigned n = 0;
            if (std::sscanf(value(i), "%llu:%u:%llu", &s, &n, &c) != 3)
                usage(argv[0]);
            o.haveReplay = true;
            o.replay.seed = s;
            o.replay.nOps = n;
            o.replay.crashAt = c;
        } else {
            usage(argv[0]);
        }
    }
    return o;
}

std::vector<txn::RuntimeKind>
selectProtocols(const std::string& name)
{
    if (name == "all") {
        // The five protocols the sweep must hold for. The nolog
        // baseline is selectable explicitly (and is expected to fail).
        return {txn::RuntimeKind::clobber, txn::RuntimeKind::undo,
                txn::RuntimeKind::redo, txn::RuntimeKind::atlas,
                txn::RuntimeKind::ido};
    }
    return {rt::kindFromName(name)};
}

std::vector<std::string>
selectStructures(const std::string& name)
{
    if (name == "all")
        return {"list", "hashmap", "skiplist", "rbtree", "bptree"};
    return {name};
}

/** Print to stdout and accumulate for --report. */
void
emit(std::string& sink, const std::string& s)
{
    std::fputs(s.c_str(), stdout);
    std::fflush(stdout);
    sink += s;
}

/** Trace the event sites of one insert + one remove (--list-sites). */
void
listSites(txn::RuntimeKind kind, const std::string& structure,
          std::string& sink)
{
    torture::TortureRig rig(kind, structure);
    rig.sched().setTraceEnabled(true);
    rig.kv().insert("site-key", "site-value");
    emit(sink, strprintf("## %s / %s: insert (%llu events)\n",
                         rig.runtime().name(), structure.c_str(),
                         static_cast<unsigned long long>(
                             rig.sched().eventCount())));
    emit(sink, rig.sched().describeTrace());
    rig.sched().clearTrace();
    rig.sched().resetCounts();
    rig.kv().remove("site-key");
    emit(sink, strprintf("## %s: remove (%llu events)\n",
                         structure.c_str(),
                         static_cast<unsigned long long>(
                             rig.sched().eventCount())));
    emit(sink, rig.sched().describeTrace());
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o = parse(argc, argv);
    std::string sink;
    bool failed = false;

    auto protocols = selectProtocols(o.protocol);
    auto structures = selectStructures(o.structure);

    if (o.haveReplay) {
        // Replay one fuzz case bit-for-bit; requires a concrete pair.
        if (protocols.size() != 1 || structures.size() != 1) {
            std::fprintf(stderr, "--replay needs --protocol and "
                                 "--structure\n");
            return 2;
        }
        torture::FuzzConfig fc;
        fc.threads = o.threads;
        fc.tear = o.tear;
        fc.faults = o.faults;
        fc.recovery = o.recovery;
        torture::CaseResult r = torture::runFuzzCase(
            protocols[0], structures[0], o.replay, fc);
        emit(sink, strprintf(
                       "replay seed=%llu nOps=%u crashAt=%llu: %s\n"
                       "  events=%llu crashed=%d ops=%llu\n%s",
                       static_cast<unsigned long long>(o.replay.seed),
                       o.replay.nOps,
                       static_cast<unsigned long long>(
                           o.replay.crashAt),
                       r.failure.empty() ? "PASS" : "FAIL",
                       static_cast<unsigned long long>(r.events),
                       r.crashed ? 1 : 0,
                       static_cast<unsigned long long>(r.opsExecuted),
                       r.failure.empty()
                           ? ""
                           : ("  " + r.failure + "\n").c_str()));
        failed = !r.failure.empty();
    } else if (o.listSites) {
        for (txn::RuntimeKind kind : protocols)
            for (const std::string& s : structures)
                listSites(kind, s, sink);
    } else {
        size_t combos = protocols.size() * structures.size();
        bool doMedia = o.mode == "media";
        bool doSweep = !doMedia && o.mode != "random";
        bool doFuzz = !doMedia && o.mode != "exhaustive";
        size_t shares = combos * ((doSweep ? 1 : 0) +
                                  (doFuzz ? 1 : 0) +
                                  (doMedia ? 1 : 0));
        uint64_t perShare =
            o.budget == 0 ? 0
                          : std::max<uint64_t>(o.budget / shares, 50);
        for (txn::RuntimeKind kind : protocols) {
            for (const std::string& s : structures) {
                if (doMedia) {
                    torture::MediaSweepConfig cfg;
                    cfg.tear = o.tear;
                    cfg.seed = o.faultSeed != 0 ? o.faultSeed : o.seed;
                    cfg.faults = o.faults;
                    cfg.faults.enabled = true;
                    cfg.recovery = o.recovery;
                    cfg.budget = perShare;
                    if (o.index != 0) {
                        // Cases are independent (fresh rig per index),
                        // so one index replays exactly.
                        cfg.startIndex = o.index;
                        cfg.budget = 1;
                    }
                    torture::MediaSweepResult r =
                        torture::mediaFaultSweep(kind, s, cfg);
                    emit(sink, r.summary(kind, s) + "\n");
                    failed = failed || !r.passed;
                }
                if (doSweep) {
                    torture::SweepConfig cfg;
                    cfg.tear = o.tear;
                    cfg.seed = o.seed;
                    cfg.budget = perShare;
                    cfg.recovery = o.recovery;
                    torture::SweepResult r =
                        torture::exhaustiveSweep(kind, s, cfg);
                    emit(sink, r.summary(kind, s) + "\n");
                    failed = failed || !r.passed;
                }
                if (doFuzz) {
                    torture::FuzzConfig fc;
                    fc.threads = o.threads;
                    fc.tear = o.tear;
                    fc.faults = o.faults;
                    fc.baseSeed = o.seed;
                    fc.recovery = o.recovery;
                    if (perShare != 0)
                        fc.budget = perShare;
                    torture::FuzzOutcome r =
                        torture::fuzz(kind, s, fc);
                    emit(sink, r.report(kind, s));
                    failed = failed || !r.passed;
                }
            }
        }
    }

    emit(sink, failed ? "RESULT: FAIL\n" : "RESULT: PASS\n");
    if (!o.reportPath.empty()) {
        std::FILE* f = std::fopen(o.reportPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.reportPath.c_str());
            return 2;
        }
        std::fwrite(sink.data(), 1, sink.size(), f);
        std::fclose(f);
    }
    return failed ? 1 : 0;
}
