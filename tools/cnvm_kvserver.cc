/**
 * @file
 * Network-facing persistent KV server (memcached text protocol).
 *
 * Serving stack over a file-backed pool: an accept thread hands each
 * connection to the next of --workers worker threads. Each worker
 * runs one event loop over the connections it owns and runs every
 * window of commands on its own engine slot, group-committing runs of
 * mutations (server/kv_service.h). On startup the pool is created if
 * missing, otherwise opened and *recovered* — the tool prints a
 * RECOVERY line describing what recovery did, then READY with the
 * bound port. Kill it with SIGKILL mid-traffic and start it again:
 * acked data must all be there (scripts/torture_kvserver.sh automates
 * exactly that).
 *
 *   cnvm_kvserver --pool /tmp/kv.pool --protocol clobber \
 *                 --workers 4 --batch 8 --port 0 --port-file /tmp/kv.port
 *
 * Knobs: --protocol clobber|pmdk|mnemosyne|atlas|nolog|ido,
 * --workers N (engine slots slotBase..slotBase+N-1), --batch N (max
 * mutations fused per transaction, at least 1; default 8),
 * --shards N, --lock rw|spin, --port 0 → ephemeral (published via
 * --port-file, atomically). CNVM_POOL_MB sizes a fresh pool.
 *
 * --recovery full|lazy (default full) picks the restart mode. Lazy
 * runs the bounded triage pass and starts serving immediately — the
 * heap rebuild proceeds incrementally and pending slots heal on first
 * touch or from the background salvage thread.
 * The tool prints RECOVERY with the mode and triage time, READY with
 * time-to-first-request (startup to listening), HEALING progress
 * lines while the background drain runs, and HEALED when recovery is
 * fully settled. `stats` exposes recovery_pending / recovery_healed.
 */
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "alloc/pm_allocator.h"
#include "apps/kv/kv_server.h"
#include "nvm/pool.h"
#include "runtimes/factory.h"
#include "server/kv_service.h"
#include "server/tcp_server.h"

using namespace cnvm;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

bool
fileExists(const std::string& path)
{
    struct ::stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

size_t
envSize(const char* name, size_t dflt)
{
    const char* v = std::getenv(name);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : dflt;
}

struct Options {
    std::string pool = "/tmp/cnvm_kv.pool";
    std::string protocol = "clobber";
    std::string portFile;
    std::string lock = "rw";
    std::string recovery = "full";
    unsigned port = 0;
    unsigned workers = 2;
    unsigned batch = 8;
    unsigned shards = 64;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--pool PATH] [--protocol NAME] [--port N]\n"
        "          [--port-file PATH] [--workers N] [--batch N]\n"
        "          [--shards N] [--lock rw|spin]\n"
        "          [--recovery full|lazy]\n",
        argv0);
    std::exit(2);
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--pool")
            opt.pool = val();
        else if (a == "--protocol")
            opt.protocol = val();
        else if (a == "--port")
            opt.port = std::strtoul(val().c_str(), nullptr, 10);
        else if (a == "--port-file")
            opt.portFile = val();
        else if (a == "--workers")
            opt.workers = std::strtoul(val().c_str(), nullptr, 10);
        else if (a == "--batch")
            opt.batch = std::strtoul(val().c_str(), nullptr, 10);
        else if (a == "--shards")
            opt.shards = std::strtoul(val().c_str(), nullptr, 10);
        else if (a == "--lock")
            opt.lock = val();
        else if (a == "--recovery")
            opt.recovery = val();
        else
            usage(argv[0]);
    }

    txn::RecoveryMode recMode = txn::RecoveryMode::full;
    if (opt.recovery == "lazy") {
        recMode = txn::RecoveryMode::lazy;
    } else if (opt.recovery != "full") {
        std::fprintf(stderr, "bad --recovery (want full|lazy)\n");
        return 2;
    }
    if (opt.batch == 0) {
        std::fprintf(stderr, "bad --batch (want at least 1)\n");
        return 2;
    }

    txn::RuntimeKind kind;
    try {
        kind = rt::kindFromName(opt.protocol);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --protocol: %s\n", e.what());
        return 2;
    }

    auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<nvm::Pool> pool;
    bool fresh = !fileExists(opt.pool);
    if (fresh) {
        nvm::PoolConfig cfg;
        cfg.path = opt.pool;
        cfg.size = envSize("CNVM_POOL_MB", 256) << 20;
        cfg.maxThreads = std::max(8u, opt.workers + 2);
        cfg.slotBytes = 256ULL << 10;
        pool = nvm::Pool::create(cfg);
    } else {
        try {
            pool = nvm::Pool::open(opt.pool);
        } catch (const nvm::PoolOpenError& e) {
            std::fprintf(stderr, "cannot open pool %s: %s\n",
                         opt.pool.c_str(), e.what());
            return 1;
        }
    }
    nvm::Pool::setCurrent(pool.get());

    // Under lazy restart the allocator must not pay the full bitmap
    // scan in its constructor: it arms the scan, and reserve() and the
    // recovery session pull it. A full restart scans here once, and
    // the session finds nothing left to scan.
    bool lazy = recMode == txn::RecoveryMode::lazy && !fresh;
    alloc::PmAllocator heap(*pool, /* deferRebuild */ lazy);
    auto runtime = rt::makeRuntime(kind, *pool, heap);
    txn::Engine eng(*runtime);

    if (!fresh) {
        auto report = eng.recover(recMode, /* backgroundHealer */ true);
        std::printf("RECOVERY mode=%s pending=%llu took_ms=%.2f "
                    "applied=%llu dropped=%llu salvage=%llu clean=%d\n",
                    txn::recoveryModeName(recMode),
                    static_cast<unsigned long long>(
                        eng.recoveryPending()),
                    msSince(t0),
                    static_cast<unsigned long long>(
                        report.logEntriesApplied),
                    static_cast<unsigned long long>(
                        report.logEntriesDropped),
                    static_cast<unsigned long long>(
                        report.salvageAborted),
                    report.clean() ? 1 : 0);
        if (!report.clean())
            std::fputs(report.toString().c_str(), stdout);
    } else {
        std::printf("RECOVERY fresh pool, nothing to do\n");
    }

    apps::KvServer::Config kvCfg;
    kvCfg.shards = opt.shards;
    kvCfg.lockMode = opt.lock == "spin"
                         ? apps::KvServer::LockMode::spin
                         : apps::KvServer::LockMode::rw;
    apps::KvServer kv(eng, pool->root(), kvCfg);
    if (fresh)
        pool->setRoot(kv.rootOff());

    server::ServiceConfig svcCfg;
    svcCfg.workers = opt.workers;
    svcCfg.batchMax = opt.batch;
    server::KvService svc(kv, svcCfg);
    try {
        svc.start();
    } catch (const txn::SlotRangeError& e) {
        std::fprintf(stderr, "cannot start service: %s\n", e.what());
        return 2;
    }

    server::TcpConfig tcpCfg;
    tcpCfg.port = static_cast<uint16_t>(opt.port);
    server::TcpServer tcp(svc, kv, tcpCfg);
    tcp.start();

    std::printf("READY port=%u pid=%d workers=%u batch=%u "
                "protocol=%s ttfr_ms=%.2f\n",
                unsigned(tcp.port()), int(::getpid()), opt.workers,
                svc.batchMax(), opt.protocol.c_str(), msSince(t0));
    std::fflush(stdout);

    if (!opt.portFile.empty()) {
        std::string tmp = opt.portFile + ".tmp";
        if (FILE* f = std::fopen(tmp.c_str(), "w")) {
            std::fprintf(f, "%u %d\n", unsigned(tcp.port()),
                         int(::getpid()));
            std::fclose(f);
            ::rename(tmp.c_str(), opt.portFile.c_str());
        }
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    bool healReported = !eng.recoveryActive();
    uint64_t lastHealed = ~0ULL;
    while (g_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (healReported)
            continue;
        uint64_t healed = eng.recoveryHealed();
        uint64_t pending = eng.recoveryPending();
        if (pending == 0) {
            std::printf("HEALED items=%llu took_ms=%.2f\n",
                        static_cast<unsigned long long>(healed),
                        msSince(t0));
            std::fflush(stdout);
            healReported = true;
        } else if (healed != lastHealed) {
            std::printf("HEALING healed=%llu pending=%llu\n",
                        static_cast<unsigned long long>(healed),
                        static_cast<unsigned long long>(pending));
            std::fflush(stdout);
            lastHealed = healed;
        }
        if (eng.recoveryHealerDied()) {
            // The background healer hit an exception; finish the job
            // inline rather than serving with pending heals forever.
            std::printf("HEALER-DIED draining inline\n");
            std::fflush(stdout);
            eng.drainRecovery();
        }
    }

    tcp.stop();
    svc.stop();
    // Workers are joined: safe to settle any still-lazy recovery so a
    // graceful shutdown always leaves a fully healed pool behind.
    eng.finishRecovery();
    auto t = svc.totalStats();
    std::printf("STOPPED ops=%llu batches=%llu batched=%llu "
                "singles=%llu overflows=%llu\n",
                static_cast<unsigned long long>(t.ops),
                static_cast<unsigned long long>(t.batches),
                static_cast<unsigned long long>(t.batchedOps),
                static_cast<unsigned long long>(t.singles),
                static_cast<unsigned long long>(t.overflows));
    return 0;
}
