/**
 * @file
 * Example: a persistent key-value store with crash recovery across
 * process restarts.
 *
 * Uses the library's persistent HashMap on a file-backed pool. The
 * first run populates the store and then simulates a power failure in
 * the middle of an insert; rerunning the program reopens the pool,
 * runs recovery (which re-executes the interrupted insert from its
 * v_log), and verifies every record.
 *
 * Run twice:  ./kv_store [pool-file]
 */
#include <cstdio>
#include <string>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"
#include "runtimes/clobber.h"
#include "structures/hashmap.h"
#include <sys/stat.h>
#include <unistd.h>

using namespace cnvm;

namespace {

std::string
keyOf(int i)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "user%04d", i);
    return buf;
}

std::string
valOf(int i)
{
    return "profile-data-" + std::to_string(int64_t(i) * 1000000007);
}

bool
fileExists(const std::string& path)
{
    struct ::stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string path = argc > 1 ? argv[1] : "/tmp/cnvm_kv_example.pool";
    constexpr int kRecords = 500;

    if (!fileExists(path)) {
        std::printf("[first run] creating pool %s\n", path.c_str());
        nvm::PoolConfig cfg;
        cfg.path = path;
        cfg.size = 64 << 20;
        auto pool = nvm::Pool::create(cfg);
        alloc::PmAllocator heap(*pool);
        rt::ClobberRuntime runtime(*pool, heap);
        txn::Engine eng(runtime);

        ds::KvConfig kvCfg;
        kvCfg.hashShards = 32;
        kvCfg.hashBucketsPerShard = 128;
        ds::HashMap map(eng, 0, kvCfg);
        pool->setRoot(map.rootOff());

        for (int i = 0; i < kRecords; i++)
            map.insert(keyOf(i), valOf(i));
        std::printf("[first run] inserted %d records\n", kRecords);

        // Crash in the middle of one more insert, then "lose power":
        // the process exits without completing the transaction.
        pool->armWriteTrap(8);
        try {
            map.insert(keyOf(kRecords), valOf(kRecords));
        } catch (const nvm::CrashInjected&) {
            std::printf("[first run] simulated crash mid-insert of %s\n",
                        keyOf(kRecords).c_str());
        }
        pool->armWriteTrap(0);
        pool->simulateCrash(/* seed */ 7);
        std::printf("[first run] rerun this program to recover\n");
        return 0;
    }

    std::printf("[second run] reopening pool %s\n", path.c_str());
    std::unique_ptr<nvm::Pool> pool;
    try {
        pool = nvm::Pool::open(path);
    } catch (const nvm::PoolOpenError& e) {
        // A stale or damaged pool (old layout version, truncation,
        // corrupt header) is operator-recoverable: discard it and
        // start over instead of dying on the exception.
        std::printf("[second run] cannot reuse pool: %s\n", e.what());
        ::unlink(path.c_str());
        std::printf("[second run] stale pool removed; run again for a "
                    "fresh demo\n");
        return 0;
    }
    alloc::PmAllocator heap(*pool);
    rt::ClobberRuntime runtime(*pool, heap);
    // Re-executes the interrupted insert from its v_log.
    runtime.recover();
    txn::Engine eng(runtime);
    ds::HashMap map(eng, pool->root());

    int present = 0;
    int intact = 0;
    for (int i = 0; i <= kRecords; i++) {
        ds::LookupResult r;
        if (map.lookup(keyOf(i), &r)) {
            present++;
            if (r.str() == valOf(i))
                intact++;
        }
    }
    std::printf("[second run] %d/%d records present, %d intact "
                "(including the interrupted insert)\n",
                present, kRecords + 1, intact);
    std::printf("[second run] store size: %llu\n",
                static_cast<unsigned long long>(map.size()));
    ::unlink(path.c_str());
    std::printf("[second run] pool removed; run again for a fresh "
                "demo\n");
    // Committed records must always survive, and so must the
    // re-executed insert.
    return present == kRecords + 1 && intact == present ? 0 : 1;
}
