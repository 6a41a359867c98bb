/**
 * @file
 * cnvm_inspect: offline pool inspector.
 *
 * Default mode prints a pool file's header, the state of every
 * per-thread transaction descriptor (status, sequence number, v_log
 * payload, intent table validity, pending log entries), and heap
 * statistics — without mutating anything: no mode constructs a
 * PmAllocator, whose constructor heals allocator metadata in place.
 * Useful for debugging recovery issues and for verifying what
 * survived a crash.
 *
 * `verify` mode walks the whole pool through the salvage scanner
 * (rt::salvage::verifyPool): header bounds, per-slot descriptor and
 * log checksums, allocator metadata (its header against the layout
 * the pool geometry fixes), quarantine table and allocated block
 * headers, printing every integrity violation it finds. It then
 * reports the pending-recovery state per region through the classifier
 * recovery triage itself runs (rt::salvage::triageSlot): which slots a
 * restart would leave pending (and why), and which heap ranges it
 * would pin until the owning slot heals. Exit status: 0 clean,
 * 1 problems found, 2 usage / unreadable pool.
 *
 * Usage:
 *   cnvm_inspect <pool-file>
 *   cnvm_inspect verify <pool-file>
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/pm_allocator.h"
#include "nvm/pool.h"
#include "runtimes/descriptor.h"
#include "runtimes/salvage.h"
#include "txn/registry.h"

using namespace cnvm;

namespace {

const char*
statusName(uint64_t s)
{
    switch (static_cast<rt::TxStatus>(s)) {
      case rt::TxStatus::idle: return "idle";
      case rt::TxStatus::ongoing: return "ONGOING";
      case rt::TxStatus::committing: return "COMMITTING";
    }
    return "corrupt";
}

/** What a heal does with a slot of class `cls` (null: clean). */
const char*
pendingReason(txn::SlotClass cls, bool liveTable)
{
    switch (cls) {
      case txn::SlotClass::clean: return nullptr;
      case txn::SlotClass::damaged:
        return "damaged descriptor (heal aborts + quarantines)";
      case txn::SlotClass::ongoing:
        return "interrupted transaction (heal rolls back or "
               "re-executes)";
      case txn::SlotClass::committing:
        return "interrupted commit (heal completes it)";
      case txn::SlotClass::idleIntents:
        return liveTable ? "idle slot with live intent table (heal "
                           "settles the allocations)"
                         : "idle slot with corrupt intent table (heal "
                           "records the allocations as lost)";
    }
    return nullptr;
}

/**
 * What a restart would leave pending per slot, and which heap ranges
 * it would pin (holds) until the owning slot heals: recovery triage's
 * own classifier (rt::salvage::triageSlot), which never writes to the
 * pool.
 */
void
reportPendingRecovery(nvm::Pool& pool)
{
    unsigned pending = 0;
    uint64_t holdBytes = 0;
    std::vector<txn::HoldRange> holds;
    for (unsigned tid = 0; tid < pool.maxThreads(); tid++) {
        size_t firstHold = holds.size();
        txn::SlotClass cls = rt::salvage::triageSlot(pool, tid, holds);
        // Only a live intent table contributes holds.
        const char* why = pendingReason(cls, holds.size() > firstHold);
        if (why == nullptr)
            continue;
        pending++;
        const auto& d =
            *static_cast<const rt::TxDescriptor*>(pool.slot(tid));
        std::printf("pending: slot %u seq=%llu: %s\n", tid,
                    static_cast<unsigned long long>(d.txSeq), why);
        for (size_t i = firstHold; i < holds.size(); i++) {
            std::printf("pending:   hold [%llu, +%llu) until "
                        "slot %u heals\n",
                        static_cast<unsigned long long>(holds[i].off),
                        static_cast<unsigned long long>(holds[i].bytes),
                        tid);
            holdBytes += holds[i].bytes;
        }
    }
    if (pending == 0) {
        std::printf("recovery: no slot pending — a lazy restart "
                    "admits transactions with nothing to heal\n");
        return;
    }
    std::printf("recovery: %u slot(s) pending", pending);
    if (!holds.empty())
        std::printf(", %zu heap range(s) / %llu B pinned until their "
                    "slots heal",
                    holds.size(),
                    static_cast<unsigned long long>(holdBytes));
    std::printf("; a lazy restart admits transactions after triage "
                "and heals these on first touch\n");
}

int
verifyMain(const char* path)
{
    std::unique_ptr<nvm::Pool> pool;
    try {
        pool = nvm::Pool::open(path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    rt::salvage::VerifyResult r = rt::salvage::verifyPool(*pool);
    for (const std::string& n : r.notes)
        std::printf("note:    %s\n", n.c_str());
    for (const std::string& p : r.problems)
        std::printf("PROBLEM: %s\n", p.c_str());
    reportPendingRecovery(*pool);
    std::printf("%s: %zu problem(s), %zu note(s)\n",
                r.ok() ? "CLEAN" : "CORRUPT", r.problems.size(),
                r.notes.size());
    return r.ok() ? 0 : 1;
}

/**
 * Free bytes and extents as the allocator's bitmap records them: the
 * runs of clear bits over the data granules of the layout the pool's
 * geometry fixes. Read raw: a PmAllocator's constructor would heal a
 * damaged header in place.
 */
void
printHeapStats(const nvm::Pool& pool)
{
    alloc::AllocHeader h = alloc::PmAllocator::expectedHeader(pool);
    const uint8_t* bitmap = pool.base() + h.bitmapOff;
    uint64_t freeBytes = 0;
    uint64_t extents = 0;
    bool inRun = false;
    for (uint64_t g = 0; g < h.dataBytes / alloc::kGranule; g++) {
        bool allocated = ((bitmap[g / 8] >> (g % 8)) & 1) != 0;
        if (!allocated) {
            freeBytes += alloc::kGranule;
            extents += inRun ? 0 : 1;
        }
        inRun = !allocated;
    }
    std::printf("heap: %llu free bytes in %llu extents\n",
                static_cast<unsigned long long>(freeBytes),
                static_cast<unsigned long long>(extents));
}

int
inspectMain(const char* path)
{
    std::unique_ptr<nvm::Pool> pool;
    try {
        pool = nvm::Pool::open(path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    const auto& h = pool->header();
    std::printf("pool %s\n", path);
    std::printf("  size        %llu MiB\n",
                static_cast<unsigned long long>(h.size >> 20));
    std::printf("  root        offset %llu%s\n",
                static_cast<unsigned long long>(h.rootOff),
                h.rootOff == 0 ? " (unset)" : "");
    std::printf("  aux         offset %llu\n",
                static_cast<unsigned long long>(h.auxOff));
    std::printf("  slots       %u x %llu KiB\n", h.maxThreads,
                static_cast<unsigned long long>(h.slotBytes >> 10));
    std::printf("  heap        offset %llu, %llu MiB\n",
                static_cast<unsigned long long>(h.heapOff),
                static_cast<unsigned long long>(h.heapSize >> 20));

    unsigned interrupted = 0;
    for (unsigned tid = 0; tid < pool->maxThreads(); tid++) {
        const auto& d =
            *static_cast<const rt::TxDescriptor*>(pool->slot(tid));
        bool interesting =
            d.status != static_cast<uint64_t>(rt::TxStatus::idle) ||
            (d.intentCount > 0 && d.intentSeq == d.txSeq);
        if (!interesting && d.txSeq == 0)
            continue;  // slot never used
        // The media-aware scanner reports damaged stretches instead
        // of silently truncating at the first bad entry.
        const auto* area =
            static_cast<const uint8_t*>(pool->slot(tid)) +
            rt::logAreaOffset();
        size_t cap = pool->slotBytes() - rt::logAreaOffset();
        std::vector<rt::ScannedEntry> entries;
        rt::salvage::ScanStats st;
        rt::salvage::scanLogArea(nullptr, area, cap,
                                 static_cast<uint32_t>(d.txSeq),
                                 entries, &st);
        std::printf("slot %-2u %-10s seq=%llu", tid,
                    statusName(d.status),
                    static_cast<unsigned long long>(d.txSeq));
        if (d.status ==
            static_cast<uint64_t>(rt::TxStatus::ongoing)) {
            interrupted++;
            bool valid = rt::salvage::beginChecksum(d) == d.beginSum;
            std::printf(" begin=%s fid=0x%08x (%s) args=%uB",
                        valid ? "valid" : "TORN", d.fid,
                        txn::txFuncName(d.fid), d.argLen);
        }
        std::printf(" log: %llu entries / %llu B",
                    static_cast<unsigned long long>(st.entries),
                    static_cast<unsigned long long>(st.payloadBytes));
        if (st.damaged()) {
            std::printf(" [DAMAGED: %llu entries dropped]",
                        static_cast<unsigned long long>(
                            st.droppedEntries));
        }
        if (d.intentCount > 0 && d.intentSeq == d.txSeq) {
            bool ok = d.intentCount <= rt::kMaxIntents &&
                      rt::salvage::intentChecksum(
                          d.intentSeq, d.intentCount, d.intents) ==
                          d.intentSum;
            std::printf(" intents: %u (%s)", d.intentCount,
                        ok ? "valid" : "TORN");
        }
        std::printf("\n");
    }

    printHeapStats(*pool);
    std::printf("%u interrupted transaction(s)%s\n", interrupted,
                interrupted > 0 ? " — run recovery before use" : "");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc == 3 && std::strcmp(argv[1], "verify") == 0)
        return verifyMain(argv[2]);
    if (argc == 2 && std::strcmp(argv[1], "verify") != 0)
        return inspectMain(argv[1]);
    std::fprintf(stderr,
                 "usage: %s <pool-file>\n"
                 "       %s verify <pool-file>\n",
                 argv[0], argv[0]);
    return 2;
}
