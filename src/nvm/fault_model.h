/**
 * @file
 * Injectable media-fault model for the NVM pool.
 *
 * The cache model (cache_sim.h) covers the paper's crash model — lost
 * or torn *unflushed* lines. Real persistent memory additionally
 * suffers media faults in lines that were long since flushed:
 *
 *  - silent bit flips: a durable line's content changes under the
 *    software (undetected by the device);
 *  - poisoned lines: the device's ECC gives up and a load raises a
 *    machine-check — modeled as MediaFaultError from a guarded read;
 *  - transient read faults: a load fails but a retry succeeds.
 *
 * All injection is deterministic from a seed and targetable by pool
 * region (descriptor slots, log areas, allocator metadata, user heap),
 * so torture campaigns replay bit-for-bit.
 *
 * Model boundary: reads are only *guarded* on the recovery/salvage
 * paths (Pool::checkRead), where corrupt metadata must be survived;
 * normal-operation loads are raw memcpys and are not interposed — a
 * poisoned line's content is left intact in the simulation, only its
 * guarded reads fault. Bit flips DO mutate the mapped bytes, and the
 * model records the flipped lines as "tainted" — standing in for the
 * localization a real platform gets from ECC/patrol-scrub telemetry —
 * which salvage uses to tell genuine media corruption apart from an
 * ordinary torn log tail. Rewriting a line (Pool::write) clears its
 * poison and taint: fresh stores make the cell trustworthy again.
 */
#ifndef CNVM_NVM_FAULT_MODEL_H
#define CNVM_NVM_FAULT_MODEL_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rand.h"

namespace cnvm::nvm {

class Pool;

/** Machine-check-style uncorrectable (or retry-exhausted) read. */
class MediaFaultError : public std::runtime_error {
 public:
    MediaFaultError(uint64_t off, bool transient,
                    const std::string& what)
        : std::runtime_error(what), off_(off), transient_(transient) {}

    /** Pool offset of the faulting line. */
    uint64_t off() const { return off_; }
    /** True if this was a transient fault that exhausted its retries. */
    bool transient() const { return transient_; }

 private:
    uint64_t off_;
    bool transient_;
};

/** Targetable pool regions (bitmask). */
enum FaultRegion : uint32_t {
    kFaultHeader = 1u << 0,   ///< pool header
    kFaultDesc = 1u << 1,     ///< per-slot descriptor prefix
    kFaultLog = 1u << 2,      ///< per-slot log area
    kFaultAllocMeta = 1u << 3,///< alloc header + quarantine + bitmap
    kFaultHeap = 1u << 4,     ///< user data area
    kFaultAllRegions = 0x1f,
};

struct FaultConfig {
    uint64_t seed = 1;
    /** Faults injected per injection round (simulateCrash). */
    uint32_t bitFlips = 0;
    uint32_t poisons = 0;
    uint32_t transients = 0;
    /** Which regions injection may target. */
    uint32_t regionMask = kFaultDesc | kFaultLog | kFaultAllocMeta;
    /** Guarded-read retries before a transient fault escalates. */
    unsigned maxRetries = 4;
    /** Base exponential backoff between retries, microseconds
     *  (0 = account the retries but do not sleep). */
    unsigned backoffUs = 0;
    /** Inject a round automatically inside Pool::simulateCrash*. */
    bool injectOnCrash = true;

    bool enabled() const
    {
        return bitFlips + poisons + transients > 0;
    }

    /** Is any CNVM_FAULT_* knob set to a non-zero fault count? */
    static bool envEnabled();
    /** Parse CNVM_FAULT_{SEED,BITFLIP,POISON,TRANSIENT,REGIONS,
     *  RETRIES,BACKOFF_US}. */
    static FaultConfig fromEnv();
};

/** Parse a "log,desc,alloc,heap,header" list into a region mask.
 *  @return 0 on an unrecognized token. */
uint32_t parseFaultRegions(const std::string& list);
/** Inverse of parseFaultRegions (canonical comma list). */
std::string faultRegionNames(uint32_t mask);

class FaultModel {
 public:
    explicit FaultModel(const FaultConfig& cfg);

    const FaultConfig& config() const { return cfg_; }

    /** @name Region map (half-open [lo, hi) pool-offset intervals)
     *
     * Pool::setFaultModel installs a coarse map (header / slots /
     * heap); rt::defineFaultRegions refines it with the descriptor
     * vs. log split and the allocator-metadata range once the layers
     * that know those layouts exist. */
    /// @{
    void clearRegions();
    void addRegion(FaultRegion region, uint64_t lo, uint64_t hi);
    /// @}

    /**
     * One seeded injection round against `pool`: cfg.bitFlips flipped
     * bits, cfg.poisons poisoned lines, cfg.transients transient
     * lines, all drawn uniformly from the enabled regions. Flips only
     * target currently-durable (non-volatile) lines — media faults
     * hit persisted cells, torn volatile lines are the crash model's
     * job. Deterministic: each call advances the model's own rng.
     */
    void inject(Pool& pool);

    /** inject() with explicit counts (campaign axes). */
    void injectCounts(Pool& pool, uint32_t flips, uint32_t poisons,
                      uint32_t transients);

    /** @name Deterministic single-fault primitives (tests) */
    /// @{
    /** Flip bit `bit` (0..7) of pool byte `off`; taints the line. */
    void flipBit(Pool& pool, uint64_t off, unsigned bit);
    /** Poison the line containing `off`. transientCount < 0 =>
     *  permanent; > 0 => that many failing reads, then clean. */
    void poisonAt(uint64_t off, int transientCount = -1);
    /// @}

    /**
     * Guarded read of [off, off+n): transient faults are retried
     * internally (bounded exponential backoff per cfg), permanent
     * poison and retry exhaustion raise MediaFaultError.
     */
    void onRead(uint64_t off, size_t n);

    /** A write landed on [off, off+n): clears poison and taint. */
    void noteWrite(uint64_t off, size_t n);

    /** Any covered line recorded as bit-flipped and not rewritten? */
    bool tainted(uint64_t off, size_t n) const;
    /** Any covered line currently poisoned (incl. transient)? */
    bool poisoned(uint64_t off, size_t n) const;

    /** @name Cumulative counters since construction */
    /// @{
    uint64_t flipsInjected() const { return flips_; }
    uint64_t poisonsInjected() const { return poisons_; }
    uint64_t transientsInjected() const { return transients_; }
    uint64_t poisonReads() const { return poisonReads_; }
    uint64_t retries() const { return retries_; }
    /** Faults of every kind placed so far. */
    uint64_t injected() const { return flips_ + poisons_ + transients_; }
    /// @}

    /** Tainted line numbers, sorted (tests / diagnostics). */
    std::vector<uint64_t> taintedLines() const;

 private:
    struct Range {
        uint32_t region;
        uint64_t lo, hi;
    };

    /** Pick a target line uniformly over the enabled regions;
     *  ~0ULL if no enabled region exists. */
    uint64_t pickLine(const Pool* pool, bool skipVolatile);

    FaultConfig cfg_;
    Xorshift rng_;
    std::vector<Range> ranges_;
    /** line -> remaining failing reads (< 0 = permanent poison) */
    std::unordered_map<uint64_t, int> poison_;
    /** bit-flipped lines not yet rewritten */
    std::unordered_set<uint64_t> taint_;
    uint64_t flips_ = 0;
    uint64_t poisons_ = 0;
    uint64_t transients_ = 0;
    uint64_t poisonReads_ = 0;
    uint64_t retries_ = 0;
};

}  // namespace cnvm::nvm

#endif  // CNVM_NVM_FAULT_MODEL_H
