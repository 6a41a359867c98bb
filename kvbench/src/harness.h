/**
 * @file
 * kvbench: the repository's end-to-end benchmark of the persistent KV
 * store (write, read, serve and restart paths) with per-layer
 * attribution. See kvbench/README.md for the workloads and metrics.
 *
 * Everything that shapes the traffic lives in this directory: keys,
 * values, op mixes, the zipfian generator, the memcached-text client
 * and the crash points are derived from the run's seed here, so no
 * change under src/ can alter what the benchmark sends.
 */
#ifndef KVBENCH_HARNESS_H
#define KVBENCH_HARNESS_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kvbench {

/** @name Clocks (nanoseconds) */
/// @{
uint64_t wallNs();
uint64_t threadCpuNs();
uint64_t processCpuNs();
/// @}

/**
 * Nearest-rank `q`-quantile of `samples` (0 < q < 1). Refuses — throws
 * std::domain_error — when fewer than 10 samples lie above the chosen
 * rank: such a percentile is not supported by the sample.
 */
double percentile(std::vector<double> samples, double q);

/**
 * @name Host-speed probes
 * CPU nanoseconds per iteration of two fixed, benchmark-owned kernels,
 * gauges of how fast the host runs code right now: probeMemNs does
 * random 64-byte reads and writes over 32 MiB with hashing and a
 * 64 KiB scan; probeAluNs runs a branchy bit-run scan over 256 KiB;
 * probeScanNs copies a 4 MiB bitmap 64 bytes at a time and walks its
 * bits for free runs, the shape of an allocator rebuild.
 */
/// @{
double probeMemNs(int iters);
double probeAluNs(int iters);
double probeScanNs(int iters);
/// @}

/** @name Seeded generators (owned by the benchmark, not by src/) */
/// @{
class Rng {
 public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

 private:
    uint64_t s_;
};

/** 64-bit finalizer used to derive independent streams and values. */
uint64_t mix64(uint64_t x);

/** Scrambled zipfian ranks over [0, n), the YCSB construction. */
class Zipf {
 public:
    Zipf(uint64_t n, double theta);
    uint64_t next(Rng& rng);

 private:
    uint64_t n_;
    double alpha_, zetan_, eta_, half_;
};

constexpr size_t kKeyLen = 16;
constexpr size_t kValLen = 64;

/** Key `idx` as its 16 bytes ("k" + 15 digits). */
std::string keyOf(uint32_t idx);

/** Parse a key made by keyOf; false if `k` is not one. */
bool keyIndex(std::string_view k, uint32_t* idx);

/** The 64-byte value of write number `seq` under `seed`. */
void fillValue(char* out, uint64_t seed, uint64_t seq);

/** The memcached flags of write number `seq`. */
uint32_t flagsOf(uint64_t seq);

enum class OpKind : uint8_t { set, get, gets, del };

struct Mix {
    double writeShare = 1.0;        ///< sets + deletes
    double delShareOfWrites = 0.0;  ///< deletes among writes
    double getsShareOfReads = 0.0;  ///< `gets` among reads
    double zipfTheta = 0.0;         ///< 0 → uniform keys
};

struct Op {
    OpKind kind = OpKind::set;
    uint32_t key = 0;
};

/** The op stream of one client: a seeded mix over [base, base+count). */
class OpGen {
 public:
    OpGen(const Mix& mix, uint64_t seed, uint32_t base, uint32_t count);
    Op next();

 private:
    Mix mix_;
    Rng rng_;
    uint32_t base_, count_;
    std::unique_ptr<Zipf> zipf_;
};
/// @}

/** @name Shadow of every acknowledged write */
/// @{

/** One op with everything needed to execute and to check it. */
struct Planned {
    OpKind kind = OpKind::set;
    uint32_t key = 0;
    uint64_t seq = 0;       ///< set: new write; get: expected write
    uint32_t flags = 0;     ///< set: flags sent; get: expected
    uint32_t version = 0;   ///< set: version after; get: expected
    bool expectFound = false;  ///< get/gets/del
    char val[kValLen];      ///< set: the value sent
};

/** What the store answered (filled by whichever layer executed). */
struct Reply {
    bool ok = true;         ///< status line well formed and expected
    bool found = false;
    uint32_t flags = 0;
    uint32_t version = 0;
    uint32_t len = 0;
    bool versionKnown = true;  ///< a memcached `get` carries none
    char val[kValLen];
};

class Shadow {
 public:
    Shadow(uint64_t seed, uint32_t keys);

    /**
     * Turn `op` into a Planned op and apply it to the shadow. Writes
     * draw their numbers from `stream`'s own sequence, so clients
     * that own disjoint key ranges may plan from separate threads and
     * still get the same values on every run.
     */
    Planned plan(const Op& op, unsigned stream = 0);

    /** Plan a set of `key` (preload, re-set, replays). */
    Planned planSet(uint32_t key) { return plan({OpKind::set, key}); }

    /** Does `r` match what `p` expected? */
    bool check(const Planned& p, const Reply& r) const;

    /**
     * A set of `key` was interrupted by a crash: until checkAndResolve,
     * either the old or the new value is correct.
     */
    Planned planCrashed(uint32_t key);

    /** Check `key` against the shadow, accepting an unresolved
     *  crashed write in either state and resolving it. */
    bool checkAndResolve(uint32_t key, const Reply& r);

    bool present(uint32_t key) const { return e_[key].present; }
    uint64_t presentCount() const;

 private:
    struct Entry {
        uint64_t seq = 0;
        uint32_t version = 0;
        bool present = false;
        bool pending = false;  ///< crashed write not yet resolved
        uint64_t altSeq = 0;   ///< the write before the crashed one
        uint32_t altVersion = 0;
        bool altPresent = false;
    };

    bool matches(const Entry& e, uint64_t seq, uint32_t version,
                 const Reply& r) const;

    static constexpr unsigned kStreams = 4;

    uint64_t seed_;
    uint64_t nextSeq_[kStreams] = {};
    std::vector<Entry> e_;
};
/// @}

/** @name Results */
/// @{
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Diagnostics printed as "# key=value" lines, not as metrics. */
    std::vector<std::pair<std::string, std::string>> diag;
};

/** Faults the harness's own tests inject to prove the checks work. */
enum class Inject { none, reply, recovered, clientBurn };

struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string tracePath;  ///< spans are written here in trace mode
    Inject inject = Inject::none;
    /** Test-only shrinking; 0 keeps the workload's size. */
    uint32_t keys = 0;
    size_t poolMB = 0;
    unsigned setupReps = 3;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** Run one workload in this process. Throws on a bad config. */
Result runWorkload(const RunConfig& cfg);

/** Render `r` as the one-line JSON result the command ends with. */
std::string resultJson(const Result& r);

/**
 * The command: parse argv, refuse CNVM_* knobs, confine the process
 * to one CPU, run, print diagnostics and the JSON line to `out`.
 * @return the process exit code (non-zero on any failed op).
 */
int runCommand(int argc, char** argv, std::FILE* out);
/// @}

}  // namespace kvbench

#endif  // KVBENCH_HARNESS_H
