#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <mutex>
#include <stdexcept>

namespace kvbench {

namespace {

uint64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return uint64_t(ts.tv_sec) * 1000000000ULL + uint64_t(ts.tv_nsec);
}

}  // namespace

uint64_t
wallNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

uint64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

uint64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
percentile(std::vector<double> samples, double q)
{
    if (!(q > 0 && q < 1))
        throw std::domain_error("percentile: q must lie in (0, 1)");
    size_t n = samples.size();
    // Nearest rank: the smallest sample with at least q*n at or below.
    size_t rank = size_t(std::ceil(q * double(n)));
    if (rank == 0)
        rank = 1;
    if (n < rank || n - rank < 10)
        throw std::domain_error(
            "percentile: fewer than 10 samples beyond the requested "
            "percentile");
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

namespace {
/** The probes' buffers and cursors are shared: kv-serve's client
 *  threads probe concurrently, so each burst holds this lock. */
std::mutex probeMu;
}  // namespace

double
probeMemNs(int iters)
{
    std::lock_guard<std::mutex> g(probeMu);
    constexpr size_t kLines = (32u << 20) / 64;
    constexpr size_t kScan = (64u << 10) / 8;
    static std::vector<uint64_t> mem(kLines * 8, 1);
    static std::vector<uint64_t> scan(kScan, 1);
    static uint64_t x = 1;
    uint64_t sink = 0;
    uint64_t c0 = threadCpuNs();
    for (int i = 0; i < iters; i++) {
        x = mix64(x + 0x9E3779B97F4A7C15ULL);
        const uint64_t* src = &mem[(x % kLines) * 8];
        uint64_t h = 0;
        for (int j = 0; j < 8; j++)
            h = mix64(h ^ src[j]);
        uint64_t* dst = &mem[((x >> 32) % kLines) * 8];
        for (int j = 0; j < 8; j++)
            dst[j] = h + uint64_t(j);
        if (i % 64 == 0) {
            for (uint64_t v : scan)
                sink += v;
        }
        sink += h;
    }
    uint64_t c1 = threadCpuNs();
    mem[0] = sink;
    return double(c1 - c0) / iters;
}

double
probeAluNs(int iters)
{
    std::lock_guard<std::mutex> g(probeMu);
    constexpr size_t kBits = (256u << 10) * 8;
    static std::vector<uint8_t> bits = [] {
        std::vector<uint8_t> b((256u << 10), 0);
        uint64_t x = 7;
        for (auto& v : b) {
            x = mix64(x + 1);
            v = uint8_t(x & (x >> 8) & (x >> 16));
        }
        return b;
    }();
    static size_t pos = 0;
    uint64_t runs = 0, h = 0;
    bool inRun = false;
    uint64_t c0 = threadCpuNs();
    for (int i = 0; i < iters; i++) {
        // 64 bits of a branchy run scan, then a hash round.
        for (int j = 0; j < 64; j++) {
            size_t b = pos++ % kBits;
            bool set = (bits[b / 8] >> (b % 8)) & 1;
            if (set && !inRun) {
                inRun = true;
                runs++;
            } else if (!set && inRun) {
                inRun = false;
            }
        }
        h = mix64(h + runs);
    }
    uint64_t c1 = threadCpuNs();
    bits[0] ^= uint8_t(h & 1);
    return double(c1 - c0) / iters;
}

double
probeScanNs(int iters)
{
    std::lock_guard<std::mutex> g(probeMu);
    constexpr size_t kBytes = 4u << 20;
    static std::vector<uint8_t> src = [] {
        // Mostly free, with an allocated prefix and scattered blocks.
        std::vector<uint8_t> b(kBytes, 0);
        uint64_t x = 11;
        for (size_t i = 0; i < kBytes; i++) {
            x = mix64(x + 1);
            b[i] = i < kBytes / 16 ? 0xff : ((x & 63) == 0 ? 0x0f : 0);
        }
        return b;
    }();
    static std::vector<uint8_t> local(kBytes);
    static size_t pos = 0;
    uint64_t runs = 0;
    bool inRun = false;
    uint64_t c0 = threadCpuNs();
    for (int i = 0; i < iters; i++) {
        std::memcpy(&local[pos], &src[pos], 64);
        for (size_t bit = 0; bit < 512; bit++) {
            bool isFree = (local[pos + bit / 8] & (1u << (bit % 8))) == 0;
            if (isFree && !inRun) {
                inRun = true;
                runs++;
            } else if (!isFree && inRun) {
                inRun = false;
            }
        }
        pos = (pos + 64) % kBytes;
    }
    uint64_t c1 = threadCpuNs();
    local[0] ^= uint8_t(runs & 1);
    return double(c1 - c0) / iters;
}

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

Zipf::Zipf(uint64_t n, double theta)
    : n_(n), alpha_(1.0 / (1.0 - theta)), zetan_(0), eta_(0),
      half_(std::pow(0.5, theta))
{
    for (uint64_t i = 1; i <= n; i++)
        zetan_ += 1.0 / std::pow(double(i), theta);
    double zeta2 = 1.0 + half_;
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
}

uint64_t
Zipf::next(Rng& rng)
{
    double u = rng.unit();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0)
        rank = 0;
    else if (uz < 1.0 + half_)
        rank = 1;
    else
        rank = uint64_t(double(n_) *
                        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_)
        rank = n_ - 1;
    // Scramble so the hot keys spread over shards and buckets.
    return mix64(rank) % n_;
}

std::string
keyOf(uint32_t idx)
{
    char buf[kKeyLen + 1];
    std::snprintf(buf, sizeof(buf), "k%015u", idx);
    return {buf, kKeyLen};
}

bool
keyIndex(std::string_view k, uint32_t* idx)
{
    if (k.size() != kKeyLen || k[0] != 'k')
        return false;
    uint64_t v = 0;
    for (size_t i = 1; i < kKeyLen; i++) {
        if (k[i] < '0' || k[i] > '9')
            return false;
        v = v * 10 + uint64_t(k[i] - '0');
    }
    if (v > UINT32_MAX)
        return false;
    *idx = uint32_t(v);
    return true;
}

void
fillValue(char* out, uint64_t seed, uint64_t seq)
{
    static const char kHex[] = "0123456789abcdef";
    uint64_t h = mix64(seed ^ mix64(seq));
    for (size_t i = 0; i < kValLen; i += 16) {
        h = mix64(h + i);
        for (size_t j = 0; j < 16; j++)
            out[i + j] = kHex[(h >> (4 * j)) & 0xF];
    }
}

uint32_t
flagsOf(uint64_t seq)
{
    return uint32_t(mix64(seq) & 0xFFFF);
}

OpGen::OpGen(const Mix& mix, uint64_t seed, uint32_t base, uint32_t count)
    : mix_(mix), rng_(seed), base_(base), count_(count)
{
    if (mix.zipfTheta > 0)
        zipf_ = std::make_unique<Zipf>(count, mix.zipfTheta);
}

Op
OpGen::next()
{
    Op op;
    op.key = base_ + uint32_t(zipf_ ? zipf_->next(rng_)
                                    : rng_.below(count_));
    if (rng_.unit() < mix_.writeShare) {
        op.kind = rng_.unit() < mix_.delShareOfWrites ? OpKind::del
                                                      : OpKind::set;
    } else {
        op.kind = rng_.unit() < mix_.getsShareOfReads ? OpKind::gets
                                                      : OpKind::get;
    }
    return op;
}

Shadow::Shadow(uint64_t seed, uint32_t keys) : seed_(seed), e_(keys) {}

Planned
Shadow::plan(const Op& op, unsigned stream)
{
    Planned p;
    p.kind = op.kind;
    p.key = op.key;
    Entry& e = e_.at(op.key);
    switch (op.kind) {
      case OpKind::set:
        p.seq = (uint64_t(stream % kStreams) << 48) |
                ++nextSeq_[stream % kStreams];
        p.flags = flagsOf(p.seq);
        // KvServer bumps the version of an item it updates in place;
        // a fresh item starts at 1.
        p.version = e.present ? e.version + 1 : 1;
        fillValue(p.val, seed_, p.seq);
        e.seq = p.seq;
        e.version = p.version;
        e.present = true;
        break;
      case OpKind::get:
      case OpKind::gets:
        p.expectFound = e.present;
        p.seq = e.seq;
        p.flags = flagsOf(e.seq);
        p.version = e.version;
        break;
      case OpKind::del:
        p.expectFound = e.present;
        e.present = false;
        break;
    }
    return p;
}

bool
Shadow::matches(const Entry& e, uint64_t seq, uint32_t version,
                const Reply& r) const
{
    if (!r.ok || r.found != e.present)
        return false;
    if (!e.present)
        return true;
    char want[kValLen];
    fillValue(want, seed_, seq);
    return r.len == kValLen && r.flags == flagsOf(seq) &&
           (!r.versionKnown || r.version == version) &&
           std::memcmp(r.val, want, kValLen) == 0;
}

bool
Shadow::check(const Planned& p, const Reply& r) const
{
    if (!r.ok)
        return false;
    switch (p.kind) {
      case OpKind::set:
        return true;
      case OpKind::del:
        return r.found == p.expectFound;
      case OpKind::get:
      case OpKind::gets: {
        Entry e;
        e.present = p.expectFound;
        return matches(e, p.seq, p.version, r);
      }
    }
    return false;
}

Planned
Shadow::planCrashed(uint32_t key)
{
    Entry before = e_.at(key);
    Planned p = planSet(key);
    Entry& e = e_[key];
    e.pending = true;
    e.altSeq = before.seq;
    e.altVersion = before.version;
    e.altPresent = before.present;
    return p;
}

bool
Shadow::checkAndResolve(uint32_t key, const Reply& r)
{
    Entry& e = e_.at(key);
    if (!e.pending)
        return matches(e, e.seq, e.version, r);
    e.pending = false;
    if (matches(e, e.seq, e.version, r))
        return true;  // the interrupted set survived recovery
    Entry old = e;
    old.seq = e.altSeq;
    old.version = e.altVersion;
    old.present = e.altPresent;
    if (!matches(old, old.seq, old.version, r))
        return false;
    e = old;  // rolled back
    return true;
}

uint64_t
Shadow::presentCount() const
{
    uint64_t n = 0;
    for (const Entry& e : e_)
        n += e.present ? 1 : 0;
    return n;
}

std::string
resultJson(const Result& r)
{
    std::string s = "{\"correct\": ";
    s += r.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    char num[64];
    for (size_t i = 0; i < r.metrics.size(); i++) {
        const Metric& m = r.metrics[i];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    return s;
}

}  // namespace kvbench
