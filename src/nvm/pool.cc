#include "nvm/pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "common/error.h"
#include "stats/counters.h"

namespace cnvm::nvm {

namespace {

Pool* gCurrent = nullptr;

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

}  // namespace

Pool*
Pool::current()
{
    return gCurrent;
}

void
Pool::setCurrent(Pool* p)
{
    gCurrent = p;
}

PoolHeader*
Pool::mutableHeader() const
{
    return reinterpret_cast<PoolHeader*>(base_);
}

const PoolHeader&
Pool::header() const
{
    return *mutableHeader();
}

std::unique_ptr<Pool>
Pool::create(const PoolConfig& cfg)
{
    auto pool = std::unique_ptr<Pool>(new Pool());
    void* mem = nullptr;
    if (cfg.path.empty()) {
        mem = ::mmap(nullptr, cfg.size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            fatal("anonymous mmap failed");
    } else {
        int fd = ::open(cfg.path.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                        0644);
        if (fd < 0)
            fatal("cannot create pool file " + cfg.path);
        if (::ftruncate(fd, static_cast<off_t>(cfg.size)) != 0) {
            ::close(fd);
            fatal("cannot size pool file " + cfg.path);
        }
        mem = ::mmap(nullptr, cfg.size, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
        if (mem == MAP_FAILED) {
            ::close(fd);
            fatal("cannot map pool file " + cfg.path);
        }
        pool->fd_ = fd;
    }
    pool->base_ = static_cast<uint8_t*>(mem);
    pool->mappedSize_ = cfg.size;
    pool->cache_ = std::make_unique<CacheSim>(pool->base_);

    uint64_t metaOff = alignUp(sizeof(PoolHeader), kCacheLine);
    uint64_t heapOff = alignUp(
        metaOff + static_cast<uint64_t>(cfg.maxThreads) * cfg.slotBytes,
        4096);
    CNVM_CHECK(heapOff + 4096 < cfg.size,
               "pool too small for its metadata area");

    PoolHeader hdr{};
    hdr.magic = kMagic;
    hdr.version = kVersion;
    hdr.size = cfg.size;
    hdr.rootOff = 0;
    hdr.metaOff = metaOff;
    hdr.slotBytes = cfg.slotBytes;
    hdr.heapOff = heapOff;
    hdr.heapSize = cfg.size - heapOff;
    hdr.maxThreads = cfg.maxThreads;
    hdr.runtimeId = 0;

    // The fresh mapping is already zero; persist the header explicitly.
    pool->write(pool->base_, &hdr, sizeof(hdr));
    pool->persist(pool->base_, sizeof(hdr));
    if (FaultConfig::envEnabled())
        pool->setFaultModel(
            std::make_unique<FaultModel>(FaultConfig::fromEnv()));
    if (gCurrent == nullptr) {
        gCurrent = pool.get();
        pool->wasCurrent_ = true;
    }
    return pool;
}

namespace {

[[noreturn]] void
openFail(PoolOpenError::Reason reason, const std::string& msg)
{
    throw PoolOpenError(reason, msg);
}

}  // namespace

std::unique_ptr<Pool>
Pool::open(const std::string& path)
{
    int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0)
        openFail(PoolOpenError::Reason::io,
                 "cannot open pool file " + path);
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        openFail(PoolOpenError::Reason::io,
                 "cannot stat pool file " + path);
    }
    auto size = static_cast<size_t>(st.st_size);
    if (size < sizeof(PoolHeader)) {
        ::close(fd);
        openFail(PoolOpenError::Reason::truncated,
                 strprintf("pool file %s truncated: %zu bytes, need "
                           "at least the %zu-byte header",
                           path.c_str(), size, sizeof(PoolHeader)));
    }
    void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    if (mem == MAP_FAILED) {
        ::close(fd);
        openFail(PoolOpenError::Reason::io,
                 "cannot map pool file " + path);
    }
    auto pool = std::unique_ptr<Pool>(new Pool());
    pool->fd_ = fd;
    pool->base_ = static_cast<uint8_t*>(mem);
    pool->mappedSize_ = size;
    pool->cache_ = std::make_unique<CacheSim>(pool->base_);
    const PoolHeader& h = pool->header();
    if (h.magic != kMagic)
        openFail(PoolOpenError::Reason::badMagic,
                 "not a Clobber-NVM pool: " + path);
    if (h.version != kVersion)
        openFail(PoolOpenError::Reason::badVersion,
                 strprintf("pool %s has layout version %llu, this "
                           "build reads version %llu",
                           path.c_str(),
                           static_cast<unsigned long long>(h.version),
                           static_cast<unsigned long long>(kVersion)));
    if (h.size != size)
        openFail(PoolOpenError::Reason::sizeMismatch,
                 strprintf("pool %s header records %llu bytes but the "
                           "file holds %zu (truncated or grown since "
                           "creation)",
                           path.c_str(),
                           static_cast<unsigned long long>(h.size),
                           size));
    // Offset sanity: a corrupt header must not send later slot/heap
    // arithmetic outside the mapping. All sums are phrased as
    // subtractions from h.size so a flipped high bit cannot wrap the
    // comparison around.
    uint64_t slotsEnd =
        h.metaOff +
        static_cast<uint64_t>(h.maxThreads) * h.slotBytes;
    if (h.metaOff < sizeof(PoolHeader) || h.metaOff > h.size ||
        h.slotBytes > h.size ||
        static_cast<uint64_t>(h.maxThreads) * h.slotBytes > h.size ||
        slotsEnd > h.heapOff || h.heapOff >= h.size ||
        h.heapSize > h.size - h.heapOff || h.rootOff >= h.size ||
        h.auxOff >= h.size) {
        openFail(PoolOpenError::Reason::corruptHeader,
                 "pool " + path +
                     " header offsets are inconsistent (corrupt "
                     "header)");
    }
    if (FaultConfig::envEnabled())
        pool->setFaultModel(
            std::make_unique<FaultModel>(FaultConfig::fromEnv()));
    if (gCurrent == nullptr) {
        gCurrent = pool.get();
        pool->wasCurrent_ = true;
    }
    return pool;
}

Pool::~Pool()
{
    if (gCurrent == this)
        gCurrent = nullptr;
    if (base_ != nullptr)
        ::munmap(base_, mappedSize_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
Pool::write(void* dst, const void* src, size_t n)
{
    CNVM_CHECK(contains(dst), "write outside pool");
    CacheSim::Domain& d = cache_->domain();
    d.countWrite();
    if (trapCountdown_.load(std::memory_order_relaxed) > 0 &&
        trapCountdown_.fetch_sub(1, std::memory_order_relaxed) == 1)
        throw CrashInjected{};
    cache_->willWrite(d, offsetOf(dst), n);
    if (n == 8)
        std::memcpy(dst, src, 8);  // common pointer/field case
    else
        std::memcpy(dst, src, n);
    if (faults_ != nullptr) [[unlikely]]
        faults_->noteWrite(offsetOf(dst), n);
    auto& tc = stats::local();
    tc.add(stats::Counter::nvmWrites);
    tc.add(stats::Counter::nvmWriteBytes, n);
}

void
Pool::writeAt(uint64_t off, const void* src, size_t n)
{
    write(base_ + off, src, n);
}

void
Pool::write64(void* dst, uint64_t v)
{
    write(dst, &v, sizeof(v));
}

void
Pool::flush(const void* addr, size_t n)
{
    cache_->flush(offsetOf(addr), n);
}

void
Pool::flushLines(uint64_t* lines, size_t n)
{
    cache_->flushLines(lines, n);
}

void
Pool::fence()
{
    cache_->fence();
}

void
Pool::persist(const void* addr, size_t n)
{
    flush(addr, n);
    fence();
}

void
Pool::setRoot(uint64_t off)
{
    auto* h = mutableHeader();
    write(&h->rootOff, &off, sizeof(off));
    persist(&h->rootOff, sizeof(off));
}

void
Pool::setAux(uint64_t off)
{
    auto* h = mutableHeader();
    write(&h->auxOff, &off, sizeof(off));
    persist(&h->auxOff, sizeof(off));
}

void*
Pool::slot(unsigned tid) const
{
    CNVM_CHECK(tid < maxThreads(), "thread slot out of range");
    return base_ + header().metaOff + tid * header().slotBytes;
}

void
Pool::setFaultModel(std::unique_ptr<FaultModel> fm)
{
    if (faults_ != nullptr)
        retiredFaults_ += faults_->injected();
    faults_ = std::move(fm);
    if (faults_ == nullptr)
        return;
    // Coarse region map from the pool layout. The slot area is both
    // "desc" and "log" at this granularity; rt::defineFaultRegions
    // refines the split once a runtime knows the descriptor size.
    const PoolHeader& h = header();
    faults_->clearRegions();
    faults_->addRegion(kFaultHeader, 0, h.metaOff);
    faults_->addRegion(kFaultDesc, h.metaOff, h.heapOff);
    faults_->addRegion(kFaultLog, h.metaOff, h.heapOff);
    faults_->addRegion(kFaultHeap, h.heapOff, h.size);
}

size_t
Pool::simulateCrash(uint64_t seed)
{
    Xorshift rng(seed);
    size_t reverted = cache_->crash(rng);
    if (faults_ != nullptr && faults_->config().injectOnCrash)
        faults_->inject(*this);
    return reverted;
}

size_t
Pool::simulateCrash(uint64_t seed, const CrashParams& params)
{
    Xorshift rng(seed);
    size_t reverted = cache_->crash(rng, params);
    if (faults_ != nullptr && faults_->config().injectOnCrash)
        faults_->inject(*this);
    return reverted;
}

size_t
Pool::simulateCrashAllLost()
{
    size_t reverted = cache_->crashAllLost();
    if (faults_ != nullptr && faults_->config().injectOnCrash)
        faults_->inject(*this);
    return reverted;
}

}  // namespace cnvm::nvm
