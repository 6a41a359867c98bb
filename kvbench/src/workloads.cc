/**
 * @file
 * The four workloads, their timed phases, the restart cycles, the
 * traced layer replays, and the metrics computed from them.
 *
 * Every workload runs the same three phases on one store:
 *  1. set-up, repeated (pool creation, preload, warm-up) so its CPU
 *     time is a median;
 *  2. traffic, closed loop, timed per op (the restart workload's
 *     traffic is the few sets each of its cycles applies);
 *  3. restart cycles alternating full and lazy recovery, each timed
 *     from the restart to the first committed set.
 * A traced run (--trace 1) additionally replays the workload's own ops
 * at every layer's public entry point, nvm → runtimes → txn → apps →
 * server, and times the restart steps one by one.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "alloc/pm_allocator.h"
#include "apps/kv/kv_server.h"
#include "client.h"
#include "harness.h"
#include "nvm/pool.h"
#include "runtimes/factory.h"
#include "runtimes/log_writer.h"
#include "server/kv_service.h"
#include "server/tcp_server.h"
#include "stats/counters.h"
#include "txn/txrun.h"

namespace kvbench {

namespace {

using namespace cnvm;

enum class Kind { write, read, serve, restart };

struct Spec {
    const char* name;
    Kind kind;
    uint32_t keys;
    size_t poolMB;
    Mix mix;
};

// Why each workload exists is recorded in README.md.
const Spec kSpecs[] = {
    {"kv-write", Kind::write, 100000, 256, {1.0, 0.0, 0.0, 0.0}},
    {"kv-read", Kind::read, 100000, 256, {0.05, 0.0, 0.0, 0.99}},
    {"kv-serve", Kind::serve, 20000, 64, {0.25, 0.05, 0.10, 0.0}},
    {"restart", Kind::restart, 100000, 512, {1.0, 0.0, 0.0, 0.0}},
};

/** @name The pinned configuration (every knob set here, none from env) */
/// @{
constexpr txn::RuntimeKind kRuntime = txn::RuntimeKind::clobber;
constexpr rt::ClobberPolicy kPolicy = rt::ClobberPolicy::refined;
constexpr rt::LogWriterKind kLogWriter = rt::LogWriterKind::baseline;
constexpr unsigned kWorkers = 2;
constexpr unsigned kBatchMax = 8;
constexpr unsigned kSlotBase = 1;  ///< slot 0 is the driving thread's
constexpr unsigned kPoolSlots = 8;
constexpr size_t kSlotBytes = 256 << 10;
constexpr size_t kShards = 64;
constexpr size_t kBucketsPerShard = 2048;
constexpr unsigned kConns = 2;
constexpr size_t kWindow = 32;
/// @}

/** @name Phase sizes */
/// @{
constexpr size_t kChunk = 256;         ///< ops planned per CPU bracket
constexpr uint64_t kCountOps = 65536;  ///< exact-count prefix (in-process)
constexpr uint64_t kWarmOps = 20000;
constexpr unsigned kWarmWindows = 200;  ///< per connection
constexpr double kTrafficShare = 0.4;  ///< of --seconds; rest: restarts
/** Per recovery mode: a median needs 10 samples beyond it. */
constexpr unsigned kMinCycles = 20;
constexpr unsigned kCycleSets = 32;
constexpr unsigned kCycleChecks = 64;
constexpr size_t kReplayOps = 8192;
/** Server-layer replay windows: enough for a p99 with 10 beyond. */
constexpr size_t kReplayWindows = 1280;
/** Latency samples one traffic phase may keep (address space only
 *  until used): ~2x the ops of the fastest workload. */
constexpr size_t kMaxLatencies = size_t(1) << 23;
/// @}

const Spec&
findSpec(const std::string& name)
{
    for (const Spec& s : kSpecs)
        if (name == s.name)
            return s;
    throw std::invalid_argument("unknown workload: " + name);
}

uint64_t
userBytesOf(OpKind k)
{
    switch (k) {
      case OpKind::set:
        return kKeyLen + kValLen;
      case OpKind::del:
        return kKeyLen;
      default:
        return 0;
    }
}

bool
isWrite(OpKind k)
{
    return k == OpKind::set || k == OpKind::del;
}

/** @name Benchmark-registered txfuncs (the txn layer's replay) */
/// @{
apps::KvItem*
itemAt(txn::Tx& tx, uint64_t off)
{
    return static_cast<apps::KvItem*>(tx.pool().at(off));
}

/** The in-place update KvServer's set performs, on a known item. */
void
benchSetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto* it = itemAt(tx, a.get<uint64_t>());
    auto key = a.getString();
    auto val = a.getString();
    auto flags = a.get<uint32_t>();
    uint32_t version = tx.ld(it->version) + 1;
    tx.stBytes(it->valBytes(uint32_t(key.size())), val.data(),
               val.size());
    tx.st(it->flags, flags);
    tx.st(it->version, version);
}

/** A read-only lookup of a known item. */
void
benchGetFn(txn::Tx& tx, txn::ArgReader& a)
{
    auto* it = itemAt(tx, a.get<uint64_t>());
    auto* out = reinterpret_cast<Reply*>(a.get<uint64_t>());
    if (tx.recovering())
        return;  // never persisted, but keep the out-pointer contract
    out->found = true;
    out->flags = tx.ld(it->flags);
    out->version = tx.ld(it->version);
    out->len = tx.ld(it->valLen);
    tx.ldBytes(out->val, it->valBytes(kKeyLen), kValLen);
}

const txn::FuncId kBenchSet = txn::registerTxFunc("kvbench_set",
                                                  benchSetFn);
const txn::FuncId kBenchGet = txn::registerTxFunc("kvbench_get",
                                                  benchGetFn);
/// @}

/** @name Span recorder */
/// @{
constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t start = 0, end = 0;
    uint64_t req = 0;   ///< request id (op or window index)
    uint32_t ops = 1;   ///< operations the span covers
};

/**
 * Spans and counter marks of a traced run, kept in memory and written
 * out once at the end. Single-threaded: client threads record into
 * their own vectors and merge() after joining.
 */
class Tracer {
 public:
    uint32_t
    id(const std::string& name)
    {
        for (uint32_t i = 0; i < names_.size(); i++)
            if (names_[i] == name)
                return i;
        names_.push_back(name);
        return uint32_t(names_.size() - 1);
    }

    uint32_t
    add(const Span& s)
    {
        spans_.push_back(s);
        return uint32_t(spans_.size() - 1);
    }

    uint32_t
    add(const std::string& name, uint64_t start, uint64_t end,
        uint32_t parent = kNoParent, uint64_t req = 0, uint32_t ops = 1)
    {
        return add(Span{id(name), parent, start, end, req, ops});
    }

    /** Set the end of a span opened with end 0 (a parent whose
     *  children had to be recorded first). */
    void close(uint32_t idx, uint64_t end) { spans_[idx].end = end; }

    void
    merge(const std::vector<Span>& v)
    {
        spans_.insert(spans_.end(), v.begin(), v.end());
    }

    /** stats::aggregate() at a layer boundary. */
    void
    mark(const std::string& label)
    {
        marks_.emplace_back(label, stats::aggregate());
    }

    /** Durations (ns) of every span named `name`, divided by its ops
     *  when `perOp`. */
    std::vector<double>
    durations(const std::string& name, bool perOp = false)
    {
        uint32_t n = id(name);
        std::vector<double> out;
        for (const Span& s : spans_) {
            if (s.name == n)
                out.push_back(double(s.end - s.start) /
                              (perOp ? double(s.ops) : 1.0));
        }
        return out;
    }

    /**
     * Write spans and counter marks as tab-separated lines. Counters
     * the program never bumped in this run are left out, so an
     * unmeasured counter cannot read as a measured zero.
     */
    void
    write(const std::string& path) const
    {
        std::ofstream f(path);
        if (!f)
            throw std::runtime_error("cannot write trace " + path);
        f << "#span\tid\tname\tparent\treq\tops\tstart_ns\tend_ns\n";
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span& s = spans_[i];
            f << "span\t" << i << '\t' << names_[s.name] << '\t'
              << (s.parent == kNoParent ? -1 : int64_t(s.parent))
              << '\t' << s.req << '\t' << s.ops << '\t' << s.start
              << '\t' << s.end << '\n';
        }
        stats::Snapshot total = stats::aggregate();
        f << "#counters\tlabel\tname=value...\n";
        for (const auto& [label, snap] : marks_) {
            f << "counters\t" << label;
            for (size_t c = 0; c < stats::kNumCounters; c++) {
                if (total.v[c] == 0)
                    continue;
                f << '\t' << stats::counterName(stats::Counter(c)) << '='
                  << snap.v[c];
            }
            f << '\n';
        }
    }

 private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<std::pair<std::string, stats::Snapshot>> marks_;
};
/// @}

/** Ops attempted and failed, summed over every check of the run. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(bool ok)
    {
        attempted++;
        failed += ok ? 0 : 1;
    }
};

/**
 * Bursts of the host-speed probes (probeMemNs, probeAluNs) interleaved
 * with the measured work, so both see the same host. On a shared
 * 4-vCPU Xeon VM, host speed changes by up to a third, in phases from
 * under a second to minutes long, on every CPU and in CPU time too.
 * End-to-end timings are therefore reported at a reference host speed:
 * each chunk of ops, window or lazy restart is scaled by kRefProbeNs
 * over the probe time measured right before and right after it (see
 * README.md). Raw values are printed as diagnostics.
 */
struct Probe {
    double sumNs = 0;   ///< sum of per-burst probe times
    uint64_t bursts = 0;
    double cpuNs = 0;   ///< CPU the bursts themselves took

    /** One burst of each kernel. @return the geometric mean of their
     *  ns per iteration: the two bound different parts of the core. */
    double
    burst(int iters)
    {
        double mem = probeMemNs(iters), alu = probeAluNs(iters);
        cpuNs += (mem + alu) * iters;
        double g = std::sqrt(mem * alu);
        sumNs += g;
        bursts++;
        return g;
    }

    void
    operator+=(const Probe& o)
    {
        sumNs += o.sumNs;
        bursts += o.bursts;
        cpuNs += o.cpuNs;
    }

    double mean() const { return bursts ? sumNs / double(bursts) : 0; }
};

/** Typical probe times on a 4-vCPU x86 VM. They only set the scale,
 *  so that reported values read close to raw ones there. */
constexpr double kRefProbeNs = 250.0;
/** probeScanNs, for full restarts: two allocator bitmap scans. */
constexpr double kRefScanNs = 900.0;
constexpr int kProbeIters = 128;

/** Scale factor to the reference speed, from the probes either side. */
double
toRef(double before, double after, double ref = kRefProbeNs)
{
    return 2 * ref / (before + after);
}

/** One store and everything serving it. Members are declared in
 *  dependency order, so destruction stops the server first. */
struct World {
    const Spec* spec = nullptr;
    uint32_t keyCount = 0;
    std::vector<std::string> keys;
    std::unique_ptr<Shadow> shadow;
    std::unique_ptr<nvm::Pool> pool;
    uint64_t rootOff = 0;
    std::unique_ptr<alloc::PmAllocator> heap;
    std::unique_ptr<txn::Runtime> runtime;
    std::unique_ptr<txn::Engine> eng;
    std::unique_ptr<apps::KvServer> kv;
    std::unique_ptr<server::KvService> svc;
    std::unique_ptr<server::TcpServer> tcp;
    Tally tally;
    Probe setupProbe;  ///< bursts during preload and warm-up
};

apps::KvServer::Config
kvConfig()
{
    apps::KvServer::Config c;
    c.shards = kShards;
    c.bucketsPerShard = kBucketsPerShard;
    c.lockMode = apps::KvServer::LockMode::rw;
    return c;
}

void
makeRuntime(World& w)
{
    w.runtime = rt::makeRuntime(kRuntime, *w.pool, *w.heap, kPolicy);
    if (!rt::selectLogWriter(*w.runtime, kLogWriter))
        throw std::logic_error("runtime has no log writer");
    w.eng = std::make_unique<txn::Engine>(*w.runtime);
}

void
closeStore(World& w)
{
    w.kv.reset();
    w.eng.reset();
    w.runtime.reset();
    w.heap.reset();
}

void
startServer(World& w)
{
    server::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.batchMax = kBatchMax;
    sc.slotBase = kSlotBase;
    w.svc = std::make_unique<server::KvService>(*w.kv, sc);
    w.svc->start();
    w.tcp = std::make_unique<server::TcpServer>(*w.svc, *w.kv,
                                                server::TcpConfig{});
    w.tcp->start();
}

void
stopServer(World& w)
{
    if (w.tcp)
        w.tcp->stop();
    if (w.svc)
        w.svc->stop();
    w.tcp.reset();
    w.svc.reset();
}

/** Execute `p` through KvServer's public calls, the apps layer. */
void
execApps(World& w, const Planned& p, Reply& r, apps::KvReadResult& rr)
{
    r.ok = true;
    r.versionKnown = true;
    const std::string& key = w.keys[p.key];
    try {
        switch (p.kind) {
          case OpKind::set:
            w.kv->set(key, {p.val, kValLen}, p.flags);
            break;
          case OpKind::del:
            r.found = w.kv->del(key);
            break;
          case OpKind::get:
          case OpKind::gets:
            r.found = w.kv->get(key, &rr);
            if (r.found) {
                r.flags = rr.flags;
                r.version = rr.version;
                r.len = rr.len;
                std::memcpy(r.val, rr.value, std::min<size_t>(rr.len,
                                                              kValLen));
            }
            break;
        }
    } catch (const std::exception&) {
        r.ok = false;
    }
}

/** Closed-loop traffic tallies of one phase. */
struct Traffic {
    uint64_t ops = 0, writes = 0, userBytes = 0;
    uint64_t cpuNs = 0;        ///< program CPU (client threads excluded)
    double refCpuNs = 0;       ///< the same at the reference speed
    uint64_t wallNs = 0;
    uint64_t clientCpuNs = 0;  ///< kv-serve's client threads
    std::vector<double> latNs; ///< per op (kv-serve: per window)
    std::vector<double> refLatNs;  ///< the same at the reference speed
    /** Counter deltas over the first countLimit ops only, so that a
     *  fixed seed gives exactly the same counts on every run. */
    uint64_t countLimit = UINT64_MAX;
    uint64_t cOps = 0, cWrites = 0, cUserBytes = 0;
    stats::Snapshot counted;
    uint64_t batches = 0, batchedOps = 0;
    Probe probe;

    double
    cpuUsPerOp() const
    {
        return ops ? double(cpuNs) / double(ops) / 1e3 : 0;
    }

    double
    refCpuUsPerOp() const
    {
        return ops ? refCpuNs / double(ops) / 1e3 : 0;
    }
};

/**
 * In-process closed loop on the driving thread: plan a chunk from the
 * generator (the shadow computes every expected reply), run it with a
 * wall-clock span per op and the thread's CPU clock around the whole
 * chunk, then check it. Runs until `untilNs` once `minOps` are done,
 * and never past `maxOps`. With a tracer, every op gets a span; with
 * `traced` as well, only every other chunk does and is tallied there,
 * so the two interleaved halves give the tracing overhead.
 */
void
runLocal(World& w, OpGen& gen, uint64_t untilNs, uint64_t minOps,
         uint64_t maxOps, Traffic& plain, Tracer* tr = nullptr,
         Traffic* traced = nullptr)
{
    std::vector<Planned> plan(kChunk);
    std::vector<Reply> replies(kChunk);
    auto rr = std::make_unique<apps::KvReadResult>();
    uint32_t spanName = tr ? tr->id("apps.op") : 0;
    uint64_t done = 0;
    uint64_t start = wallNs();
    double before = plain.probe.burst(kProbeIters);
    for (uint64_t chunk = 0;
         done < maxOps && (done < minOps || wallNs() < untilNs); chunk++) {
        bool spans = tr && (!traced || chunk % 2 == 1);
        Traffic& t = traced && chunk % 2 == 1 ? *traced : plain;
        size_t n = size_t(std::min<uint64_t>(kChunk, maxOps - done));
        uint64_t writes = 0, bytes = 0;
        for (size_t i = 0; i < n; i++) {
            plan[i] = w.shadow->plan(gen.next());
            writes += isWrite(plan[i].kind) ? 1 : 0;
            bytes += userBytesOf(plan[i].kind);
        }
        bool counting = t.cOps < t.countLimit;
        stats::Snapshot s0;
        if (counting)
            s0 = stats::aggregate();
        uint64_t c0 = threadCpuNs();
        for (size_t i = 0; i < n; i++) {
            uint64_t a = wallNs();
            execApps(w, plan[i], replies[i], *rr);
            uint64_t b = wallNs();
            t.latNs.push_back(double(b - a));
            if (spans)
                tr->add(Span{spanName, kNoParent, a, b, done + i, 1});
        }
        uint64_t cpu = threadCpuNs() - c0;
        double after = t.probe.burst(kProbeIters);
        double f = toRef(before, after);
        before = after;
        t.cpuNs += cpu;
        t.refCpuNs += double(cpu) * f;
        for (size_t i = t.latNs.size() - n; i < t.latNs.size(); i++)
            t.refLatNs.push_back(t.latNs[i] * f);
        if (counting) {
            t.counted += stats::aggregate() - s0;
            t.cOps += n;
            t.cWrites += writes;
            t.cUserBytes += bytes;
        }
        for (size_t i = 0; i < n; i++)
            w.tally.add(w.shadow->check(plan[i], replies[i]));
        t.ops += n;
        t.writes += writes;
        t.userBytes += bytes;
        done += n;
    }
    plain.wallNs += wallNs() - start;
}

/** Start gate for client threads: all connect, then all start. */
struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    unsigned ready = 0;
    bool open = false;
};

/**
 * kv-serve's traffic: kConns client threads, each with its own
 * connection, key range, op stream (`gens`, one per connection, made
 * by connectionGens) and shadow stream, pipelining
 * windows of kWindow requests. Program CPU is the process CPU over
 * the phase minus the client threads' own CPU.
 */
void
runTcp(World& w, std::vector<OpGen>& gens, uint64_t durNs,
       uint64_t maxWindows, Traffic& t, Tracer* tr, Inject inject)
{
    struct Conn {
        uint64_t ops = 0, writes = 0, bytes = 0, cpuNs = 0;
        Tally tally;
        Probe probe;
        std::vector<double> lat, refLat;
        std::vector<Span> spans;
        std::string error;
    };
    std::vector<Conn> conns(kConns);
    Gate gate;
    uint64_t untilNs = 0;
    uint32_t spanName = tr ? tr->id("server.tcp_window") : 0;

    auto client = [&](unsigned c) {
        Conn& me = conns[c];
        try {
            McClient mc(w.tcp->port());
            OpGen& gen = gens[c];
            std::vector<Planned> plan(kWindow);
            std::vector<Reply> replies(kWindow);
            bool corrupted = false;
            {
                std::unique_lock<std::mutex> g(gate.mu);
                gate.ready++;
                gate.cv.notify_all();
                gate.cv.wait(g, [&] { return gate.open; });
            }
            uint64_t c0 = threadCpuNs();
            // In the client thread, between windows: probe CPU is
            // client CPU, which the program's CPU excludes.
            double before = me.probe.burst(kProbeIters / 2);
            for (uint64_t win = 0; win < maxWindows && wallNs() < untilNs;
                 win++) {
                for (size_t i = 0; i < kWindow; i++) {
                    plan[i] = w.shadow->plan(gen.next(), c + 1);
                    me.writes += isWrite(plan[i].kind) ? 1 : 0;
                    me.bytes += userBytesOf(plan[i].kind);
                }
                uint64_t a = wallNs();
                bool ok = mc.roundTrip(plan.data(), kWindow, w.keys,
                                       replies.data());
                uint64_t b = wallNs();
                me.lat.push_back(double(b - a));
                if (tr)
                    me.spans.push_back(
                        Span{spanName, kNoParent, a, b, win, kWindow});
                if (!ok) {
                    for (size_t i = 0; i < kWindow; i++)
                        me.tally.add(false);
                    me.error = "connection failed mid-window";
                    break;
                }
                if (inject == Inject::clientBurn) {
                    // 20 us of client CPU per op: must not show up in
                    // the program's CPU per op.
                    uint64_t end = threadCpuNs() + 20000 * kWindow;
                    while (threadCpuNs() < end) {
                    }
                }
                for (size_t i = 0; i < kWindow; i++) {
                    if (inject == Inject::reply && !corrupted &&
                        replies[i].found) {
                        replies[i].val[0] ^= 1;
                        corrupted = true;
                    }
                    me.tally.add(w.shadow->check(plan[i], replies[i]));
                }
                me.ops += kWindow;
                double after = me.probe.burst(kProbeIters / 2);
                me.refLat.push_back(double(b - a) * toRef(before, after));
                before = after;
            }
            me.cpuNs = threadCpuNs() - c0;
        } catch (const std::exception& e) {
            me.error = e.what();
            me.tally.add(false);
            std::lock_guard<std::mutex> g(gate.mu);
            gate.ready++;
            gate.cv.notify_all();
        }
    };

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConns; c++)
        threads.emplace_back(client, c);
    {
        std::unique_lock<std::mutex> g(gate.mu);
        gate.cv.wait(g, [&] { return gate.ready >= kConns; });
    }
    // Workers are idle here and after the joins below. totalStats
    // takes each worker's mutex, which the worker releases after its
    // last counter bump, so it orders those bumps before aggregate().
    auto svc0 = w.svc->totalStats();
    stats::Snapshot s0 = stats::aggregate();
    uint64_t p0 = processCpuNs();
    uint64_t w0 = wallNs();
    {
        std::lock_guard<std::mutex> g(gate.mu);
        untilNs = w0 + durNs;
        gate.open = true;
    }
    gate.cv.notify_all();
    for (auto& th : threads)
        th.join();
    uint64_t p1 = processCpuNs();
    t.wallNs += wallNs() - w0;
    auto svc1 = w.svc->totalStats();
    stats::Snapshot delta = stats::aggregate() - s0;

    uint64_t clientCpu = 0;
    Probe phase;
    for (Conn& c : conns) {
        if (!c.error.empty())
            std::fprintf(stderr, "kvbench: client: %s\n", c.error.c_str());
        t.ops += c.ops;
        t.writes += c.writes;
        t.userBytes += c.bytes;
        t.cOps += c.ops;
        t.cWrites += c.writes;
        t.cUserBytes += c.bytes;
        clientCpu += c.cpuNs;
        t.latNs.insert(t.latNs.end(), c.lat.begin(), c.lat.end());
        t.refLatNs.insert(t.refLatNs.end(), c.refLat.begin(),
                          c.refLat.end());
        w.tally.attempted += c.tally.attempted;
        w.tally.failed += c.tally.failed;
        phase += c.probe;
        if (tr)
            tr->merge(c.spans);
    }
    t.counted += delta;
    uint64_t cpu = (p1 - p0) > clientCpu ? (p1 - p0) - clientCpu : 0;
    t.cpuNs += cpu;
    // Server CPU is read once for the whole phase: scale it by the
    // phase's mean probe time.
    t.probe += phase;
    if (phase.bursts)
        t.refCpuNs += double(cpu) * kRefProbeNs / phase.mean();
    t.clientCpuNs += clientCpu - uint64_t(phase.cpuNs);  // net of probes
    t.batches += svc1.batches - svc0.batches;
    t.batchedOps += svc1.batchedOps - svc0.batchedOps;
}

/** One generator per connection, each over its own key range, so
 *  the shadow stays exact with concurrent clients. */
std::vector<OpGen>
connectionGens(const World& w, uint64_t seed)
{
    std::vector<OpGen> gens;
    uint32_t part = w.keyCount / kConns;
    for (unsigned c = 0; c < kConns; c++)
        gens.emplace_back(w.spec->mix, mix64(seed + c), c * part, part);
    return gens;
}

/** Apply a planned set whose key must be present, checking it. */
void
applySet(World& w, const Planned& p)
{
    Reply r;
    auto rr = std::make_unique<apps::KvReadResult>();
    execApps(w, p, r, *rr);
    w.tally.add(w.shadow->check(p, r));
}

/** Check `key` against the shadow through the apps layer. */
void
checkKey(World& w, uint32_t key)
{
    Planned p;
    p.kind = OpKind::get;
    p.key = key;
    Reply r;
    auto rr = std::make_unique<apps::KvReadResult>();
    execApps(w, p, r, *rr);
    w.tally.add(w.shadow->checkAndResolve(key, r));
}

/** Give every deleted key a value again, so raw-layer replays and
 *  crash points always find an item. */
void
refillDeleted(World& w)
{
    for (uint32_t k = 0; k < w.keyCount; k++)
        if (!w.shadow->present(k))
            applySet(w, w.shadow->planSet(k));
}

/** Create the pool and store, preload every key, and warm up. */
std::unique_ptr<World>
buildWorld(const Spec& spec, uint32_t keys, size_t poolMB, uint64_t seed)
{
    auto w = std::make_unique<World>();
    w->spec = &spec;
    w->keyCount = keys;
    w->keys.reserve(keys);
    for (uint32_t k = 0; k < keys; k++)
        w->keys.push_back(keyOf(k));
    w->shadow = std::make_unique<Shadow>(seed, keys);

    nvm::PoolConfig pc;
    pc.size = poolMB << 20;
    pc.maxThreads = kPoolSlots;
    pc.slotBytes = kSlotBytes;
    w->pool = nvm::Pool::create(pc);
    nvm::Pool::setCurrent(w->pool.get());
    w->heap = std::make_unique<alloc::PmAllocator>(*w->pool, false);
    makeRuntime(*w);
    w->kv = std::make_unique<apps::KvServer>(*w->eng, 0, kvConfig());
    w->rootOff = w->kv->rootOff();
    w->pool->setRoot(w->rootOff);

    for (uint32_t k = 0; k < keys; k++) {
        applySet(*w, w->shadow->planSet(k));
        if (k % kChunk == 0)
            w->setupProbe.burst(kProbeIters);
    }

    if (spec.kind == Kind::serve) {
        startServer(*w);
        Traffic warm;
        auto gens = connectionGens(*w, mix64(seed ^ 0x3a));
        runTcp(*w, gens, UINT64_MAX / 2, kWarmWindows, warm, nullptr,
               Inject::none);
        w->setupProbe += warm.probe;
    } else {
        OpGen warmGen(spec.mix, mix64(seed ^ 0x3a), 0, keys);
        Traffic warm;
        runLocal(*w, warmGen, 0, kWarmOps, kWarmOps, warm);
        w->setupProbe += warm.probe;
    }
    return w;
}

/** Medians and per-step samples of the restart cycles. */
struct Restarts {
    double scanSum = 0;  ///< probeScanNs bursts around full restarts
    uint64_t scans = 0;
    Probe probe;         ///< bursts around lazy restarts
    std::vector<double> fullMs, lazyMs;  ///< at the reference speed
    std::vector<double> rawFullMs, rawLazyMs;
    std::vector<double> ctorMs, recoverFullMs, rebuildMs;
    std::vector<double> triageMs, firstTxMs, pending, healMs;
};

/** Raw offset of every present key's item, by walking the table. */
std::vector<uint64_t>
itemOffsets(World& w)
{
    std::vector<uint64_t> off(w.keyCount, 0);
    auto* root = static_cast<apps::PKvStore*>(w.pool->at(w.rootOff));
    uint64_t buckets = root->nShards * root->bucketsPerShard;
    for (uint64_t b = 0; b < buckets; b++) {
        for (auto it = root->buckets()[b]; !it.isNull(); it = it->next) {
            uint32_t idx = 0;
            if (keyIndex({it->keyBytes(), it->keyLen}, &idx) &&
                idx < w.keyCount)
                off[idx] = it.raw();
        }
    }
    return off;
}

/**
 * Restart cycles, alternating full and lazy recovery. Each cycle
 * applies kCycleSets sets (timed into `sets`, or `tracedSets` when
 * the cycle records spans), crashes one more set
 * mid-transaction at a seeded write, restarts the way cnvm_kvserver
 * does (new allocator, new runtime, Engine::recover, no background
 * healer), and commits one set; that span is the restart time. Off
 * the clock it finishes a lazy recovery and checks a seeded sample of
 * keys, the crashed one included.
 */
void
runRestarts(World& w, uint64_t seed, uint64_t untilNs, Traffic& sets,
            Traffic& tracedSets, Restarts& out, Tracer* tr, Inject inject)
{
    Rng rng(mix64(seed ^ 0xc7));
    OpGen gen(w.spec->mix, mix64(seed ^ 0x5c), 0, w.keyCount);
    for (unsigned cycle = 0;
         cycle < 2 * kMinCycles || wallNs() < untilNs; cycle++) {
        bool lazy = cycle % 2 == 1;
        // A traced run records spans on every other pair of cycles, so
        // the two halves give the tracing overhead.
        bool spans = tr && (cycle / 2) % 2 == 1;
        runLocal(w, gen, 0, kCycleSets, kCycleSets,
                 spans ? tracedSets : sets, spans ? tr : nullptr);

        // Size the crash window by the writes one set of this key
        // performs, then crash the next set of it at a seeded write.
        uint32_t key = uint32_t(rng.below(w.keyCount));
        uint64_t w0 = w.pool->writeCount();
        applySet(w, w.shadow->planSet(key));
        uint64_t span = std::max<uint64_t>(1, w.pool->writeCount() - w0);
        Planned crash = w.shadow->planCrashed(key);
        w.pool->armWriteTrap(1 + rng.below(span));
        try {
            w.kv->set(w.keys[key], {crash.val, kValLen}, crash.flags);
        } catch (const nvm::CrashInjected&) {
        }
        w.pool->armWriteTrap(0);
        w.pool->simulateCrash(rng.next());
        closeStore(w);

        uint32_t firstKey = uint32_t(rng.below(w.keyCount));
        if (firstKey == key)
            firstKey = (firstKey + 1) % w.keyCount;
        Planned first = w.shadow->planSet(firstKey);

        // A full restart is two bitmap scans: it is scaled by the probe
        // of that shape. A lazy one is small-object work, scaled by the
        // traffic probe. Each is read either side of the restart.
        double before = lazy ? out.probe.burst(kProbeIters)
                             : probeScanNs(kProbeIters);
        uint64_t t0 = wallNs();
        w.heap = std::make_unique<alloc::PmAllocator>(*w.pool, lazy);
        uint64_t t1 = wallNs();
        makeRuntime(w);
        uint64_t t2 = wallNs();
        w.eng->recover(lazy ? txn::RecoveryMode::lazy
                            : txn::RecoveryMode::full,
                       /* backgroundHealer */ false);
        uint64_t t3 = wallNs();
        w.kv = std::make_unique<apps::KvServer>(*w.eng, w.rootOff,
                                                kvConfig());
        uint64_t t4 = wallNs();
        bool firstOk = true;
        try {
            w.kv->set(w.keys[firstKey], {first.val, kValLen},
                      first.flags);
        } catch (const std::exception&) {
            firstOk = false;
        }
        uint64_t t5 = wallNs();
        double after = lazy ? out.probe.burst(kProbeIters)
                            : probeScanNs(kProbeIters);
        w.tally.add(firstOk);

        auto ms = [](uint64_t a, uint64_t b) {
            return double(b - a) / 1e6;
        };
        if (tr) {
            uint32_t parent = tr->add(lazy ? "restart.lazy"
                                           : "restart.full",
                                      t0, t5, kNoParent, cycle);
            tr->add("alloc.ctor", t0, t1, parent, cycle);
            tr->add("runtimes.make", t1, t2, parent, cycle);
            tr->add(lazy ? "txn.triage" : "txn.recover_full", t2, t3,
                    parent, cycle);
            tr->add("apps.open", t3, t4, parent, cycle);
            tr->add("apps.first_set", t4, t5, parent, cycle);
        }
        if (lazy) {
            out.rawLazyMs.push_back(ms(t0, t5));
            out.lazyMs.push_back(ms(t0, t5) * toRef(before, after));
            out.triageMs.push_back(ms(t2, t3));
            out.firstTxMs.push_back(ms(t4, t5));
            out.pending.push_back(double(w.eng->recoveryPending()));
            uint64_t h0 = wallNs();
            w.eng->finishRecovery();
            uint64_t h1 = wallNs();
            out.healMs.push_back(ms(h0, h1));
            if (tr)
                tr->add("txn.heal", h0, h1, kNoParent, cycle);
        } else {
            out.scanSum += before + after;
            out.scans += 2;
            out.rawFullMs.push_back(ms(t0, t5));
            out.fullMs.push_back(ms(t0, t5) *
                                 toRef(before, after, kRefScanNs));
            out.ctorMs.push_back(ms(t0, t1));
            out.recoverFullMs.push_back(ms(t2, t3));
            if (tr) {
                // The allocator's rebuild alone, as recover() runs it.
                uint64_t r0 = wallNs();
                w.heap->rebuild();
                uint64_t r1 = wallNs();
                out.rebuildMs.push_back(ms(r0, r1));
                tr->add("alloc.rebuild", r0, r1, kNoParent, cycle);
            }
        }

        if (inject == Inject::recovered && cycle == 0) {
            // Damage one recovered value behind the store's back.
            uint64_t off = itemOffsets(w)[firstKey];
            auto* it = static_cast<apps::KvItem*>(w.pool->at(off));
            char bad = char(it->valBytes(kKeyLen)[0] ^ 1);
            w.pool->write(it->valBytes(kKeyLen), &bad, 1);
        }
        checkKey(w, key);
        checkKey(w, firstKey);
        for (unsigned i = 0; i < kCycleChecks; i++)
            checkKey(w, uint32_t(rng.below(w.keyCount)));
    }
}

/**
 * Replay the workload's own keys and values at each layer's public
 * entry point, one span per call: Pool write+flush+fence, Runtime
 * begin/store/commit, txn::run of benchmark txfuncs, KvServer, then
 * the same windows through KvService and over TCP. Every replayed op
 * goes through the shadow, so each layer's answers are checked too.
 *
 * Raw layers (nvm, runtimes, txn) can only update an existing item in
 * place, so they replay every op as a set of its key and as a get of
 * it; the window passes replay the workload's real mix. The layers
 * take turns on slices of the ops, so host drift during the replay
 * lands on every layer alike instead of on whichever ran last. A
 * counter mark follows each layer's turn.
 */
void
runReplays(World& w, uint64_t seed, Tracer& tr, Traffic& tcp)
{
    constexpr size_t kRounds = 8;
    std::vector<Op> ops;
    OpGen gen(w.spec->mix, mix64(seed ^ 0x9e), 0, w.keyCount);
    for (size_t i = 0; i < kReplayWindows * kWindow; i++)
        ops.push_back(gen.next());
    std::vector<uint64_t> off;
    nvm::Pool& pool = *w.pool;
    txn::Runtime& rtm = *w.runtime;
    unsigned tid = w.eng->tid();
    auto rr = std::make_unique<apps::KvReadResult>();
    auto item = [&](uint32_t key) {
        return static_cast<apps::KvItem*>(pool.at(off[key]));
    };
    std::vector<Planned> plan(kWindow);
    std::vector<Reply> replies(kWindow);

    auto nvmSet = [&](size_t i, uint32_t pass) {
        Planned p = w.shadow->planSet(ops[i].key);
        apps::KvItem* it = item(p.key);
        uint32_t version = it->version + 1;
        uint64_t a = wallNs();
        pool.write(it->valBytes(kKeyLen), p.val, kValLen);
        pool.write(&it->flags, &p.flags, sizeof(p.flags));
        pool.write(&it->version, &version, sizeof(version));
        // flags, version, key and value are contiguous in the item.
        pool.flush(&it->flags, size_t(it->valBytes(kKeyLen) + kValLen -
                                      reinterpret_cast<char*>(&it->flags)));
        pool.fence();
        tr.add("nvm.persist", a, wallNs(), pass, i);
    };
    auto runtimeSet = [&](size_t i, uint32_t pass) {
        Planned p = w.shadow->planSet(ops[i].key);
        apps::KvItem* it = item(p.key);
        txn::ArgWriter args;  // the blob txn::run would build
        args.put(off[p.key]);
        args.putBytes(w.keys[p.key].data(), kKeyLen);
        args.putBytes(p.val, kValLen);
        args.put(p.flags);
        uint64_t a = wallNs();
        rtm.txBegin(tid, kBenchSet, args.bytes());
        uint32_t version = 0;
        rtm.load(tid, &version, &it->version, sizeof(version));
        version++;
        rtm.store(tid, it->valBytes(kKeyLen), p.val, kValLen);
        rtm.store(tid, &it->flags, &p.flags, sizeof(p.flags));
        rtm.store(tid, &it->version, &version, sizeof(version));
        rtm.txCommit(tid);
        tr.add("runtimes.tx", a, wallNs(), pass, i);
    };
    auto txnSet = [&](size_t i, uint32_t pass) {
        Planned p = w.shadow->planSet(ops[i].key);
        std::string_view key = w.keys[p.key];
        uint64_t a = wallNs();
        txn::run(*w.eng, kBenchSet, off[p.key], key,
                 std::string_view(p.val, kValLen), p.flags);
        tr.add("txn.run", a, wallNs(), pass, i);
    };
    auto txnGet = [&](size_t i, uint32_t pass) {
        Planned p = w.shadow->plan({OpKind::get, ops[i].key});
        Reply r;
        uint64_t a = wallNs();
        txn::run(*w.eng, kBenchGet, off[p.key],
                 reinterpret_cast<uint64_t>(&r));
        tr.add("txn.ro_run", a, wallNs(), pass, i);
        w.tally.add(w.shadow->check(p, r));
    };
    auto appsOp = [&](size_t i, uint32_t pass, OpKind kind,
                      const char* name) {
        Planned p = w.shadow->plan({kind, ops[i].key});
        Reply r;
        uint64_t a = wallNs();
        execApps(w, p, r, *rr);
        tr.add(name, a, wallNs(), pass, i);
        w.tally.add(w.shadow->check(p, r));
    };

    // A window executed directly the way the service executes it:
    // split by owning worker, each worker's share in order, runs of up
    // to kBatchMax mutations group-committed through applyBatch, reads
    // through get. This is the service layer's floor.
    auto appsWindow = [&](size_t win, uint32_t pass) {
        std::vector<std::vector<size_t>> queues(kWorkers);
        for (size_t i = 0; i < kWindow; i++) {
            plan[i] = w.shadow->plan(ops[win * kWindow + i]);
            queues[w.kv->shardOf(w.keys[plan[i].key]) % kWorkers]
                .push_back(i);
        }
        uint32_t parent =
            tr.add("apps.window", wallNs(), 0, pass, win, kWindow);
        for (const auto& q : queues) {
            for (size_t j = 0; j < q.size();) {
                if (!isWrite(plan[q[j]].kind)) {
                    execApps(w, plan[q[j]], replies[q[j]], *rr);
                    j++;
                    continue;
                }
                std::vector<apps::MutOp> batch;
                std::vector<size_t> idx;
                for (; j < q.size() && isWrite(plan[q[j]].kind) &&
                       batch.size() < kBatchMax;
                     j++) {
                    const Planned& p = plan[q[j]];
                    apps::MutOp m;
                    m.kind = p.kind == OpKind::set ? apps::MutKind::set
                                                   : apps::MutKind::del;
                    m.key = w.keys[p.key];
                    m.val = std::string_view(p.val, kValLen);
                    m.flags = p.flags;
                    batch.push_back(m);
                    idx.push_back(q[j]);
                }
                apps::MutResult results[kBatchMax];
                uint64_t b0 = wallNs();
                bool ok = true;
                try {
                    w.kv->applyBatch(batch, results);
                } catch (const std::exception&) {
                    ok = false;
                }
                tr.add("apps.batch", b0, wallNs(), parent, win,
                       uint32_t(batch.size()));
                for (size_t k = 0; k < batch.size(); k++) {
                    Reply& r = replies[idx[k]];
                    r = Reply{};
                    r.ok = ok && results[k] != apps::MutResult::error;
                    r.found = results[k] == apps::MutResult::deleted;
                }
            }
        }
        tr.close(parent, wallNs());
        for (size_t i = 0; i < kWindow; i++)
            w.tally.add(w.shadow->check(plan[i], replies[i]));
    };

    // The same window through KvService: submitMany per worker, then
    // Completion::wait, as a TCP connection thread submits it.
    auto serviceWindow = [&](size_t win, uint32_t pass) {
        std::deque<server::Request> reqs(kWindow);
        std::deque<apps::KvReadResult> reads(kWindow);
        server::Completion done;
        std::vector<std::vector<server::Request*>> byWorker(
            w.svc->workers());
        for (size_t i = 0; i < kWindow; i++) {
            plan[i] = w.shadow->plan(ops[win * kWindow + i]);
            const Planned& p = plan[i];
            server::Request& q = reqs[i];
            q.key = w.keys[p.key];
            q.done = &done;
            switch (p.kind) {
              case OpKind::set:
                q.op = server::Request::Op::set;
                q.value.assign(p.val, kValLen);
                q.flags = p.flags;
                break;
              case OpKind::del:
                q.op = server::Request::Op::del;
                break;
              case OpKind::get:
              case OpKind::gets:
                q.op = server::Request::Op::get;
                q.read = &reads[i];
                break;
            }
            byWorker[w.svc->workerOf(q.key)].push_back(&q);
        }
        uint64_t a = wallNs();
        done.expect(unsigned(kWindow));
        for (unsigned k = 0; k < byWorker.size(); k++)
            if (!byWorker[k].empty())
                w.svc->submitMany(k, byWorker[k].data(),
                                  byWorker[k].size());
        done.wait();
        tr.add("server.service", a, wallNs(), pass, win, kWindow);
        for (size_t i = 0; i < kWindow; i++) {
            const server::Request& q = reqs[i];
            Reply r;
            if (q.read != nullptr) {
                r.found = q.read->found;
                r.flags = q.read->flags;
                r.version = q.read->version;
                r.len = q.read->len;
                std::memcpy(r.val, q.read->value,
                            std::min<size_t>(q.read->len, kValLen));
            } else {
                r.ok = q.result != apps::MutResult::error;
                r.found = q.result == apps::MutResult::deleted;
            }
            w.tally.add(w.shadow->check(plan[i], r));
        }
    };

    bool ownServer = !w.svc;
    if (ownServer)
        startServer(w);
    McClient mc(w.tcp->port());
    auto tcpWindow = [&](size_t win, uint32_t pass) {
        for (size_t i = 0; i < kWindow; i++)
            plan[i] = w.shadow->plan(ops[win * kWindow + i]);
        uint64_t c0 = threadCpuNs();
        uint64_t a = wallNs();
        bool ok = mc.roundTrip(plan.data(), kWindow, w.keys,
                               replies.data());
        uint64_t b = wallNs();
        tcp.clientCpuNs += threadCpuNs() - c0;
        tcp.wallNs += b - a;
        tcp.latNs.push_back(double(b - a));
        tcp.ops += kWindow;
        tr.add("server.tcp", a, b, pass, win, kWindow);
        for (size_t i = 0; i < kWindow; i++)
            w.tally.add(ok && w.shadow->check(plan[i], replies[i]));
        if (!ok)
            throw std::runtime_error("TCP replay: connection failed");
    };

    auto turn = [&](const char* label, size_t lo, size_t hi,
                    const std::function<void(size_t, uint32_t)>& f) {
        uint32_t pass = tr.add(std::string("pass.") + label, wallNs(), 0);
        for (size_t i = lo; i < hi; i++)
            f(i, pass);
        tr.close(pass, wallNs());
        w.svc->totalStats();  // orders the workers' counters (see runTcp)
        tr.mark(label);
    };
    auto svc0 = w.svc->totalStats();
    tr.mark("replay.begin");
    for (size_t r = 0; r < kRounds; r++) {
        // The window turns delete and re-create items: give every key
        // an item again and re-read where each one lives.
        refillDeleted(w);
        off = itemOffsets(w);
        size_t lo = r * kReplayOps / kRounds;
        size_t hi = (r + 1) * kReplayOps / kRounds;
        turn("nvm", lo, hi, nvmSet);
        turn("runtimes", lo, hi, runtimeSet);
        turn("txn", lo, hi, txnSet);
        turn("txn_ro", lo, hi, txnGet);
        turn("apps", lo, hi, [&](size_t i, uint32_t pass) {
            appsOp(i, pass, OpKind::set, "apps.set");
        });
        turn("apps_ro", lo, hi, [&](size_t i, uint32_t pass) {
            appsOp(i, pass, OpKind::get, "apps.get");
        });
        size_t wlo = r * kReplayWindows / kRounds;
        size_t whi = (r + 1) * kReplayWindows / kRounds;
        turn("apps_window", wlo, whi, appsWindow);
        turn("service", wlo, whi, serviceWindow);
        turn("tcp", wlo, whi, tcpWindow);
    }
    // Batching over the service and TCP turns, which share the workers.
    auto svc1 = w.svc->totalStats();
    tcp.batches = svc1.batches - svc0.batches;
    tcp.batchedOps = svc1.batchedOps - svc0.batchedOps;

    if (ownServer)
        stopServer(w);
}

double
medianOf(const std::vector<double>& v)
{
    return percentile(v, 0.5);
}

}  // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Spec& s : kSpecs)
            n.push_back(s.name);
        return n;
    }();
    return names;
}

Result
runWorkload(const RunConfig& cfg)
{
    const Spec& spec = findSpec(cfg.workload);
    uint32_t keys = cfg.keys ? cfg.keys : spec.keys;
    size_t poolMB = cfg.poolMB ? cfg.poolMB : spec.poolMB;
    if (keys < 2 * kConns || cfg.seconds <= 0 || cfg.setupReps == 0)
        throw std::invalid_argument("bad run configuration");
    uint64_t runNs = uint64_t(cfg.seconds * 1e9);

    std::vector<double> setupS, setupRawS;
    std::unique_ptr<World> w;
    unsigned reps = cfg.trace ? 1 : cfg.setupReps;
    for (unsigned r = 0; r < reps; r++) {
        w.reset();
        uint64_t c0 = processCpuNs();
        w = buildWorld(spec, keys, poolMB, cfg.seed);
        double raw =
            (double(processCpuNs() - c0) - w->setupProbe.cpuNs) / 1e9;
        setupRawS.push_back(raw);
        setupS.push_back(raw * kRefProbeNs / w->setupProbe.mean());
    }

    Tracer tracer;
    Tracer* tr = cfg.trace ? &tracer : nullptr;
    Traffic traffic;
    Traffic traced;  ///< trace mode: the half recorded with spans
    // Reserved, never reallocated: a doubling vector would make peak
    // RSS jump with the op count.
    traffic.latNs.reserve(kMaxLatencies);
    traffic.refLatNs.reserve(kMaxLatencies);
    traffic.countLimit = spec.kind == Kind::serve ? UINT64_MAX : kCountOps;
    uint64_t trafficNs =
        spec.kind == Kind::restart ? 0 : uint64_t(runNs * kTrafficShare);
    if (trafficNs > 0 && spec.kind == Kind::serve) {
        auto gens = connectionGens(*w, mix64(cfg.seed ^ 0x71));
        // Traced runs alternate untraced and traced slices, so host
        // drift cancels out of the tracing overhead.
        unsigned slices = tr ? 8 : 1;
        for (unsigned i = 0; i < slices; i++) {
            bool spans = i % 2 == 1;
            runTcp(*w, gens, trafficNs / slices, UINT64_MAX,
                   spans ? traced : traffic, spans ? tr : nullptr,
                   cfg.inject);
        }
    } else if (trafficNs > 0) {
        OpGen gen(spec.mix, mix64(cfg.seed ^ 0x71), 0, keys);
        runLocal(*w, gen, wallNs() + trafficNs, kCountOps, UINT64_MAX,
                 traffic, tr, tr ? &traced : nullptr);
    }

    Traffic tcpReplay;  ///< server.* traffic on in-process workloads
    if (tr)
        runReplays(*w, cfg.seed, tracer, tcpReplay);
    stopServer(*w);
    refillDeleted(*w);

    Restarts rs;
    Traffic cycleSets, cycleTraced;
    bool restartTraffic = spec.kind == Kind::restart;
    runRestarts(*w, cfg.seed, wallNs() + (runNs - trafficNs),
                restartTraffic ? traffic : cycleSets,
                restartTraffic ? traced : cycleTraced, rs, tr, cfg.inject);

    // The whole store, off the clock.
    for (uint32_t k = 0; k < keys; k++)
        checkKey(*w, k);
    w->tally.add(w->kv->itemCount() == w->shadow->presentCount());
    if (tr && !cfg.tracePath.empty())
        tracer.write(cfg.tracePath);

    Result res;
    res.attempted = w->tally.attempted;
    res.failed = w->tally.failed;
    res.correct = res.failed == 0;
    auto metric = [&](const char* name, double v, const char* unit) {
        res.metrics.push_back({name, v, unit});
    };
    auto diag = [&](const char* key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        res.diag.emplace_back(key, buf);
    };
    auto per = [](double num, double den) {
        return den > 0 ? num / den : 0;
    };
    using stats::Counter;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    if (!tr) {
        const stats::Snapshot& c = traffic.counted;
        double writes = double(traffic.cWrites);
        metric("cpu_us_per_op", traffic.refCpuUsPerOp(), "us");
        metric("p50_us", medianOf(traffic.refLatNs) / 1e3, "us");
        metric("fences_per_write", per(double(c[Counter::fences]), writes),
               "count");
        metric("flushes_per_write",
               per(double(c[Counter::flushes]), writes), "count");
        metric("log_bytes_per_write",
               per(double(c[Counter::logBytes]), writes), "B");
        metric("nvm_bytes_per_user_byte",
               per(double(c[Counter::nvmWriteBytes]),
                   double(traffic.cUserBytes)),
               "ratio");
        metric("restart_full_ms", medianOf(rs.fullMs), "ms");
        metric("restart_lazy_ttft_ms", medianOf(rs.lazyMs), "ms");
        // Set-up costs about a second, so it is repeated only a few
        // times: a plain median, not a percentile with a tail behind it.
        std::sort(setupS.begin(), setupS.end());
        std::sort(setupRawS.begin(), setupRawS.end());
        metric("setup_s", setupS[setupS.size() / 2], "s");
        metric("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB");

        diag("raw_cpu_us_per_op", traffic.cpuUsPerOp());
        diag("raw_p50_us", medianOf(traffic.latNs) / 1e3);
        diag("raw_restart_full_ms", medianOf(rs.rawFullMs));
        diag("raw_restart_lazy_ttft_ms", medianOf(rs.rawLazyMs));
        diag("raw_setup_s", setupRawS[setupRawS.size() / 2]);
        diag("probe_traffic_ns", traffic.probe.mean());
        diag("probe_lazy_ns", rs.probe.mean());
        diag("probe_scan_ns", rs.scanSum / double(rs.scans));
        // The highest tail percentile the sample supports.
        for (auto [q, name] : {std::pair{0.999, "p999_us"},
                               std::pair{0.99, "p99_us"},
                               std::pair{0.9, "p90_us"}}) {
            try {
                diag(name, percentile(traffic.latNs, q) / 1e3);
                break;
            } catch (const std::domain_error&) {
            }
        }
        diag("ops_per_s",
             per(double(traffic.ops), double(traffic.wallNs) / 1e9));
        diag("traffic_ops", double(traffic.ops));
        diag("latency_samples", double(traffic.latNs.size()));
        diag("counted_ops", double(traffic.cOps));
        diag("restart_full_cycles", double(rs.fullMs.size()));
        diag("restart_lazy_cycles", double(rs.lazyMs.size()));
        diag("setup_reps", double(setupS.size()));
        return res;
    }

    // Traced run: per-layer metrics.
    stats::Snapshot c = traffic.counted;
    c += traced.counted;
    double countedOps = double(traffic.cOps + traced.cOps);
    double countedWrites = double(traffic.cWrites + traced.cWrites);
    double persist = medianOf(tracer.durations("nvm.persist"));
    double txNs = medianOf(tracer.durations("runtimes.tx"));
    double runNsMed = medianOf(tracer.durations("txn.run"));
    double setNs = medianOf(tracer.durations("apps.set"));
    double windowUs = medianOf(tracer.durations("apps.window")) / 1e3;
    double serviceUs = medianOf(tracer.durations("server.service")) / 1e3;
    double tcpUs = medianOf(tracer.durations("server.tcp")) / 1e3;

    metric("nvm.persist_ns", persist, "ns");
    metric("nvm.writes_per_op",
           per(double(c[Counter::nvmWrites]), countedOps), "count");
    metric("runtimes.tx_ns", txNs, "ns");
    metric("runtimes.self_ns", txNs - persist, "ns");
    metric("runtimes.log_entries_per_write",
           per(double(c[Counter::logEntries]), countedWrites), "count");
    metric("runtimes.clobber_entries_per_write",
           per(double(c[Counter::clobberEntries]), countedWrites),
           "count");
    metric("runtimes.log_flushes_per_write",
           per(double(c[Counter::logFlushes]), countedWrites), "count");
    metric("txn.run_ns", runNsMed, "ns");
    metric("txn.self_ns", runNsMed - txNs, "ns");
    metric("txn.ro_run_ns", medianOf(tracer.durations("txn.ro_run")),
           "ns");
    metric("apps.get_ns", medianOf(tracer.durations("apps.get")), "ns");
    metric("apps.set_ns", setNs, "ns");
    metric("apps.self_ns", setNs - runNsMed, "ns");
    metric("apps.batch_ns_per_op",
           medianOf(tracer.durations("apps.batch", true)), "ns");
    metric("apps.window_us", windowUs, "us");
    metric("server.service_us", serviceUs, "us");
    metric("server.service_self_us", serviceUs - windowUs, "us");
    metric("server.tcp_us", tcpUs, "us");
    metric("server.tcp_self_us", tcpUs - serviceUs, "us");

    // Server traffic: kv-serve's own timed phase, else the TCP replay.
    Traffic net = tcpReplay;
    if (spec.kind == Kind::serve) {
        net = traffic;
        net.ops += traced.ops;
        net.wallNs += traced.wallNs;
        net.clientCpuNs += traced.clientCpuNs;
        net.batches += traced.batches;
        net.batchedOps += traced.batchedOps;
        net.latNs.insert(net.latNs.end(), traced.latNs.begin(),
                         traced.latNs.end());
    }
    metric("server.avg_batch",
           per(double(net.batchedOps), double(net.batches)), "ops");
    metric("server.client_cpu_us_per_op",
           per(double(net.clientCpuNs) / 1e3, double(net.ops)), "us");
    metric("server.ops_per_s",
           per(double(net.ops), double(net.wallNs) / 1e9), "1/s");
    metric("server.p99_us", percentile(net.latNs, 0.99) / 1e3, "us");

    metric("alloc.allocs_per_write",
           per(double(c[Counter::allocs]), countedWrites), "count");
    metric("alloc.frees_per_write",
           per(double(c[Counter::frees]), countedWrites), "count");
    double recoverFull = medianOf(rs.recoverFullMs);
    double rebuild = medianOf(rs.rebuildMs);
    metric("alloc.ctor_ms", medianOf(rs.ctorMs), "ms");
    metric("alloc.rebuild_ms", rebuild, "ms");
    metric("txn.recover_full_ms", recoverFull, "ms");
    metric("runtimes.recover_self_ms", recoverFull - rebuild, "ms");
    metric("txn.triage_ms", medianOf(rs.triageMs), "ms");
    metric("txn.first_tx_ms", medianOf(rs.firstTxMs), "ms");
    metric("txn.pending_at_first_tx", medianOf(rs.pending), "count");
    metric("txn.heal_ms", medianOf(rs.healMs), "ms");
    metric("trace.overhead_pct",
           (per(traced.cpuUsPerOp(), traffic.cpuUsPerOp()) - 1.0) * 100.0,
           "%");
    // Per-layer timings are raw; these gauge the host they ran on.
    Probe probe = traffic.probe;
    probe += traced.probe;
    diag("probe_traffic_ns", probe.mean());
    diag("probe_scan_ns", rs.scanSum / double(rs.scans));
    return res;
}

}  // namespace kvbench
