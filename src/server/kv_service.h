/**
 * @file
 * KV service: the worker threads that serve the persistent KvServer
 * store over the memcached text protocol (server/protocol.h).
 *
 * Topology. N workers, each bound to its own engine slot
 * (Engine::bindThisThread(slotBase + w)), so per-thread log areas are
 * never shared. Each worker runs one epoll loop over the connections
 * it owns and its inbox. TcpServer's accept thread hands each accepted
 * socket to the next worker in turn (adopt); from then on that worker
 * alone reads the connection, runs each window of commands on its own
 * slot and answers it. No window is split across threads. Workers do
 * not own shards: KvServer's shard locks serialize conflicting
 * transactions from different workers (a multi-shard batch locks in
 * ascending order), so no request is ever forwarded between workers.
 *
 * Order. A connection's commands run in its worker's program order.
 * Nothing orders commands of different connections except the shard
 * locks; clients that check what they read (cnvm_kvload, kvbench)
 * partition keys per connection.
 *
 * Group commit. A worker runs a window in order and fuses each run of
 * consecutive *mutations* (set/del/cas) into one transaction via
 * KvServer::applyBatch, up to batchMax per transaction — one begin
 * persist, one log seal, one commit fence for the whole run. A get
 * breaks a run (read-your-writes: it must observe the mutations
 * before it, so those commit first). Replies are formatted and sent
 * only after the window's last commit, which is what makes a
 * client-visible ack a durability guarantee (DESIGN.md §16).
 *
 * If a batch overflows the slot's log area (txn::LogOverflowError,
 * thrown before any mutation applies), the worker replays that run
 * op by op; an op that overflows alone reports MutResult::error.
 *
 * In-process callers hand requests to a worker with submitMany; the
 * worker runs them like a window and signals each request's
 * Completion after the covering transaction commits.
 */
#ifndef CNVM_SERVER_KV_SERVICE_H
#define CNVM_SERVER_KV_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv/kv_server.h"

namespace cnvm::server {

/**
 * Completion latch: a front-end submits a window of requests, arms
 * expect(n), and wait()s until every one has been executed (and, for
 * mutations, committed).
 *
 * arrive() is lock-free except for the final arrival of a window:
 * workers signal once per run of requests that share a latch, so the
 * latch must not cost a mutex round trip per op.
 */
class Completion {
 public:
    void
    expect(unsigned n)
    {
        outstanding_.fetch_add(n, std::memory_order_acq_rel);
    }

    void
    arrive(long n = 1)
    {
        if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
            std::lock_guard<std::mutex> g(mu_);
            cv_.notify_all();
        }
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> g(mu_);
        cv_.wait(g, [&] {
            return outstanding_.load(std::memory_order_acquire) <= 0;
        });
    }

 private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<long> outstanding_{0};
};

/** One operation. String members own their bytes (the socket buffer
 *  they were parsed from is reused immediately). */
struct Request {
    enum class Op : uint8_t { get, set, del, cas };

    Op op = Op::get;
    std::string key;
    std::string value;        ///< set/cas payload
    uint32_t flags = 0;
    uint32_t casVersion = 0;  ///< cas: expected item version

    /** get: caller-owned result buffer, filled before arrive(). */
    apps::KvReadResult* read = nullptr;
    /** set/del/cas outcome, written before arrive(). */
    apps::MutResult result = apps::MutResult::error;

    Completion* done = nullptr;
};

struct ServiceConfig {
    unsigned workers = 2;
    /** Max mutations fused into one transaction, at least 1; 1
     *  disables group commit (one transaction per mutation). */
    unsigned batchMax = 8;
    /** First engine slot; worker w binds slot slotBase + w. */
    unsigned slotBase = 0;
};

class KvService {
 public:
    struct WorkerStats {
        uint64_t ops = 0;        ///< requests executed
        uint64_t batches = 0;    ///< group-commit transactions
        uint64_t batchedOps = 0; ///< mutations covered by those
        uint64_t singles = 0;    ///< mutations run one-per-tx
        uint64_t overflows = 0;  ///< batches retried op-by-op
    };

    KvService(apps::KvServer& kv, const ServiceConfig& cfg);
    ~KvService();

    KvService(const KvService&) = delete;
    KvService& operator=(const KvService&) = delete;

    /** Launch the worker threads.
     *  @throws txn::SlotRangeError if slotBase + workers exceeds the
     *          pool's runtime slots. */
    void start();

    /** Stop and join the workers and close every connection they
     *  own. Requests already handed over by submitMany still execute
     *  and signal their completions. */
    void stop();

    /** The worker an in-process caller should hand `key` to: requests
     *  on one key handed to one worker run in the order given. */
    unsigned workerOf(std::string_view key) const;

    /**
     * Append a run of requests to worker `worker`'s inbox; never
     * blocks. The worker runs the run in order, like a window, and
     * signals each request's completion after the covering
     * transaction commits. Each request must stay alive until then.
     */
    void submitMany(unsigned worker, Request* const* reqs, size_t n);

    /** Hand an accepted, non-blocking socket to the next worker in
     *  turn, which owns it from then on (closes it after a stop). */
    void adopt(int fd);

    unsigned workers() const { return cfg_.workers; }
    unsigned batchMax() const { return cfg_.batchMax; }

    /** Sum of every worker's counters; safe while traffic runs. */
    WorkerStats totalStats() const;

 private:
    struct Conn;
    struct Worker;

    void workerLoop(Worker& wk);
    bool serveConn(Worker& wk, Conn& c);
    void runWindow(Worker& wk, Conn& c);
    void runRequests(Worker& wk, Request* const* reqs, size_t n);
    void execGroup(Request* const* group, size_t n, WorkerStats& delta);
    void appendStats(std::string& out) const;

    apps::KvServer& kv_;
    ServiceConfig cfg_;
    bool running_ = false;
    std::atomic<unsigned> nextWorker_{0};
    std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cnvm::server

#endif  // CNVM_SERVER_KV_SERVICE_H
