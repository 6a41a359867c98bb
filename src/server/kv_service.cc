#include "server/kv_service.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "common/error.h"
#include "nvm/pool.h"
#include "server/protocol.h"
#include "structures/kv.h"
#include "txn/runtime.h"

namespace cnvm::server {

namespace {

/** One response slot per parsed command, kept in command order. */
struct Slot {
    proto::Cmd cmd = proto::Cmd::get;
    bool noreply = false;
    std::string text;  ///< the final reply when it needs no request
    size_t first = 0;  ///< index of first request
    size_t count = 0;  ///< requests covered (gets: #keys)
};

/** Single-writer store: the owning worker adds, others only load. A
 *  release store, so whoever reads a total through totalStats() also
 *  sees the worker's stats::ThreadCounters bumps made before it. */
void
publish(std::atomic<uint64_t>& v, uint64_t n)
{
    v.store(v.load(std::memory_order_relaxed) + n,
            std::memory_order_release);
}

}  // namespace

/** One connection, owned by one worker. */
struct KvService::Conn {
    int fd = -1;
    proto::Parser parser;
    std::string out;       ///< replies send() has not taken yet
    size_t sent = 0;       ///< prefix of `out` already sent
    bool writing = false;  ///< registered for EPOLLOUT, not EPOLLIN
    bool quit = false;     ///< `quit` parsed: close once `out` drains
};

struct KvService::Worker {
    explicit Worker(unsigned i) : index(i) {}

    ~Worker()
    {
        for (int fd : {epfd, wakeFd})
            if (fd >= 0)
                ::close(fd);
    }

    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

    /** Wake the loop: the inbox changed. */
    void
    wake()
    {
        uint64_t one = 1;
        ssize_t n = ::write(wakeFd, &one, sizeof(one));
        (void)n;  // fails only at counter overflow: a wake is pending
    }

    void
    close(Conn& c)
    {
        int fd = c.fd;
        ::close(fd);  // also leaves the epoll set
        conns.erase(fd);
    }

    const unsigned index;
    int epfd = -1;
    int wakeFd = -1;  ///< eventfd: signals the inbox

    /** The inbox. */
    std::mutex mu;
    std::vector<int> sockets;        ///< adopted, not yet registered
    std::vector<Request*> requests;  ///< submitMany runs, in order
    bool stopping = false;

    /** The rest belongs to the worker thread. */
    std::unordered_map<int, Conn> conns;
    std::vector<Slot> slots;  ///< window scratch, reused
    std::vector<Request> reqs;
    std::vector<Request*> ptrs;
    std::vector<std::unique_ptr<apps::KvReadResult>> reads;  ///< grows

    struct {
        std::atomic<uint64_t> ops{0}, batches{0}, batchedOps{0},
            singles{0}, overflows{0};
    } stats;

    std::thread thread;
};

KvService::KvService(apps::KvServer& kv, const ServiceConfig& cfg)
    : kv_(kv), cfg_(cfg)
{
    CNVM_CHECK(cfg_.workers >= 1, "need at least one worker");
    CNVM_CHECK(cfg_.batchMax >= 1, "batchMax must be at least 1");
}

KvService::~KvService()
{
    if (running_)
        stop();
}

void
KvService::start()
{
    CNVM_CHECK(!running_, "service already started");
    // Validate the whole slot range up front, on the caller's thread,
    // so a misconfigured worker count is a catchable error instead of
    // an uncaught exception inside a std::thread.
    unsigned slots = kv_.engine().rt.pool().maxThreads();
    if (cfg_.slotBase + cfg_.workers > slots)
        throw txn::SlotRangeError(cfg_.slotBase + cfg_.workers - 1,
                                  slots);

    workers_.clear();
    for (unsigned w = 0; w < cfg_.workers; w++) {
        auto wk = std::make_unique<Worker>(w);
        wk->epfd = ::epoll_create1(EPOLL_CLOEXEC);
        wk->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = nullptr;  // the inbox
        if (wk->epfd < 0 || wk->wakeFd < 0 ||
            ::epoll_ctl(wk->epfd, EPOLL_CTL_ADD, wk->wakeFd, &ev) != 0)
            fatal(strprintf("worker event setup: %s",
                            std::strerror(errno)));
        workers_.push_back(std::move(wk));
    }
    for (auto& wk : workers_)
        wk->thread = std::thread([this, p = wk.get()] { workerLoop(*p); });
    running_ = true;
}

void
KvService::stop()
{
    if (!running_)
        return;
    for (auto& wk : workers_) {
        {
            std::lock_guard<std::mutex> g(wk->mu);
            wk->stopping = true;
        }
        wk->wake();
    }
    for (auto& wk : workers_)
        wk->thread.join();
    running_ = false;
}

unsigned
KvService::workerOf(std::string_view key) const
{
    return static_cast<unsigned>(kv_.shardOf(key)) % cfg_.workers;
}

void
KvService::submitMany(unsigned worker, Request* const* reqs, size_t n)
{
    Worker& wk = *workers_.at(worker);
    {
        std::lock_guard<std::mutex> g(wk.mu);
        CNVM_CHECK(!wk.stopping, "submit to a stopped service");
        wk.requests.insert(wk.requests.end(), reqs, reqs + n);
    }
    wk.wake();
}

void
KvService::adopt(int fd)
{
    CNVM_CHECK(!workers_.empty(), "service not started");
    unsigned w = nextWorker_.fetch_add(1, std::memory_order_relaxed);
    Worker& wk = *workers_[w % workers_.size()];
    {
        std::lock_guard<std::mutex> g(wk.mu);
        if (wk.stopping) {
            ::close(fd);
            return;
        }
        wk.sockets.push_back(fd);
    }
    wk.wake();
}

KvService::WorkerStats
KvService::totalStats() const
{
    WorkerStats t;
    auto get = [](const std::atomic<uint64_t>& v) {
        return v.load(std::memory_order_acquire);
    };
    for (const auto& wk : workers_) {
        t.ops += get(wk->stats.ops);
        t.batches += get(wk->stats.batches);
        t.batchedOps += get(wk->stats.batchedOps);
        t.singles += get(wk->stats.singles);
        t.overflows += get(wk->stats.overflows);
    }
    return t;
}

namespace {

apps::MutOp
toMutOp(const Request& r)
{
    apps::MutOp op;
    switch (r.op) {
    case Request::Op::set:
        op.kind = apps::MutKind::set;
        break;
    case Request::Op::del:
        op.kind = apps::MutKind::del;
        break;
    case Request::Op::cas:
        op.kind = apps::MutKind::cas;
        break;
    case Request::Op::get:
        panic("get in mutation group");
    }
    op.key = r.key;
    op.val = r.value;
    op.flags = r.flags;
    op.casVersion = r.casVersion;
    return op;
}

}  // namespace

void
KvService::execGroup(Request* const* group, size_t n,
                     WorkerStats& delta)
{
    auto single = [&](Request* r) {
        try {
            switch (r->op) {
            case Request::Op::set:
                kv_.set(r->key, r->value, r->flags);
                r->result = apps::MutResult::stored;
                break;
            case Request::Op::del:
                r->result = kv_.del(r->key)
                                ? apps::MutResult::deleted
                                : apps::MutResult::notFound;
                break;
            case Request::Op::cas:
                r->result =
                    kv_.cas(r->key, r->value, r->flags, r->casVersion);
                break;
            case Request::Op::get:
                panic("get in mutation group");
            }
        } catch (const txn::LogOverflowError&) {
            r->result = apps::MutResult::error;
        }
        delta.singles++;
    };

    if (n == 1) {
        single(group[0]);
        return;
    }
    std::vector<apps::MutOp> ops;
    std::vector<apps::MutResult> results(n, apps::MutResult::error);
    ops.reserve(n);
    for (size_t i = 0; i < n; i++)
        ops.push_back(toMutOp(*group[i]));
    try {
        kv_.applyBatch(ops, results.data());
        for (size_t i = 0; i < n; i++)
            group[i]->result = results[i];
        delta.batches++;
        delta.batchedOps += n;
    } catch (const txn::LogOverflowError&) {
        // Nothing applied (the batch aborted whole): replay the
        // group op-by-op, preserving order.
        delta.overflows++;
        for (size_t i = 0; i < n; i++)
            single(group[i]);
    }
}

void
KvService::runRequests(Worker& wk, Request* const* reqs, size_t n)
{
    WorkerStats delta;
    size_t i = 0;
    while (i < n) {
        Request* r = reqs[i];
        if (r->op == Request::Op::get) {
            apps::KvReadResult scratch;
            kv_.get(r->key, r->read != nullptr ? r->read : &scratch);
            i++;
            continue;
        }
        // Fuse the run of consecutive mutations, capped at batchMax,
        // into one group-commit transaction.
        size_t j = i + 1;
        while (j < n && reqs[j]->op != Request::Op::get &&
               j - i < cfg_.batchMax)
            j++;
        execGroup(reqs + i, j - i, delta);
        i = j;
    }
    delta.ops = n;

    // Counters BEFORE any ack: once a caller has seen every reply or
    // completion, totalStats() must already cover those ops.
    publish(wk.stats.ops, delta.ops);
    publish(wk.stats.batches, delta.batches);
    publish(wk.stats.batchedOps, delta.batchedOps);
    publish(wk.stats.singles, delta.singles);
    publish(wk.stats.overflows, delta.overflows);

    // Every covering transaction has committed: acks are durable now.
    // Coalesce runs of one latch into one arrive.
    i = 0;
    while (i < n) {
        Completion* done = reqs[i]->done;
        size_t j = i + 1;
        while (j < n && reqs[j]->done == done)
            j++;
        if (done != nullptr)
            done->arrive(static_cast<long>(j - i));
        i = j;
    }
}

void
KvService::appendStats(std::string& out) const
{
    auto kv = kv_.statsTotals();
    auto sv = totalStats();
    char line[128];
    auto stat = [&](const char* k, uint64_t v) {
        int m = std::snprintf(line, sizeof(line), "STAT %s %llu\r\n", k,
                              static_cast<unsigned long long>(v));
        out.append(line, static_cast<size_t>(m));
    };
    stat("cmd_get", kv.gets);
    stat("get_hits", kv.hits);
    stat("get_misses", kv.gets - kv.hits);
    stat("cmd_set", kv.sets + kv.casStores + kv.casMisses);
    stat("cas_hits", kv.casStores);
    stat("cas_badval", kv.casMisses);
    stat("delete_hits", kv.delHits);
    stat("delete_misses", kv.dels - kv.delHits);
    stat("svc_ops", sv.ops);
    stat("svc_batches", sv.batches);
    stat("svc_batched_ops", sv.batchedOps);
    stat("svc_singles", sv.singles);
    stat("svc_overflows", sv.overflows);
    stat("svc_workers", cfg_.workers);
    stat("svc_batch_max", cfg_.batchMax);
    // Lazy-recovery progress: pending/healed heal work items (slots +
    // the heap pass); all zero after finishRecovery or under full
    // recovery.
    auto& eng = kv_.engine();
    stat("recovery_active", eng.recoveryActive() ? 1 : 0);
    stat("recovery_pending", eng.recoveryPending());
    stat("recovery_healed", eng.recoveryHealed());
    out += "END\r\n";
}

void
KvService::runWindow(Worker& wk, Conn& c)
{
    // Turn the burst into a window: parse every complete command, run
    // the storage ops, then answer in order.
    auto& slots = wk.slots;
    auto& reqs = wk.reqs;
    slots.clear();
    reqs.clear();
    size_t gets = 0;

    proto::Command cmd;
    std::string err;
    while (!c.quit) {
        auto st = c.parser.next(&cmd, &err);
        if (st == proto::Parser::Status::need)
            break;
        Slot& slot = slots.emplace_back();
        if (st == proto::Parser::Status::error) {
            slot.text = err;
            continue;
        }
        slot.cmd = cmd.cmd;
        slot.noreply = cmd.noreply;
        switch (cmd.cmd) {
        case proto::Cmd::quit:
            c.quit = true;
            break;
        case proto::Cmd::version:
            slot.text = "VERSION cnvm-kv/1.0\r\n";
            break;
        case proto::Cmd::stats:
            break;  // formatted after the window's commits
        case proto::Cmd::get:
        case proto::Cmd::gets:
            slot.first = reqs.size();
            for (auto& key : cmd.keys) {
                if (key.size() > ds::kMaxKeyLen)
                    continue;  // cannot exist in the store
                if (gets == wk.reads.size())
                    wk.reads.push_back(
                        std::make_unique<apps::KvReadResult>());
                Request& r = reqs.emplace_back();
                r.op = Request::Op::get;
                r.key = std::move(key);
                r.read = wk.reads[gets++].get();
            }
            slot.count = reqs.size() - slot.first;
            break;
        case proto::Cmd::set:
        case proto::Cmd::cas:
        case proto::Cmd::del: {
            if (cmd.keys[0].size() > ds::kMaxKeyLen) {
                slot.text = "CLIENT_ERROR key too long for store\r\n";
                break;
            }
            if (cmd.cmd != proto::Cmd::del &&
                cmd.data.size() > ds::kMaxValLen) {
                slot.text = "SERVER_ERROR object too large for cache\r\n";
                break;
            }
            slot.first = reqs.size();
            slot.count = 1;
            Request& r = reqs.emplace_back();
            r.op = cmd.cmd == proto::Cmd::set   ? Request::Op::set
                   : cmd.cmd == proto::Cmd::cas ? Request::Op::cas
                                                : Request::Op::del;
            r.key = std::move(cmd.keys[0]);
            r.value = std::move(cmd.data);
            r.flags = cmd.flags;
            r.casVersion = static_cast<uint32_t>(cmd.casUnique);
            break;
        }
        }
    }

    wk.ptrs.clear();  // reqs no longer grows
    for (Request& r : reqs)
        wk.ptrs.push_back(&r);
    runRequests(wk, wk.ptrs.data(), wk.ptrs.size());

    std::string& out = c.out;
    for (const Slot& slot : slots) {
        if (!slot.text.empty()) {
            if (!slot.noreply)
                out += slot.text;
            continue;
        }
        switch (slot.cmd) {
        case proto::Cmd::quit:
        case proto::Cmd::version:  // text
            break;
        case proto::Cmd::stats:
            appendStats(out);
            break;
        case proto::Cmd::get:
        case proto::Cmd::gets:
            for (size_t i = 0; i < slot.count; i++) {
                const Request& r = reqs[slot.first + i];
                if (!r.read->found)
                    continue;
                proto::appendValue(out, r.key, r.read->flags,
                                   {r.read->value, r.read->len},
                                   slot.cmd == proto::Cmd::gets,
                                   r.read->version);
            }
            proto::appendEnd(out);
            break;
        case proto::Cmd::set:
        case proto::Cmd::cas:
        case proto::Cmd::del:
            if (slot.noreply)
                break;
            switch (reqs[slot.first].result) {
            case apps::MutResult::stored:
                out += "STORED\r\n";
                break;
            case apps::MutResult::deleted:
                out += "DELETED\r\n";
                break;
            case apps::MutResult::notFound:
                out += "NOT_FOUND\r\n";
                break;
            case apps::MutResult::exists:
                out += "EXISTS\r\n";
                break;
            case apps::MutResult::error:
                out += "SERVER_ERROR transaction failed\r\n";
                break;
            }
            break;
        }
    }
}

bool
KvService::serveConn(Worker& wk, Conn& c)
{
    if (c.sent == c.out.size()) {
        // Nothing waits to be sent: read one burst and answer it.
        char buf[16384];
        ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n == 0)
            return false;  // EOF: every parsed command was answered
        if (n < 0)
            return errno == EAGAIN || errno == EINTR;
        c.parser.feed(buf, static_cast<size_t>(n));
        runWindow(wk, c);
    }
    while (c.sent < c.out.size()) {
        ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                           c.out.size() - c.sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN)
                return false;
            break;
        }
        c.sent += static_cast<size_t>(n);
    }
    // Output the socket did not take stays here, and the connection
    // is not read again until EPOLLOUT drains it: a client that stops
    // reading stalls only itself.
    bool pending = c.sent < c.out.size();
    if (!pending) {
        c.out.clear();
        c.sent = 0;
        if (c.quit)
            return false;
    }
    if (pending != c.writing) {
        epoll_event ev{};
        ev.events = pending ? EPOLLOUT : EPOLLIN;
        ev.data.ptr = &c;
        if (::epoll_ctl(wk.epfd, EPOLL_CTL_MOD, c.fd, &ev) != 0)
            return false;
        c.writing = pending;
    }
    return true;
}

void
KvService::workerLoop(Worker& wk)
{
    kv_.engine().bindThisThread(cfg_.slotBase + wk.index);

    std::vector<int> sockets;
    std::vector<Request*> run;
    epoll_event events[64];
    for (;;) {
        int n = ::epoll_wait(wk.epfd, events, 64, -1);
        if (n < 0) {
            CNVM_CHECK(errno == EINTR, std::strerror(errno));
            continue;
        }
        bool inbox = false;
        for (int i = 0; i < n; i++) {
            auto* c = static_cast<Conn*>(events[i].data.ptr);
            if (c == nullptr)
                inbox = true;
            else if (!serveConn(wk, *c))
                wk.close(*c);
        }
        if (!inbox)
            continue;

        uint64_t count = 0;
        ssize_t got = ::read(wk.wakeFd, &count, sizeof(count));
        (void)got;  // EAGAIN: a wake already consumed
        bool stopping = false;
        {
            std::lock_guard<std::mutex> g(wk.mu);
            sockets.swap(wk.sockets);
            run.swap(wk.requests);
            stopping = wk.stopping;
        }
        for (int fd : sockets) {
            Conn& c = wk.conns[fd];
            c.fd = fd;
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = &c;
            if (::epoll_ctl(wk.epfd, EPOLL_CTL_ADD, fd, &ev) != 0)
                wk.close(c);
        }
        sockets.clear();
        if (!run.empty())
            runRequests(wk, run.data(), run.size());
        run.clear();
        if (stopping)
            break;
    }
    for (auto& [fd, c] : wk.conns)
        ::close(fd);
    wk.conns.clear();
}

}  // namespace cnvm::server
