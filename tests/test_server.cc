/**
 * @file
 * Tests for the network KV service stack: the memcached text-protocol
 * parser (incremental feeds, errors), the group-commit service layer
 * (model equivalence, overflow fallback, slot validation), and the
 * TCP front-end end to end over a real loopback socket.
 */
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <thread>

#include "apps/kv/kv_server.h"
#include "common/rand.h"
#include "server/kv_service.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/tcp_server.h"
#include "testutil.h"

namespace cnvm::test {
namespace {

using server::proto::Cmd;
using server::proto::Command;
using server::proto::Parser;
using txn::RuntimeKind;

// ---------------------------------------------------------------
// Protocol parser

Parser::Status
feedAll(Parser& p, const std::string& bytes, Command* out,
        std::string* err)
{
    p.feed(bytes.data(), bytes.size());
    return p.next(out, err);
}

TEST(ProtoParser, ParsesGetAndMultiGet)
{
    Parser p;
    Command c;
    std::string err;
    ASSERT_EQ(feedAll(p, "get foo\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.cmd, Cmd::get);
    ASSERT_EQ(c.keys.size(), 1u);
    EXPECT_EQ(c.keys[0], "foo");

    ASSERT_EQ(feedAll(p, "gets a b c\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.cmd, Cmd::gets);
    ASSERT_EQ(c.keys.size(), 3u);
    EXPECT_EQ(c.keys[2], "c");
}

TEST(ProtoParser, ParsesSetWithDataBlock)
{
    Parser p;
    Command c;
    std::string err;
    ASSERT_EQ(feedAll(p, "set k 7 0 5\r\nhello\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.cmd, Cmd::set);
    EXPECT_EQ(c.keys[0], "k");
    EXPECT_EQ(c.flags, 7u);
    EXPECT_EQ(c.data, "hello");
    EXPECT_FALSE(c.noreply);
}

TEST(ProtoParser, HandlesBytewiseFeeds)
{
    // The whole pipeline must survive arbitrary TCP segmentation.
    std::string wire = "set key1 3 0 4 noreply\r\nabcd\r\n"
                       "cas key2 0 0 2 99\r\nxy\r\n"
                       "delete key1\r\n";
    Parser p;
    Command c;
    std::string err;
    std::vector<Command> got;
    for (char ch : wire) {
        p.feed(&ch, 1);
        for (;;) {
            auto st = p.next(&c, &err);
            if (st != Parser::Status::ok)
                break;
            got.push_back(c);
        }
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].cmd, Cmd::set);
    EXPECT_TRUE(got[0].noreply);
    EXPECT_EQ(got[0].data, "abcd");
    EXPECT_EQ(got[1].cmd, Cmd::cas);
    EXPECT_EQ(got[1].casUnique, 99u);
    EXPECT_EQ(got[1].data, "xy");
    EXPECT_EQ(got[2].cmd, Cmd::del);
    EXPECT_EQ(got[2].keys[0], "key1");
}

TEST(ProtoParser, ReportsErrorsAndKeepsGoing)
{
    Parser p;
    Command c;
    std::string err;
    EXPECT_EQ(feedAll(p, "frobnicate\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "ERROR\r\n");

    EXPECT_EQ(feedAll(p, "set k x 0 5\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "CLIENT_ERROR bad command line format\r\n");

    std::string longKey(server::proto::kMaxProtoKeyLen + 1, 'k');
    EXPECT_EQ(feedAll(p, "get " + longKey + "\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "CLIENT_ERROR bad key\r\n");

    // A data block not terminated by CRLF is a chunk error.
    EXPECT_EQ(feedAll(p, "set k 0 0 2\r\nabXY", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "CLIENT_ERROR bad data chunk\r\n");

    // The connection still parses afterwards.
    EXPECT_EQ(feedAll(p, "get ok\r\n", &c, &err),
              Parser::Status::ok);
    EXPECT_EQ(c.keys[0], "ok");
}

TEST(ProtoParser, RejectsOversizedDeclaredBlock)
{
    Parser p;
    Command c;
    std::string err;
    EXPECT_EQ(feedAll(p, "set k 0 0 999999999\r\n", &c, &err),
              Parser::Status::error);
    EXPECT_EQ(err, "SERVER_ERROR object too large for cache\r\n");
}

// ---------------------------------------------------------------
// Store: cas + batch transaction paths

class KvMutationTest : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(KvMutationTest, CasFollowsVersioning)
{
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    EXPECT_EQ(kv.cas("k", "v", 0, 1), apps::MutResult::notFound);
    kv.set("k", "v0", 3);

    apps::KvReadResult r;
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_EQ(r.str(), "v0");
    EXPECT_EQ(r.flags, 3u);
    EXPECT_EQ(r.version, 1u);

    EXPECT_EQ(kv.cas("k", "v1", 4, r.version),
              apps::MutResult::stored);
    EXPECT_EQ(kv.cas("k", "v2", 5, r.version),
              apps::MutResult::exists);  // stale version
    ASSERT_TRUE(kv.get("k", &r));
    EXPECT_EQ(r.str(), "v1");
    EXPECT_EQ(r.flags, 4u);
    EXPECT_EQ(r.version, 2u);
}

TEST_P(KvMutationTest, ApplyBatchMatchesSingles)
{
    Harness h(GetParam(), rt::ClobberPolicy::refined, 64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 8;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    std::map<std::string, std::string> model;
    Xorshift rng(17);
    std::vector<std::string> keys, vals;
    for (int round = 0; round < 40; round++) {
        keys.clear();
        vals.clear();
        std::vector<apps::MutOp> ops;
        for (int i = 0; i < 6; i++) {
            keys.push_back("bk" + std::to_string(rng.nextUint(30)));
            vals.push_back("val-" + std::to_string(round) + "-" +
                           std::to_string(i));
        }
        for (int i = 0; i < 6; i++) {
            apps::MutOp op;
            op.key = keys[i];
            if (rng.nextUint(10) < 8) {
                op.kind = apps::MutKind::set;
                op.val = vals[i];
                model[keys[i]] = vals[i];
            } else {
                op.kind = apps::MutKind::del;
                model.erase(keys[i]);
            }
            ops.push_back(op);
        }
        std::vector<apps::MutResult> results(ops.size());
        kv.applyBatch(ops, results.data());
        for (size_t i = 0; i < ops.size(); i++) {
            if (ops[i].kind == apps::MutKind::set)
                EXPECT_EQ(results[i], apps::MutResult::stored);
        }
    }
    EXPECT_EQ(kv.itemCount(), model.size());
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv.get(k, &r)) << k;
        EXPECT_EQ(r.str(), v);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, KvMutationTest,
    ::testing::Values(RuntimeKind::clobber, RuntimeKind::undo,
                      RuntimeKind::redo),
    [](const auto& info) { return rt::kindName(info.param); });

// ---------------------------------------------------------------
// Service layer

TEST(KvService, GroupCommitMatchesModel)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    auto eng = h.engine();
    apps::KvServer::Config cfg;
    cfg.shards = 16;
    apps::KvServer kv(eng, 0, cfg);

    server::ServiceConfig svcCfg;
    svcCfg.workers = 2;
    svcCfg.batchMax = 8;
    server::KvService svc(kv, svcCfg);
    svc.start();

    // Submit windows of mixed traffic, each split by workerOf; per-key
    // order is preserved by that routing, so the final state must
    // match in-order apply.
    std::map<std::string, std::string> model;
    Xorshift rng(23);
    std::deque<server::Request> reqs;
    std::vector<std::vector<server::Request*>> byWorker(svc.workers());
    for (int round = 0; round < 50; round++) {
        server::Completion done;
        reqs.clear();
        for (int i = 0; i < 16; i++) {
            reqs.emplace_back();
            auto& r = reqs.back();
            r.key = "sk" + std::to_string(rng.nextUint(40));
            if (rng.nextUint(10) < 7) {
                r.op = server::Request::Op::set;
                r.value = "sv-" + std::to_string(round) + "-" +
                          std::to_string(i);
                model[r.key] = r.value;
            } else {
                r.op = server::Request::Op::del;
                model.erase(r.key);
            }
            r.done = &done;
        }
        done.expect(16);
        for (auto& b : byWorker)
            b.clear();
        for (auto& r : reqs)
            byWorker[svc.workerOf(r.key)].push_back(&r);
        for (unsigned w = 0; w < byWorker.size(); w++)
            if (!byWorker[w].empty())
                svc.submitMany(w, byWorker[w].data(),
                               byWorker[w].size());
        done.wait();
    }
    auto st = svc.totalStats();
    svc.stop();
    EXPECT_EQ(st.ops, 50u * 16u);
    EXPECT_GT(st.batches, 0u);  // group commit actually engaged

    EXPECT_EQ(kv.itemCount(), model.size());
    for (const auto& [k, v] : model) {
        ds::LookupResult r;
        ASSERT_TRUE(kv.get(k, &r)) << k;
        EXPECT_EQ(r.str(), v);
    }
}

TEST(KvService, BatchOverflowFallsBackPerOp)
{
    // A slot log too small for an 8-op batch of 1 KiB values: the
    // batch transaction must abort cleanly and replay op-by-op.
    nvm::PoolConfig pcfg;
    pcfg.size = 64ULL << 20;
    pcfg.maxThreads = 4;
    pcfg.slotBytes = 16384;  // ~7 KiB log area after the descriptor
    auto pool = nvm::Pool::create(pcfg);
    nvm::Pool::setCurrent(pool.get());
    alloc::PmAllocator heap(*pool);
    auto runtime =
        rt::makeRuntime(RuntimeKind::clobber, *pool, heap);
    txn::Engine eng(*runtime);

    apps::KvServer::Config cfg;
    cfg.shards = 4;
    cfg.bucketsPerShard = 32;
    apps::KvServer kv(eng, 0, cfg);

    server::ServiceConfig svcCfg;
    svcCfg.workers = 1;
    svcCfg.batchMax = 8;
    server::KvService svc(kv, svcCfg);
    svc.start();

    server::Completion done;
    std::deque<server::Request> reqs;
    std::string big(1024, 'z');
    for (int i = 0; i < 8; i++) {
        reqs.emplace_back();
        auto& r = reqs.back();
        r.op = server::Request::Op::set;
        r.key = "of" + std::to_string(i);
        r.value = big;
        r.done = &done;
    }
    done.expect(8);
    std::vector<server::Request*> run;
    for (auto& r : reqs)
        run.push_back(&r);
    svc.submitMany(0, run.data(), run.size());
    done.wait();
    auto st = svc.totalStats();
    svc.stop();

    EXPECT_GE(st.overflows, 1u);
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(reqs[i].result, apps::MutResult::stored);
        ds::LookupResult r;
        ASSERT_TRUE(kv.get("of" + std::to_string(i), &r));
        EXPECT_EQ(r.str(), big);
    }
    nvm::Pool::setCurrent(nullptr);
}

TEST(KvService, RejectsWorkerCountBeyondPoolSlots)
{
    Harness h(RuntimeKind::clobber);  // maxThreads = 8
    auto eng = h.engine();
    apps::KvServer kv(eng);
    server::ServiceConfig svcCfg;
    svcCfg.workers = 9;
    server::KvService svc(kv, svcCfg);
    try {
        svc.start();
        FAIL() << "start() accepted 9 workers on an 8-slot pool";
    } catch (const txn::SlotRangeError& e) {
        EXPECT_EQ(e.tid(), 8u);
        EXPECT_EQ(e.slots(), 8u);
    }
}

// ---------------------------------------------------------------
// TCP front-end, end to end over loopback

class SockClient {
 public:
    /** Connect to `port`. A reply that never comes fails the test
     *  after `timeoutSec` instead of hanging it. `rcvbuf` > 0 pins
     *  the receive buffer (no autotuning). */
    explicit SockClient(uint16_t port, int timeoutSec = 10,
                        int rcvbuf = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (rcvbuf > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf));
        timeval tv{};
        tv.tv_sec = timeoutSec;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~SockClient() { ::close(fd_); }

    int fd() const { return fd_; }

    /** Send all of `data`; stops early once the socket fails. */
    void
    sendAll(const std::string& data)
    {
        size_t off = 0;
        while (off < data.size()) {
            ssize_t n = ::send(fd_, data.data() + off,
                               data.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            off += static_cast<size_t>(n);
        }
    }

    /** Read until `expectBytes` arrived, EOF, or the timeout. */
    std::string
    recvUpTo(size_t expectBytes)
    {
        std::string out;
        char buf[65536];
        while (out.size() < expectBytes) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            out.append(buf, static_cast<size_t>(n));
        }
        return out;
    }

    /** Send `req`, read exactly `expectBytes` back. */
    std::string
    roundTrip(const std::string& req, size_t expectBytes)
    {
        sendAll(req);
        return recvUpTo(expectBytes);
    }

    std::string readToEof() { return recvUpTo(SIZE_MAX); }

 private:
    int fd_ = -1;
};

struct Stack {
    explicit Stack(Harness& h, unsigned workers = 2)
        : eng(h.engine()), kv(eng, 0, kvCfg()),
          svc(kv, svcCfg(workers)), tcp(svc, kv, server::TcpConfig{})
    {
        svc.start();
        tcp.start();
    }

    ~Stack()
    {
        tcp.stop();
        svc.stop();
    }

    static apps::KvServer::Config
    kvCfg()
    {
        // Few buckets per shard: keys of different connections share
        // hash chains, so workers serving them meet inside the store.
        apps::KvServer::Config cfg;
        cfg.shards = 16;
        cfg.bucketsPerShard = 4;
        return cfg;
    }

    static server::ServiceConfig
    svcCfg(unsigned workers)
    {
        server::ServiceConfig cfg;
        cfg.workers = workers;
        cfg.batchMax = 8;
        return cfg;
    }

    txn::Engine eng;
    apps::KvServer kv;
    server::KvService svc;
    server::TcpServer tcp;
};

TEST(TcpServer, MemcachedConversation)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port());

    std::string exp = "STORED\r\n";
    EXPECT_EQ(c.roundTrip("set foo 7 0 3\r\nbar\r\n", exp.size()),
              exp);

    exp = "VALUE foo 7 3 1\r\nbar\r\nEND\r\n";
    EXPECT_EQ(c.roundTrip("gets foo\r\n", exp.size()), exp);

    exp = "STORED\r\n";
    EXPECT_EQ(c.roundTrip("cas foo 7 0 3 1\r\nbaz\r\n", exp.size()),
              exp);
    exp = "EXISTS\r\n";  // stale cas unique
    EXPECT_EQ(c.roundTrip("cas foo 7 0 3 1\r\nnew\r\n", exp.size()),
              exp);
    exp = "NOT_FOUND\r\n";
    EXPECT_EQ(c.roundTrip("cas nil 0 0 1 1\r\nx\r\n", exp.size()),
              exp);

    exp = "VALUE foo 7 3 2\r\nbaz\r\nEND\r\n";
    EXPECT_EQ(c.roundTrip("gets foo\r\n", exp.size()), exp);

    exp = "DELETED\r\n";
    EXPECT_EQ(c.roundTrip("delete foo\r\n", exp.size()), exp);
    exp = "NOT_FOUND\r\n";
    EXPECT_EQ(c.roundTrip("delete foo\r\n", exp.size()), exp);

    exp = "END\r\n";  // miss
    EXPECT_EQ(c.roundTrip("get foo\r\n", exp.size()), exp);

    exp = "ERROR\r\n";
    EXPECT_EQ(c.roundTrip("bogus\r\n", exp.size()), exp);
}

TEST(TcpServer, PipelinedWindowKeepsCommandOrder)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port());

    // One burst: 4 sets + 1 get + 1 delete, answered in order.
    std::string req = "set a 0 0 2\r\naa\r\n"
                      "set b 0 0 2\r\nbb\r\n"
                      "set a 0 0 2\r\nAA\r\n"
                      "set c 0 0 2\r\ncc\r\n"
                      "get a\r\n"
                      "delete b\r\n";
    std::string exp = "STORED\r\nSTORED\r\nSTORED\r\nSTORED\r\n"
                      "VALUE a 0 2\r\nAA\r\nEND\r\n"
                      "DELETED\r\n";
    EXPECT_EQ(c.roundTrip(req, exp.size()), exp);
}

TEST(TcpServer, LoadGeneratorRoundTrip)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);

    server::LoadConfig cfg;
    cfg.port = s.tcp.port();
    cfg.connections = 2;
    cfg.totalOps = 4000;
    cfg.window = 16;
    cfg.keySpace = 500;
    cfg.valueLen = 64;
    cfg.writeRatio = 0.5;
    auto res = server::runLoad(cfg);
    EXPECT_EQ(res.opsAcked, 4000u);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_FALSE(res.serverDied);
    EXPECT_GT(res.opsPerSec, 0.0);
    EXPECT_GT(res.p99us, 0.0);
    EXPECT_GE(res.p99us, res.p50us);

    // Group commit engaged under pipelined load.
    auto st = s.svc.totalStats();
    EXPECT_GT(st.batches, 0u);
    EXPECT_GT(st.batchedOps, st.batches);
}


TEST(TcpServer, SlowClientStallsOnlyItself)
{
    // One worker, two connections. A pipelines gets of a 1 KiB value
    // and reads nothing: its replies (tens of MB) overflow both socket
    // buffers, so the worker must park them and keep serving B. A
    // worker that sent with a blocking send() would hang on A.
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h, /* workers */ 1);
    std::string big(ds::kMaxValLen, 'v');
    SockClient a(s.tcp.port(), 10, /* rcvbuf */ 64 << 10);
    std::string exp = "STORED\r\n";
    ASSERT_EQ(a.roundTrip("set big 0 0 1024\r\n" + big + "\r\n",
                          exp.size()),
              exp);

    std::string gets;
    for (int i = 0; i < 30000; i++)
        gets += "get big\r\n";
    std::thread flood([&] { a.sendAll(gets); });

    // Let the worker run into A's full buffers: its op count stops.
    uint64_t last = 0;
    int quiet = 0;
    for (int i = 0; i < 400 && quiet < 4; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        uint64_t ops = s.svc.totalStats().ops;
        quiet = ops == last && ops > 1 ? quiet + 1 : 0;
        last = ops;
    }
    EXPECT_EQ(quiet, 4) << "the worker never stalled on A";

    SockClient b(s.tcp.port(), /* timeoutSec */ 5);
    auto t0 = std::chrono::steady_clock::now();
    exp = "STORED\r\nVALUE bk 0 2\r\nok\r\nEND\r\n";
    EXPECT_EQ(b.roundTrip("set bk 0 0 2\r\nok\r\nget bk\r\n", exp.size()),
              exp);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));

    ::shutdown(a.fd(), SHUT_RDWR);  // unblocks the flood's send
    flood.join();
}

TEST(TcpServer, HalfClosedClientGetsEveryReply)
{
    // The client sends a pipelined burst, shuts its write side, and
    // only then reads to EOF: every reply must arrive, in order,
    // before the server closes. The burst (~45 KB) fits the socket
    // buffers, but its replies (~11 MB of multi-key gets of a 1 KiB
    // value) do not, so the server still holds unsent replies and
    // unread commands when the client's EOF arrives.
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port(), 10, /* rcvbuf */ 64 << 10);
    std::string big(ds::kMaxValLen, 'h');
    std::string exp = "STORED\r\n";
    ASSERT_EQ(c.roundTrip("set big 0 0 1024\r\n" + big + "\r\n",
                          exp.size()),
              exp);

    std::string req, line = "get";
    std::string value = "VALUE big 0 1024\r\n" + big + "\r\n";
    std::string values;
    for (int k = 0; k < 100; k++) {
        line += " big";
        values += value;
    }
    line += "\r\n";
    exp.clear();
    for (int i = 0; i < 110; i++) {
        if (i % 10 == 0) {  // distinct replies pin the order
            std::string key = "hk" + std::to_string(i);
            std::string val = "v" + std::to_string(i);
            req += "set " + key + " 0 0 " + std::to_string(val.size()) +
                   "\r\n" + val + "\r\nget " + key + "\r\n";
            exp += "STORED\r\nVALUE " + key + " 0 " +
                   std::to_string(val.size()) + "\r\n" + val +
                   "\r\nEND\r\n";
        }
        req += line;
        exp += values + "END\r\n";
    }
    c.sendAll(req);
    ::shutdown(c.fd(), SHUT_WR);
    std::string got = c.readToEof();
    EXPECT_EQ(got.size(), exp.size());
    EXPECT_TRUE(got == exp) << "replies lost, out of order or corrupted";
}

TEST(TcpServer, QuitMidBurstAnswersOnlyWhatCameBefore)
{
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    SockClient c(s.tcp.port());
    c.sendAll("set qa 0 0 2\r\naa\r\n"
              "get qa\r\n"
              "quit\r\n"
              "set qb 0 0 2\r\nbb\r\n"
              "get qa\r\n");
    EXPECT_EQ(c.readToEof(), "STORED\r\nVALUE qa 0 2\r\naa\r\nEND\r\n");

    SockClient d(s.tcp.port());
    std::string exp = "END\r\n";  // the set after quit never ran
    EXPECT_EQ(d.roundTrip("get qb\r\n", exp.size()), exp);
}

TEST(TcpServer, ConnectionsOnSharedShardsMatchTheirModels)
{
    // 4 connections on 2 workers. Each connection has its own keys,
    // but every shard holds keys of at least two connections (and
    // Stack's shards have 4 buckets each, so they share chains too):
    // the workers contend on shards and only the shard locks keep
    // them apart. Every reply and the final store must match each
    // connection's model.
    Harness h(RuntimeKind::clobber, rt::ClobberPolicy::refined,
              64ULL << 20);
    Stack s(h);
    constexpr unsigned kConns = 4;
    constexpr int kKeys = 40;
    auto keyOf = [](unsigned conn, uint64_t i) {
        return "c" + std::to_string(conn) + "-" + std::to_string(i);
    };
    std::vector<std::set<unsigned>> connsOfShard(s.kv.shardCount());
    for (unsigned c = 0; c < kConns; c++)
        for (int i = 0; i < kKeys; i++)
            connsOfShard[s.kv.shardOf(keyOf(c, i))].insert(c);
    for (const auto& conns : connsOfShard)
        ASSERT_GE(conns.size(), 2u);

    std::vector<std::map<std::string, std::string>> models(kConns);
    std::vector<int> mismatches(kConns, 0);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConns; c++) {
        threads.emplace_back([&, c] {
            SockClient sock(s.tcp.port());
            auto& model = models[c];
            Xorshift rng(101 + c);
            for (int round = 0; round < 150; round++) {
                std::string req, exp;
                for (int i = 0; i < 24; i++) {
                    std::string key = keyOf(c, rng.nextUint(kKeys));
                    uint64_t dice = rng.nextUint(20);
                    auto it = model.find(key);
                    if (dice < 10) {
                        std::string val = "v" + std::to_string(round) +
                                          "." + std::to_string(i);
                        req += "set " + key + " 0 0 " +
                               std::to_string(val.size()) + "\r\n" +
                               val + "\r\n";
                        exp += "STORED\r\n";
                        model[key] = val;
                    } else if (dice < 13) {
                        req += "delete " + key + "\r\n";
                        exp += it != model.end() ? "DELETED\r\n"
                                                 : "NOT_FOUND\r\n";
                        if (it != model.end())
                            model.erase(it);
                    } else {
                        req += "get " + key + "\r\n";
                        if (it != model.end())
                            exp += "VALUE " + key + " 0 " +
                                   std::to_string(it->second.size()) +
                                   "\r\n" + it->second + "\r\n";
                        exp += "END\r\n";
                    }
                }
                if (sock.roundTrip(req, exp.size()) != exp)
                    mismatches[c]++;
            }
        });
    }
    for (auto& t : threads)
        t.join();
    // Joining the workers orders their slot use before this thread's.
    s.tcp.stop();
    s.svc.stop();

    size_t items = 0;
    for (unsigned c = 0; c < kConns; c++) {
        EXPECT_EQ(mismatches[c], 0) << "connection " << c;
        for (int i = 0; i < kKeys; i++) {
            std::string key = keyOf(c, i);
            auto it = models[c].find(key);
            ds::LookupResult r;
            bool found = s.kv.get(key, &r);
            ASSERT_EQ(found, it != models[c].end()) << key;
            if (found) {
                EXPECT_EQ(r.str(), it->second) << key;
            }
        }
        items += models[c].size();
    }
    EXPECT_EQ(s.kv.itemCount(), items);
}

}  // namespace
}  // namespace cnvm::test
