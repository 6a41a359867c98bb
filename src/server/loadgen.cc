#include "server/loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "server/protocol.h"

namespace cnvm::server {

namespace {

constexpr double kDeleteFrac = 0.05;  ///< of writes, how many delete
constexpr double kGetsFrac = 0.1;     ///< of reads, how many use `gets`

int
connectTo(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string& data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Buffered line/byte reader over a socket. */
struct LineReader {
    int fd;
    std::string buf;
    size_t pos = 0;

    explicit LineReader(int f) : fd(f) {}

    bool
    fill()
    {
        char tmp[8192];
        for (;;) {
            ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf.append(tmp, static_cast<size_t>(n));
            return true;
        }
    }

    void
    compact()
    {
        if (pos > 65536) {
            buf.erase(0, pos);
            pos = 0;
        }
    }

    /** Read one \r\n-terminated line (without the terminator). */
    bool
    readLine(std::string* line)
    {
        for (;;) {
            auto nl = buf.find("\r\n", pos);
            if (nl != std::string::npos) {
                line->assign(buf, pos, nl - pos);
                pos = nl + 2;
                compact();
                return true;
            }
            if (!fill())
                return false;
        }
    }

    /** Read exactly n raw bytes. */
    bool
    readBytes(size_t n, std::string* out)
    {
        while (buf.size() - pos < n) {
            if (!fill())
                return false;
        }
        out->assign(buf, pos, n);
        pos += n;
        compact();
        return true;
    }
};

/** One get reply, read up to its END. */
struct GetReply {
    enum End { end, errorLine, closed } how = end;
    bool found = false;  ///< a VALUE block arrived whole
    std::string value;   ///< the last such block's data
};

GetReply
readGetReply(LineReader& rd)
{
    GetReply r;
    std::string line;
    for (;;) {
        if (!rd.readLine(&line)) {
            r.how = GetReply::closed;
            return r;
        }
        if (line == "END")
            return r;
        if (line.rfind("VALUE ", 0) != 0) {
            r.how = GetReply::errorLine;  // ERROR-ish line ends it
            return r;
        }
        // header: VALUE <key> <flags> <bytes> [cas]
        std::istringstream hs(line);
        std::string tag, k;
        uint32_t flags = 0;
        size_t bytes = 0;
        hs >> tag >> k >> flags >> bytes;
        if (!rd.readBytes(bytes + 2, &r.value)) {
            r.how = GetReply::closed;
            return r;
        }
        r.value.resize(bytes);
        r.found = true;
    }
}

uint64_t
xorshift(uint64_t& s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

std::string
keyName(uint64_t idx)
{
    char k[32];
    std::snprintf(k, sizeof(k), "k%08llu",
                  static_cast<unsigned long long>(idx));
    return k;
}

std::string
makeValue(unsigned conn, uint64_t seq, size_t len)
{
    char head[48];
    int n = std::snprintf(head, sizeof(head), "v%u-%llu-", conn,
                          static_cast<unsigned long long>(seq));
    std::string v(head, static_cast<size_t>(n));
    while (v.size() < len)
        v += 'x';
    v.resize(len);
    return v;
}

enum class OpKind : uint8_t { get, gets, set, del };

struct PerConn {
    uint64_t acked = 0;
    uint64_t errors = 0;
    bool died = false;
    std::vector<double> windowUs;
};

void
loadWorker(const LoadConfig& cfg, unsigned conn, uint64_t opsTarget,
           PerConn* out)
{
    int fd = connectTo(cfg.port);
    if (fd < 0) {
        out->died = true;
        return;
    }
    LineReader rd(fd);

    FILE* shadow = nullptr;
    if (!cfg.shadowPath.empty()) {
        std::string path =
            cfg.shadowPath + "." + std::to_string(conn);
        shadow = std::fopen(path.c_str(), "w");
        if (shadow == nullptr) {
            ::close(fd);
            out->died = true;
            return;
        }
    }

    uint64_t lo = cfg.keySpace * conn / cfg.connections;
    uint64_t hi = cfg.keySpace * (conn + 1) / cfg.connections;
    if (hi <= lo)
        hi = lo + 1;

    uint64_t rng = cfg.seed * 0x9e3779b97f4a7c15ull + conn + 1;
    uint64_t seq = 0;
    uint64_t done = 0;
    auto t0 = std::chrono::steady_clock::now();

    struct WinOp {
        OpKind kind;
        std::string key;
        std::string val;
    };
    std::vector<WinOp> ops;
    std::string wire;
    std::string line;

    while (done < opsTarget && !out->died) {
        if (cfg.maxSeconds > 0) {
            std::chrono::duration<double> el =
                std::chrono::steady_clock::now() - t0;
            if (el.count() > cfg.maxSeconds)
                break;
        }
        size_t w = static_cast<size_t>(
            std::min<uint64_t>(cfg.window, opsTarget - done));
        ops.clear();
        wire.clear();
        for (size_t i = 0; i < w; i++) {
            WinOp op;
            op.key = keyName(lo + xorshift(rng) % (hi - lo));
            double r = double(xorshift(rng) >> 11) / double(1ull << 53);
            if (r < cfg.writeRatio) {
                double r2 =
                    double(xorshift(rng) >> 11) / double(1ull << 53);
                if (r2 < kDeleteFrac) {
                    op.kind = OpKind::del;
                } else {
                    op.kind = OpKind::set;
                    op.val = makeValue(conn, seq++, cfg.valueLen);
                }
            } else {
                double r2 =
                    double(xorshift(rng) >> 11) / double(1ull << 53);
                op.kind =
                    r2 < kGetsFrac ? OpKind::gets : OpKind::get;
            }
            switch (op.kind) {
            case OpKind::get:
                proto::formatGet(wire, op.key, false);
                break;
            case OpKind::gets:
                proto::formatGet(wire, op.key, true);
                break;
            case OpKind::set:
                proto::formatSet(wire, op.key, op.val, 0, false);
                if (shadow != nullptr)
                    std::fprintf(shadow, "P %s %s\n", op.key.c_str(),
                                 op.val.c_str());
                break;
            case OpKind::del:
                proto::formatDelete(wire, op.key, false);
                if (shadow != nullptr)
                    std::fprintf(shadow, "Q %s\n", op.key.c_str());
                break;
            }
            ops.push_back(std::move(op));
        }
        if (shadow != nullptr)
            std::fflush(shadow);

        auto w0 = std::chrono::steady_clock::now();
        if (!sendAll(fd, wire)) {
            out->died = true;
            break;
        }
        for (const WinOp& op : ops) {
            if (op.kind == OpKind::get || op.kind == OpKind::gets) {
                GetReply reply = readGetReply(rd);
                if (reply.how == GetReply::closed)
                    out->died = true;
                else if (reply.how == GetReply::errorLine)
                    out->errors++;
            } else {
                if (!rd.readLine(&line)) {
                    out->died = true;
                    break;
                }
                if (op.kind == OpKind::set) {
                    if (line == "STORED") {
                        if (shadow != nullptr)
                            std::fprintf(shadow, "S %s %s\n",
                                         op.key.c_str(),
                                         op.val.c_str());
                    } else {
                        out->errors++;
                    }
                } else {  // del
                    if (line == "DELETED" || line == "NOT_FOUND") {
                        if (shadow != nullptr)
                            std::fprintf(shadow, "D %s\n",
                                         op.key.c_str());
                    } else {
                        out->errors++;
                    }
                }
            }
            if (out->died)
                break;
            out->acked++;
            done++;
        }
        if (shadow != nullptr)
            std::fflush(shadow);
        std::chrono::duration<double, std::micro> wel =
            std::chrono::steady_clock::now() - w0;
        out->windowUs.push_back(wel.count());
    }

    if (shadow != nullptr)
        std::fclose(shadow);
    ::close(fd);
}

double
percentile(std::vector<double>& v, double p)
{
    if (v.empty())
        return 0;
    size_t idx = static_cast<size_t>(p * double(v.size() - 1));
    return v[idx];
}

}  // namespace

LoadResult
runLoad(const LoadConfig& cfg)
{
    LoadResult res;
    unsigned conns = std::max(1u, cfg.connections);
    std::vector<PerConn> per(conns);
    std::vector<std::thread> threads;
    uint64_t opsPerConn = cfg.totalOps / conns;
    if (opsPerConn == 0)
        opsPerConn = 1;

    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < conns; c++)
        threads.emplace_back(loadWorker, std::cref(cfg), c,
                             opsPerConn, &per[c]);
    for (auto& t : threads)
        t.join();
    std::chrono::duration<double> el =
        std::chrono::steady_clock::now() - t0;
    res.seconds = el.count();

    std::vector<double> lat;
    for (const PerConn& p : per) {
        res.opsAcked += p.acked;
        res.errors += p.errors;
        res.serverDied = res.serverDied || p.died;
        lat.insert(lat.end(), p.windowUs.begin(), p.windowUs.end());
    }
    std::sort(lat.begin(), lat.end());
    res.p50us = percentile(lat, 0.50);
    res.p95us = percentile(lat, 0.95);
    res.p99us = percentile(lat, 0.99);
    res.opsPerSec =
        res.seconds > 0 ? double(res.opsAcked) / res.seconds : 0;
    return res;
}

VerifyResult
verifyShadow(const std::string& shadowPath, unsigned connections,
             uint16_t port)
{
    VerifyResult res;

    /** What a key is allowed to look like after the crash. */
    struct Allowed {
        bool baseKnown = false;  ///< an acked op pinned the state
        bool absentOk = false;
        std::vector<std::string> vals;
    };
    std::map<std::string, Allowed> keys;

    for (unsigned c = 0; c < connections; c++) {
        std::ifstream in(shadowPath + "." + std::to_string(c));
        if (!in.is_open())
            continue;  // connection died before writing its journal
        std::string tag, key, val;
        std::string lineBuf;
        while (std::getline(in, lineBuf)) {
            std::istringstream ls(lineBuf);
            if (!(ls >> tag >> key))
                continue;
            Allowed& a = keys[key];
            if (tag == "S") {
                if (!(ls >> val))
                    continue;
                a.baseKnown = true;
                a.absentOk = false;
                a.vals.clear();
                a.vals.push_back(val);
            } else if (tag == "D") {
                a.baseKnown = true;
                a.absentOk = true;
                a.vals.clear();
            } else if (tag == "P") {
                if (!(ls >> val))
                    continue;
                a.vals.push_back(val);
            } else if (tag == "Q") {
                a.absentOk = true;
            }
        }
    }

    int fd = connectTo(port);
    if (fd < 0) {
        res.violations = 1;
        res.examples.push_back("cannot connect to server");
        return res;
    }
    LineReader rd(fd);
    std::string wire;

    for (const auto& [key, a] : keys) {
        if (!a.baseKnown)
            continue;  // never acked: prior state unknown, unverifiable
        wire.clear();
        proto::formatGet(wire, key, false);
        if (!sendAll(fd, wire))
            break;
        // A closed connection or an error line reads as what arrived.
        GetReply reply = readGetReply(rd);
        bool found = reply.found;
        const std::string& got = reply.value;
        res.keysChecked++;
        bool ok;
        if (found) {
            ok = std::find(a.vals.begin(), a.vals.end(), got) !=
                 a.vals.end();
        } else {
            ok = a.absentOk;
        }
        if (!ok) {
            res.violations++;
            if (res.examples.size() < 5) {
                std::string ex = "key " + key + ": server=" +
                                 (found ? got.substr(0, 32) : "MISS") +
                                 " allowed={";
                for (const auto& v : a.vals)
                    ex += v.substr(0, 16) + ",";
                if (a.absentOk)
                    ex += "MISS";
                ex += "}";
                res.examples.push_back(std::move(ex));
            }
        }
    }
    ::close(fd);
    return res;
}

}  // namespace cnvm::server
