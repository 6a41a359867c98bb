#include "client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

namespace kvbench {

namespace {

/** A stuck server must fail the run, not hang it past its deadline. */
constexpr int kRecvTimeoutS = 30;

bool
parseU64(std::string_view s, uint64_t* v)
{
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *v);
    return ec == std::errc() && p == s.data() + s.size();
}

/** Split `line` on single spaces. */
std::vector<std::string_view>
fields(std::string_view line)
{
    std::vector<std::string_view> out;
    size_t i = 0;
    while (i <= line.size()) {
        size_t j = line.find(' ', i);
        if (j == std::string_view::npos)
            j = line.size();
        out.push_back(line.substr(i, j - i));
        i = j + 1;
    }
    return out;
}

}  // namespace

McClient::McClient(uint16_t port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd_);
        throw std::runtime_error("connect to 127.0.0.1 failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = kRecvTimeoutS;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

McClient::~McClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
McClient::fill()
{
    if (pos_ > 0 && pos_ == in_.size()) {
        in_.clear();
        pos_ = 0;
    }
    char buf[65536];
    for (;;) {
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        in_.append(buf, size_t(n));
        return true;
    }
}

bool
McClient::readLine(std::string_view* line)
{
    for (;;) {
        size_t eol = in_.find("\r\n", pos_);
        if (eol != std::string::npos) {
            *line = std::string_view(in_).substr(pos_, eol - pos_);
            pos_ = eol + 2;
            return true;
        }
        if (!fill())
            return false;
    }
}

bool
McClient::readData(size_t n, std::string_view* data)
{
    while (in_.size() - pos_ < n + 2) {
        if (!fill())
            return false;
    }
    *data = std::string_view(in_).substr(pos_, n);
    bool framed = in_.compare(pos_ + n, 2, "\r\n") == 0;
    pos_ += n + 2;
    return framed;
}

bool
McClient::readReply(const Planned& p, const std::string& key, Reply* r)
{
    std::string_view line;
    if (!readLine(&line))
        return false;
    r->ok = true;
    r->found = false;
    switch (p.kind) {
      case OpKind::set:
        r->ok = line == "STORED";
        return true;
      case OpKind::del:
        r->found = line == "DELETED";
        r->ok = r->found || line == "NOT_FOUND";
        return true;
      case OpKind::get:
      case OpKind::gets:
        break;
    }
    r->versionKnown = p.kind == OpKind::gets;
    if (line == "END")
        return true;
    // VALUE <key> <flags> <bytes> [<cas unique>] / data / END
    auto f = fields(line);
    uint64_t flags = 0, bytes = 0, cas = 0;
    size_t want = p.kind == OpKind::gets ? 5 : 4;
    if (f.size() != want || f[0] != "VALUE" || f[1] != key ||
        !parseU64(f[2], &flags) || !parseU64(f[3], &bytes) ||
        (want == 5 && !parseU64(f[4], &cas)) || bytes > (1u << 20)) {
        r->ok = false;
        return false;  // framing is lost: the connection is unusable
    }
    std::string_view data;
    if (!readData(size_t(bytes), &data)) {
        r->ok = false;
        return false;
    }
    r->found = true;
    r->flags = uint32_t(flags);
    r->version = uint32_t(cas);
    r->len = uint32_t(bytes);
    std::memcpy(r->val, data.data(),
                data.size() < kValLen ? data.size() : kValLen);
    if (!readLine(&line))
        return false;
    r->ok = line == "END";
    return true;
}

bool
McClient::roundTrip(const Planned* ops, size_t n,
                    const std::vector<std::string>& keys, Reply* replies)
{
    out_.clear();
    char num[32];
    for (size_t i = 0; i < n; i++) {
        const Planned& p = ops[i];
        const std::string& key = keys[p.key];
        switch (p.kind) {
          case OpKind::set: {
            out_ += "set ";
            out_ += key;
            int m = std::snprintf(num, sizeof(num), " %u 0 %zu\r\n",
                                  p.flags, kValLen);
            out_.append(num, size_t(m));
            out_.append(p.val, kValLen);
            out_ += "\r\n";
            break;
          }
          case OpKind::get:
            out_ += "get " + key + "\r\n";
            break;
          case OpKind::gets:
            out_ += "gets " + key + "\r\n";
            break;
          case OpKind::del:
            out_ += "delete " + key + "\r\n";
            break;
        }
    }
    size_t sent = 0;
    while (sent < out_.size()) {
        ssize_t m = ::send(fd_, out_.data() + sent, out_.size() - sent,
                           MSG_NOSIGNAL);
        if (m < 0 && errno == EINTR)
            continue;
        if (m <= 0)
            return false;
        sent += size_t(m);
    }
    for (size_t i = 0; i < n; i++) {
        if (!readReply(ops[i], keys[ops[i].key], &replies[i]))
            return false;
    }
    return true;
}

}  // namespace kvbench
