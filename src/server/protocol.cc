#include "server/protocol.h"

#include <charconv>
#include <cstdio>

namespace cnvm::server::proto {

namespace {

/** Split a command line into whitespace-separated tokens. */
std::vector<std::string_view>
tokenize(std::string_view line)
{
    std::vector<std::string_view> out;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ')
            i++;
        size_t start = i;
        while (i < line.size() && line[i] != ' ')
            i++;
        if (i > start)
            out.push_back(line.substr(start, i - start));
    }
    return out;
}

template <typename T>
bool
parseNum(std::string_view tok, T* out)
{
    auto [p, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), *out);
    return ec == std::errc() && p == tok.data() + tok.size();
}

bool
validKey(std::string_view key)
{
    if (key.empty() || key.size() > kMaxProtoKeyLen)
        return false;
    for (char c : key) {
        if (c <= ' ' || c == 0x7f)  // no control chars or spaces
            return false;
    }
    return true;
}

}  // namespace

void
Parser::feed(const char* data, size_t n)
{
    // Compact lazily: only once the consumed prefix dominates.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(data, n);
}

Parser::Status
Parser::next(Command* out, std::string* error)
{
    if (wantData_) {
        // A set/cas header already parsed; wait for bytes + CRLF.
        size_t declared = pendingBytes_;
        if (buf_.size() - pos_ < declared + 2)
            return Status::need;
        std::string_view block(buf_.data() + pos_, declared);
        bool terminated = buf_[pos_ + declared] == '\r' &&
                          buf_[pos_ + declared + 1] == '\n';
        pos_ += declared + 2;
        wantData_ = false;
        if (!terminated) {
            *error = "CLIENT_ERROR bad data chunk\r\n";
            return Status::error;
        }
        pending_.data.assign(block);
        *out = std::move(pending_);
        pending_ = Command{};
        return Status::ok;
    }

    auto nl = buf_.find("\r\n", pos_);
    if (nl == std::string::npos) {
        // Tolerate bare-\n clients (telnet-style testing).
        auto bare = buf_.find('\n', pos_);
        if (bare == std::string::npos)
            return Status::need;
        std::string_view line(buf_.data() + pos_, bare - pos_);
        pos_ = bare + 1;
        return parseLine(line, out, error);
    }
    std::string_view line(buf_.data() + pos_, nl - pos_);
    pos_ = nl + 2;
    return parseLine(line, out, error);
}

Parser::Status
Parser::parseLine(std::string_view line, Command* out,
                  std::string* error)
{
    auto toks = tokenize(line);
    if (toks.empty())
        return Status::need;  // empty line: ignore, wait for more

    Command c;
    std::string_view verb = toks[0];
    if (verb == "get" || verb == "gets") {
        if (toks.size() < 2) {
            *error = "ERROR\r\n";
            return Status::error;
        }
        c.cmd = verb == "get" ? Cmd::get : Cmd::gets;
        for (size_t i = 1; i < toks.size(); i++) {
            if (!validKey(toks[i])) {
                *error = "CLIENT_ERROR bad key\r\n";
                return Status::error;
            }
            c.keys.emplace_back(toks[i]);
        }
        *out = std::move(c);
        return Status::ok;
    }
    if (verb == "set" || verb == "cas") {
        bool isCas = verb == "cas";
        size_t fixed = isCas ? 6 : 5;
        if (toks.size() < fixed || toks.size() > fixed + 1) {
            *error = "ERROR\r\n";
            return Status::error;
        }
        uint32_t bytes = 0;
        if (!validKey(toks[1]) || !parseNum(toks[2], &c.flags) ||
            !parseNum(toks[3], &c.exptime) ||
            !parseNum(toks[4], &bytes) ||
            (isCas && !parseNum(toks[5], &c.casUnique))) {
            *error = "CLIENT_ERROR bad command line format\r\n";
            return Status::error;
        }
        if (bytes > kMaxDataBytes) {
            *error = "SERVER_ERROR object too large for cache\r\n";
            return Status::error;
        }
        if (toks.size() == fixed + 1) {
            if (toks[fixed] != "noreply") {
                *error = "CLIENT_ERROR bad command line format\r\n";
                return Status::error;
            }
            c.noreply = true;
        }
        c.cmd = isCas ? Cmd::cas : Cmd::set;
        c.keys.emplace_back(toks[1]);
        pending_ = std::move(c);
        pendingBytes_ = bytes;
        wantData_ = true;
        return next(out, error);  // data may already be buffered
    }
    if (verb == "delete") {
        if (toks.size() < 2 || !validKey(toks[1])) {
            *error = "CLIENT_ERROR bad key\r\n";
            return Status::error;
        }
        c.cmd = Cmd::del;
        c.keys.emplace_back(toks[1]);
        if (toks.back() == "noreply" && toks.size() > 2)
            c.noreply = true;
        *out = std::move(c);
        return Status::ok;
    }
    if (verb == "stats") {
        c.cmd = Cmd::stats;
        *out = std::move(c);
        return Status::ok;
    }
    if (verb == "version") {
        c.cmd = Cmd::version;
        *out = std::move(c);
        return Status::ok;
    }
    if (verb == "quit") {
        c.cmd = Cmd::quit;
        *out = std::move(c);
        return Status::ok;
    }
    *error = "ERROR\r\n";
    return Status::error;
}

void
appendValue(std::string& out, std::string_view key, uint32_t flags,
            std::string_view data, bool withCas, uint64_t casUnique)
{
    char head[128];
    int n;
    if (withCas) {
        n = std::snprintf(head, sizeof(head),
                          "VALUE %.*s %u %zu %llu\r\n",
                          static_cast<int>(key.size()), key.data(),
                          flags, data.size(),
                          static_cast<unsigned long long>(casUnique));
    } else {
        n = std::snprintf(head, sizeof(head), "VALUE %.*s %u %zu\r\n",
                          static_cast<int>(key.size()), key.data(),
                          flags, data.size());
    }
    out.append(head, static_cast<size_t>(n));
    out.append(data);
    out += "\r\n";
}

void
formatGet(std::string& out, std::string_view key, bool withCas)
{
    out += withCas ? "gets " : "get ";
    out.append(key);
    out += "\r\n";
}

void
formatSet(std::string& out, std::string_view key, std::string_view val,
          uint32_t flags, bool noreply)
{
    char head[128];
    int n = std::snprintf(head, sizeof(head), "set %.*s %u 0 %zu%s\r\n",
                          static_cast<int>(key.size()), key.data(),
                          flags, val.size(), noreply ? " noreply" : "");
    out.append(head, static_cast<size_t>(n));
    out.append(val);
    out += "\r\n";
}

void
formatDelete(std::string& out, std::string_view key, bool noreply)
{
    out += "delete ";
    out.append(key);
    if (noreply)
        out += " noreply";
    out += "\r\n";
}

}  // namespace cnvm::server::proto
