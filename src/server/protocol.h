/**
 * @file
 * Memcached text protocol: incremental request parser and response
 * formatting (the subset the paper's memslap workload exercises, plus
 * the cas/gets pair).
 *
 * Supported commands:
 *
 *   get <key>+                       → VALUE <key> <flags> <bytes>
 *   gets <key>+                      → VALUE ... <casunique>
 *   set <key> <flags> <exp> <bytes> [noreply]  + data block
 *   cas <key> <flags> <exp> <bytes> <casunique> [noreply] + data
 *   delete <key> [noreply]
 *   stats | version | quit
 *
 * exptime is parsed and ignored (the persistent store does not
 * expire), matching how the paper's port drives memcached with
 * never-expiring items. The parser is incremental: feed() bytes as
 * they arrive off the socket, next() pops complete commands; partial
 * lines and split data blocks simply wait for more bytes.
 */
#ifndef CNVM_SERVER_PROTOCOL_H
#define CNVM_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cnvm::server::proto {

enum class Cmd : uint8_t {
    get,
    gets,
    set,
    cas,
    del,
    stats,
    version,
    quit,
};

struct Command {
    Cmd cmd = Cmd::get;
    std::vector<std::string> keys;  ///< get/gets: 1+, others: exactly 1
    std::string data;               ///< set/cas payload
    uint32_t flags = 0;
    uint32_t exptime = 0;           ///< parsed, ignored
    uint64_t casUnique = 0;         ///< cas only
    bool noreply = false;
};

/** Hard cap on a declared data block; larger is a protocol error
 *  (the store's own limit, ds::kMaxValLen, is enforced upstream). */
constexpr size_t kMaxDataBytes = 1 << 20;
/** memcached's key limit (the store may impose a tighter one). */
constexpr size_t kMaxProtoKeyLen = 250;

class Parser {
 public:
    enum class Status {
        need,   ///< no complete command buffered yet
        ok,     ///< *out filled
        error,  ///< malformed line consumed; *error holds the response
    };

    void feed(const char* data, size_t n);

    /**
     * Pop the next complete command. On Status::error the offending
     * line (and, when its header declared a parseable length, its
     * data block) has been consumed, so the connection can keep
     * going; `*error` is the full response line to send (ERROR /
     * CLIENT_ERROR ...).
     */
    Status next(Command* out, std::string* error);

 private:
    Status parseLine(std::string_view line, Command* out,
                     std::string* error);

    std::string buf_;
    size_t pos_ = 0;
    /** set/cas whose header parsed but whose data is still in flight */
    bool wantData_ = false;
    size_t pendingBytes_ = 0;
    Command pending_;
};

/** @name Response formatting */
/// @{
void appendValue(std::string& out, std::string_view key,
                 uint32_t flags, std::string_view data, bool withCas,
                 uint64_t casUnique);
inline void
appendEnd(std::string& out)
{
    out += "END\r\n";
}
/// @}

/** @name Request formatting (client side: load generator, tests) */
/// @{
void formatGet(std::string& out, std::string_view key, bool withCas);
void formatSet(std::string& out, std::string_view key,
               std::string_view val, uint32_t flags, bool noreply);
void formatDelete(std::string& out, std::string_view key,
                  bool noreply);
/// @}

}  // namespace cnvm::server::proto

#endif  // CNVM_SERVER_PROTOCOL_H
