/**
 * @file
 * The benchmark's own memcached-text client: formats a window of
 * planned ops, sends it in one write, and parses every reply, checking
 * each status line. Written here rather than reusing src/server's
 * formatting so the bytes on the wire are fixed by the benchmark.
 */
#ifndef KVBENCH_CLIENT_H
#define KVBENCH_CLIENT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace kvbench {

class McClient {
 public:
    /** Connect to 127.0.0.1:`port`. Throws std::runtime_error. */
    explicit McClient(uint16_t port);
    ~McClient();

    McClient(const McClient&) = delete;
    McClient& operator=(const McClient&) = delete;

    /**
     * Send `n` requests pipelined in one window and read their `n`
     * replies into `replies`. A reply whose status line is not one
     * its request allows gets ok = false. @return false when the
     * connection failed or timed out (replies are then incomplete).
     */
    bool roundTrip(const Planned* ops, size_t n,
                   const std::vector<std::string>& keys, Reply* replies);

 private:
    bool fill();
    bool readLine(std::string_view* line);
    bool readData(size_t n, std::string_view* data);
    bool readReply(const Planned& p, const std::string& key, Reply* r);

    int fd_ = -1;
    std::string out_;
    std::string in_;
    size_t pos_ = 0;
};

}  // namespace kvbench

#endif  // KVBENCH_CLIENT_H
