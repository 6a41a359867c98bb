/**
 * @file
 * Saturating load generator + crash-consistency verifier for the KV
 * service (memslap/YCSB-style mixed traffic over the memcached text
 * protocol).
 *
 * runLoad() opens N connections to 127.0.0.1:<port>, each driving
 * pipelined windows of mixed get/gets/set/delete traffic over a
 * partitioned keyspace and measuring window round-trip latency.
 * Deep windows are what makes group commit visible: the server fuses
 * a window's run of mutations into one transaction.
 *
 * Shadow mode (shadowPath != "") writes one journal per connection,
 * `<shadowPath>.<conn>`, recording every mutation twice: a pending
 * line *before* it is sent and an acked line once the server's reply
 * arrives. Because the server acks only after commit, an acked line
 * is a durability promise. After a kill -9 and restart,
 * verifyShadow() replays each journal into the set of values every
 * key is *allowed* to hold (acked value, or any still-unacked pending
 * value — the crash may have landed before or after an in-flight
 * op) and checks the recovered server against it. Journal line
 * protocol: "P key val" pending set, "S key val" acked set,
 * "Q key" pending delete, "D key" acked delete.
 */
#ifndef CNVM_SERVER_LOADGEN_H
#define CNVM_SERVER_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace cnvm::server {

struct LoadConfig {
    uint16_t port = 0;
    unsigned connections = 2;
    uint64_t totalOps = 100000;   ///< across all connections
    unsigned window = 16;         ///< pipelined ops per round trip
    uint64_t keySpace = 10000;    ///< partitioned over connections
    size_t valueLen = 64;         ///< paper's memslap config
    double writeRatio = 0.5;      ///< set+delete fraction
    uint64_t seed = 1;
    std::string shadowPath;       ///< "" → no shadow journal
    /** Wall-clock cap; 0 → none. Load stops early once exceeded. */
    double maxSeconds = 0;
};

struct LoadResult {
    uint64_t opsAcked = 0;     ///< responses received
    uint64_t errors = 0;       ///< SERVER_ERROR / protocol surprises
    double seconds = 0;
    double opsPerSec = 0;
    double p50us = 0, p95us = 0, p99us = 0;  ///< window round trips
    bool serverDied = false;   ///< connection dropped mid-run
};

LoadResult runLoad(const LoadConfig& cfg);

struct VerifyResult {
    uint64_t keysChecked = 0;
    uint64_t violations = 0;
    std::vector<std::string> examples;  ///< first few, for the log
};

/**
 * Check a recovered server at `port` against the shadow journals a
 * previous runLoad(shadowPath) left behind.
 */
VerifyResult verifyShadow(const std::string& shadowPath,
                          unsigned connections, uint16_t port);

}  // namespace cnvm::server

#endif  // CNVM_SERVER_LOADGEN_H
