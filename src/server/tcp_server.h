/**
 * @file
 * TCP front-end for the KV service: the listening socket on
 * 127.0.0.1 and its accept thread.
 *
 * The accept thread hands each accepted socket to the next KvService
 * worker in turn (KvService::adopt). That worker owns the connection
 * from then on: it reads each burst, runs the window of memcached
 * text-protocol commands it holds (server/protocol.h), and answers in
 * command order. Pipelining clients therefore get batching for free:
 * the deeper the pipeline, the more mutations fuse into one
 * transaction.
 *
 * Replies are sent only after the covering transaction committed, so
 * any response the client has seen is durable across a crash
 * (kill -9 included) — the invariant the kill-mid-traffic torture
 * lane checks.
 */
#ifndef CNVM_SERVER_TCP_SERVER_H
#define CNVM_SERVER_TCP_SERVER_H

#include <cstdint>
#include <thread>

#include "server/kv_service.h"

namespace cnvm::server {

struct TcpConfig {
    /** 0 → ephemeral; read the bound port back with port(). */
    uint16_t port = 0;
};

class TcpServer {
 public:
    /** `kv` is the store `svc` serves; the workers reach it through
     *  `svc`, so the front-end itself never touches it. */
    TcpServer(KvService& svc, apps::KvServer& kv,
              const TcpConfig& cfg);
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    /** Bind + listen on 127.0.0.1 and launch the accept thread.
     *  @throws FatalError if the socket cannot be bound. */
    void start();

    /** Close the listener and join the accept thread. Connections
     *  already handed over belong to the service: KvService::stop()
     *  closes them. */
    void stop();

    /** The bound port (valid after start()). */
    uint16_t port() const { return port_; }

 private:
    void acceptLoop();

    KvService& svc_;
    TcpConfig cfg_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    bool running_ = false;
    std::thread acceptThread_;
};

}  // namespace cnvm::server

#endif  // CNVM_SERVER_TCP_SERVER_H
