#include "server/tcp_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"

namespace cnvm::server {

constexpr int kBacklog = 64;

TcpServer::TcpServer(KvService& svc, apps::KvServer& /*kv*/,
                     const TcpConfig& cfg)
    : svc_(svc), cfg_(cfg)
{
}

TcpServer::~TcpServer()
{
    if (running_)
        stop();
}

void
TcpServer::start()
{
    CNVM_CHECK(!running_, "server already started");
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        fatal(strprintf("socket(): %s", std::strerror(errno)));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0)
        fatal(strprintf("bind(port %u): %s", unsigned(cfg_.port),
                        std::strerror(errno)));
    if (::listen(listenFd_, kBacklog) != 0)
        fatal(strprintf("listen(): %s", std::strerror(errno)));

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
    running_ = true;
}

void
TcpServer::stop()
{
    if (!running_)
        return;
    // Shutting the listener down makes accept() fail, so the accept
    // thread exits.
    ::shutdown(listenFd_, SHUT_RDWR);
    acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    running_ = false;
}

void
TcpServer::acceptLoop()
{
    for (;;) {
        int fd = ::accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return;  // listener shut down (stop) or fatal
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        svc_.adopt(fd);
    }
}

}  // namespace cnvm::server
