#include "loadgen.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
buildRequest(const std::string &method, const std::string &target,
             const std::string &body, const std::string &requestId)
{
    std::string r = method + " " + target + " HTTP/1.1\r\n";
    r += "Host: 127.0.0.1\r\n";
    r += "X-Bpsim-Request-Id: " + requestId + "\r\n";
    if (!body.empty() || method == "POST") {
        r += "Content-Type: application/json\r\n";
        r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    r += "Connection: close\r\n\r\n";
    r += body;
    return r;
}

namespace
{

/** Case-insensitive header lookup in a raw response head. */
std::string
headerValue(const std::string &head, const char *name)
{
    const std::size_t nlen = std::strlen(name);
    std::size_t pos = head.find("\r\n");
    while (pos != std::string::npos && pos + 2 < head.size()) {
        const std::size_t start = pos + 2;
        const std::size_t eol = head.find("\r\n", start);
        const std::size_t end = eol == std::string::npos ? head.size() : eol;
        if (end - start > nlen && head[start + nlen] == ':' &&
            strncasecmp(head.c_str() + start, name, nlen) == 0) {
            std::size_t v = start + nlen + 1;
            while (v < end && head[v] == ' ')
                ++v;
            return head.substr(v, end - v);
        }
        pos = eol;
    }
    return {};
}

/** Parse a complete response into @p res; false with a reason. */
bool
parseResponse(const std::string &raw, HttpResult &res)
{
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
        res.error = "malformed response";
        return false;
    }
    const std::string head = raw.substr(0, head_end);
    res.status = std::atoi(head.c_str() + 9);
    res.cache = headerValue(head, "X-Bpsim-Cache");
    res.requestId = headerValue(head, "X-Bpsim-Request-Id");
    res.body = raw.substr(head_end + 4);
    const std::string cl = headerValue(head, "Content-Length");
    if (cl.empty() || std::strtoull(cl.c_str(), nullptr, 10) !=
                          res.body.size()) {
        res.error = "truncated body";
        res.status = 0;
        return false;
    }
    return true;
}

int
openSocket(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0 &&
        errno != EINPROGRESS) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

Loadgen::~Loadgen()
{
    for (Conn &c : conns_)
        if (c.fd >= 0)
            ::close(c.fd);
}

void
Loadgen::start(std::uint64_t token, std::string wire, const Done &done)
{
    Conn c;
    c.token = token;
    c.out = std::move(wire);
    c.res.startNs = nowNs();
    c.fd = openSocket(port_);
    conns_.push_back(std::move(c));
    if (conns_.back().fd < 0)
        finish(conns_.size() - 1, done, "connect failed");
}

void
Loadgen::finish(std::size_t i, const Done &done, const char *error)
{
    Conn c = std::move(conns_[i]);
    if (i + 1 != conns_.size())
        conns_[i] = std::move(conns_.back());
    conns_.pop_back();
    if (c.fd >= 0)
        ::close(c.fd);
    c.res.endNs = nowNs();
    if (error != nullptr)
        c.res.error = error;
    if (c.res.error.empty())
        parseResponse(c.in, c.res);
    else
        c.res.status = 0;
    done(c.token, std::move(c.res));
}

bool
Loadgen::advance(Conn &c, short revents)
{
    if (!c.connected) {
        if (!(revents & (POLLOUT | POLLERR | POLLHUP)))
            return false;
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
            c.res.error = "connect refused";
            return true;
        }
        c.connected = true;
        c.res.connectedNs = nowNs();
    }
    while (c.written < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.written,
                                 c.out.size() - c.written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return false;
            c.res.error = "send failed";
            return true;
        }
        c.written += static_cast<std::size_t>(n);
        if (c.written == c.out.size())
            c.res.sentNs = nowNs();
    }
    char buf[16384];
    while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
            if (c.in.empty())
                c.res.firstByteNs = nowNs();
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return true; // end of stream: the response is complete
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return false;
        c.res.error = "recv failed";
        return true;
    }
}

void
Loadgen::pump(std::int64_t untilNs, const Done &done)
{
    std::vector<pollfd> pfds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        const Conn &c = conns_[i];
        const bool want_out = !c.connected || c.written < c.out.size();
        pfds[i] = {c.fd, static_cast<short>(want_out ? POLLOUT : POLLIN), 0};
    }
    const std::int64_t wait = std::max<std::int64_t>(0, untilNs - nowNs());
    const timespec ts{static_cast<time_t>(wait / 1000000000),
                      static_cast<long>(wait % 1000000000)};
    const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR)
        return;
    const std::int64_t now = nowNs();
    // Walk backwards: finish() moves the last connection into slot i.
    for (std::size_t k = pfds.size(); k-- > 0;) {
        Conn &c = conns_[k];
        const short rev = rc > 0 ? pfds[k].revents : 0;
        if (rev != 0 && advance(c, rev)) {
            finish(k, done, nullptr);
        } else if (now - c.res.startNs > timeoutNs_) {
            finish(k, done, "timeout");
        }
    }
}

HttpResult
httpExchange(std::uint16_t port, const std::string &wire, int timeoutMs)
{
    Loadgen lg(port, static_cast<std::int64_t>(timeoutMs) * 1000000);
    HttpResult out;
    bool finished = false;
    const Loadgen::Done done = [&](std::uint64_t, HttpResult &&r) {
        out = std::move(r);
        finished = true;
    };
    lg.start(0, wire, done);
    while (!finished)
        lg.pump(nowNs() + 50000000, done);
    return out;
}

} // namespace perfbench
