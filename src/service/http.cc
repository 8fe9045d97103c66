#include "service/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/time.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace bpsim
{
namespace service
{

namespace
{

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

bool
setFail(std::string *error, const char *why)
{
    if (error)
        *error = why;
    return false;
}

/** Write all of @p data to @p fd, absorbing EINTR / partial writes. */
bool
writeAll(int fd, std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

using Clock = std::chrono::steady_clock;

/** One recv() (each bounded by SO_RCVTIMEO), absorbing EINTR; -1
 *  once @p deadline has passed, so a trickling peer cannot stretch a
 *  phase past its bound. */
ssize_t
recvBefore(int fd, char *buf, std::size_t len, Clock::time_point deadline)
{
    while (Clock::now() < deadline) {
        const ssize_t n = ::recv(fd, buf, len, 0);
        if (n >= 0 || errno != EINTR)
            return n;
    }
    return -1;
}

} // namespace

std::string
targetPath(const std::string &target)
{
    const std::size_t qm = target.find('?');
    return qm == std::string::npos ? target : target.substr(0, qm);
}

namespace
{

/** %XX / '+' decoding of one query-string token. */
std::string
urlDecode(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%' && i + 2 < s.size() &&
                   std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
                   std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
            const auto hex = [](char h) {
                if (h >= '0' && h <= '9')
                    return h - '0';
                if (h >= 'a' && h <= 'f')
                    return h - 'a' + 10;
                return h - 'A' + 10;
            };
            out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
            i += 2;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

bool
queryParam(const std::string &target, std::string_view name,
           std::string *value)
{
    const std::size_t qm = target.find('?');
    if (qm == std::string::npos)
        return false;
    std::string_view query(target);
    query.remove_prefix(qm + 1);
    while (!query.empty()) {
        std::size_t amp = query.find('&');
        const std::string_view pair =
            query.substr(0, amp == std::string_view::npos ? query.size()
                                                          : amp);
        query.remove_prefix(amp == std::string_view::npos ? query.size()
                                                          : amp + 1);
        const std::size_t eq = pair.find('=');
        const std::string_view key =
            pair.substr(0, eq == std::string_view::npos ? pair.size()
                                                        : eq);
        if (key != name)
            continue;
        if (value != nullptr)
            *value = eq == std::string_view::npos
                         ? std::string()
                         : urlDecode(pair.substr(eq + 1));
        return true;
    }
    return false;
}

const std::string *
HttpRequest::header(std::string_view name) const
{
    const std::string key = toLower(name);
    for (const auto &[k, v] : headers)
        if (k == key)
            return &v;
    return nullptr;
}

const char *
httpStatusText(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 413:
        return "Payload Too Large";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}

HttpResponse
httpError(int status, const std::string &reason)
{
    HttpResponse r;
    r.status = status;
    // Hand-escape nothing: reasons are our own fixed strings plus
    // parse errors, which never contain quotes or control bytes, but
    // escape defensively anyway via a tiny local pass.
    std::string body = "{\"error\":\"";
    for (const char c : reason) {
        if (c == '"' || c == '\\')
            body += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            body += c;
    }
    body += "\"}\n";
    r.body = std::move(body);
    return r;
}

bool
parseHttpRequest(std::string_view text, HttpRequest &out,
                 std::string *error)
{
    const std::size_t head_end = text.find("\r\n\r\n");
    if (head_end == std::string_view::npos)
        return setFail(error, "incomplete request head");
    const std::string_view head = text.substr(0, head_end);

    // Start line: METHOD SP TARGET SP VERSION.
    const std::size_t line_end = head.find("\r\n");
    const std::string_view start =
        head.substr(0, line_end == std::string_view::npos ? head.size()
                                                          : line_end);
    const std::size_t sp1 = start.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : start.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos)
        return setFail(error, "malformed request line");
    out.method = std::string(start.substr(0, sp1));
    out.target = std::string(start.substr(sp1 + 1, sp2 - sp1 - 1));
    out.version = std::string(trim(start.substr(sp2 + 1)));
    if (out.method.empty() || out.target.empty() ||
        out.version.rfind("HTTP/", 0) != 0)
        return setFail(error, "malformed request line");

    // Header fields.
    out.headers.clear();
    std::size_t pos = line_end == std::string_view::npos
                          ? head.size()
                          : line_end + 2;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos)
            eol = head.size();
        const std::string_view line = head.substr(pos, eol - pos);
        pos = eol + 2;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos)
            return setFail(error, "malformed header field");
        out.headers.emplace_back(toLower(trim(line.substr(0, colon))),
                                 std::string(trim(line.substr(colon + 1))));
    }

    out.body = std::string(text.substr(head_end + 4));
    return true;
}

std::string
renderHttpResponse(const HttpResponse &r)
{
    std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                      httpStatusText(r.status) + "\r\n";
    out += "Content-Type: " + r.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
    for (const auto &[k, v] : r.headers)
        out += k + ": " + v + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += r.body;
    return out;
}

HttpServer::HttpServer(Handler handler, HttpServerOptions opts)
    : handler_([h = std::move(handler)](const HttpRequest &req,
                                        HttpConnectionIo &) {
          return h(req);
      }),
      opts_(std::move(opts))
{
}

HttpServer::HttpServer(TimedHandler handler, HttpServerOptions opts)
    : handler_(std::move(handler)), opts_(std::move(opts))
{
}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(std::string *error)
{
    if (running_.load())
        return true;

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        if (error)
            *error = "bad bind address: " + opts_.bindAddress;
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, opts_.backlog) != 0) {
        if (error)
            *error = std::string("bind/listen: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    // Resolve port 0 to the kernel's pick.
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = ntohs(bound.sin_port);

    {
        std::lock_guard<std::mutex> lk(m_);
        closing_ = false;
    }
    stopRequested_.store(false);
    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::requestStop()
{
    stopRequested_.store(true);
}

void
HttpServer::stop()
{
    requestStop();
    waitUntilStopped();
}

void
HttpServer::waitUntilStopped()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::list<Worker> all;
    {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [this] { return activeConnections_ == 0; });
        // Drained: every thread is parked or retired. Wake the parked
        // ones to exit, and join all of them outside the lock.
        closing_ = true;
        for (Worker *w : idle_)
            w->cv.notify_one();
        idle_.clear();
        all.splice(all.end(), workers_);
        all.splice(all.end(), retired_);
    }
    for (Worker &w : all)
        w.thread.join();
}

bool
HttpServer::running() const
{
    return running_.load();
}

std::size_t
HttpServer::idleThreads() const
{
    std::lock_guard<std::mutex> lk(m_);
    return idle_.size();
}

void
HttpServer::acceptLoop()
{
    // Poll with a short timeout so requestStop() is honored without
    // signal machinery: the cost is one spurious wakeup per 50 ms of
    // idleness, which is nothing for an operator-facing service.
    while (!stopRequested_.load()) {
        joinRetired();
        pollfd pfd{listenFd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 50);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd >= 0)
            dispatch(fd);
    }
    ::close(listenFd_);
    listenFd_ = -1;
    running_.store(false);
}

void
HttpServer::dispatch(int fd)
{
    // Only this thread joins retired workers, and waitUntilStopped()
    // joins the rest after this thread, so a worker found here
    // outlives this call and its thread member is set unlocked.
    Worker *w = nullptr;
    bool parked = false;
    {
        std::unique_lock<std::mutex> lk(m_);
        ++activeConnections_;
        // A sequential client's next connection usually arrives while
        // the thread that served its last one still waits for that
        // peer's close. Give such a thread a moment to park instead
        // of spawning: every extra thread keeps its own stack and
        // malloc arena resident.
        if (idle_.empty() && lingering_ > 0)
            parked_cv_.wait_for(lk, kParkGrace, [this] {
                return !idle_.empty() || lingering_ == 0;
            });
        parked = !idle_.empty();
        if (parked) {
            // LIFO: the most recently idled thread is the warmest.
            w = idle_.back();
            idle_.pop_back();
        } else {
            w = &workers_.emplace_back();
            w->self = std::prev(workers_.end());
        }
        w->fd = fd;
    }
    if (parked) {
        w->cv.notify_one();
        return;
    }
    try {
        w->thread = std::thread([this, w] { workerLoop(*w); });
    } catch (const std::system_error &) {
        ::close(fd);
        std::lock_guard<std::mutex> lk(m_);
        workers_.erase(w->self);
        if (--activeConnections_ == 0)
            cv_.notify_all();
    }
}

void
HttpServer::workerLoop(Worker &w)
{
    std::unique_lock<std::mutex> lk(m_);
    while (true) {
        const int fd = w.fd;
        w.fd = -1;
        lk.unlock();
        const bool lingered = serveConnection(fd);
        lk.lock();
        if (lingered)
            --lingering_;
        if (--activeConnections_ == 0)
            cv_.notify_all();
        if (closing_)
            return;
        if (idle_.size() >= kMaxIdleThreads) {
            retired_.splice(retired_.end(), workers_, w.self);
            return;
        }
        idle_.push_back(&w);
        parked_cv_.notify_one();
        w.cv.wait(lk, [this, &w] { return w.fd >= 0 || closing_; });
        if (w.fd < 0)
            return; // woken by waitUntilStopped()
    }
}

void
HttpServer::joinRetired()
{
    std::list<Worker> done;
    {
        std::lock_guard<std::mutex> lk(m_);
        done.splice(done.end(), retired_);
    }
    for (Worker &w : done)
        w.thread.join();
}

bool
HttpServer::serveConnection(int fd)
{
    const auto read_begin = Clock::now();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A zero timeval would mean "no timeout" to the kernel.
    const unsigned bound_ms = std::max(opts_.ioTimeoutMs, 1u);
    const timeval tv{static_cast<time_t>(bound_ms / 1000),
                     static_cast<suseconds_t>(bound_ms % 1000 * 1000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const std::chrono::milliseconds bound(bound_ms);
    const auto deadline = read_begin + bound;

    // Read the head (until CRLFCRLF), then exactly Content-Length
    // body bytes. Everything is bounded; a peer that exceeds a size
    // bound gets a 4xx and the connection closed, one that exceeds
    // the time bound is just closed.
    std::string data;
    std::size_t head_end = std::string::npos;
    char buf[4096];
    while (true) {
        head_end = data.find("\r\n\r\n");
        if (head_end != std::string::npos)
            break;
        if (data.size() > opts_.maxHeaderBytes) {
            writeAll(fd, renderHttpResponse(
                             httpError(413, "request head too large")));
            ::close(fd);
            return false;
        }
        const ssize_t n = recvBefore(fd, buf, sizeof buf, deadline);
        if (n <= 0) {
            ::close(fd); // peer went away or stalled mid-request
            return false;
        }
        data.append(buf, static_cast<std::size_t>(n));
    }

    HttpRequest req;
    std::string perr;
    if (!parseHttpRequest(data.substr(0, head_end + 4) , req, &perr)) {
        writeAll(fd, renderHttpResponse(httpError(400, perr)));
        ::close(fd);
        return false;
    }

    std::size_t content_length = 0;
    if (const std::string *cl = req.header("content-length")) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(cl->c_str(), &end, 10);
        if (end == cl->c_str() || *end != '\0') {
            writeAll(fd, renderHttpResponse(
                             httpError(400, "bad content-length")));
            ::close(fd);
            return false;
        }
        content_length = static_cast<std::size_t>(v);
    }
    if (content_length > opts_.maxBodyBytes) {
        writeAll(fd,
                 renderHttpResponse(httpError(413, "body too large")));
        ::close(fd);
        return false;
    }

    req.body = data.substr(head_end + 4);
    while (req.body.size() < content_length) {
        const ssize_t n = recvBefore(fd, buf, sizeof buf, deadline);
        if (n <= 0) {
            ::close(fd);
            return false;
        }
        req.body.append(buf, static_cast<std::size_t>(n));
    }
    const std::uint64_t body_extra = req.body.size() - content_length;
    req.body.resize(content_length);

    HttpConnectionIo io;
    io.readNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - read_begin)
            .count());
    io.bytesIn = head_end + 4 + content_length + body_extra;

    HttpResponse resp;
    try {
        resp = handler_(req, io);
    } catch (const std::exception &e) {
        resp = httpError(500, e.what());
    } catch (...) {
        resp = httpError(500, "unhandled exception");
    }
    const std::string rendered = renderHttpResponse(resp);
    const auto write_begin = Clock::now();
    writeAll(fd, rendered);
    if (io.onWritten) {
        const std::uint64_t write_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - write_begin)
                .count());
        io.onWritten(write_ns, rendered.size());
    }
    ::shutdown(fd, SHUT_WR);
    {
        std::lock_guard<std::mutex> lk(m_);
        ++lingering_;
    }
    // Drain until the peer closes so its final ACKed read never races
    // our RST; a peer that neither closes nor stops sending is cut
    // off at the I/O bound.
    const auto drain_deadline = Clock::now() + bound;
    while (recvBefore(fd, buf, sizeof buf, drain_deadline) > 0) {
    }
    ::close(fd);
    return true;
}

} // namespace service
} // namespace bpsim
