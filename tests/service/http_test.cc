/**
 * @file
 * HTTP front-end tests: the request parser and response renderer
 * (pure functions, no network), real loopback round trips through
 * HttpServer's accept loop, and the connection-thread cache: LIFO
 * reuse, no head-of-line blocking, the idle cap, joins on stop() and
 * the I/O bound on silent peers.
 */

#include "service/http.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

using namespace bpsim::service;

namespace
{

/** A connected loopback client socket. */
int
connectTo(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
    return fd;
}

/** One blocking loopback HTTP exchange: connect, send, read to EOF. */
std::string
roundTrip(std::uint16_t port, const std::string &request)
{
    const int fd = connectTo(port);
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n =
            ::send(fd, request.data() + off, request.size() - off, 0);
        EXPECT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

/** Poll @p pred every millisecond for up to five seconds. */
template <typename Pred>
bool
eventually(Pred pred)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/**
 * A handler that parks every request whose target is "/park" until
 * release(), counting how many are parked; other targets answer at
 * once.
 */
class ParkingHandler
{
  public:
    HttpResponse operator()(const HttpRequest &req)
    {
        if (req.target == "/park") {
            std::unique_lock<std::mutex> lk(m_);
            ++parked_;
            cv_.notify_all();
            cv_.wait(lk, [this] { return released_; });
        }
        return HttpResponse{};
    }

    /** Block until @p n requests are parked (false after 5 s). */
    bool awaitParked(int n)
    {
        std::unique_lock<std::mutex> lk(m_);
        return cv_.wait_for(lk, std::chrono::seconds(5),
                            [this, n] { return parked_ >= n; });
    }

    void release()
    {
        std::lock_guard<std::mutex> lk(m_);
        released_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    int parked_ = 0;
    bool released_ = false;
};

const char *const kParkRequest = "GET /park HTTP/1.1\r\n\r\n";
const char *const kQuickRequest = "GET /quick HTTP/1.1\r\n\r\n";

} // namespace

TEST(HttpParse, RequestLineHeadersAndBody)
{
    HttpRequest req;
    std::string err;
    ASSERT_TRUE(parseHttpRequest("POST /v1/whatif HTTP/1.1\r\n"
                                 "Content-Type: application/json\r\n"
                                 "Content-Length: 2\r\n"
                                 "\r\n"
                                 "{}",
                                 req, &err))
        << err;
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.target, "/v1/whatif");
    EXPECT_EQ(req.version, "HTTP/1.1");
    EXPECT_EQ(req.body, "{}");
    ASSERT_EQ(req.headers.size(), 2u);
    // Names are lowercased on parse; values keep their bytes.
    EXPECT_EQ(req.headers[0].first, "content-type");
    EXPECT_EQ(req.headers[0].second, "application/json");
}

TEST(HttpParse, HeaderLookupIsCaseInsensitive)
{
    HttpRequest req;
    ASSERT_TRUE(parseHttpRequest(
        "GET / HTTP/1.1\r\nX-Custom-Header:  spaced value \r\n\r\n",
        req));
    const std::string *v = req.header("x-cUSTOM-hEADER");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "spaced value"); // surrounding whitespace trimmed
    EXPECT_EQ(req.header("absent"), nullptr);
}

TEST(HttpParse, RejectsMalformedInput)
{
    HttpRequest req;
    std::string err;
    // No blank line terminating the head.
    EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\n", req, &err));
    EXPECT_FALSE(err.empty());
    // Request line with too few tokens.
    EXPECT_FALSE(parseHttpRequest("GET /\r\n\r\n", req, &err));
    // Version must be HTTP/*.
    EXPECT_FALSE(parseHttpRequest("GET / SPDY/1\r\n\r\n", req, &err));
    // Header field without a colon.
    EXPECT_FALSE(
        parseHttpRequest("GET / HTTP/1.1\r\nbogus\r\n\r\n", req, &err));
}

TEST(HttpRender, ResponseIsByteStable)
{
    HttpResponse r;
    r.status = 200;
    r.body = "hi";
    r.headers.emplace_back("X-Bpsim-Cache", "hit");
    EXPECT_EQ(renderHttpResponse(r),
              "HTTP/1.1 200 OK\r\n"
              "Content-Type: application/json; charset=utf-8\r\n"
              "Content-Length: 2\r\n"
              "X-Bpsim-Cache: hit\r\n"
              "Connection: close\r\n"
              "\r\n"
              "hi");
}

TEST(HttpRender, ErrorBodyEscapesQuotes)
{
    const HttpResponse r = httpError(400, "bad \"field\"");
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(r.body, "{\"error\":\"bad \\\"field\\\"\"}\n");
}

TEST(HttpRender, StatusTextCoversServiceCodes)
{
    EXPECT_STREQ(httpStatusText(200), "OK");
    EXPECT_STREQ(httpStatusText(400), "Bad Request");
    EXPECT_STREQ(httpStatusText(404), "Not Found");
    EXPECT_STREQ(httpStatusText(405), "Method Not Allowed");
    EXPECT_STREQ(httpStatusText(413), "Payload Too Large");
    EXPECT_STREQ(httpStatusText(500), "Internal Server Error");
}

TEST(HttpServerTest, LoopbackRoundTrip)
{
    HttpServer server([](const HttpRequest &req) {
        HttpResponse r;
        r.body = req.method + " " + req.target + " [" + req.body + "]";
        return r;
    });
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_NE(server.port(), 0); // port 0 resolved to the kernel pick

    const std::string reply =
        roundTrip(server.port(), "POST /echo HTTP/1.1\r\n"
                                 "Content-Length: 4\r\n"
                                 "\r\n"
                                 "ping");
    EXPECT_NE(reply.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(reply.find("POST /echo [ping]"), std::string::npos);

    // A second connection on the same listener.
    const std::string reply2 =
        roundTrip(server.port(), "GET /again HTTP/1.1\r\n\r\n");
    EXPECT_NE(reply2.find("GET /again []"), std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // idempotent
}

TEST(HttpServerTest, HandlerExceptionBecomes500)
{
    HttpServer server([](const HttpRequest &) -> HttpResponse {
        throw std::runtime_error("boom");
    });
    ASSERT_TRUE(server.start());
    const std::string reply =
        roundTrip(server.port(), "GET / HTTP/1.1\r\n\r\n");
    EXPECT_NE(reply.find("HTTP/1.1 500 Internal Server Error"),
              std::string::npos);
    EXPECT_NE(reply.find("boom"), std::string::npos);
    server.stop();
}

TEST(HttpServerTest, OversizedBodyIsRejected)
{
    HttpServerOptions opts;
    opts.maxBodyBytes = 16;
    HttpServer server(
        [](const HttpRequest &) { return HttpResponse{}; }, opts);
    ASSERT_TRUE(server.start());
    const std::string reply = roundTrip(
        server.port(),
        "POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n");
    EXPECT_NE(reply.find("HTTP/1.1 413 Payload Too Large"),
              std::string::npos);
    server.stop();
}

TEST(HttpServerTest, SequentialRequestsReuseOneThread)
{
    std::mutex m;
    std::vector<std::thread::id> served;
    HttpServer server([&](const HttpRequest &) {
        std::lock_guard<std::mutex> lk(m);
        served.push_back(std::this_thread::get_id());
        return HttpResponse{};
    });
    ASSERT_TRUE(server.start());
    for (int i = 0; i < 50; ++i) {
        EXPECT_NE(roundTrip(server.port(), kQuickRequest)
                      .find("HTTP/1.1 200 OK"),
                  std::string::npos);
        // The reply reaches the client before its thread parks; wait
        // for the park so the next request finds the thread idle.
        ASSERT_TRUE(eventually([&] { return server.idleThreads() == 1; }));
    }
    server.stop();
    ASSERT_EQ(served.size(), 50u);
    EXPECT_EQ(std::set<std::thread::id>(served.begin(), served.end())
                  .size(),
              1u);
}

TEST(HttpServerTest, MostRecentlyIdledThreadServesNext)
{
    // LIFO hand-off keeps one hot thread (and its malloc arena) in
    // use; FIFO would rotate through every parked thread.
    ParkingHandler handler;
    std::mutex m;
    std::vector<std::pair<std::string, std::thread::id>> served;
    HttpServer server([&](const HttpRequest &req) {
        {
            std::lock_guard<std::mutex> lk(m);
            served.emplace_back(req.target, std::this_thread::get_id());
        }
        return handler(req);
    });
    ASSERT_TRUE(server.start());

    // The parked request holds one thread while a second thread
    // serves /quick and parks first; the held one parks last.
    auto parked = std::async(std::launch::async, [&] {
        return roundTrip(server.port(), kParkRequest);
    });
    ASSERT_TRUE(handler.awaitParked(1));
    roundTrip(server.port(), kQuickRequest);
    ASSERT_TRUE(eventually([&] { return server.idleThreads() == 1; }));
    handler.release();
    parked.get();
    ASSERT_TRUE(eventually([&] { return server.idleThreads() == 2; }));

    roundTrip(server.port(), kQuickRequest);
    server.stop();
    ASSERT_EQ(served.size(), 3u);
    EXPECT_EQ(served[0].first, "/park");
    EXPECT_NE(served[1].second, served[0].second);
    EXPECT_EQ(served[2].second, served[0].second);
}

TEST(HttpServerTest, ParkedHandlerDoesNotDelayConcurrentRequest)
{
    ParkingHandler handler;
    HttpServer server(
        [&handler](const HttpRequest &req) { return handler(req); });
    ASSERT_TRUE(server.start());

    auto parked = std::async(std::launch::async, [&] {
        return roundTrip(server.port(), kParkRequest);
    });
    ASSERT_TRUE(handler.awaitParked(1));

    // A second connection is served while the first is still held.
    auto quick = std::async(std::launch::async, [&] {
        return roundTrip(server.port(), kQuickRequest);
    });
    const bool served = quick.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
    handler.release();
    ASSERT_TRUE(served) << "second request waited on the parked one";
    EXPECT_NE(quick.get().find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(parked.get().find("HTTP/1.1 200 OK"), std::string::npos);
    server.stop();
}

TEST(HttpServerTest, IdleThreadsStayWithinCapAfterWideBurst)
{
    constexpr int kBurst = static_cast<int>(HttpServer::kMaxIdleThreads) + 8;
    ParkingHandler handler;
    HttpServerOptions opts;
    opts.backlog = kBurst;
    HttpServer server(
        [&handler](const HttpRequest &req) { return handler(req); },
        opts);
    ASSERT_TRUE(server.start());

    // Hold kBurst requests at once, so kBurst threads exist.
    std::vector<std::future<std::string>> clients;
    for (int i = 0; i < kBurst; ++i)
        clients.push_back(std::async(std::launch::async, [&] {
            return roundTrip(server.port(), kParkRequest);
        }));
    ASSERT_TRUE(handler.awaitParked(kBurst));
    handler.release();
    for (auto &c : clients)
        EXPECT_NE(c.get().find("HTTP/1.1 200 OK"), std::string::npos);

    // The first kMaxIdleThreads to finish park; the rest exit.
    ASSERT_TRUE(eventually([&] {
        return server.idleThreads() == HttpServer::kMaxIdleThreads;
    }));
    EXPECT_NE(roundTrip(server.port(), kQuickRequest).find("200 OK"),
              std::string::npos);
    EXPECT_LE(server.idleThreads(), HttpServer::kMaxIdleThreads);
    server.stop();
    EXPECT_EQ(server.idleThreads(), 0u);
}

TEST(HttpServerTest, StopJoinsIdleThreads)
{
    ParkingHandler handler;
    HttpServer server(
        [&handler](const HttpRequest &req) { return handler(req); });
    ASSERT_TRUE(server.start());
    handler.release();
    std::vector<std::future<std::string>> clients;
    for (int i = 0; i < 3; ++i)
        clients.push_back(std::async(std::launch::async, [&] {
            return roundTrip(server.port(), kQuickRequest);
        }));
    for (auto &c : clients)
        c.get();
    ASSERT_TRUE(eventually([&] { return server.idleThreads() >= 1; }));
    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.idleThreads(), 0u);
}

TEST(HttpServerTest, StopDrainsAnInFlightRequestThenJoins)
{
    ParkingHandler handler;
    HttpServer server(
        [&handler](const HttpRequest &req) { return handler(req); });
    ASSERT_TRUE(server.start());
    auto client = std::async(std::launch::async, [&] {
        return roundTrip(server.port(), kParkRequest);
    });
    ASSERT_TRUE(handler.awaitParked(1));

    auto stopped = std::async(std::launch::async, [&] { server.stop(); });
    // stop() waits for the held request instead of abandoning it.
    EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    handler.release();
    EXPECT_EQ(stopped.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_NE(client.get().find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, SilentPeerIsDroppedAndStopStaysBounded)
{
    constexpr auto kTimeout = std::chrono::milliseconds(200);
    HttpServerOptions opts;
    opts.ioTimeoutMs = static_cast<unsigned>(kTimeout.count());
    HttpServer server([](const HttpRequest &) { return HttpResponse{}; },
                      opts);
    ASSERT_TRUE(server.start());

    // A peer that connects and sends nothing is closed by the server
    // after the I/O bound: its read sees EOF, not a hang.
    const int silent = connectTo(server.port());
    const timeval guard{5, 0};
    ::setsockopt(silent, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof guard);
    const auto begin = std::chrono::steady_clock::now();
    char byte;
    EXPECT_EQ(::recv(silent, &byte, 1, 0), 0);
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(4));
    ::close(silent);

    // A trickling peer (one header byte at a time, each inside the
    // per-read bound) is cut off at the whole-request bound.
    const int trickle = connectTo(server.port());
    ::setsockopt(trickle, SOL_SOCKET, SO_RCVTIMEO, &guard, sizeof guard);
    const auto trickle_begin = std::chrono::steady_clock::now();
    bool cut = false;
    for (int i = 0; i < 100 && !cut; ++i) {
        cut = ::send(trickle, "G", 1, MSG_NOSIGNAL) != 1;
        std::this_thread::sleep_for(kTimeout / 4);
        pollfd pfd{trickle, POLLIN, 0};
        cut = cut || (::poll(&pfd, 1, 0) == 1 &&
                      ::recv(trickle, &byte, 1, MSG_DONTWAIT) == 0);
    }
    EXPECT_TRUE(cut);
    EXPECT_LT(std::chrono::steady_clock::now() - trickle_begin,
              std::chrono::seconds(4));
    ::close(trickle);

    // With a silent peer still connected, stop() returns within the
    // bound instead of waiting for the peer to give up.
    const int idle = connectTo(server.port());
    EXPECT_NE(roundTrip(server.port(), kQuickRequest).find("200 OK"),
              std::string::npos);
    auto stopped = std::async(std::launch::async, [&] { server.stop(); });
    const bool bounded = stopped.wait_for(kTimeout + std::chrono::seconds(
                                                         2)) ==
                         std::future_status::ready;
    ::close(idle); // unblocks a stop() that waited on the peer
    EXPECT_TRUE(bounded) << "stop() waited on a silent peer";
}
