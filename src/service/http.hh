/**
 * @file
 * Minimal dependency-free HTTP/1.1 front end for the resident
 * campaign service: blocking POSIX sockets, one request per
 * connection (`Connection: close`), served on a cache of reusable
 * connection threads.
 *
 * Scope: exactly what the what-if server needs — request-line +
 * headers + Content-Length body parsing, bounded input sizes (the
 * body reaches parseJson, which is why both layers cap untrusted
 * input), and deterministic response rendering. Chunked encoding,
 * keep-alive, TLS and HTTP/2 are deliberately out of scope; a real
 * deployment would sit this behind a reverse proxy.
 *
 * Threading model: the accept loop runs on one thread and polls the
 * listener with a short timeout so stop() needs no signal tricks.
 * Each accepted connection is handed to the most recently idled
 * connection thread (LIFO, so the hot thread and its allocator arena
 * stay warm); a new thread is spawned only when none is idle (after
 * at most kParkGrace for a thread that is about to park), so
 * concurrency is unbounded and a long request never delays a new
 * connection. A thread that finishes parks for the next connection,
 * or exits when kMaxIdleThreads are already parked. The expensive
 * part — the campaign itself — fans out over the shared
 * WorkStealingPool inside the handler, so connection threads spend
 * their time blocked, not computing. Every socket read and write is
 * bounded by HttpServerOptions::ioTimeoutMs, so a silent peer cannot
 * pin a thread. stop() closes the listener, waits for in-flight
 * connections to drain, then wakes and joins every thread.
 */

#ifndef BPSIM_SERVICE_HTTP_HH
#define BPSIM_SERVICE_HTTP_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace bpsim
{
namespace service
{

/** One parsed request. */
struct HttpRequest
{
    std::string method;  // "GET", "POST", ...
    std::string target;  // request target, e.g. "/v1/whatif"
    std::string version; // "HTTP/1.1"
    /** Headers in arrival order (names lowercased). */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Case-insensitive header lookup; nullptr when absent. */
    const std::string *header(std::string_view name) const;
};

/** One response to render. */
struct HttpResponse
{
    int status = 200;
    /** The charset is explicit so scrapers and the dashboard poller
     *  never have to sniff (the header-contract test pins it). */
    std::string contentType = "application/json; charset=utf-8";
    /** Extra headers (e.g. X-Bpsim-Cache) rendered verbatim. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
};

/**
 * Per-connection I/O measurements for a TimedHandler. The socket
 * layer fills readNs/bytesIn before invoking the handler; a handler
 * that wants to observe the response write (duration + bytes) sets
 * onWritten, which fires exactly once after the response bytes have
 * been sent (or the send failed — the duration still covers the
 * attempt). All values are wall-clock and never influence response
 * bytes, preserving the determinism contract.
 */
struct HttpConnectionIo
{
    /** Wall nanoseconds spent reading the request (head + body). */
    std::uint64_t readNs = 0;
    /** Bytes received for this request (head + body). */
    std::uint64_t bytesIn = 0;
    /** Completion hook: (writeNs, bytesOut) after the response write. */
    std::function<void(std::uint64_t, std::uint64_t)> onWritten;
};

/** The standard reason phrase for @p status ("OK", "Not Found"...). */
const char *httpStatusText(int status);

/** The path component of @p target (everything before '?'). */
std::string targetPath(const std::string &target);

/**
 * Look up query parameter @p name in @p target's query string.
 * Returns false when absent; otherwise stores the value (with %XX
 * and '+' decoded) in @p value. A bare `?name` yields "".
 */
bool queryParam(const std::string &target, std::string_view name,
                std::string *value);

/** Convenience: a JSON error document {"error": reason}. */
HttpResponse httpError(int status, const std::string &reason);

/**
 * Parse one complete request (start line, headers, body already
 * joined). Returns false with a reason in @p error on malformed
 * input. Exposed separately from the socket loop so the parser is
 * testable without a network.
 */
bool parseHttpRequest(std::string_view text, HttpRequest &out,
                      std::string *error = nullptr);

/** Render @p r as an HTTP/1.1 response (Connection: close). */
std::string renderHttpResponse(const HttpResponse &r);

/** Listener configuration. */
struct HttpServerOptions
{
    /** Bind address (loopback by default: this is an operator tool,
     *  not an internet-facing daemon). */
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see HttpServer::port()). */
    std::uint16_t port = 0;
    /** Reject request heads (start line + headers) beyond this. */
    std::size_t maxHeaderBytes = 64 * 1024;
    /** Reject bodies beyond this (the body reaches parseJson). */
    std::size_t maxBodyBytes = 1 << 20;
    /** listen(2) backlog. */
    int backlog = 16;
    /**
     * Bound (ms) on each blocking socket read and write
     * (SO_RCVTIMEO / SO_SNDTIMEO), and on reading a whole request
     * and draining the peer after the response. A silent peer is
     * dropped after one bound, a trickling one after at most two, so
     * neither pins a connection thread or stop(). Values below
     * 1 ms count as 1 ms.
     */
    unsigned ioTimeoutMs = 5000;
};

/**
 * The server: start() binds + listens + spawns the accept loop;
 * handler runs once per request on a connection thread.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;
    /** Handler variant that also receives the connection's I/O
     *  timings (and may register a post-write completion hook). */
    using TimedHandler =
        std::function<HttpResponse(const HttpRequest &,
                                   HttpConnectionIo &)>;

    explicit HttpServer(Handler handler, HttpServerOptions opts = {});
    explicit HttpServer(TimedHandler handler, HttpServerOptions opts = {});
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind, listen and start accepting. False (with @p error) on
     *  socket failure; idempotent once running. */
    bool start(std::string *error = nullptr);

    /**
     * Ask the accept loop to wind down without blocking — safe to
     * call from inside a handler (a POST /v1/shutdown body cannot
     * wait for its own connection to finish).
     */
    void requestStop();

    /** requestStop() + wait for the loop and every connection. */
    void stop();

    /** Block until the accept loop has exited and connections have
     *  drained (pair with requestStop()). */
    void waitUntilStopped();

    /** True from successful start() until the accept loop exits. */
    bool running() const;

    /** The bound port (resolves port 0 to the kernel's choice). */
    std::uint16_t port() const { return port_; }

    /** Idle connection threads kept parked for reuse; a thread that
     *  finishes while this many are parked exits instead. */
    static constexpr std::size_t kMaxIdleThreads = 64;

    /** Connection threads currently parked (<= kMaxIdleThreads). */
    std::size_t idleThreads() const;

  private:
    /** One connection thread. Nodes live in workers_ (or retired_
     *  once the thread has exited) until joined. */
    struct Worker
    {
        /** Wakes this thread when parked. */
        std::condition_variable cv;
        /** The next connection to serve; -1 while parked. */
        int fd = -1;
        /** This node's position, for the move to retired_. */
        std::list<Worker>::iterator self;
        std::thread thread;
    };

    void acceptLoop();
    /** Hand @p fd to the most recently idled thread, or spawn one. */
    void dispatch(int fd);
    void workerLoop(Worker &w);
    /** Join threads that exited over the idle cap. */
    void joinRetired();
    /** Serve one connection and close @p fd. True when the response
     *  was sent and the thread lingered for the peer's close. */
    bool serveConnection(int fd);

    /** How long dispatch() waits for a lingering thread to park
     *  before it spawns one. */
    static constexpr std::chrono::microseconds kParkGrace{200};

    TimedHandler handler_;
    HttpServerOptions opts_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptThread_;
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> running_{false};

    /** Guards everything below; cv_ wakes the drain in
     *  waitUntilStopped(). */
    mutable std::mutex m_;
    std::condition_variable cv_;
    int activeConnections_ = 0;
    /** Every live connection thread (joinable). */
    std::list<Worker> workers_;
    /** Threads that exited over the idle cap, awaiting join. */
    std::list<Worker> retired_;
    /** Parked threads; back() is the most recently idled. */
    std::vector<Worker *> idle_;
    /** Threads that sent their response and wait for the peer's
     *  close; parked_cv_ wakes dispatch() when one parks. */
    int lingering_ = 0;
    std::condition_variable parked_cv_;
    /** Set once drained: parked threads exit when woken. */
    bool closing_ = false;
};

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_HTTP_HH
