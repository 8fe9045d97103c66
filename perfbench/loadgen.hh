/**
 * @file
 * Loopback HTTP client of the service workloads: one thread that
 * multiplexes a bounded set of connection slots with poll(). Every
 * request opens a fresh connection (the server answers with
 * `Connection: close`), sends one request and reads to end of stream.
 */

#ifndef BPSIM_PERFBENCH_LOADGEN_HH
#define BPSIM_PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds (the one clock of the benchmark). */
std::int64_t nowNs();

/** One finished exchange. status 0 means a transport failure. */
struct HttpResult
{
    int status = 0;
    std::string error;
    /** X-Bpsim-Cache and X-Bpsim-Request-Id response headers. */
    std::string cache;
    std::string requestId;
    std::string body;
    /** @name Client timestamps (nowNs) */
    ///@{
    std::int64_t startNs = 0;     // connect() issued
    std::int64_t connectedNs = 0; // connection established
    std::int64_t sentNs = 0;      // last request byte written
    std::int64_t firstByteNs = 0; // first response byte read
    std::int64_t endNs = 0;       // end of stream
    ///@}
};

/** Render one HTTP/1.1 request with an X-Bpsim-Request-Id header. */
std::string buildRequest(const std::string &method,
                         const std::string &target,
                         const std::string &body,
                         const std::string &requestId);

/** One blocking exchange (set-up, probes and scrapes). */
HttpResult httpExchange(std::uint16_t port, const std::string &wire,
                        int timeoutMs = 30000);

/**
 * Non-blocking connections driven by poll(). The caller starts
 * requests (each tagged with a token) and pumps completions.
 */
class Loadgen
{
  public:
    explicit Loadgen(std::uint16_t port,
                     std::int64_t timeoutNs = 60000000000LL)
        : port_(port), timeoutNs_(timeoutNs)
    {}
    ~Loadgen();
    Loadgen(const Loadgen &) = delete;
    Loadgen &operator=(const Loadgen &) = delete;

    using Done = std::function<void(std::uint64_t token, HttpResult &&)>;

    /** Open a connection and queue @p wire on it. */
    void start(std::uint64_t token, std::string wire, const Done &done);

    /**
     * Wait for socket progress until at most @p untilNs (nowNs clock),
     * advance every connection and report completions through @p done.
     */
    void pump(std::int64_t untilNs, const Done &done);

    std::size_t active() const { return conns_.size(); }

  private:
    struct Conn
    {
        int fd = -1;
        std::uint64_t token = 0;
        std::string out;
        std::size_t written = 0;
        std::string in;
        bool connected = false;
        HttpResult res;
    };

    void finish(std::size_t i, const Done &done, const char *error);
    /** Returns true when connection @p i is finished. */
    bool advance(Conn &c, short revents);

    std::uint16_t port_;
    std::int64_t timeoutNs_;
    std::vector<Conn> conns_;
};

} // namespace perfbench

#endif // BPSIM_PERFBENCH_LOADGEN_HH
