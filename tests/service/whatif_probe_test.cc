/**
 * @file
 * The what-if probe: every technique on every Table 3 configuration at
 * 1 and 8 servers, plus one out-of-range value per refused field. Each
 * spec is posted to a fresh CampaignService in a forked child, at most
 * four children at a time, so a spec that aborts the model kills only
 * its child and the failure names the spec. Every spec must be answered
 * (200, the child exits 0) or refused up front with a 400.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/backup_config.hh"
#include "service/service.hh"
#include "service/whatif.hh"
#include "sim/logging.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

constexpr std::size_t kMaxChildren = 4;
/** Child exit codes for the two statuses a spec may get. */
constexpr int kExitAnswered = 0;
constexpr int kExitRefused = 3;
constexpr int kExitOther = 4;

int
postInChild(const std::string &body)
{
    setQuietLogging(true);
    int status = 0;
    {
        CampaignService service;
        HttpRequest req;
        req.method = "POST";
        req.target = "/v1/whatif";
        req.body = body;
        status = service.handle(req).status;
    }
    return status == 200   ? kExitAnswered
           : status == 400 ? kExitRefused
                           : kExitOther;
}

/** Post each body in its own forked child; returns each wait status. */
std::vector<int>
postForked(const std::vector<std::string> &bodies)
{
    std::vector<int> status(bodies.size(), -1);
    std::map<pid_t, std::size_t> alive;
    std::size_t next = 0;
    while (next < bodies.size() || !alive.empty()) {
        if (next < bodies.size() && alive.size() < kMaxChildren) {
            std::fflush(nullptr);
            const pid_t pid = fork();
            if (pid == 0)
                _exit(postInChild(bodies[next]));
            if (pid < 0) {
                ADD_FAILURE() << "fork failed";
                next = bodies.size(); // reap what runs, start no more
                continue;
            }
            alive[pid] = next++;
            continue;
        }
        int ws = 0;
        const pid_t pid = waitpid(-1, &ws, 0);
        if (pid < 0)
            break;
        const auto it = alive.find(pid);
        if (it != alive.end()) {
            status[it->second] = ws;
            alive.erase(it);
        }
    }
    return status;
}

std::string
describe(int ws)
{
    if (ws == -1)
        return "never ran";
    if (WIFSIGNALED(ws))
        return "killed by signal " + std::to_string(WTERMSIG(ws));
    const int code = WEXITSTATUS(ws);
    if (code == kExitAnswered)
        return "answered (200)";
    if (code == kExitRefused)
        return "refused (400)";
    return "exit " + std::to_string(code);
}

bool
exitedWith(int ws, int code)
{
    return ws != -1 && WIFEXITED(ws) && WEXITSTATUS(ws) == code;
}

} // namespace

TEST(WhatIfProbe, EveryTechniqueOnEveryTable3ConfigIsAnswered)
{
    std::vector<std::string> bodies;
    for (const BackupConfigSpec &config : table3Configs()) {
        for (int k = 0; k <= static_cast<int>(TechniqueKind::Adaptive);
             ++k) {
            for (const int servers : {1, 8}) {
                bodies.push_back(
                    "{\"config\":\"" + config.name +
                    "\",\"servers\":" + std::to_string(servers) +
                    ",\"trials\":4,\"seed\":7,\"technique\":{\"kind\":\"" +
                    techniqueKindName(static_cast<TechniqueKind>(k)) +
                    "\"}}");
            }
        }
    }
    ASSERT_EQ(bodies.size(), 9u * 12u * 2u);
    const std::vector<int> status = postForked(bodies);
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        EXPECT_TRUE(exitedWith(status[i], kExitAnswered))
            << bodies[i] << ": " << describe(status[i]);
    }
}

TEST(WhatIfProbe, EveryOutOfRangeFieldIsRefused)
{
    // One spec per field the parser range-checks; each would reach a
    // model assertion if it were accepted.
    const std::vector<std::string> bodies = {
        "{\"config\":\"LargeEUPS\",\"trials\":2,"
        "\"technique\":{\"kind\":\"throttle\",\"pstate\":99}}",
        "{\"config\":\"LargeEUPS\",\"trials\":2,"
        "\"technique\":{\"kind\":\"throttle\",\"pstate\":-3}}",
        "{\"config\":\"LargeEUPS\",\"trials\":2,"
        "\"technique\":{\"kind\":\"migration\",\"host_pstate\":99}}",
        "{\"config\":\"LargeEUPS\",\"trials\":2,"
        "\"technique\":{\"kind\":\"throttle\",\"tstate\":99}}",
        "{\"config\":\"LargeEUPS\",\"trials\":2,"
        "\"technique\":{\"kind\":\"geo_failover\",\"remote_perf\":-1}}",
        "{\"config\":\"LargeEUPS\",\"trials\":2,"
        "\"technique\":{\"kind\":\"adaptive\",\"risk\":-1}}",
        "{\"config\":{\"has_ups\":true,\"ups_power_frac\":0,"
        "\"ups_runtime_sec\":600},\"trials\":2}",
        "{\"config\":{\"has_ups\":true,\"ups_power_frac\":1,"
        "\"ups_runtime_sec\":0},\"trials\":2}",
        "{\"config\":{\"has_dg\":true,\"dg_power_frac\":0},\"trials\":2}",
    };
    const std::vector<int> status = postForked(bodies);
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        EXPECT_TRUE(exitedWith(status[i], kExitRefused))
            << bodies[i] << ": " << describe(status[i]);
    }
}
