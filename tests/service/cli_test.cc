/**
 * @file
 * CLI contract tests for the campaign executables: --help exits 0
 * and prints usage, an unknown flag exits nonzero with usage on
 * stderr, and a missing input file names the path in the error.
 * Binary locations arrive via compile definitions resolved from
 * $<TARGET_FILE:...> so the tests track the build layout.
 */

#include <cstdio>

#include <sys/wait.h>

#include <string>

#include <gtest/gtest.h>

namespace
{

struct RunResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr interleaved
};

/** Run @p command with stderr folded into stdout. */
RunResult
run(const std::string &command)
{
    RunResult r;
    FILE *pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        r.output.append(buf, n);
    const int status = ::pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

} // namespace

TEST(CliContract, SweepHelpExitsZeroWithUsage)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SWEEP_BIN) +
                            " --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_sweep"),
              std::string::npos);
    EXPECT_NE(r.output.find("--deterministic"), std::string::npos);
}

TEST(CliContract, SweepUnknownFlagExitsNonzeroWithUsage)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SWEEP_BIN) +
                            " --frobnicate");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("unknown argument \"--frobnicate\""),
              std::string::npos);
    EXPECT_NE(r.output.find("usage: campaign_sweep"),
              std::string::npos);
}

TEST(CliContract, SweepBatchFlagDocumentedAndAccepted)
{
    // --help after a valid --batch value proves the flag parsed
    // without running the (multi-second) sweep itself.
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SWEEP_BIN) +
                            " --batch 8 --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_sweep"),
              std::string::npos);
    EXPECT_NE(r.output.find("--batch N"), std::string::npos);
    EXPECT_NE(r.output.find("bit-identical"), std::string::npos);
}

TEST(CliContract, SweepBatchZeroRejectedWithUsage)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SWEEP_BIN) +
                            " --batch 0");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("--batch needs a positive integer"),
              std::string::npos);
    EXPECT_NE(r.output.find("usage: campaign_sweep"),
              std::string::npos);
}

TEST(CliContract, SweepBatchNonNumericRejectedWithUsage)
{
    for (const char *bad : {"banana", "8x", "-3", ""}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SWEEP_BIN) +
                                " --batch \"" + bad + "\"");
        EXPECT_EQ(r.exitCode, 2) << "--batch " << bad << ": " << r.output;
        EXPECT_NE(r.output.find("usage: campaign_sweep"),
                  std::string::npos)
            << "--batch " << bad;
    }
}

TEST(CliContract, SweepBatchMissingValueRejected)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SWEEP_BIN) +
                            " --batch");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_sweep"),
              std::string::npos);
}

TEST(CliContract, MergeHelpExitsZeroWithUsage)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_MERGE_BIN) +
                            " --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
    EXPECT_NE(r.output.find("campaign_merge merge"), std::string::npos);
}

TEST(CliContract, MergeUnknownFlagExitsNonzero)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_MERGE_BIN) +
                            " merge --frobnicate x.json");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CliContract, MergeMissingInputNamesThePath)
{
    const RunResult r =
        run(std::string(BPSIM_CAMPAIGN_MERGE_BIN) +
            " merge /nonexistent/shard42.json");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("/nonexistent/shard42.json"),
              std::string::npos)
        << r.output;
}

TEST(CliContract, ServerHelpExitsZeroWithUsage)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_server"),
              std::string::npos);
    EXPECT_NE(r.output.find("/v1/whatif"), std::string::npos);
}

TEST(CliContract, ServerUnknownFlagExitsNonzero)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --frobnicate");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("unknown argument"), std::string::npos);
}

TEST(CliContract, ServerHelpDocumentsPersistenceFlags)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("--cache-dir DIR"), std::string::npos);
    // Coalescing is always on; the flag that turned it off is gone.
    EXPECT_EQ(r.output.find("--coalesce"), std::string::npos);
    EXPECT_NE(r.output.find("--ckpt-max-bytes N"), std::string::npos);
}

TEST(CliContract, ServerPersistenceFlagsParseBeforeHelp)
{
    // --help after valid values proves the flags parsed without
    // actually starting a listener.
    for (const char *flags :
         {" --cache-dir /tmp/bpsim-cli-test-unused",
          " --ckpt-max-bytes 1024"}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                flags + " --help");
        EXPECT_EQ(r.exitCode, 0) << flags << ": " << r.output;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << flags;
    }
}

TEST(CliContract, ServerCoalesceRejectsAnythingButOnOrOff)
{
    // The name is the flag's old contract. The flag is gone, so "on"
    // and "off" are refused too, as an unknown argument.
    for (const char *bad :
         {"on", "off", "sometimes", "ON", "1", "true", ""}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                " --coalesce \"" + bad + "\"");
        EXPECT_EQ(r.exitCode, 2) << "--coalesce " << bad << ": "
                                 << r.output;
        EXPECT_NE(r.output.find("unknown argument"), std::string::npos)
            << "--coalesce " << bad;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << "--coalesce " << bad;
    }
}

TEST(CliContract, ServerCacheDirMissingValueRejected)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --cache-dir");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_server"),
              std::string::npos);
}

TEST(CliContract, ServerHelpDocumentsObservabilityFlags)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("--access-log FILE"), std::string::npos);
    EXPECT_NE(r.output.find("--slow-ms N"), std::string::npos);
    EXPECT_NE(r.output.find("--request-trace FILE"), std::string::npos);
    EXPECT_NE(r.output.find("--request-obs on|off"), std::string::npos);
    EXPECT_NE(r.output.find("/v1/status"), std::string::npos);
}

TEST(CliContract, ServerObservabilityFlagsParseBeforeHelp)
{
    for (const char *flags :
         {" --access-log /tmp/bpsim-cli-test-unused.log",
          " --slow-ms 0", " --slow-ms 250", " --request-obs on",
          " --request-obs off",
          " --request-trace /tmp/bpsim-cli-test-unused.json"}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                flags + " --help");
        EXPECT_EQ(r.exitCode, 0) << flags << ": " << r.output;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << flags;
    }
}

TEST(CliContract, ServerSlowMsRejectsBadValues)
{
    for (const char *bad : {"banana", "-5", "2x", ""}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                " --slow-ms \"" + bad + "\"");
        EXPECT_EQ(r.exitCode, 2)
            << "--slow-ms " << bad << ": " << r.output;
        EXPECT_NE(r.output.find("--slow-ms needs a non-negative "
                                "integer"),
                  std::string::npos)
            << "--slow-ms " << bad;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << "--slow-ms " << bad;
    }
}

TEST(CliContract, ServerSlowMsMissingValueRejected)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --slow-ms");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_server"),
              std::string::npos);
}

TEST(CliContract, ServerAccessLogMissingValueRejected)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --access-log");
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find("usage: campaign_server"),
              std::string::npos);
}

TEST(CliContract, ServerRequestObsRejectsAnythingButOnOrOff)
{
    for (const char *bad : {"maybe", "ON", "1", ""}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                " --request-obs \"" + bad + "\"");
        EXPECT_EQ(r.exitCode, 2)
            << "--request-obs " << bad << ": " << r.output;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << "--request-obs " << bad;
    }
}

TEST(CliContract, ServerHelpDocumentsHistoryFlags)
{
    const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                            " --help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("--history on|off"), std::string::npos);
    EXPECT_NE(r.output.find("--history-cadence S"), std::string::npos);
    EXPECT_NE(r.output.find("--history-retention S"),
              std::string::npos);
    EXPECT_NE(r.output.find("/v1/series"), std::string::npos);
    EXPECT_NE(r.output.find("/v1/alerts/history"), std::string::npos);
    EXPECT_NE(r.output.find("/dashboard"), std::string::npos);
}

TEST(CliContract, ServerHistoryFlagsParseBeforeHelp)
{
    for (const char *flags :
         {" --history on", " --history off", " --history-cadence 0.5",
          " --history-retention 120",
          " --history off --history-cadence 2 --history-retention "
          "60"}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                flags + " --help");
        EXPECT_EQ(r.exitCode, 0) << flags << ": " << r.output;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << flags;
    }
}

TEST(CliContract, ServerHistoryRejectsAnythingButOnOrOff)
{
    for (const char *bad : {"yes", "ON", "1", ""}) {
        const RunResult r = run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
                                " --history \"" + bad + "\"");
        EXPECT_EQ(r.exitCode, 2)
            << "--history " << bad << ": " << r.output;
        EXPECT_NE(r.output.find("usage: campaign_server"),
                  std::string::npos)
            << "--history " << bad;
    }
}

TEST(CliContract, ServerHistoryCadenceAndRetentionRejectBadValues)
{
    for (const char *flag : {"--history-cadence",
                             "--history-retention"}) {
        for (const char *bad : {"0", "-1", "nan-ish", "2x", ""}) {
            const RunResult r =
                run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) + " " +
                    flag + " \"" + bad + "\"");
            EXPECT_EQ(r.exitCode, 2)
                << flag << " " << bad << ": " << r.output;
            EXPECT_NE(r.output.find("positive number of seconds"),
                      std::string::npos)
                << flag << " " << bad;
            EXPECT_NE(r.output.find("usage: campaign_server"),
                      std::string::npos)
                << flag << " " << bad;
        }
        // Missing value entirely.
        const RunResult r =
            run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) + " " + flag);
        EXPECT_EQ(r.exitCode, 2) << flag << ": " << r.output;
    }
}

TEST(CliContract, ServerUnwritableAccessLogFailsFast)
{
    const RunResult r =
        run(std::string(BPSIM_CAMPAIGN_SERVER_BIN) +
            " --access-log /nonexistent-dir/access.log --port 0");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("cannot open access log"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("/nonexistent-dir/access.log"),
              std::string::npos)
        << r.output;
}
